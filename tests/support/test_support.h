// Helpers shared by the test binaries.
//
// ctest runs every gtest case as its own process, several at once, and two
// build trees may share one TempDir(): a fixed file name under TempDir() is
// a race between processes, so files go to test_path() instead.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "bitops/kernels/xnor_kernel.h"
#include "tensor/tensor.h"
#include "util/parallel.h"

namespace hotspot::test_support {

namespace detail {

// Scratch directories this process created: removed at exit when every test
// passed (a failing test keeps its files); a forked death-test child never
// removes its parent's.
struct ScratchDirs {
  ~ScratchDirs() {
    if (::getpid() == owner && !::testing::UnitTest::GetInstance()->Failed()) {
      for (const std::string& dir : dirs) {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
      }
    }
  }
  const pid_t owner = ::getpid();
  std::vector<std::string> dirs;
};

}  // namespace detail

// <TempDir>/hotspot-<pid>-<Suite>.<Test>/ for the running test (slashes of
// parameterized names become '_'), created on first use. Outside a test
// body the directory is <TempDir>/hotspot-<pid>/.
inline std::string test_dir() {
  std::string name = "hotspot-" + std::to_string(::getpid());
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("-") + info->test_suite_name() + "." + info->name();
  }
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string dir = ::testing::TempDir() + name + "/";  // ends in '/'
  static detail::ScratchDirs created;
  if (std::filesystem::create_directories(dir)) {
    created.dirs.push_back(dir);
  }
  return dir;
}

// A file named `name` in this test's scratch directory.
inline std::string test_path(const std::string& name) {
  return test_dir() + name;
}

// Restores the dispatched XNOR kernel on scope exit.
class KernelGuard {
 public:
  KernelGuard() : saved_(&bitops::active_xnor_kernel()) {}
  ~KernelGuard() { bitops::set_active_xnor_kernel(*saved_); }

 private:
  const bitops::XnorKernel* saved_;
};

// Every compiled kernel the running CPU can execute, scalar first.
inline std::vector<const bitops::XnorKernel*> runnable_kernels() {
  std::vector<const bitops::XnorKernel*> out;
  for (const bitops::XnorKernel* kernel : bitops::compiled_xnor_kernels()) {
    if (bitops::xnor_kernel_cpu_supported(*kernel)) {
      out.push_back(kernel);
    }
  }
  return out;
}

// Restores the util::parallel pool width on scope exit.
class ThreadsGuard {
 public:
  ThreadsGuard() : saved_(util::parallel_threads()) {}
  ~ThreadsGuard() { util::set_parallel_threads(saved_); }

 private:
  int saved_;
};

// Exact equality of the float bit patterns (so NaN compares, and +0 differs
// from -0), reported at the first diverging element.
inline void expect_bit_identical(const tensor::Tensor& got,
                                 const tensor::Tensor& want,
                                 const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)), 0)
        << context << " diverges at flat index " << i << ": " << got[i]
        << " vs " << want[i];
  }
}

}  // namespace hotspot::test_support
