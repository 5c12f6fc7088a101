// Helpers shared by the test binaries.
//
// ctest runs every gtest case as its own process, several at once, and two
// build trees may share one TempDir(): a fixed file name under TempDir() is
// a race between processes, so files go to test_path() instead.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "bitops/bit_matrix.h"
#include "bitops/bit_planes.h"
#include "bitops/kernels/xnor_kernel.h"
#include "core/packed_conv.h"
#include "tensor/conv.h"
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

// The +/-1 inner product of two packed rows of `bits` valid bits over
// `words` words: bits - 2 * popcount(a XOR b), counted in plain loops. The
// zero tail bits BitMatrix guarantees cancel.
inline std::int64_t packed_dot(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t words, std::int64_t bits) {
  std::int64_t mismatches = 0;
  for (std::int64_t w = 0; w < words; ++w) {
    mismatches += std::popcount(a[w] ^ b[w]);
  }
  return bits - 2 * mismatches;
}

// packed_dot of every row pair of two packed matrices with equal column
// counts: [a.rows(), b.rows()].
inline tensor::Tensor packed_sign_product(const bitops::BitMatrix& a,
                                          const bitops::BitMatrix& b) {
  EXPECT_EQ(a.cols(), b.cols());
  tensor::Tensor out({a.rows(), b.rows()});
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.rows(); ++j) {
      out.at2(i, j) = static_cast<float>(
          packed_dot(a.row(i), b.row(j), a.words_per_row(), a.cols()));
    }
  }
  return out;
}

// The integer +/-1 counts of the binary conv of sign(x) with sign(w)
// (padding -1), [N, Cout, outH, outW]: the direct conv under `kernel` with
// unit alpha_T and alpha_W = 1.
inline tensor::Tensor direct_conv_counts(const bitops::XnorKernel& kernel,
                                         const tensor::Tensor& x,
                                         const tensor::Tensor& w,
                                         const tensor::ConvSpec& spec) {
  const bitops::BitPlanes planes(
      x, spec.stride == 2 ? bitops::BitLayout::kColumnParity
                          : bitops::BitLayout::kRows);
  tensor::Tensor counts(
      {x.dim(0), w.dim(0),
       tensor::conv_out_extent(x.dim(2), spec.kernel_h, spec.stride, spec.pad),
       tensor::conv_out_extent(x.dim(3), spec.kernel_w, spec.stride,
                               spec.pad)});
  core::direct_conv(kernel, planes, spec, core::pack_direct_filters(w),
                    nullptr, tensor::Tensor({w.dim(0)}, 1.0f), nullptr,
                    counts);
  return counts;
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
