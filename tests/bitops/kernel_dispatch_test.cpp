// Runtime dispatch rules (kernels/dispatch.cpp): strict HOTSPOT_SIMD
// validation (garbage exits 2, never a silent fallback), auto selection,
// and end-to-end equality between forced-scalar and the auto kernel on a
// real packed-inference model.
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "bitops/kernels/xnor_kernel.h"
#include "core/brnn.h"
#include "support/test_support.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace hotspot::bitops {
namespace {

// Scoped HOTSPOT_SIMD value; restores the prior state on exit.
class SimdEnvGuard {
 public:
  explicit SimdEnvGuard(const char* value) {
    const char* current = std::getenv("HOTSPOT_SIMD");
    had_previous_ = current != nullptr;
    if (had_previous_) {
      previous_ = current;
    }
    if (value != nullptr) {
      setenv("HOTSPOT_SIMD", value, 1);
    } else {
      unsetenv("HOTSPOT_SIMD");
    }
  }
  ~SimdEnvGuard() {
    if (had_previous_) {
      setenv("HOTSPOT_SIMD", previous_.c_str(), 1);
    } else {
      unsetenv("HOTSPOT_SIMD");
    }
  }

 private:
  bool had_previous_ = false;
  std::string previous_;
};

TEST(KernelDispatch, CompiledListStartsWithScalar) {
  const auto& kernels = compiled_xnor_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front()->name, "scalar");
  // Ordered narrow to wide so "auto" can pick the last supported entry.
  for (std::size_t i = 1; i < kernels.size(); ++i) {
    EXPECT_GT(kernels[i]->simd_bits, kernels[i - 1]->simd_bits);
  }
  EXPECT_TRUE(xnor_kernel_cpu_supported(*kernels.front()));
}

TEST(KernelDispatch, ResolveAutoPicksWidestSupported) {
  std::string error;
  const XnorKernel* resolved = resolve_xnor_kernel("auto", error);
  ASSERT_NE(resolved, nullptr) << error;
  ASSERT_TRUE(xnor_kernel_cpu_supported(*resolved));
  for (const XnorKernel* kernel : compiled_xnor_kernels()) {
    if (xnor_kernel_cpu_supported(*kernel)) {
      EXPECT_LE(kernel->simd_bits, resolved->simd_bits) << kernel->name;
    }
  }
  // nullptr and "" mean auto as well.
  EXPECT_EQ(resolve_xnor_kernel(nullptr, error), resolved);
  EXPECT_EQ(resolve_xnor_kernel("", error), resolved);
}

TEST(KernelDispatch, ResolveRejectsGarbageWithMessage) {
  std::string error;
  EXPECT_EQ(resolve_xnor_kernel("sse9", error), nullptr);
  EXPECT_NE(error.find("unknown value 'sse9'"), std::string::npos) << error;
  // Case-sensitive on purpose: "AVX2" is garbage, not a fallback.
  error.clear();
  EXPECT_EQ(resolve_xnor_kernel("AVX2", error), nullptr);
  EXPECT_NE(error.find("unknown value"), std::string::npos) << error;
}

TEST(KernelDispatch, ResolveScalarAlwaysWorks) {
  std::string error;
  const XnorKernel* resolved = resolve_xnor_kernel("scalar", error);
  ASSERT_NE(resolved, nullptr) << error;
  EXPECT_STREQ(resolved->name, "scalar");
  EXPECT_EQ(resolved, &xnor_kernel_scalar());
}

TEST(KernelDispatch, FindIsExactMatchOnly) {
  EXPECT_EQ(find_xnor_kernel("scalar"), &xnor_kernel_scalar());
  EXPECT_EQ(find_xnor_kernel("scala"), nullptr);
  EXPECT_EQ(find_xnor_kernel(nullptr), nullptr);
}

using KernelDispatchDeathTest = ::testing::Test;

TEST(KernelDispatchDeathTest, GarbageEnvExitsWithCode2) {
  SimdEnvGuard env("avx9000");
  EXPECT_EXIT(detail::resolve_active_from_env_for_test(),
              ::testing::ExitedWithCode(2), "HOTSPOT_SIMD=avx9000");
}

TEST(KernelDispatchDeathTest, EmptyEnvIsAutoNotAnError) {
  SimdEnvGuard env("");
  const XnorKernel& resolved = detail::resolve_active_from_env_for_test();
  EXPECT_TRUE(xnor_kernel_cpu_supported(resolved));
}

TEST(KernelDispatch, ForcedScalarEqualsAutoOnPackedModel) {
  test_support::KernelGuard guard;
  std::string error;
  const XnorKernel* auto_kernel = resolve_xnor_kernel("auto", error);
  ASSERT_NE(auto_kernel, nullptr) << error;

  const core::BrnnConfig config = core::BrnnConfig::compact(32);
  util::Rng rng(17);
  core::BrnnModel model(config, rng);
  model.set_training(false);
  model.set_backend(core::Backend::kPacked);

  util::Rng data_rng(18);
  tensor::Tensor batch({4, 1, config.image_size, config.image_size});
  for (std::int64_t i = 0; i < batch.numel(); ++i) {
    batch[i] = static_cast<float>(data_rng.uniform(-1.0, 1.0));
  }

  set_active_xnor_kernel(xnor_kernel_scalar());
  const tensor::Tensor scalar_logits = model.forward(batch);
  set_active_xnor_kernel(*auto_kernel);
  const tensor::Tensor auto_logits = model.forward(batch);

  // Bit-identical logits: the whole packed path is exact across kernels.
  test_support::expect_bit_identical(auto_logits, scalar_logits,
                                     std::string("auto ") + auto_kernel->name);
}

}  // namespace
}  // namespace hotspot::bitops
