#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "nn/batchnorm_layer.h"
#include "nn/linear_layer.h"
#include "nn/sequential.h"
#include "support/test_support.h"
#include "tensor/tensor_ops.h"

namespace hotspot::nn {
namespace {

using test_support::test_path;

Sequential make_net(std::uint64_t seed) {
  util::Rng rng(seed);
  Sequential net;
  net.emplace<Linear>(4, 3, rng);
  net.emplace<BatchNorm2d>(3);
  return net;
}

TEST(Serialize, RoundTripRestoresParameters) {
  Sequential net = make_net(1);
  const std::string path = test_path("roundtrip.bin");
  ASSERT_TRUE(save_checkpoint(path, net));

  Sequential other = make_net(2);  // different init
  ASSERT_TRUE(load_checkpoint(path, other));

  std::vector<NamedTensor> a, b;
  net.collect_state("", a);
  other.collect_state("", b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_TRUE(tensor::allclose(*a[i].value, *b[i].value, 0.0))
        << a[i].name;
  }
}

TEST(Serialize, IncludesBatchNormRunningStats) {
  Sequential net = make_net(3);
  std::vector<NamedTensor> state;
  net.collect_state("", state);
  bool has_running_mean = false;
  for (const auto& entry : state) {
    has_running_mean |= entry.name.find("running_mean") != std::string::npos;
  }
  EXPECT_TRUE(has_running_mean);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Sequential net = make_net(4);
  const std::string path = test_path("mismatch.bin");
  ASSERT_TRUE(save_checkpoint(path, net));

  util::Rng rng(5);
  Sequential bigger;
  bigger.emplace<Linear>(4, 5, rng);  // different shape
  bigger.emplace<BatchNorm2d>(5);
  EXPECT_FALSE(load_checkpoint(path, bigger));
}

TEST(Serialize, MissingFileFailsGracefully) {
  Sequential net = make_net(6);
  EXPECT_FALSE(load_checkpoint(test_path("does-not-exist.bin"), net));
}

TEST(Serialize, CorruptMagicRejected) {
  const std::string path = test_path("corrupt.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage-not-a-checkpoint", f);
    std::fclose(f);
  }
  Sequential net = make_net(7);
  EXPECT_FALSE(load_checkpoint(path, net));
}

}  // namespace
}  // namespace hotspot::nn
