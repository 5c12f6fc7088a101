#include "optim/lr_scheduler.h"

#include <gtest/gtest.h>

#include "optim/nadam.h"

namespace hotspot::optim {
namespace {

nn::Parameter make_param() {
  return nn::Parameter("p", tensor::Tensor({2}));
}

TEST(PlateauDecay, DecaysAfterPatienceExceeded) {
  auto param = make_param();
  NAdam optimizer({&param}, 1.0f);
  PlateauDecay scheduler(optimizer);
  EXPECT_FALSE(scheduler.observe(1.0));  // new best
  for (int stall = 1; stall <= kPlateauPatience; ++stall) {
    EXPECT_FALSE(scheduler.observe(1.0)) << "stall " << stall;
  }
  EXPECT_TRUE(scheduler.observe(1.0));  // one stall past patience -> decay
  EXPECT_EQ(optimizer.learning_rate(), kPlateauFactor);
}

TEST(PlateauDecay, ImprovementResetsStall) {
  auto param = make_param();
  NAdam optimizer({&param}, 1.0f);
  PlateauDecay scheduler(optimizer);
  scheduler.observe(1.0);
  for (int stall = 1; stall <= kPlateauPatience; ++stall) {
    scheduler.observe(1.0);
  }
  // One stall short of a decay, an improvement restarts the count: a full
  // patience of stalls after it still does not decay.
  EXPECT_FALSE(scheduler.observe(0.5));
  for (int stall = 1; stall <= kPlateauPatience; ++stall) {
    EXPECT_FALSE(scheduler.observe(0.5)) << "stall " << stall;
  }
  EXPECT_EQ(optimizer.learning_rate(), 1.0f);
  EXPECT_TRUE(scheduler.observe(0.5));
}

TEST(PlateauDecay, RespectsMinimumLr) {
  auto param = make_param();
  // Four decays take 1e-5 to 6.25e-7, below the floor.
  NAdam optimizer({&param}, 1e-5f);
  PlateauDecay scheduler(optimizer);
  scheduler.observe(1.0);
  int decays = 0;
  for (int epoch = 0; epoch < 10 * (kPlateauPatience + 1); ++epoch) {
    decays += scheduler.observe(1.0) ? 1 : 0;
  }
  EXPECT_EQ(decays, 10);
  EXPECT_EQ(optimizer.learning_rate(), kPlateauMinLr);
}

TEST(PlateauDecay, MinDeltaFiltersNoise) {
  auto param = make_param();
  NAdam optimizer({&param}, 1.0f);
  PlateauDecay scheduler(optimizer);
  scheduler.observe(1.0);
  // Within kPlateauMinDelta of the best, a lower metric is still a stall,
  // so the patience runs out as on a flat metric.
  const double noisy = 1.0 - kPlateauMinDelta / 2.0;
  for (int stall = 1; stall <= kPlateauPatience; ++stall) {
    EXPECT_FALSE(scheduler.observe(noisy)) << "stall " << stall;
  }
  EXPECT_TRUE(scheduler.observe(noisy));
  // Improvements of twice kPlateauMinDelta count: no decay however long.
  double metric = noisy;
  for (int epoch = 0; epoch < 3 * (kPlateauPatience + 1); ++epoch) {
    metric -= 2.0 * kPlateauMinDelta;
    EXPECT_FALSE(scheduler.observe(metric)) << "epoch " << epoch;
  }
  EXPECT_EQ(optimizer.learning_rate(), kPlateauFactor);
}

}  // namespace
}  // namespace hotspot::optim
