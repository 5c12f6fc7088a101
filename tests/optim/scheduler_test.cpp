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
  PlateauDecay scheduler(optimizer, 0.5f, /*patience=*/2);
  EXPECT_FALSE(scheduler.observe(1.0));   // new best
  EXPECT_FALSE(scheduler.observe(1.0));   // stall 1
  EXPECT_FALSE(scheduler.observe(1.0));   // stall 2 == patience
  EXPECT_TRUE(scheduler.observe(1.0));    // stall 3 > patience -> decay
  EXPECT_FLOAT_EQ(optimizer.learning_rate(), 0.5f);
}

TEST(PlateauDecay, ImprovementResetsStall) {
  auto param = make_param();
  NAdam optimizer({&param}, 1.0f);
  PlateauDecay scheduler(optimizer, 0.5f, 1);
  scheduler.observe(1.0);
  scheduler.observe(1.0);  // stall 1
  scheduler.observe(0.5);  // improvement resets
  EXPECT_EQ(scheduler.epochs_since_improvement(), 0);
  scheduler.observe(0.5);  // stall 1 again
  EXPECT_FLOAT_EQ(optimizer.learning_rate(), 1.0f);  // no decay yet
}

TEST(PlateauDecay, RespectsMinimumLr) {
  auto param = make_param();
  NAdam optimizer({&param}, 1.0f);
  PlateauDecay scheduler(optimizer, 0.1f, 0, 1e-4, /*min_lr=*/0.05f);
  scheduler.observe(1.0);
  for (int i = 0; i < 10; ++i) {
    scheduler.observe(1.0);
  }
  EXPECT_GE(optimizer.learning_rate(), 0.05f);
}

TEST(PlateauDecay, MinDeltaFiltersNoise) {
  auto param = make_param();
  NAdam optimizer({&param}, 1.0f);
  PlateauDecay scheduler(optimizer, 0.5f, 0, /*min_delta=*/0.1);
  scheduler.observe(1.0);
  // 0.95 improves by less than min_delta: counts as a stall -> decay.
  EXPECT_TRUE(scheduler.observe(0.95));
}

}  // namespace
}  // namespace hotspot::optim
