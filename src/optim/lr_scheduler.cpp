#include "optim/lr_scheduler.h"

#include <limits>

#include "util/check.h"

namespace hotspot::optim {

PlateauDecay::PlateauDecay(Optimizer& optimizer, float factor, int patience,
                           double min_delta, float min_lr)
    : optimizer_(optimizer),
      factor_(factor),
      patience_(patience),
      min_delta_(min_delta),
      min_lr_(min_lr),
      best_metric_(std::numeric_limits<double>::infinity()) {
  HOTSPOT_CHECK(factor > 0.0f && factor < 1.0f) << "factor=" << factor;
  HOTSPOT_CHECK_GE(patience, 0);
}

bool PlateauDecay::observe(double validation_metric) {
  if (validation_metric < best_metric_ - min_delta_) {
    best_metric_ = validation_metric;
    stall_count_ = 0;
    return false;
  }
  ++stall_count_;
  if (stall_count_ <= patience_) {
    return false;
  }
  stall_count_ = 0;
  const float decayed = optimizer_.learning_rate() * factor_;
  optimizer_.set_learning_rate(decayed < min_lr_ ? min_lr_ : decayed);
  return true;
}

}  // namespace hotspot::optim
