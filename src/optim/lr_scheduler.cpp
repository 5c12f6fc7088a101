#include "optim/lr_scheduler.h"

#include <limits>

namespace hotspot::optim {

PlateauDecay::PlateauDecay(NAdam& optimizer)
    : optimizer_(optimizer),
      best_metric_(std::numeric_limits<double>::infinity()) {}

bool PlateauDecay::observe(double validation_metric) {
  if (validation_metric < best_metric_ - kPlateauMinDelta) {
    best_metric_ = validation_metric;
    stall_count_ = 0;
    return false;
  }
  ++stall_count_;
  if (stall_count_ <= kPlateauPatience) {
    return false;
  }
  stall_count_ = 0;
  const float decayed = optimizer_.learning_rate() * kPlateauFactor;
  optimizer_.set_learning_rate(decayed < kPlateauMinLr ? kPlateauMinLr
                                                       : decayed);
  return true;
}

}  // namespace hotspot::optim
