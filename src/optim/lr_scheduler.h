// Learning-rate schedules.
//
// The paper (Sec. 3.4.2, following Inception-v3 practice) decays the rate
// exponentially each time the validation loss plateaus after an epoch;
// PlateauDecay implements exactly that.
#pragma once

#include "optim/nadam.h"

namespace hotspot::optim {

// Multiplies the LR by kPlateauFactor whenever the monitored metric has not
// improved by at least kPlateauMinDelta for more than kPlateauPatience
// consecutive epochs, never going below kPlateauMinLr.
inline constexpr float kPlateauFactor = 0.5f;
inline constexpr int kPlateauPatience = 5;
inline constexpr double kPlateauMinDelta = 1e-4;
inline constexpr float kPlateauMinLr = 1e-6f;

class PlateauDecay {
 public:
  explicit PlateauDecay(NAdam& optimizer);

  // Reports one epoch's validation metric (lower is better). Returns true
  // when a decay was applied this call.
  bool observe(double validation_metric);

 private:
  NAdam& optimizer_;
  double best_metric_;
  int stall_count_ = 0;
};

}  // namespace hotspot::optim
