// Learning-rate schedules.
//
// The paper (Sec. 3.4.2, following Inception-v3 practice) decays the rate
// exponentially each time the validation loss plateaus after an epoch;
// PlateauDecay implements exactly that.
#pragma once

#include "optim/optimizer.h"

namespace hotspot::optim {

// Multiplies the LR by `factor` whenever the monitored metric has not
// improved by at least `min_delta` for `patience` consecutive epochs.
class PlateauDecay {
 public:
  PlateauDecay(Optimizer& optimizer, float factor, int patience,
               double min_delta = 1e-4, float min_lr = 1e-6f);

  // Reports one epoch's validation metric (lower is better). Returns true
  // when a decay was applied this call.
  bool observe(double validation_metric);

  int epochs_since_improvement() const { return stall_count_; }
  double best_metric() const { return best_metric_; }

 private:
  Optimizer& optimizer_;
  float factor_;
  int patience_;
  double min_delta_;
  float min_lr_;
  double best_metric_;
  int stall_count_ = 0;
};

}  // namespace hotspot::optim
