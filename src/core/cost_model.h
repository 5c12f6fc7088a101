// Analytic cost model of a BRNN configuration.
//
// Computes, per binary convolution and for the whole network, the work and
// storage of the two execution strategies:
//   float:  32-bit MACs and 4-byte weights (what a conventional framework
//           executes, and what the DAC'17 baseline pays),
//   packed: the direct conv's XNOR and adder-tree word operations, float
//           ops (the alpha_T-weighted accumulation, alpha maps and
//           scaling), and 1-bit weights.
// This is the arithmetic behind Fig. 1's "32 bit vs 1 bit" contrast,
// independent of any machine: the measured counterpart is
// bench_fig1_binarization_speed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/brnn.h"

namespace hotspot::core {

struct LayerCost {
  std::string name;
  bool main_path = true;  // false for a projection shortcut
  std::int64_t output_positions = 0;  // outH * outW
  std::int64_t float_macs = 0;        // Cout * positions * Cin * k * k
  std::int64_t packed_word_ops = 0;   // XNOR + adder-tree words
  std::int64_t packed_float_ops = 0;  // accumulation, alpha maps, scaling
  std::int64_t float_weight_bytes = 0;
  std::int64_t packed_weight_bytes = 0;
};

struct NetworkCost {
  std::vector<LayerCost> layers;
  std::int64_t float_macs = 0;
  std::int64_t packed_word_ops = 0;
  std::int64_t packed_float_ops = 0;
  std::int64_t float_weight_bytes = 0;
  std::int64_t packed_weight_bytes = 0;

  // MACs per word-op: the ideal arithmetic reduction of binarization
  // (64 binary MACs per packed word op).
  double arithmetic_reduction() const;
  // Weight storage ratio (the Fig. 1 "32 bit float -> 1 bit" axis).
  double storage_reduction() const;
};

// Costs of a single binary convolution at the given input resolution.
LayerCost binary_conv_cost(std::int64_t in_channels, std::int64_t out_channels,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, std::int64_t in_h,
                           std::int64_t in_w, bitops::InputScaling scaling);

// Whole-network cost for a configuration (stem + blocks + shortcuts),
// following the same construction as BrnnModel.
NetworkCost network_cost(const BrnnConfig& config);

}  // namespace hotspot::core
