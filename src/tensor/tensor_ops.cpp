#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace hotspot::tensor {
namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  HOTSPOT_CHECK(a.same_shape(b))
      << op << ": shape mismatch " << shape_to_string(a.shape()) << " vs "
      << shape_to_string(b.shape());
}

// out[i] = op(a[i], b[i]) over raw pointers after one shape check, so the
// loop vectorizes.
template <typename Op>
Tensor binary_elementwise(const Tensor& a, const Tensor& b, const char* name,
                          Op op) {
  check_same_shape(a, b, name);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    po[i] = op(pa[i], pb[i]);
  }
  return out;
}

// out[i] = op(a[i]) over raw pointers.
template <typename Op>
Tensor unary_elementwise(const Tensor& a, Op op) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    po[i] = op(pa[i]);
  }
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, "add",
                            [](float x, float y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, "sub",
                            [](float x, float y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, "mul",
                            [](float x, float y) { return x * y; });
}

Tensor scale(const Tensor& a, float factor) {
  return unary_elementwise(a, [factor](float x) { return x * factor; });
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    pa[i] += pb[i];
  }
}

Tensor abs(const Tensor& a) {
  return unary_elementwise(a, [](float x) { return std::fabs(x); });
}

Tensor sign(const Tensor& a) {
  return unary_elementwise(a,
                           [](float x) { return x >= 0.0f ? 1.0f : -1.0f; });
}

double l1_norm(const Tensor& a) {
  double total = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    total += std::fabs(static_cast<double>(a[i]));
  }
  return total;
}

double l2_norm(const Tensor& a) {
  double total = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const auto v = static_cast<double>(a[i]);
    total += v * v;
  }
  return std::sqrt(total);
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  double worst = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst,
                     std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return worst;
}

bool allclose(const Tensor& a, const Tensor& b, double tolerance) {
  return a.same_shape(b) && max_abs_diff(a, b) <= tolerance;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  HOTSPOT_CHECK_EQ(a.rank(), 2);
  HOTSPOT_CHECK_EQ(b.rank(), 2);
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  HOTSPOT_CHECK_EQ(k, b.dim(0)) << "matmul inner dimensions";
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  // ikj loop order keeps the innermost access contiguous for b and c.
  // Parallel over rows of the output: each row's k-loop runs in its fixed
  // order inside one chunk, so results are bit-identical at any thread
  // count.
  util::parallel_for(0, m, /*grain=*/8, [&](std::int64_t i_lo,
                                            std::int64_t i_hi) {
    for (std::int64_t i = i_lo; i < i_hi; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float aval = pa[i * k + kk];
        if (aval == 0.0f) {
          continue;
        }
        const float* brow = pb + kk * n;
        float* crow = pc + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] += aval * brow[j];
        }
      }
    }
  });
  return out;
}

Tensor transpose2d(const Tensor& a) {
  HOTSPOT_CHECK_EQ(a.rank(), 2);
  const std::int64_t rows = a.dim(0);
  const std::int64_t cols = a.dim(1);
  Tensor out({cols, rows});
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      out.at2(c, r) = a.at2(r, c);
    }
  }
  return out;
}

Tensor swap_leading_axes(const Tensor& a) {
  HOTSPOT_CHECK_EQ(a.rank(), 4);
  const std::int64_t d0 = a.dim(0);
  const std::int64_t d1 = a.dim(1);
  const std::int64_t plane = a.dim(2) * a.dim(3);
  Tensor out({d1, d0, a.dim(2), a.dim(3)});
  for (std::int64_t i = 0; i < d0; ++i) {
    for (std::int64_t j = 0; j < d1; ++j) {
      std::copy_n(a.data() + (i * d1 + j) * plane, plane,
                  out.data() + (j * d0 + i) * plane);
    }
  }
  return out;
}

Tensor channel_mean(const Tensor& nchw) {
  HOTSPOT_CHECK_EQ(nchw.rank(), 4);
  const std::int64_t n = nchw.dim(0);
  const std::int64_t c = nchw.dim(1);
  const std::int64_t hw = nchw.dim(2) * nchw.dim(3);
  Tensor mean({c});
  for (std::int64_t ci = 0; ci < c; ++ci) {
    double total = 0.0;
    for (std::int64_t ni = 0; ni < n; ++ni) {
      const float* plane = nchw.data() + (ni * c + ci) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        total += static_cast<double>(plane[i]);
      }
    }
    mean[ci] = static_cast<float>(total / static_cast<double>(n * hw));
  }
  return mean;
}

Tensor channel_variance(const Tensor& nchw, const Tensor& mean) {
  HOTSPOT_CHECK_EQ(nchw.rank(), 4);
  HOTSPOT_CHECK_EQ(mean.rank(), 1);
  HOTSPOT_CHECK_EQ(mean.dim(0), nchw.dim(1));
  const std::int64_t n = nchw.dim(0);
  const std::int64_t c = nchw.dim(1);
  const std::int64_t hw = nchw.dim(2) * nchw.dim(3);
  Tensor var({c});
  for (std::int64_t ci = 0; ci < c; ++ci) {
    const double mu = static_cast<double>(mean[ci]);
    double total = 0.0;
    for (std::int64_t ni = 0; ni < n; ++ni) {
      const float* plane = nchw.data() + (ni * c + ci) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        const double d = static_cast<double>(plane[i]) - mu;
        total += d * d;
      }
    }
    var[ci] = static_cast<float>(total / static_cast<double>(n * hw));
  }
  return var;
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  HOTSPOT_CHECK_EQ(logits.rank(), 2);
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.dim(1);
  HOTSPOT_CHECK_GT(cols, 0);
  std::vector<std::int64_t> result(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (logits.at2(r, c) > logits.at2(r, best)) {
        best = c;
      }
    }
    result[static_cast<std::size_t>(r)] = best;
  }
  return result;
}

Tensor softmax_rows(const Tensor& logits) {
  HOTSPOT_CHECK_EQ(logits.rank(), 2);
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    float row_max = logits.at2(r, 0);
    for (std::int64_t c = 1; c < cols; ++c) {
      row_max = std::max(row_max, logits.at2(r, c));
    }
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const double e = std::exp(static_cast<double>(logits.at2(r, c) - row_max));
      out.at2(r, c) = static_cast<float>(e);
      denom += e;
    }
    for (std::int64_t c = 0; c < cols; ++c) {
      out.at2(r, c) = static_cast<float>(static_cast<double>(out.at2(r, c)) / denom);
    }
  }
  return out;
}

double softmax_cross_entropy(const Tensor& logits, const Tensor& targets,
                             Tensor* grad) {
  HOTSPOT_CHECK(logits.same_shape(targets))
      << "cross entropy needs matching shapes";
  HOTSPOT_CHECK_EQ(logits.rank(), 2);
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.dim(1);
  HOTSPOT_CHECK_GT(rows, 0);
  const Tensor probs = softmax_rows(logits);
  double loss = 0.0;
  constexpr double kEps = 1e-12;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const double t = static_cast<double>(targets.at2(r, c));
      if (t != 0.0) {
        loss -= t * std::log(static_cast<double>(probs.at2(r, c)) + kEps);
      }
    }
  }
  loss /= static_cast<double>(rows);
  if (grad != nullptr) {
    *grad = Tensor(logits.shape());
    const float inv_rows = 1.0f / static_cast<float>(rows);
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        grad->at2(r, c) = (probs.at2(r, c) - targets.at2(r, c)) * inv_rows;
      }
    }
  }
  return loss;
}

}  // namespace hotspot::tensor
