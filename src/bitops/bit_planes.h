// Bit-packed signs of activations, with the sign rule bit = (v >= 0) of
// tensor::sign (sign(0) = +1; NaN -> 0).
//
// SignStreams is what the inference plan's direct binary conv
// (core/packed_conv.h) reads: the sign bits of a channel-major activation
// [C, N, H, W] laid out in the conv's own lane order, so each tap word of
// a 64-lane output word is one shift-and-mask of a stream (DESIGN.md §14).
// bitops::conv_input (scaling.h) writes them from the batch-norm output a
// few whole samples at a time, without materializing the BN tensor.
//
// BitPlanes holds one bitmap row per (n*C + c, y) of an NCHW tensor; only
// the channel-blocked patch packer of xnor_gemm.h reads it.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace hotspot::bitops {

// True for the convs the sign streams and the direct conv serve: "same"
// convs with an odd square kernel, pad = kernel / 2 and stride 1 or 2.
inline bool is_same_conv(const tensor::ConvSpec& spec) {
  return spec.kernel_h == spec.kernel_w && spec.kernel_h % 2 == 1 &&
         spec.pad == spec.kernel_h / 2 &&
         (spec.stride == 1 || spec.stride == 2);
}

// The sign bits of a channel-major activation [C, N, H, W] for one "same"
// conv, as one bit stream per (channel, stride phase) on the conv's output
// grid of outH x outW = ceil(H / stride) x ceil(W / stride) positions.
// Lane n*outH*outW + oy*outW + ox of the stream of phase (py, px) holds the
// sign of input (c, n, stride*oy + py, stride*ox + px); stride 1 has the one
// phase (0, 0), stride 2 the four phases py*2 + px, except that a 1x1
// stride-2 conv reads only phase (0, 0), so its layout stores only that
// one. Samples follow each other with no padding, so a lane word spans
// samples when a plane has fewer than 64 positions. Lanes whose input lies
// outside the image (the last row or column of an odd-sized plane's odd
// phases) and the lanes past N*outH*outW are 0, and each stream has zero
// guard words on both sides, so a tap of the conv's kernel read at any lane
// word stays inside its stream.
class SignStreams {
 public:
  SignStreams() = default;

  // All-zero streams for `channels` x `batch` planes of height x width,
  // laid out for `spec` (is_same_conv); set_samples fills them.
  SignStreams(std::int64_t channels, std::int64_t batch, std::int64_t height,
              std::int64_t width, const tensor::ConvSpec& spec);

  // The same layout over `storage_words(...)` words of caller storage,
  // which must outlive the streams: only the guard words are zeroed, so
  // set_samples must then store every sample before a conv reads them.
  SignStreams(std::int64_t channels, std::int64_t batch, std::int64_t height,
              std::int64_t width, const tensor::ConvSpec& spec,
              std::uint64_t* storage);
  static std::int64_t storage_words(std::int64_t channels,
                                    std::int64_t batch, std::int64_t height,
                                    std::int64_t width,
                                    const tensor::ConvSpec& spec);

  SignStreams(SignStreams&&) = default;
  SignStreams& operator=(SignStreams&&) = default;

  // Stores the signs of samples [n0, n0 + count) of channel c. `values`
  // holds one block per stored phase, phase after phase, each the phase's
  // count * outH * outW lanes in lane order: the input at (stride*oy + py,
  // stride*ox + px) of each sample, or, where that lies outside the image,
  // a value whose sign bit is 0 (negative or NaN). n0 must be a multiple
  // of sample_group(), and n0 + count one too or the batch, so the samples
  // own whole lane words: each word is stored once, with no
  // read-modify-write, and calls on distinct samples may run concurrently.
  void set_samples(std::int64_t c, std::int64_t n0, std::int64_t count,
                   const float* values);

  std::int64_t channels() const { return c_; }
  std::int64_t batch() const { return n_; }
  std::int64_t height() const { return h_; }
  std::int64_t width() const { return w_; }
  // The layout's conv: stride and pad (kernel = 2 * pad + 1).
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }
  std::int64_t phases() const { return phases_; }
  std::int64_t out_height() const { return out_h_; }
  std::int64_t out_width() const { return out_w_; }
  // N * outH * outW, and the 64-lane words that hold them.
  std::int64_t lanes() const { return n_ * out_h_ * out_w_; }
  std::int64_t words() const { return words_; }
  // The fewest consecutive samples whose lanes fill whole words:
  // 64 / gcd(outH * outW, 64).
  std::int64_t sample_group() const { return sample_group_; }

  // Words from stream (c, phase) to stream (c + 1, phase).
  std::int64_t channel_words() const { return phases() * stream_words_; }
  // Lane word 0 of stream (c, phase); the guard words precede it and
  // follow the last lane word.
  const std::uint64_t* stream(std::int64_t c, std::int64_t phase) const {
    return data_ + c * channel_words() + phase * stream_words_ + guard_;
  }
  // Every stored word, guards included, stream after stream, of streams
  // that own their storage.
  const std::vector<std::uint64_t>& storage() const {
    HOTSPOT_CHECK(data_ == owned_.data()) << "streams over caller storage";
    return owned_;
  }

 private:
  void layout(const tensor::ConvSpec& spec);
  std::uint64_t* stream(std::int64_t c, std::int64_t phase) {
    return data_ + c * channel_words() + phase * stream_words_ + guard_;
  }

  std::int64_t c_ = 0, n_ = 0, h_ = 0, w_ = 0, stride_ = 1, pad_ = 0;
  std::int64_t phases_ = 1;
  std::int64_t out_h_ = 0, out_w_ = 0, words_ = 0, guard_ = 0;
  std::int64_t stream_words_ = 0, sample_group_ = 1;
  std::vector<std::uint64_t> owned_;
  // owned_.data() or the caller's storage; a move keeps owned_'s buffer.
  std::uint64_t* data_ = nullptr;
};

class BitPlanes {
 public:
  // bit = (v >= 0) for every element of the rank-4 `input`; bits at
  // x >= W are zero.
  explicit BitPlanes(const tensor::Tensor& input);

  std::int64_t batch() const { return n_; }
  std::int64_t channels() const { return c_; }
  std::int64_t height() const { return h_; }
  std::int64_t width() const { return w_; }

  // Bitmap row y of plane (n*channels + c); caller guarantees bounds.
  const std::uint64_t* row(std::int64_t plane, std::int64_t y) const {
    return words_.data() + (plane * h_ + y) * row_words_;
  }

  // kw bits of bitmap row `bm` starting at column ix0 (bit i = column
  // ix0 + i); columns outside [0, w) read as zero (padding is -1 -> bit 0).
  // Requires -64 < ix0 < w (the conv window overlaps the image, pad < 64).
  std::uint64_t window_bits(const std::uint64_t* bm, std::int64_t ix0,
                            std::int64_t kw) const {
    std::uint64_t v;
    if (ix0 >= 0) {
      const std::int64_t wi = ix0 >> 6;
      const int off = static_cast<int>(ix0 & 63);
      v = bm[wi] >> off;
      if (off != 0 && wi + 1 < row_words_) {
        v |= bm[wi + 1] << (64 - off);
      }
    } else {
      v = bm[0] << -ix0;  // low -ix0 bits are left-padding zeros
    }
    return kw < 64 ? v & ((std::uint64_t{1} << kw) - 1) : v;
  }

 private:
  std::int64_t n_ = 0;
  std::int64_t c_ = 0;
  std::int64_t h_ = 0;
  std::int64_t w_ = 0;
  std::int64_t row_words_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hotspot::bitops
