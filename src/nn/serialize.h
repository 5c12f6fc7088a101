// Crash-safe binary checkpoint format for model weights.
//
// Archive layout (format version 2; fields encoded with util/bytes.h, the
// one place the byte layout lives):
//
//   u32 magic "HSPT" | u32 version | u32 tensor_count | u32 blob_count
//   tensor_count x { u32 name_len, name, u32 rank, i64 extents[rank],
//                    f32 data[numel] }
//   blob_count   x { u32 name_len, name, u64 byte_count, bytes }
//   u32 crc32 over every preceding byte (IEEE 802.3 / zlib polynomial)
//
// Robustness guarantees:
//   * Every length / count / extent read from disk is validated against hard
//     caps AND the actual file size before any allocation or read — a
//     truncated or bit-flipped file yields a typed error, never an attacker-
//     controlled allocation or an abort.
//   * The CRC footer distinguishes bit rot in payload bytes from genuine
//     data, so a flipped weight bit is kCorrupt, not a silently-wrong model.
//   * Writes are atomic: the archive is written to "<path>.tmp", flushed,
//     fsync'ed, and renamed over the target. A crash (or injected fault, see
//     util/fault_injection.h) at any point leaves the previous file — or no
//     file — fully intact; readers can never observe a torn archive at
//     `path`.
//   * Loading is strict: tensor names, order, and shapes must match the
//     target model, making silent architecture drift impossible. The blob
//     section carries named opaque payloads beside the tensors. Model-only
//     loads skip trailing tensors and blobs (still validated and
//     checksummed), so a deployment can read just the weights out of an
//     archive that carries more.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"
#include "util/atomic_file.h"

namespace hotspot::nn {

// Checkpoint I/O reports through util::IoResult (util/atomic_file.h):
// kMissing = no checkpoint yet, kTruncated/kCorrupt/kBadFormat = damaged,
// kMismatch = tensor names/shapes do not match the target model.
using LoadResult = util::IoResult;
using SaveResult = util::IoResult;

// An opaque named byte payload stored alongside tensors.
struct NamedBlob {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

// Writes tensors + blobs to `path` atomically (tmp + flush + fsync +
// rename).
SaveResult save_archive(const std::string& path,
                        const std::vector<NamedTensor>& tensors,
                        const std::vector<NamedBlob>& blobs);

// Reads an archive into `tensors` (names/order/shapes must match the start
// of the file's tensor section). When `blobs` is non-null this is a
// full-state load: the tensor count must match exactly and the blob
// entries' names declare the expected blob section, whose `bytes` are
// filled. When null this is a model-only load: validated trailing tensors
// (a training snapshot's optimizer moments) and the blob section are
// skipped, but still CRC-verified. On any failure the tensors may be
// partially written — callers must treat the model as unusable unless ok().
LoadResult load_archive(const std::string& path,
                        const std::vector<NamedTensor>& tensors,
                        std::vector<NamedBlob>* blobs);

// Tensor-only convenience wrappers (blob section empty on save, ignored on
// load).
SaveResult save_tensors(const std::string& path,
                        const std::vector<NamedTensor>& tensors);
LoadResult load_tensors(const std::string& path,
                        const std::vector<NamedTensor>& tensors);

// Writes / reads the module's state (collect_state). load_checkpoint also
// accepts archives with trailing tensors and blobs, reading just the model
// tensors.
SaveResult save_checkpoint(const std::string& path, Module& module);
LoadResult load_checkpoint(const std::string& path, Module& module);

}  // namespace hotspot::nn
