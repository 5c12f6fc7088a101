// Atomic file publication: write to "<path>.tmp", then finalize() flushes,
// fsyncs, and renames over the target in one step. A crash — or an injected
// fault, see util/fault_injection.h — at any point before the rename leaves
// the previous file (or no file) fully intact; readers can never observe a
// torn write at `path`.
//
// This is the tmp+fsync+rename machinery the HSPT checkpoint writer
// (nn/serialize) introduced, factored out so the serve state file, the
// flight-recorder dump and any future durable artifact share one audited
// implementation. It moves bytes only: each format encodes its fields with
// util::ByteWriter (util/bytes.h). The writer keeps a running CRC-32 of
// every byte written, so a caller that streams its file in pieces can
// append an integrity footer without hashing twice.
//
// Fault points are parameterized: each writer instance probes its own
// write/flush/rename points, so checkpoint tests and scan-journal chaos
// tests can injure their own subsystem without tripping the other.
//
// IoStatus / IoResult are the one failure vocabulary of every durable
// format: the HSPT checkpoint (nn/serialize) and the HSJL scan journal
// (scan/journal) both report through them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "util/crc32.h"
#include "util/fault_injection.h"

namespace hotspot::util {

// Why a file operation failed; lets callers distinguish "no file yet" from
// "file damaged" from "file belongs to something else".
enum class IoStatus {
  kOk = 0,
  kMissing,      // file does not exist / cannot be opened
  kTruncated,    // file ends before the data it declares
  kCorrupt,      // CRC mismatch, implausible field, or trailing bytes
  kBadFormat,    // wrong magic / unsupported version
  kMismatch,     // contents do not match the target (tensor names/shapes,
                 // chip or scan config)
  kWriteFailed,  // write, flush, fsync or rename failed (or was injected)
};

const char* io_status_name(IoStatus status);

// Typed result of a file operation. Converts to bool (true = success).
struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::string message;  // human-readable detail for logs / CLI errors

  bool ok() const { return status == IoStatus::kOk; }
  explicit operator bool() const { return ok(); }

  static IoResult success() { return {}; }
  static IoResult failure(IoStatus status, std::string message) {
    return {status, std::move(message)};
  }
};

class AtomicFileWriter {
 public:
  // The failure points this writer probes (see fault_injection.h).
  struct FaultPoints {
    FaultPoint write;
    FaultPoint flush;
    FaultPoint rename;
  };

  // Opens "<path>.tmp" for writing; ok() reports whether that worked.
  AtomicFileWriter(std::string path, FaultPoints points);

  // Any exit before a successful finalize() removes the temp file and
  // leaves `path` untouched.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  bool ok() const { return file_ != nullptr && error_.empty(); }
  // Human-readable description of the first failure ("<path>: detail").
  const std::string& error() const { return error_; }

  // Appends bytes; returns false (and latches error()) on failure. An
  // injected write fault lands half the chunk, the way a real torn write
  // would.
  bool write(const void* data, std::size_t size);

  // CRC-32 of everything written so far (for integrity footers).
  std::uint32_t crc() const { return crc_.value(); }

  // Flush + fsync + atomic rename onto `path`. Returns false (and latches
  // error()) on failure; the temp file is removed either way.
  bool finalize();

 private:
  std::string path_;
  std::string tmp_path_;
  FaultPoints points_;
  std::FILE* file_ = nullptr;
  Crc32 crc_;
  std::string error_;
};

}  // namespace hotspot::util
