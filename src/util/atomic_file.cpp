#include "util/atomic_file.h"

#include <unistd.h>

namespace hotspot::util {

const char* io_status_name(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kMissing:
      return "missing";
    case IoStatus::kTruncated:
      return "truncated";
    case IoStatus::kCorrupt:
      return "corrupt";
    case IoStatus::kBadFormat:
      return "bad-format";
    case IoStatus::kMismatch:
      return "mismatch";
    case IoStatus::kWriteFailed:
      return "write-failed";
  }
  return "unknown";
}

AtomicFileWriter::AtomicFileWriter(std::string path, FaultPoints points)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp"), points_(points) {
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    error_ = tmp_path_ + ": cannot open for writing";
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_path_.c_str());
  }
}

bool AtomicFileWriter::write(const void* data, std::size_t size) {
  if (!ok()) {
    return false;
  }
  if (fault_should_fail(points_.write)) {
    // Simulate a crash mid-write: part of the chunk reaches the file, the
    // rest never does.
    if (size / 2 > 0) {
      std::fwrite(data, 1, size / 2, file_);
    }
    error_ = tmp_path_ + ": injected write fault";
    return false;
  }
  // An empty chunk (an empty blob, say) may come with a null pointer, which
  // fwrite must not see even for zero bytes.
  if (size > 0 && std::fwrite(data, 1, size, file_) != size) {
    error_ = tmp_path_ + ": write failed";
    return false;
  }
  crc_.update(data, size);
  return true;
}

bool AtomicFileWriter::finalize() {
  if (!ok()) {
    return false;
  }
  if (fault_should_fail(points_.flush)) {
    error_ = tmp_path_ + ": injected flush fault";
    return false;
  }
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    error_ = tmp_path_ + ": flush/fsync failed";
    return false;
  }
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;  // destructor must not double-close or remove
  if (!closed) {
    error_ = tmp_path_ + ": close failed";
    std::remove(tmp_path_.c_str());
    return false;
  }
  if (fault_should_fail(points_.rename)) {
    error_ = path_ + ": injected rename fault";
    std::remove(tmp_path_.c_str());
    return false;
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    error_ = path_ + ": rename from temp failed";
    std::remove(tmp_path_.c_str());
    return false;
  }
  return true;
}

}  // namespace hotspot::util
