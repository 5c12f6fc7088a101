#include "nn/serialize.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace hotspot::nn {

using util::IoStatus;

namespace {

constexpr std::uint32_t kMagic = 0x48535054;  // "HSPT"
constexpr std::uint32_t kFormatVersion = 2;

// Hard sanity caps. A well-formed checkpoint is nowhere near these; a file
// that claims to exceed them is damaged or hostile, and we reject it before
// allocating anything it asked for.
constexpr std::uint32_t kMaxSectionEntries = 1u << 20;
constexpr std::uint32_t kMaxNameLength = 4096;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::int64_t kMaxElements = std::int64_t{1} << 36;

// magic + version + tensor_count + blob_count + crc footer.
constexpr std::int64_t kMinArchiveBytes = 20;

// HSPT framing over the shared atomic-publication machinery
// (util::AtomicFileWriter): the archive is written to "<path>.tmp" and
// finalize() publishes it with flush + fsync + atomic rename. Any earlier
// exit (error, injected fault, destructor) leaves the target path untouched
// and removes the temp file.
class ArchiveWriter {
 public:
  explicit ArchiveWriter(std::string path)
      : writer_(std::move(path),
                util::AtomicFileWriter::FaultPoints{
                    util::FaultPoint::kCheckpointWrite,
                    util::FaultPoint::kCheckpointFlush,
                    util::FaultPoint::kCheckpointRename}) {}

  bool ok() const { return writer_.ok(); }

  bool write(const void* data, std::size_t size) {
    return writer_.write(data, size);
  }

  bool write(const util::ByteWriter& bytes) {
    return write(bytes.data(), bytes.size());
  }

  SaveResult finalize() {
    // The footer is the CRC of everything before it.
    if (!write(util::ByteWriter(4).put(writer_.crc())) ||
        !writer_.finalize()) {
      return fail();
    }
    return SaveResult::success();
  }

  SaveResult fail() const {
    return SaveResult::failure(IoStatus::kWriteFailed, writer_.error());
  }

 private:
  util::AtomicFileWriter writer_;
};

// Sequential reader over the payload (everything before the CRC footer).
// Every read is bounds-checked against the real file size, so no length
// field from disk can drive a read — or an allocation — past the data that
// actually exists.
class ArchiveReader {
 public:
  explicit ArchiveReader(const std::string& path)
      : file_size_(util::file_size_of(path)) {
    if (file_size_ >= 0) {
      in_.open(path, std::ios::binary);
    }
    payload_size_ = file_size_ < kMinArchiveBytes
                        ? 0
                        : file_size_ - static_cast<std::int64_t>(sizeof(std::uint32_t));
  }

  bool opened() const { return file_size_ >= 0 && in_.is_open(); }
  std::int64_t file_size() const { return file_size_; }
  std::int64_t remaining() const { return payload_size_ - consumed_; }

  bool read(void* out, std::size_t size) {
    if (static_cast<std::int64_t>(size) > remaining()) {
      return false;
    }
    in_.read(static_cast<char*>(out), static_cast<std::streamsize>(size));
    if (!in_.good()) {
      return false;
    }
    crc_.update(out, size);
    consumed_ += static_cast<std::int64_t>(size);
    return true;
  }

  template <util::ByteScalar T>
  bool scalar(T& value) {
    std::uint8_t bytes[sizeof(T)];
    if (!read(bytes, sizeof(T))) {
      return false;
    }
    value = util::load_le<T>(bytes);
    return true;
  }

  // Consumes `size` bytes without storing them (still checksummed).
  bool skip(std::int64_t size) {
    char scratch[4096];
    while (size > 0) {
      const auto chunk = static_cast<std::size_t>(
          size < static_cast<std::int64_t>(sizeof(scratch))
              ? size
              : static_cast<std::int64_t>(sizeof(scratch)));
      if (!read(scratch, chunk)) {
        return false;
      }
      size -= static_cast<std::int64_t>(chunk);
    }
    return true;
  }

  // Reads the footer, which sits outside the checksummed payload.
  bool read_footer(std::uint32_t& value) {
    char bytes[sizeof(value)] = {};
    if (!in_.read(bytes, sizeof(bytes))) {
      return false;
    }
    value = util::load_le<std::uint32_t>(bytes);
    return true;
  }

  std::uint32_t crc() const { return crc_.value(); }

 private:
  std::int64_t file_size_;
  std::int64_t payload_size_ = 0;
  std::int64_t consumed_ = 0;
  std::ifstream in_;
  util::Crc32 crc_;
};

LoadResult fail(IoStatus status, const std::string& path,
                const std::string& detail) {
  return LoadResult::failure(status, path + ": " + detail);
}

// Reads a length-prefixed string, validating the length against both the
// name cap and the bytes actually left in the file before resizing.
LoadResult read_name(ArchiveReader& reader, const std::string& path,
                     std::string& text) {
  std::uint32_t length = 0;
  if (!reader.scalar(length)) {
    return fail(IoStatus::kTruncated, path, "file ends inside a name length");
  }
  if (length > kMaxNameLength) {
    std::ostringstream detail;
    detail << "name length " << length << " exceeds cap " << kMaxNameLength;
    return fail(IoStatus::kCorrupt, path, detail.str());
  }
  if (static_cast<std::int64_t>(length) > reader.remaining()) {
    return fail(IoStatus::kTruncated, path, "file ends inside a name");
  }
  text.resize(length);
  if (!reader.read(text.data(), length)) {
    return fail(IoStatus::kTruncated, path, "file ends inside a name");
  }
  return LoadResult::success();
}

// Reads a tensor's rank and extents, validating both against the caps
// before anything is sized from them; `numel` is the element count.
LoadResult read_shape(ArchiveReader& reader, const std::string& path,
                      const std::string& name, tensor::Shape& shape,
                      std::int64_t& numel) {
  std::uint32_t rank = 0;
  if (!reader.scalar(rank)) {
    return fail(IoStatus::kTruncated, path,
                "file ends inside '" + name + "' rank");
  }
  if (rank > kMaxRank) {
    std::ostringstream detail;
    detail << "rank " << rank << " for '" << name << "' exceeds cap "
           << kMaxRank;
    return fail(IoStatus::kCorrupt, path, detail.str());
  }
  shape.assign(rank, 0);
  numel = 1;
  for (auto& extent : shape) {
    if (!reader.scalar(extent)) {
      return fail(IoStatus::kTruncated, path,
                  "file ends inside '" + name + "' shape");
    }
    if (extent < 0 || (extent != 0 && numel > kMaxElements / extent)) {
      return fail(IoStatus::kCorrupt, path,
                  "implausible extent in '" + name + "' shape");
    }
    numel *= extent;
  }
  return LoadResult::success();
}

}  // namespace

SaveResult save_archive(const std::string& path,
                        const std::vector<NamedTensor>& tensors,
                        const std::vector<NamedBlob>& blobs) {
  HOTSPOT_CHECK(tensors.size() <= kMaxSectionEntries);
  HOTSPOT_CHECK(blobs.size() <= kMaxSectionEntries);
  ArchiveWriter writer(path);
  if (!writer.ok()) {
    return writer.fail();
  }
  util::ByteWriter header(16);
  header.put(kMagic)
      .put(kFormatVersion)
      .length<std::uint32_t>(tensors.size())
      .length<std::uint32_t>(blobs.size());
  if (!writer.write(header)) {
    return writer.fail();
  }
  for (const auto& entry : tensors) {
    HOTSPOT_CHECK(entry.value != nullptr) << "null tensor '" << entry.name << "'";
    HOTSPOT_CHECK(entry.name.size() <= kMaxNameLength);
    const auto& shape = entry.value->shape();
    HOTSPOT_CHECK(shape.size() <= kMaxRank)
        << "rank " << shape.size() << " for '" << entry.name << "'";
    util::ByteWriter entry_header;
    entry_header.string<std::uint32_t>(entry.name)
        .length<std::uint32_t>(shape.size())
        .array(shape.data(), shape.size());
    if (!writer.write(entry_header) ||
        !writer.write(entry.value->data(),
                      static_cast<std::size_t>(entry.value->numel()) *
                          sizeof(float))) {
      return writer.fail();
    }
  }
  for (const auto& blob : blobs) {
    HOTSPOT_CHECK(blob.name.size() <= kMaxNameLength);
    util::ByteWriter blob_header;
    blob_header.string<std::uint32_t>(blob.name)
        .length<std::uint64_t>(blob.bytes.size());
    if (!writer.write(blob_header) || !writer.write(blob.bytes.data(), blob.bytes.size())) {
      return writer.fail();
    }
  }
  return writer.finalize();
}

LoadResult load_archive(const std::string& path,
                        const std::vector<NamedTensor>& tensors,
                        std::vector<NamedBlob>* blobs) {
  ArchiveReader reader(path);
  if (!reader.opened()) {
    return fail(IoStatus::kMissing, path, "cannot open for reading");
  }
  if (reader.file_size() < kMinArchiveBytes) {
    std::ostringstream detail;
    detail << "only " << reader.file_size() << " bytes; smaller than any valid archive";
    return fail(IoStatus::kTruncated, path, detail.str());
  }

  std::uint32_t magic = 0, version = 0, tensor_count = 0, blob_count = 0;
  if (!reader.scalar(magic) || !reader.scalar(version) ||
      !reader.scalar(tensor_count) || !reader.scalar(blob_count)) {
    return fail(IoStatus::kTruncated, path, "file ends inside the header");
  }
  if (magic != kMagic) {
    return fail(IoStatus::kBadFormat, path, "not an HSPT checkpoint (bad magic)");
  }
  if (version != kFormatVersion) {
    std::ostringstream detail;
    detail << "unsupported format version " << version << " (expected "
           << kFormatVersion << ")";
    return fail(IoStatus::kBadFormat, path, detail.str());
  }
  if (tensor_count > kMaxSectionEntries || blob_count > kMaxSectionEntries) {
    return fail(IoStatus::kCorrupt, path, "implausible section count");
  }
  // Full-state loads (blobs requested) demand an exact tensor count. Model-
  // only loads accept extra trailing tensors so that a deployment
  // load_checkpoint() can read the model out of a full training snapshot,
  // which appends optimizer moment buffers after the model tensors; the
  // extras are still structurally validated and checksummed below.
  if (blobs != nullptr ? tensor_count != tensors.size()
                       : tensor_count < tensors.size()) {
    std::ostringstream detail;
    detail << "tensor count mismatch (file " << tensor_count << ", model "
           << tensors.size() << ")";
    return fail(IoStatus::kMismatch, path, detail.str());
  }
  if (blobs != nullptr && blob_count != blobs->size()) {
    std::ostringstream detail;
    detail << "blob count mismatch (file " << blob_count << ", expected "
           << blobs->size() << ")";
    return fail(IoStatus::kMismatch, path, detail.str());
  }

  for (const auto& entry : tensors) {
    std::string name;
    if (const LoadResult result = read_name(reader, path, name); !result) {
      return result;
    }
    if (name != entry.name) {
      return fail(IoStatus::kMismatch, path,
                  "expected tensor '" + entry.name + "', found '" + name + "'");
    }
    tensor::Shape shape;
    std::int64_t numel = 0;
    if (const LoadResult result = read_shape(reader, path, name, shape, numel);
        !result) {
      return result;
    }
    if (shape != entry.value->shape()) {
      return fail(IoStatus::kMismatch, path,
                  "shape mismatch for '" + name + "': file " +
                      tensor::shape_to_string(shape) + " vs model " +
                      tensor::shape_to_string(entry.value->shape()));
    }
    const std::int64_t bytes = numel * static_cast<std::int64_t>(sizeof(float));
    if (bytes > reader.remaining()) {
      return fail(IoStatus::kTruncated, path,
                  "file ends inside '" + name + "' data");
    }
    if (!reader.read(entry.value->data(), static_cast<std::size_t>(bytes))) {
      return fail(IoStatus::kTruncated, path,
                  "file ends inside '" + name + "' data");
    }
  }

  // Trailing tensors a model-only load does not ask for (e.g. optimizer
  // moments in a training snapshot): validate their structure with the same
  // caps, then skip the data so it still feeds the checksum.
  for (std::uint32_t index = static_cast<std::uint32_t>(tensors.size());
       index < tensor_count; ++index) {
    std::string name;
    if (const LoadResult result = read_name(reader, path, name); !result) {
      return result;
    }
    tensor::Shape shape;
    std::int64_t numel = 0;
    if (const LoadResult result = read_shape(reader, path, name, shape, numel);
        !result) {
      return result;
    }
    const std::int64_t bytes = numel * static_cast<std::int64_t>(sizeof(float));
    if (bytes > reader.remaining() || !reader.skip(bytes)) {
      return fail(IoStatus::kTruncated, path,
                  "file ends inside '" + name + "' data");
    }
  }

  for (std::uint32_t index = 0; index < blob_count; ++index) {
    std::string name;
    if (const LoadResult result = read_name(reader, path, name); !result) {
      return result;
    }
    std::uint64_t byte_count = 0;
    if (!reader.scalar(byte_count)) {
      return fail(IoStatus::kTruncated, path,
                  "file ends inside blob '" + name + "' length");
    }
    if (byte_count > static_cast<std::uint64_t>(reader.remaining())) {
      return fail(IoStatus::kTruncated, path,
                  "file ends inside blob '" + name + "'");
    }
    if (blobs == nullptr) {
      if (!reader.skip(static_cast<std::int64_t>(byte_count))) {
        return fail(IoStatus::kTruncated, path,
                    "file ends inside blob '" + name + "'");
      }
      continue;
    }
    NamedBlob& expected = (*blobs)[index];
    if (name != expected.name) {
      return fail(IoStatus::kMismatch, path,
                  "expected blob '" + expected.name + "', found '" + name +
                      "'");
    }
    expected.bytes.resize(static_cast<std::size_t>(byte_count));
    if (!reader.read(expected.bytes.data(),
                     static_cast<std::size_t>(byte_count))) {
      return fail(IoStatus::kTruncated, path,
                  "file ends inside blob '" + name + "'");
    }
  }

  if (reader.remaining() != 0) {
    std::ostringstream detail;
    detail << reader.remaining() << " trailing bytes after the blob section";
    return fail(IoStatus::kCorrupt, path, detail.str());
  }
  std::uint32_t stored_crc = 0;
  if (!reader.read_footer(stored_crc)) {
    return fail(IoStatus::kTruncated, path, "file ends inside the CRC footer");
  }
  if (stored_crc != reader.crc()) {
    std::ostringstream detail;
    detail << "checksum mismatch (stored " << std::hex << stored_crc
           << ", computed " << reader.crc() << ")";
    return fail(IoStatus::kCorrupt, path, detail.str());
  }
  return LoadResult::success();
}

SaveResult save_tensors(const std::string& path,
                        const std::vector<NamedTensor>& tensors) {
  return save_archive(path, tensors, {});
}

LoadResult load_tensors(const std::string& path,
                        const std::vector<NamedTensor>& tensors) {
  return load_archive(path, tensors, nullptr);
}

SaveResult save_checkpoint(const std::string& path, Module& module) {
  std::vector<NamedTensor> state;
  module.collect_state("", state);
  return save_tensors(path, state);
}

LoadResult load_checkpoint(const std::string& path, Module& module) {
  std::vector<NamedTensor> state;
  module.collect_state("", state);
  const LoadResult result = load_tensors(path, state);
  if (result.ok()) {
    // Loaded weights invalidate anything derived from the old values (e.g.
    // the compiled inference plan, keyed on the parameter versions).
    for (Parameter* param : module.parameters()) {
      param->bump_version();
    }
  }
  return result;
}

}  // namespace hotspot::nn
