#include "util/bytes.h"

namespace hotspot::util {

// Out of line: inlined into every fixed-width put(), GCC 12's flow analysis
// reports false buffer overflows in the vector growth path.
ByteWriter& ByteWriter::bytes(const void* data, std::size_t size) {
  const auto* first = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), first, first + size);
  return *this;
}

}  // namespace hotspot::util
