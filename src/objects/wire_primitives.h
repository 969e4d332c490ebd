// Little-endian encode primitives and the defensive payload cursor shared by the wire
// format proper (src/objects/wire_format.cc) and the checkpoint journal
// (src/stream/checkpoint.cc). Internal — not part of the public wire surface.
#ifndef SRC_OBJECTS_WIRE_PRIMITIVES_H_
#define SRC_OBJECTS_WIRE_PRIMITIVES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace orochi {
namespace wire_primitives {

inline void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; i++) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

inline size_t StrWireBytes(const std::string& s) { return 4 + s.size(); }

// Defensive cursor over an in-memory payload: every Take checks bounds, so a forged
// length can neither over-read nor trigger a huge allocation.
struct Cursor {
  const unsigned char* p;
  size_t n;
  size_t pos = 0;

  bool TakeU8(uint8_t* v) {
    if (pos + 1 > n) {
      return false;
    }
    *v = p[pos++];
    return true;
  }
  bool TakeU32(uint32_t* v) {
    if (pos + 4 > n) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 4; i++) {
      *v |= static_cast<uint32_t>(p[pos + static_cast<size_t>(i)]) << (8 * i);
    }
    pos += 4;
    return true;
  }
  bool TakeU64(uint64_t* v) {
    if (pos + 8 > n) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 8; i++) {
      *v |= static_cast<uint64_t>(p[pos + static_cast<size_t>(i)]) << (8 * i);
    }
    pos += 8;
    return true;
  }
  bool TakeF64(double* v) {
    uint64_t bits;
    if (!TakeU64(&bits)) {
      return false;
    }
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool TakeStr(std::string* s) {
    uint32_t len;
    if (!TakeU32(&len) || pos + len > n) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(p) + pos, len);
    pos += len;
    return true;
  }
  // TakeStr's bounds checks without the copy: steps over one length-prefixed string.
  bool SkipStr() {
    uint32_t len;
    if (!TakeU32(&len) || pos + len > n) {
      return false;
    }
    pos += len;
    return true;
  }
  bool AtEnd() const { return pos == n; }

  size_t Remaining() const { return n - pos; }

  // True when a declared element count could fit in the remaining payload, each element
  // costing at least `min_element_bytes`. Checked before any reserve/loop so a forged
  // count can neither trigger a huge allocation (vector::reserve would throw, and this
  // codebase is exception-free) nor spin a long loop.
  bool CountFits(uint64_t count, size_t min_element_bytes) const {
    return count <= Remaining() / min_element_bytes;
  }
};

inline Cursor MakeCursor(std::string_view bytes) {
  return Cursor{reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()};
}

}  // namespace wire_primitives
}  // namespace orochi

#endif  // SRC_OBJECTS_WIRE_PRIMITIVES_H_
