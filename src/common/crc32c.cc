#include "src/common/crc32c.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#if defined(__GNUC__)
#define OROCHI_CRC32C_X86 1
#include <nmmintrin.h>
#endif
#elif defined(__aarch64__) && defined(__GNUC__)
#define OROCHI_CRC32C_ARM 1
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif
#endif

namespace orochi {
namespace crc32c_internal {

namespace {

// Slice-by-8 tables: T[0] is the classic byte table for the reflected Castagnoli
// polynomial; T[k][b] advances a byte seen k positions earlier, so eight table lookups
// retire eight input bytes per iteration instead of one.
struct SliceTables {
  uint32_t t[8][256];
};

const SliceTables* Tables() {
  static const SliceTables* const tables = [] {
    auto* s = new SliceTables();
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int k = 0; k < 8; k++) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
      }
      s->t[0][i] = crc;
    }
    for (int k = 1; k < 8; k++) {
      for (uint32_t i = 0; i < 256; i++) {
        const uint32_t prev = s->t[k - 1][i];
        s->t[k][i] = s->t[0][prev & 0xff] ^ (prev >> 8);
      }
    }
    return s;
  }();
  return tables;
}

inline bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char first;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

}  // namespace

uint32_t ExtendSoftware(uint32_t crc, const char* data, size_t n) {
  const SliceTables* s = Tables();
  const uint32_t(*t)[256] = s->t;
  crc = ~crc;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  // The 8-byte kernel folds a little-endian word; other hosts take the byte loop (the
  // verifier targets x86-64/aarch64, so this is a portability backstop, not a hot path).
  if (HostIsLittleEndian()) {
    while (n >= 8) {
      uint64_t word;
      std::memcpy(&word, p, 8);
      const uint32_t lo = static_cast<uint32_t>(word) ^ crc;
      const uint32_t hi = static_cast<uint32_t>(word >> 32);
      crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
            t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n > 0) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    p++;
    n--;
  }
  return ~crc;
}

#if defined(OROCHI_CRC32C_X86)

#if defined(__x86_64__)

// One _mm_crc32_u64 has a latency of three cycles but issues every cycle, so a single
// dependency chain runs at a third of the instruction's throughput. The kernel therefore
// runs three chains over three adjacent blocks of kBlock bytes and joins them with the
// linearity of the CRC register: after blocks A, B, C the register is
//   Shift(Shift(crc_A) ^ crc_B) ^ crc_C,
// where crc_B and crc_C start from 0 and Shift(x) is x advanced over kBlock zero bytes.
// Shift is linear in x's 32 bits, so it is four lookups in a 4x256-word table.
namespace {

constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

struct ZeroShiftTable {
  uint32_t t[4][256];
};

struct ZeroShiftTables {
  ZeroShiftTable long_block;   // Over kLongBlock zero bytes.
  ZeroShiftTable short_block;  // Over kShortBlock zero bytes.
};

__attribute__((target("sse4.2"))) uint32_t AdvanceOverZeros(uint32_t crc, size_t n) {
  uint64_t crc64 = crc;
  for (size_t i = 0; i < n; i += 8) {
    crc64 = _mm_crc32_u64(crc64, 0);
  }
  return static_cast<uint32_t>(crc64);
}

void BuildShiftTable(size_t bytes, ZeroShiftTable* z) {
  uint32_t bit_image[32];
  for (int b = 0; b < 32; b++) {
    bit_image[b] = AdvanceOverZeros(uint32_t{1} << b, bytes);
  }
  for (int k = 0; k < 4; k++) {
    for (uint32_t v = 0; v < 256; v++) {
      uint32_t image = 0;
      for (int b = 0; b < 8; b++) {
        if ((v >> b) & 1) {
          image ^= bit_image[8 * k + b];
        }
      }
      z->t[k][v] = image;
    }
  }
}

// Built once, on the first input long enough to take the three-stream loop.
const ZeroShiftTables& ShiftTables() {
  static const ZeroShiftTables* const tables = [] {
    auto* z = new ZeroShiftTables();
    BuildShiftTable(kLongBlock, &z->long_block);
    BuildShiftTable(kShortBlock, &z->short_block);
    return z;
  }();
  return *tables;
}

inline uint32_t Shift(const ZeroShiftTable& z, uint64_t crc) {
  return z.t[0][crc & 0xff] ^ z.t[1][(crc >> 8) & 0xff] ^ z.t[2][(crc >> 16) & 0xff] ^
         z.t[3][(crc >> 24) & 0xff];
}

inline uint64_t Load64(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// Folds as many whole 3 x kBlock runs of *p as *n holds into crc; `z` shifts by kBlock.
template <size_t kBlock>
__attribute__((target("sse4.2"))) uint64_t ThreeStreams(const ZeroShiftTable& z,
                                                        uint64_t crc,
                                                        const unsigned char** p,
                                                        size_t* n) {
  while (*n >= 3 * kBlock) {
    const unsigned char* q = *p;
    uint64_t c0 = crc;
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      c0 = _mm_crc32_u64(c0, Load64(q + i));
      c1 = _mm_crc32_u64(c1, Load64(q + kBlock + i));
      c2 = _mm_crc32_u64(c2, Load64(q + 2 * kBlock + i));
    }
    crc = Shift(z, Shift(z, c0) ^ c1) ^ c2;
    *p += 3 * kBlock;
    *n -= 3 * kBlock;
  }
  return crc;
}

}  // namespace

#endif  // __x86_64__

__attribute__((target("sse4.2"))) uint32_t ExtendHardwareImpl(uint32_t crc,
                                                              const char* data,
                                                              size_t n) {
  crc = ~crc;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p);
    p++;
    n--;
  }
#if defined(__x86_64__)
  uint64_t crc64 = crc;
  if (n >= 3 * kShortBlock) {
    const ZeroShiftTables& z = ShiftTables();
    crc64 = ThreeStreams<kLongBlock>(z.long_block, crc64, &p, &n);
    crc64 = ThreeStreams<kShortBlock>(z.short_block, crc64, &p, &n);
  }
  while (n >= 8) {
    crc64 = _mm_crc32_u64(crc64, Load64(p));
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
#else
  while (n >= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    crc = _mm_crc32_u32(crc, word);
    p += 4;
    n -= 4;
  }
#endif
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p);
    p++;
    n--;
  }
  return ~crc;
}

bool HardwareAvailable() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

#elif defined(OROCHI_CRC32C_ARM)

__attribute__((target("+crc"))) uint32_t ExtendHardwareImpl(uint32_t crc,
                                                            const char* data, size_t n) {
  crc = ~crc;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = __crc32cb(crc, *p);
    p++;
    n--;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = __crc32cd(crc, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __crc32cb(crc, *p);
    p++;
    n--;
  }
  return ~crc;
}

bool HardwareAvailable() {
#if defined(__linux__)
  static const bool available = (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
  return available;
#else
  return false;
#endif
}

#else

bool HardwareAvailable() { return false; }

#endif

uint32_t ExtendHardware(uint32_t crc, const char* data, size_t n) {
#if defined(OROCHI_CRC32C_X86) || defined(OROCHI_CRC32C_ARM)
  return ExtendHardwareImpl(crc, data, n);
#else
  // Unreachable by contract (HardwareAvailable() is false); keep the symbol defined.
  return ExtendSoftware(crc, data, n);
#endif
}

}  // namespace crc32c_internal

namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ResolveExtend() {
  return crc32c_internal::HardwareAvailable() ? &crc32c_internal::ExtendHardware
                                              : &crc32c_internal::ExtendSoftware;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
  static const ExtendFn fn = ResolveExtend();
  return fn(crc, data, n);
}

const char* Crc32cBackendName() {
  if (!crc32c_internal::HardwareAvailable()) {
    return "software";
  }
#if defined(OROCHI_CRC32C_X86)
  return "sse4.2";
#elif defined(OROCHI_CRC32C_ARM)
  return "armv8-crc";
#else
  return "software";
#endif
}

}  // namespace orochi
