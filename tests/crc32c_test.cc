// Pins the runtime-dispatched CRC32C to the RFC 3720 golden vectors and holds every
// backend (slice-by-8 software, SSE4.2/ARMv8 hardware when the host has it, and whatever
// the dispatcher picked) to bit-identical outputs across lengths, alignments, and chain
// splits. Wire format v2+ records, net frames, and checkpoint sidecars all share this one
// definition, so a backend divergence here would read as corruption everywhere.
#include "src/common/crc32c.h"

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace orochi {
namespace {

using crc32c_internal::ExtendHardware;
using crc32c_internal::ExtendSoftware;
using crc32c_internal::HardwareAvailable;

// Every implementation under test, so a vector failure names the backend.
struct Backend {
  const char* name;
  uint32_t (*extend)(uint32_t, const char*, size_t);
};

std::vector<Backend> Backends() {
  std::vector<Backend> out = {{"software", &ExtendSoftware}, {"dispatched", &Crc32cExtend}};
  if (HardwareAvailable()) {
    out.push_back({"hardware", &ExtendHardware});
  }
  return out;
}

uint32_t OneShot(const Backend& b, const std::string& s) {
  return b.extend(0, s.data(), s.size());
}

// RFC 3720 §B.4 test vectors (the iSCSI CRC32C appendix), plus the classic check value
// for "123456789".
TEST(Crc32c, Rfc3720GoldenVectors) {
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xff');
  std::string incrementing;
  std::string decrementing;
  for (int i = 0; i < 32; i++) {
    incrementing.push_back(static_cast<char>(i));
    decrementing.push_back(static_cast<char>(31 - i));
  }
  static const unsigned char kScsiRead10[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  const std::string scsi_read(reinterpret_cast<const char*>(kScsiRead10),
                              sizeof(kScsiRead10));
  for (const Backend& b : Backends()) {
    SCOPED_TRACE(b.name);
    EXPECT_EQ(OneShot(b, zeros), 0x8a9136aau);
    EXPECT_EQ(OneShot(b, ones), 0x62a8ab43u);
    EXPECT_EQ(OneShot(b, incrementing), 0x46dd794eu);
    EXPECT_EQ(OneShot(b, decrementing), 0x113fdb5cu);
    EXPECT_EQ(OneShot(b, scsi_read), 0xd9963a56u);
    EXPECT_EQ(OneShot(b, "123456789"), 0xe3069283u);
    EXPECT_EQ(OneShot(b, ""), 0u);
  }
}

// Lengths at the edges of every hardware loop: the 8-byte kernel and its head/tail byte
// loops, the three-stream loop over 3 x 256-byte blocks (768) and over 3 x 8192-byte
// blocks (24576), one run of each plus a tail, and many long runs (1 MiB).
const size_t kLengths[] = {0,     1,     7,     8,     9,     15,    16,
                           63,    64,    255,   767,   768,   769,   1024,
                           4096,  24575, 24576, 24577, 24576 + 768 + 7, size_t{1} << 20};

// The dispatched implementation (whatever backend it picked) must match the portable
// reference bit-for-bit across lengths that exercise every loop of the kernel and
// unaligned starts.
TEST(Crc32c, BackendsAgreeAcrossLengthsAndAlignments) {
  std::mt19937_64 rng(20260807u);
  std::string buf((size_t{1} << 20) + 64, '\0');
  for (char& c : buf) {
    c = static_cast<char>(rng());
  }
  for (size_t offset = 0; offset <= 8; offset++) {
    for (size_t len : kLengths) {
      const char* p = buf.data() + offset;
      const uint32_t ref = ExtendSoftware(0, p, len);
      EXPECT_EQ(Crc32cExtend(0, p, len), ref) << "offset=" << offset << " len=" << len;
      if (HardwareAvailable()) {
        EXPECT_EQ(ExtendHardware(0, p, len), ref)
            << "offset=" << offset << " len=" << len;
      }
    }
  }
}

// Chaining invariant every record writer relies on: Crc32c(a+b) == Extend(Crc32c(a), b),
// for every backend and every split point.
TEST(Crc32c, ExtendChainsAcrossArbitrarySplits) {
  std::mt19937_64 rng(1u);
  for (size_t size : {size_t{257}, size_t{1} << 20}) {
    std::string data(size, '\0');
    for (char& c : data) {
      c = static_cast<char>(rng());
    }
    for (const Backend& b : Backends()) {
      SCOPED_TRACE(b.name);
      const uint32_t whole = OneShot(b, data);
      std::vector<size_t> splits = {0, 1, 8, 100, data.size()};
      for (size_t len : kLengths) {
        if (len <= data.size()) {
          splits.push_back(len);
          splits.push_back(data.size() - len);
        }
      }
      for (size_t split : splits) {
        const uint32_t head = b.extend(0, data.data(), split);
        const uint32_t chained = b.extend(head, data.data() + split, data.size() - split);
        EXPECT_EQ(chained, whole) << "size=" << size << " split=" << split;
      }
    }
  }
}

TEST(Crc32c, BackendNameMatchesDispatch) {
  const std::string name = Crc32cBackendName();
  if (HardwareAvailable()) {
    EXPECT_TRUE(name == "sse4.2" || name == "armv8-crc") << name;
  } else {
    EXPECT_EQ(name, "software");
  }
}

}  // namespace
}  // namespace orochi
