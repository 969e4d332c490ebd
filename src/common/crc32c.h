// CRC32C (Castagnoli) — the per-record checksum of wire format v2+, the frame checksum
// of the net transport, and the record checksum of checkpoint sidecars; one definition
// shared by all three so a value computed by any writer verifies under any reader.
//
// The implementation (crc32c.cc) dispatches at first use: SSE4.2 _mm_crc32_u64 on x86-64,
// the ARMv8 crc32c instructions on aarch64, and slice-by-8 tables everywhere else. On
// x86-64 the kernel runs three independent CRC chains over adjacent blocks (3 x 8192
// bytes, then 3 x 256 bytes, then one chain over the tail), which hides the instruction's
// three-cycle latency, and joins the three partial CRCs with one table of 4 x 256 words
// per block size that advances a CRC over that many zero bytes. Every
// backend computes the same polynomial (0x82f63b78, reflected) bit-identically — spill
// files, frames, and checkpoints verify identically on every host the verifier runs on,
// hardware acceleration only changes the cycle count. tests/crc32c_test.cc pins all
// backends to the RFC 3720 golden vectors and to each other.
#ifndef SRC_COMMON_CRC32C_H_
#define SRC_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace orochi {

// Extends a running CRC32C over `n` more bytes. Start (and finish) with `crc = 0`;
// the pre/post inversion is handled internally so values chain:
//   Crc32c(a+b) == Crc32cExtend(Crc32c(a), b).
uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n);

inline uint32_t Crc32c(const char* data, size_t n) { return Crc32cExtend(0, data, n); }

inline uint32_t Crc32c(const std::string& s) { return Crc32c(s.data(), s.size()); }

// Which implementation runtime dispatch selected for this process: "sse4.2",
// "armv8-crc", or "software". Stamped into bench meta blocks so recorded numbers say
// what hardware path produced them.
const char* Crc32cBackendName();

namespace crc32c_internal {

// The portable slice-by-8 reference, always available; the golden-vector test holds the
// dispatched implementation to this one on random inputs.
uint32_t ExtendSoftware(uint32_t crc, const char* data, size_t n);

// True when the CPU offers an accelerated path (and it was compiled in).
bool HardwareAvailable();
// The accelerated path; only callable when HardwareAvailable().
uint32_t ExtendHardware(uint32_t crc, const char* data, size_t n);

}  // namespace crc32c_internal

}  // namespace orochi

#endif  // SRC_COMMON_CRC32C_H_
