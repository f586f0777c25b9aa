// CRC32C (Castagnoli) — the per-record commit checksum the store layer
// persists alongside each slot, mirroring Viper's (VLDB'21) per-record
// commit metadata. Two kernels compute the same function: the SSE4.2
// `crc32` instruction (8 bytes per step), picked at runtime when the CPU
// has it, and a portable byte-wise table. The choice sets recovery time.
// Measured on a 4-vCPU Xeon VM, ViperStore::Recover() over 1 M 72-byte
// records (ALEX): with the table kernel, CRC validation took 0.14-0.16 s
// of a 0.22-0.26 s recovery, more than the seqno sort (0.035-0.048 s) and
// the ALEX rebuild (0.027-0.036 s) together. With the SSE4.2 kernel it
// takes 0.016 s of a 0.08-0.09 s recovery, so sort and rebuild dominate.
#ifndef PIECES_COMMON_CHECKSUM_H_
#define PIECES_COMMON_CHECKSUM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <nmmintrin.h>
#define PIECES_CRC32C_X86 1
#endif

namespace pieces {

namespace internal {

// Castagnoli's polynomial 0x1EDC6F41, bit-reflected.
inline constexpr uint32_t kCrc32cPolyReflected = 0x82F63B78u;

inline const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPolyReflected : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

// Portable kernel: one table lookup per byte.
inline uint32_t Crc32cTableKernel(const uint8_t* data, size_t n,
                                  uint32_t seed) {
  const std::array<uint32_t, 256>& table = Crc32cTable();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

// True when the SSE4.2 kernel can run here (x86-64 build + CPU support).
inline bool CpuHasSse42() {
#if defined(PIECES_CRC32C_X86)
  static const bool has = __builtin_cpu_supports("sse4.2") != 0;
  return has;
#else
  return false;
#endif
}

#if defined(PIECES_CRC32C_X86)
// Hardware kernel: the crc32 instruction over 8-byte words, then bytes for
// the tail. Bit-identical to Crc32cTableKernel.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cSse42Kernel(
    const uint8_t* data, size_t n, uint32_t seed) {
  uint64_t crc = ~seed;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; i < n; ++i) crc32 = _mm_crc32_u8(crc32, data[i]);
  return ~crc32;
}
#endif  // PIECES_CRC32C_X86

}  // namespace internal

// CRC32C of `n` bytes; chainable by passing a previous result as `seed`.
inline uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0) {
#if defined(PIECES_CRC32C_X86)
  if (internal::CpuHasSse42()) {
    return internal::Crc32cSse42Kernel(data, n, seed);
  }
#endif
  return internal::Crc32cTableKernel(data, n, seed);
}

}  // namespace pieces

#endif  // PIECES_COMMON_CHECKSUM_H_
