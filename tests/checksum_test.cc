// CRC32C kernels and the record commit format. Both checksum kernels must
// compute the standard CRC32C (RFC 3720 test vectors, the "123456789"
// check value) and agree with each other on every length and alignment;
// a sealed record must stop validating after any single-bit flip anywhere
// in its image and after any two-bit flip in its payload.
#include "common/checksum.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "store/record_format.h"

namespace pieces {
namespace {

using Kernel = uint32_t (*)(const uint8_t*, size_t, uint32_t);

struct KernelCase {
  const char* name;
  Kernel fn;
  bool hardware;
};

void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

// The hardware kernel where it compiles; off x86 the hardware cases skip
// before calling it.
uint32_t Sse42Kernel(const uint8_t* data, size_t n, uint32_t seed) {
#if defined(PIECES_CRC32C_X86)
  return internal::Crc32cSse42Kernel(data, n, seed);
#else
  return internal::Crc32cTableKernel(data, n, seed);
#endif
}

class Crc32cKernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (GetParam().hardware && !internal::CpuHasSse42()) {
      GTEST_SKIP() << "CPU lacks SSE4.2";
    }
  }
  uint32_t Crc(const std::vector<uint8_t>& bytes, uint32_t seed = 0) const {
    return GetParam().fn(bytes.data(), bytes.size(), seed);
  }
};

// RFC 3720 (iSCSI) appendix B.4 vectors.
TEST_P(Crc32cKernelTest, Rfc3720Vectors) {
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(Crc(buf), 0x8A9136AAu);
  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(Crc(buf), 0x62A8AB43u);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc(buf), 0x46DD794Eu);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(Crc(buf), 0x113FDB5Cu);
}

TEST_P(Crc32cKernelTest, CheckValue) {
  const std::string s = "123456789";
  EXPECT_EQ(Crc(std::vector<uint8_t>(s.begin(), s.end())), 0xE3069283u);
  EXPECT_EQ(Crc({}), 0u);
}

// Chaining: feeding the CRC of `a` as the seed for `b` equals the CRC of
// the concatenation, at every split point.
TEST_P(Crc32cKernelTest, ChainingEqualsConcatenation) {
  Rng rng(7);
  std::vector<uint8_t> whole(100);
  for (uint8_t& b : whole) b = static_cast<uint8_t>(rng.Next());
  const uint32_t expect = Crc(whole);
  for (size_t split = 0; split <= whole.size(); ++split) {
    std::vector<uint8_t> a(whole.begin(), whole.begin() + split);
    std::vector<uint8_t> b(whole.begin() + split, whole.end());
    EXPECT_EQ(Crc(b, Crc(a)), expect) << "split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32cKernelTest,
    ::testing::Values(KernelCase{"table", &internal::Crc32cTableKernel, false},
                      KernelCase{"sse42", &Sse42Kernel, true},
                      KernelCase{"dispatch", &Crc32c, false}),
    [](const auto& info) { return std::string(info.param.name); });

// The two kernels agree bit for bit on random data at every length 0..300
// and every start offset 0..7 (the hardware kernel's word loop and byte
// tail both get exercised, from aligned and unaligned starts).
TEST(Crc32cParityTest, TableMatchesSse42AtEveryLengthAndOffset) {
  if (!internal::CpuHasSse42()) GTEST_SKIP() << "CPU lacks SSE4.2";
  Rng rng(42);
  std::vector<uint8_t> buf(300 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(internal::Crc32cTableKernel(p, len, seed),
                Sse42Kernel(p, len, seed))
          << "offset " << offset << " len " << len;
    }
  }
}

// A sealed record image [key | value | RecordHeader] with `payload_bytes`
// of random key+value.
std::vector<uint8_t> SealedImage(size_t payload_bytes, uint64_t seqno,
                                 uint64_t rng_seed) {
  Rng rng(rng_seed);
  std::vector<uint8_t> image(payload_bytes + sizeof(RecordHeader));
  for (size_t i = 0; i < payload_bytes; ++i) {
    image[i] = static_cast<uint8_t>(rng.Next());
  }
  RecordHeader header = SealRecord(image.data(), payload_bytes, seqno);
  std::memcpy(image.data() + payload_bytes, &header, sizeof(header));
  return image;
}

bool Validates(const std::vector<uint8_t>& image, size_t payload_bytes) {
  RecoveredRecord out;
  return ValidateRecord(image.data(), payload_bytes, &out);
}

void FlipBit(std::vector<uint8_t>& image, size_t bit) {
  image[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

// 72 B = 8-byte key + 64-byte value (the headline benchmark's record);
// 208 B = 8-byte key + the stores' default 200-byte value.
constexpr size_t kPayloads[] = {72, 208};

TEST(RecordFormat, SealedRecordValidates) {
  for (size_t payload : kPayloads) {
    std::vector<uint8_t> image = SealedImage(payload, 12345, payload);
    RecoveredRecord out;
    ASSERT_TRUE(ValidateRecord(image.data(), payload, &out)) << payload;
    Key key = 0;
    std::memcpy(&key, image.data(), sizeof(key));
    EXPECT_EQ(out.key, key);
    EXPECT_EQ(out.seqno, 12345u);
  }
}

// Any single flipped bit — payload, seqno, CRC or magic — is rejected. The
// seqno bits matter most: the CRC covers the seqno, so an old version whose
// seqno got corrupted upward cannot win LatestPerKey at recovery.
TEST(RecordFormat, EverySingleBitFlipIsRejected) {
  for (size_t payload : kPayloads) {
    const std::vector<uint8_t> sealed =
        SealedImage(payload, 0x0123456789ull, 1);
    ASSERT_TRUE(Validates(sealed, payload));
    std::vector<uint8_t> image = sealed;
    for (size_t bit = 0; bit < image.size() * 8; ++bit) {
      FlipBit(image, bit);
      EXPECT_FALSE(Validates(image, payload))
          << payload << "-byte payload, image byte " << bit / 8 << " bit "
          << bit % 8;
      FlipBit(image, bit);
    }
    EXPECT_EQ(image, sealed);
  }
}

TEST(RecordFormat, ZeroSeqnoIsRejected) {
  for (size_t payload : kPayloads) {
    EXPECT_FALSE(Validates(SealedImage(payload, 0, 3), payload)) << payload;
  }
}

// Every pair of flipped bits in a 72-byte payload (576 choose 2 = 165,600
// cases) is rejected: CRC32C's Hamming distance is >= 4 at this length.
TEST(RecordFormat, EveryTwoBitPayloadFlipIsRejected) {
  constexpr size_t kPayload = 72;
  std::vector<uint8_t> image = SealedImage(kPayload, 77, 4);
  size_t cases = 0;
  size_t accepted = 0;
  for (size_t a = 0; a < kPayload * 8; ++a) {
    FlipBit(image, a);
    for (size_t b = a + 1; b < kPayload * 8; ++b) {
      FlipBit(image, b);
      accepted += Validates(image, kPayload) ? 1 : 0;
      ++cases;
      FlipBit(image, b);
    }
    FlipBit(image, a);
  }
  EXPECT_EQ(cases, 165600u);
  EXPECT_EQ(accepted, 0u);
  EXPECT_TRUE(Validates(image, kPayload));
}

}  // namespace
}  // namespace pieces
