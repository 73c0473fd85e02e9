#include "src/common/crc32.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace pronghorn {
namespace {

std::vector<uint8_t> Bytes(std::string_view text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

// Bit-at-a-time IEEE CRC-32 (reflected polynomial 0xedb88320): the
// definition the table-driven kernel must reproduce on every input.
uint32_t BitwiseCrc32(std::span<const uint8_t> data) {
  uint32_t state = 0xffffffffu;
  for (const uint8_t byte : data) {
    state ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) != 0 ? (state >> 1) ^ 0xedb88320u : state >> 1;
    }
  }
  return state ^ 0xffffffffu;
}

std::vector<uint8_t> Pattern(size_t size) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 167) ^ (i >> 3) ^ 0x5a);
  }
  return bytes;
}

TEST(Crc32Test, KnownVectors) {
  // Reference values for the IEEE 802.3 polynomial.
  EXPECT_EQ(Crc32(Bytes("")), 0x00000000u);
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(Bytes("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::vector<uint8_t> data = Bytes("hello, checkpoint world");
  uint32_t state = kCrc32Init;
  state = Crc32Update(state, std::span<const uint8_t>(data.data(), 5));
  state = Crc32Update(state,
                      std::span<const uint8_t>(data.data() + 5, data.size() - 5));
  EXPECT_EQ(Crc32Finalize(state), Crc32(data));
}

// The kernel folds eight bytes per step; every length and start alignment
// exercises each head/body/tail split of that loop.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<uint8_t> data = Pattern(1100 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1100; ++length) {
      const std::span<const uint8_t> slice(data.data() + offset, length);
      ASSERT_EQ(Crc32(slice), BitwiseCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, IncrementalMatchesReferenceAtEverySplit) {
  const std::vector<uint8_t> data = Pattern(64);
  const uint32_t expected = BitwiseCrc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t state = kCrc32Init;
    state = Crc32Update(state, std::span<const uint8_t>(data.data(), split));
    state = Crc32Update(
        state, std::span<const uint8_t>(data.data() + split, data.size() - split));
    EXPECT_EQ(Crc32Finalize(state), expected) << "split at " << split;
  }
}

TEST(Crc32Test, SingleBitFlipChangesChecksum) {
  std::vector<uint8_t> data = Bytes("snapshot payload");
  const uint32_t original = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32(data), original) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
}

TEST(Crc32Test, EmptyChunksAreNoOps) {
  uint32_t state = kCrc32Init;
  state = Crc32Update(state, {});
  EXPECT_EQ(Crc32Finalize(state), Crc32({}));
}

TEST(Crc32Test, DifferentLengthsDiffer) {
  EXPECT_NE(Crc32(Bytes("aa")), Crc32(Bytes("aaa")));
}

TEST(Crc32Test, CombineMatchesConcatenation) {
  const std::vector<uint8_t> a = Bytes("streaming fleet ");
  const std::vector<uint8_t> b = Bytes("accumulator rows");
  std::vector<uint8_t> ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()), Crc32(ab));
}

TEST(Crc32Test, CombineIsAssociativeOverManyChunks) {
  // Stitching per-chunk CRCs left-to-right must equal the one-shot CRC of
  // the concatenation — the identity the streaming report digest relies on.
  const std::vector<std::vector<uint8_t>> chunks = {
      Bytes("alpha"), Bytes(""), Bytes("b"), Bytes("gamma-gamma-gamma"),
      std::vector<uint8_t>{0x00, 0xff, 0x7f, 0x20, 0x00}};
  std::vector<uint8_t> whole;
  uint32_t stitched = 0;  // CRC32 of the empty string.
  for (const auto& chunk : chunks) {
    whole.insert(whole.end(), chunk.begin(), chunk.end());
    stitched = Crc32Combine(stitched, Crc32(chunk), chunk.size());
  }
  EXPECT_EQ(stitched, Crc32(whole));
}

TEST(Crc32Test, CombineWithEmptySuffixIsIdentity) {
  const uint32_t crc = Crc32(Bytes("payload"));
  EXPECT_EQ(Crc32Combine(crc, Crc32(Bytes("")), 0), crc);
}

TEST(Crc32Test, CombineHandlesLongLengths) {
  // The GF(2) matrix walk must be correct across many length bits, not just
  // short strings: build a 1 MiB pattern and split it unevenly.
  std::vector<uint8_t> big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>((i * 131) ^ (i >> 7));
  }
  const size_t split = 12345;
  const std::span<const uint8_t> head(big.data(), split);
  const std::span<const uint8_t> tail(big.data() + split, big.size() - split);
  EXPECT_EQ(Crc32Combine(Crc32(head), Crc32(tail), tail.size()), Crc32(big));
}

}  // namespace
}  // namespace pronghorn
