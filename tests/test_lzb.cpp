// Unit and property tests for the LZ77-style byte codec.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "codec/lzb.hpp"
#include "common/rng.hpp"

namespace ocelot {
namespace {

/// Sink-form compress into a fresh buffer (the Bytes-returning
/// overload is deprecated; tests drive the streaming entry points).
Bytes pack(const Bytes& input) {
  Bytes out;
  ByteSink sink(out);
  lzb_compress(input, sink);
  return out;
}

Bytes unpack(const Bytes& packed,
             std::size_t max_bytes = std::numeric_limits<std::size_t>::max()) {
  Bytes out;
  lzb_decompress_into(packed, max_bytes, out);
  return out;
}

Bytes roundtrip(const Bytes& input) { return unpack(pack(input)); }

TEST(Lzb, EmptyInput) {
  EXPECT_TRUE(roundtrip({}).empty());
}

TEST(Lzb, TinyInputsBelowMinMatch) {
  for (std::size_t n = 1; n <= 5; ++n) {
    Bytes input;
    for (std::size_t i = 0; i < n; ++i) {
      input.push_back(static_cast<std::uint8_t>(i * 17));
    }
    EXPECT_EQ(roundtrip(input), input) << "n=" << n;
  }
}

TEST(Lzb, LongRunCompressesHard) {
  const Bytes input(100000, 0xAB);
  const Bytes packed = pack(input);
  EXPECT_EQ(unpack(packed), input);
  EXPECT_LT(packed.size(), input.size() / 100);
}

TEST(Lzb, RepeatedPhrase) {
  const std::string phrase = "scientific data transfer over WAN! ";
  Bytes input;
  for (int i = 0; i < 500; ++i) {
    input.insert(input.end(), phrase.begin(), phrase.end());
  }
  const Bytes packed = pack(input);
  EXPECT_EQ(unpack(packed), input);
  EXPECT_LT(packed.size(), input.size() / 5);
}

TEST(Lzb, OverlappingMatchReplication) {
  // "abcabcabc..." forces matches with offset < length.
  Bytes input;
  for (int i = 0; i < 3000; ++i) {
    input.push_back(static_cast<std::uint8_t>('a' + (i % 3)));
  }
  EXPECT_EQ(roundtrip(input), input);
}

TEST(Lzb, IncompressibleDataSurvives) {
  Rng rng(9);
  Bytes input;
  for (int i = 0; i < 50000; ++i) {
    input.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  const Bytes packed = pack(input);
  EXPECT_EQ(unpack(packed), input);
  // Worst-case expansion stays modest.
  EXPECT_LT(packed.size(), input.size() + input.size() / 100 + 64);
}

TEST(Lzb, MatchesBeyondWindowAreNotUsed) {
  // Same 8-byte phrase at the start and 100 KiB later (past the 64 KiB
  // offset limit); output must still round-trip.
  Bytes input(120000, 0);
  Rng rng(10);
  for (auto& b : input) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  for (int i = 0; i < 8; ++i) {
    input[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    input[100000 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(roundtrip(input), input);
}

TEST(Lzb, CorruptOffsetThrows) {
  // Craft a stream whose match references before the start.
  BytesWriter w;
  w.put_varint(10);              // claims 10 raw bytes
  w.put<std::uint8_t>(0x12);     // 1 literal, match len 2+4
  w.put<std::uint8_t>('x');
  w.put<std::uint8_t>(0xFF);     // offset 0xFFFF > produced bytes
  w.put<std::uint8_t>(0xFF);
  EXPECT_THROW((void)unpack(w.bytes()), CorruptStream);
}

TEST(Lzb, TruncatedStreamThrows) {
  const Bytes input(1000, 7);
  Bytes packed = pack(input);
  packed.resize(packed.size() - 2);
  EXPECT_THROW((void)unpack(packed), CorruptStream);
}

TEST(Lzb, HostileRawSizeIsRejectedBeforeAllocating) {
  // Ten bytes claiming 2^40 output: lzb expands one payload byte to at
  // most 255, so the claim is rejected instead of reserved.
  BytesWriter w;
  w.put_varint(std::uint64_t{1} << 40);
  for (int i = 0; i < 4; ++i) w.put<std::uint8_t>(0xFF);
  EXPECT_THROW((void)unpack(w.bytes()), CorruptStream);

  // Just past the expansion bound for a one-byte payload.
  BytesWriter tight;
  tight.put_varint(256);
  tight.put<std::uint8_t>(0x00);
  EXPECT_THROW((void)unpack(tight.bytes()), CorruptStream);
}

TEST(Lzb, ClaimAboveTheCallersBoundThrowsNamingIt) {
  const Bytes input(1000, 7);
  const Bytes packed = pack(input);
  EXPECT_EQ(unpack(packed, input.size()), input);
  try {
    (void)unpack(packed, input.size() - 1);
    FAIL() << "expected CorruptStream";
  } catch (const CorruptStream& e) {
    EXPECT_NE(std::string(e.what()).find("more than the 999 allowed"),
              std::string::npos)
        << e.what();
  }
}

TEST(Lzb, NonOverlappingMatchCopiesExactly) {
  // A random block repeated at a distance equal to its length: the
  // matches never overlap their source, taking the bulk-copy path.
  Rng rng(12);
  Bytes block(3000);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  Bytes input;
  for (int i = 0; i < 3; ++i) {
    input.insert(input.end(), block.begin(), block.end());
  }
  const Bytes packed = pack(input);
  EXPECT_LT(packed.size(), input.size() / 2);
  EXPECT_EQ(unpack(packed), input);
}

/// Property sweep over sizes and repetitiveness.
class LzbSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LzbSweep, RoundTrip) {
  const auto [size, period] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size + period));
  Bytes input;
  input.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    if (period > 0 && i >= period) {
      // Mostly repeat the previous period with occasional mutations.
      const std::uint8_t prev = input[static_cast<std::size_t>(i - period)];
      input.push_back(rng.chance(0.95)
                          ? prev
                          : static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    } else {
      input.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
  }
  EXPECT_EQ(roundtrip(input), input);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPeriods, LzbSweep,
    ::testing::Combine(::testing::Values(64, 4096, 262144),
                       ::testing::Values(0, 5, 64, 1024)));

}  // namespace
}  // namespace ocelot
