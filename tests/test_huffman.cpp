// Unit and property tests for the canonical Huffman codec.
#include <gtest/gtest.h>

#include <vector>

#include "codec/huffman.hpp"
#include "common/rng.hpp"

namespace ocelot {
namespace {

/// Sink-form encode into a fresh buffer (the Bytes-returning overload
/// is deprecated; tests drive the streaming entry points directly).
Bytes encode(const std::vector<std::uint32_t>& input) {
  Bytes out;
  ByteSink sink(out);
  huffman_encode(input, sink);
  return out;
}

std::vector<std::uint32_t> decode(const Bytes& encoded) {
  std::vector<std::uint32_t> out;
  huffman_decode_into(encoded, out);
  return out;
}

std::vector<std::uint32_t> decode_of(const std::vector<std::uint32_t>& input) {
  return decode(encode(input));
}

TEST(Huffman, EmptyStream) {
  const std::vector<std::uint32_t> empty;
  EXPECT_EQ(decode_of(empty), empty);
}

TEST(Huffman, SingleSymbolStream) {
  const std::vector<std::uint32_t> input(1000, 42);
  EXPECT_EQ(decode_of(input), input);
  // Degenerate one-symbol code should be ~constant size.
  EXPECT_LT(encode(input).size(), 32u);
}

TEST(Huffman, TwoSymbolRoundTrip) {
  std::vector<std::uint32_t> input;
  for (int i = 0; i < 500; ++i) {
    input.push_back(1);
    input.push_back(2);
  }
  EXPECT_EQ(decode_of(input), input);
}

TEST(Huffman, SkewedDistributionCompresses) {
  // 99% zero bin: encoded size should be far below 4 bytes/symbol.
  Rng rng(1);
  std::vector<std::uint32_t> input;
  for (int i = 0; i < 20000; ++i) {
    input.push_back(rng.chance(0.99) ? 32768
                                     : static_cast<std::uint32_t>(
                                           rng.uniform_int(32700, 32800)));
  }
  const Bytes encoded = encode(input);
  EXPECT_EQ(decode(encoded), input);
  EXPECT_LT(encoded.size(), input.size());  // < 1 byte per symbol
}

TEST(Huffman, WideAlphabetRoundTrip) {
  Rng rng(2);
  std::vector<std::uint32_t> input;
  for (int i = 0; i < 50000; ++i) {
    input.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 65535)));
  }
  EXPECT_EQ(decode_of(input), input);
}

TEST(Huffman, LargeSymbolValues) {
  const std::vector<std::uint32_t> input = {0xFFFFFFFF, 0, 0xFFFFFFFF,
                                            123456789, 0};
  EXPECT_EQ(decode_of(input), input);
}

TEST(Huffman, CodeLengthsAreOptimalOrder) {
  // More frequent symbols must not get longer codes.
  SymbolCounts counts{{1, 1000}, {2, 100}, {3, 10}, {4, 1}};
  const HuffmanCode code = HuffmanCode::from_counts(counts);
  EXPECT_LE(code.length(1), code.length(2));
  EXPECT_LE(code.length(2), code.length(3));
  EXPECT_LE(code.length(3), code.length(4));
}

TEST(Huffman, KraftInequalityHolds) {
  Rng rng(3);
  SymbolCounts counts;
  for (int s = 0; s < 300; ++s) {
    counts[static_cast<std::uint32_t>(s)] =
        static_cast<std::uint64_t>(rng.uniform_int(1, 100000));
  }
  const HuffmanCode code = HuffmanCode::from_counts(counts);
  double kraft = 0.0;
  for (const auto& [sym, len] : code.lengths()) {
    kraft += std::pow(2.0, -len);
  }
  EXPECT_NEAR(kraft, 1.0, 1e-9);  // complete prefix code
}

TEST(Huffman, EncodedBitsMatchesStreamSize) {
  Rng rng(4);
  std::vector<std::uint32_t> input;
  for (int i = 0; i < 5000; ++i) {
    input.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 15)));
  }
  const SymbolCounts counts = count_symbols(input);
  const HuffmanCode code = HuffmanCode::from_counts(counts);
  const std::uint64_t bits = code.encoded_bits(counts);
  const Bytes encoded = encode(input);
  // Encoded stream = table + ceil(bits/8) payload (+ small framing).
  EXPECT_GE(encoded.size() * 8, bits);
  EXPECT_LT(encoded.size(), bits / 8 + 400);
}

TEST(Huffman, CorruptStreamThrows) {
  std::vector<std::uint32_t> input(100, 7);
  input[50] = 9;
  Bytes encoded = encode(input);
  encoded.resize(encoded.size() / 2);  // truncate payload
  EXPECT_THROW((void)decode(encoded), CorruptStream);
}

TEST(Huffman, SymbolCountBeyondThePayloadThrowsBeforeAllocating) {
  // 12 bytes claiming 2^33 symbols of a 2-symbol code: every symbol
  // costs at least one bit, and the payload holds 8.
  Bytes stream;
  ByteSink sink(stream);
  sink.put_varint(std::uint64_t{1} << 33);
  sink.put_varint(2);
  sink.put_varint(0);  // symbol 0, length 1
  sink.put_varint(1);
  sink.put_varint(1);  // symbol 1, length 1
  sink.put_varint(1);
  sink.put_varint(1);
  const Bytes payload = {0x5A};
  sink.put_bytes(payload);
  ASSERT_EQ(stream.size(), 12u);
  EXPECT_THROW((void)decode(stream), CorruptStream);
}

TEST(Huffman, TableCountBeyondTheStreamThrowsBeforeAllocating) {
  // 8 bytes claiming 2^28 (then 2^34) table entries of two varints
  // each.
  for (const int log2_unique : {28, 34}) {
    Bytes stream;
    ByteSink sink(stream);
    sink.put_varint(100);
    sink.put_varint(std::uint64_t{1} << log2_unique);
    sink.put_varint(0);
    sink.put_varint(1);
    if (log2_unique == 28) {
      ASSERT_EQ(stream.size(), 8u);
    }
    EXPECT_THROW((void)decode(stream), CorruptStream) << log2_unique;
  }
}

TEST(Huffman, EmptyHistogramThrows) {
  EXPECT_THROW((void)HuffmanCode::from_counts({}), InvalidArgument);
}

/// Property sweep: round-trip across alphabet sizes and skew levels.
class HuffmanSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(HuffmanSweep, RoundTrip) {
  const auto [alphabet, skew] = GetParam();
  Rng rng(static_cast<std::uint64_t>(alphabet * 1000 + skew * 100));
  std::vector<std::uint32_t> input;
  input.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Zipf-ish skew: symbol ~ floor(alphabet * u^skew).
    const double u = rng.uniform();
    const auto s = static_cast<std::uint32_t>(
        static_cast<double>(alphabet - 1) * std::pow(u, skew));
    input.push_back(s);
  }
  EXPECT_EQ(decode_of(input), input);
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndSkews, HuffmanSweep,
    ::testing::Combine(::testing::Values(2, 17, 256, 4096),
                       ::testing::Values(1.0, 3.0, 8.0)));

}  // namespace
}  // namespace ocelot
