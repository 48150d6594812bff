// Unit tests for RLE and the pluggable lossless backend chain.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "codec/lossless.hpp"
#include "codec/rle.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace ocelot {
namespace {

constexpr std::size_t kNoBound = std::numeric_limits<std::size_t>::max();

Bytes rle_compress(const Bytes& input) {
  Bytes out;
  ByteSink sink(out);
  ocelot::rle_compress(input, sink);
  return out;
}

Bytes rle_decompress(const Bytes& packed, std::size_t max_bytes = kNoBound) {
  Bytes out;
  rle_decompress_into(packed, max_bytes, out);
  return out;
}

/// Runs `decode` and returns the CorruptStream message ("" if none).
template <typename Fn>
std::string corrupt_message(Fn&& decode) {
  try {
    decode();
  } catch (const CorruptStream& e) {
    return e.what();
  }
  return "";
}

TEST(Rle, EmptyInput) {
  EXPECT_TRUE(rle_decompress(rle_compress({})).empty());
}

TEST(Rle, NoRuns) {
  const Bytes input = {1, 2, 3, 4, 5};
  EXPECT_EQ(rle_decompress(rle_compress(input)), input);
}

TEST(Rle, PureRun) {
  const Bytes input(10000, 9);
  const Bytes packed = rle_compress(input);
  EXPECT_EQ(rle_decompress(packed), input);
  EXPECT_LT(packed.size(), 16u);
}

TEST(Rle, ExactDoubleByteIsNotExpandedWrongly) {
  const Bytes input = {5, 5, 6, 6, 7};
  EXPECT_EQ(rle_decompress(rle_compress(input)), input);
}

TEST(Rle, MixedRunsAndLiterals) {
  Rng rng(11);
  Bytes input;
  for (int block = 0; block < 200; ++block) {
    const auto v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto run = static_cast<std::size_t>(rng.uniform_int(1, 50));
    input.insert(input.end(), run, v);
  }
  EXPECT_EQ(rle_decompress(rle_compress(input)), input);
}

TEST(Rle, RunOverflowThrows) {
  BytesWriter w;
  w.put_varint(3);            // claims 3 bytes
  w.put<std::uint8_t>(1);
  w.put<std::uint8_t>(1);
  w.put_varint(100);          // run of 102 > 3
  EXPECT_THROW((void)rle_decompress(w.bytes()), CorruptStream);
}

TEST(Rle, ClaimAboveTheCallersBoundThrowsNamingIt) {
  const Bytes input(1000, 4);
  const Bytes packed = rle_compress(input);
  EXPECT_EQ(rle_decompress(packed, input.size()), input);
  const std::string what =
      corrupt_message([&] { (void)rle_decompress(packed, input.size() - 1); });
  EXPECT_NE(what.find("1000 bytes, more than the 999 allowed"),
            std::string::npos)
      << what;
}

TEST(Rle, StreamBoundCoversTheWorstCase) {
  // Pairs are the only expanding unit (2 bytes -> 3).
  Bytes pairs;
  for (int i = 0; i < 5000; ++i) pairs.insert(pairs.end(), 2, i & 1 ? 7 : 9);
  EXPECT_LE(rle_compress(pairs).size(), rle_max_stream_bytes(pairs.size()));
  EXPECT_EQ(rle_max_stream_bytes(kNoBound), kNoBound);
}

/// Sink-form lossless compress/decompress (the Bytes-returning
/// overloads are deprecated; tests drive the streaming entry points).
Bytes lossless_pack(const Bytes& input, LosslessBackend backend) {
  Bytes out;
  ByteSink sink(out);
  lossless_compress(input, backend, sink);
  return out;
}

Bytes lossless_unpack(const Bytes& packed, std::size_t max_bytes = kNoBound) {
  Bytes out;
  lossless_decompress_into(packed, max_bytes, out);
  return out;
}

TEST(Lossless, AllBackendsRoundTrip) {
  Rng rng(12);
  Bytes input;
  for (int i = 0; i < 20000; ++i) {
    input.push_back(rng.chance(0.8)
                        ? 0
                        : static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  for (const auto backend :
       {LosslessBackend::kNone, LosslessBackend::kLzb,
        LosslessBackend::kRleLzb}) {
    const Bytes packed = lossless_pack(input, backend);
    EXPECT_EQ(lossless_unpack(packed), input)
        << "backend=" << to_string(backend);
  }
}

TEST(Lossless, EveryBackendHonorsTheCallersBound) {
  // An exact-fit bound decodes; one byte less throws a CorruptStream
  // naming the bound before anything is reserved.
  Bytes input(3000, 0);
  for (std::size_t i = 0; i < input.size(); i += 7) input[i] = 0x5A;
  for (const auto backend :
       {LosslessBackend::kNone, LosslessBackend::kLzb,
        LosslessBackend::kRleLzb}) {
    const Bytes packed = lossless_pack(input, backend);
    EXPECT_EQ(lossless_unpack(packed, input.size()), input)
        << to_string(backend);
    const std::string what = corrupt_message(
        [&] { (void)lossless_unpack(packed, input.size() - 1); });
    EXPECT_NE(what.find("the 2999 allowed"), std::string::npos)
        << to_string(backend) << ": " << what;
  }
}

TEST(Lossless, BackendIdIsEmbedded) {
  const Bytes input(100, 3);
  const Bytes packed = lossless_pack(input, LosslessBackend::kLzb);
  EXPECT_EQ(packed[0], static_cast<std::uint8_t>(LosslessBackend::kLzb));
}

TEST(Lossless, UnknownBackendIdThrows) {
  Bytes bad = {99, 1, 2, 3};
  EXPECT_THROW((void)lossless_unpack(bad), CorruptStream);
}

TEST(Lossless, SparseDataPrefersRleChain) {
  // Heavily sparse stream: RLE+LZB should beat plain storage by a lot.
  const Bytes input(50000, 0);
  const Bytes packed = lossless_pack(input, LosslessBackend::kRleLzb);
  EXPECT_LT(packed.size(), 100u);
}

TEST(Lossless, NamesAreStable) {
  EXPECT_EQ(to_string(LosslessBackend::kNone), "none");
  EXPECT_EQ(to_string(LosslessBackend::kLzb), "lzb");
  EXPECT_EQ(to_string(LosslessBackend::kRleLzb), "rle+lzb");
}

}  // namespace
}  // namespace ocelot
