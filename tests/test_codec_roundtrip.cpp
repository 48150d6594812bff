// Round-trip property tests for the codec layer: every encoder must
// invert exactly over random, constant and adversarial inputs,
// including the empty and 1-byte edge cases.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "codec/huffman.hpp"
#include "codec/lossless.hpp"
#include "codec/lzb.hpp"
#include "codec/rle.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace ocelot {
namespace {

std::vector<Bytes> byte_corpus() {
  std::vector<Bytes> corpus;
  corpus.push_back({});                  // empty
  corpus.push_back({0x00});              // single zero byte
  corpus.push_back({0xFF});              // single max byte
  corpus.push_back(Bytes(4096, 0x7A));   // long constant run
  corpus.push_back(Bytes(257, 0x00));    // run crossing a length byte

  Bytes alternating(2048);
  for (std::size_t i = 0; i < alternating.size(); ++i) {
    alternating[i] = (i % 2 == 0) ? 0xAA : 0x55;  // worst case for RLE
  }
  corpus.push_back(std::move(alternating));

  Bytes all_values(256);
  for (std::size_t i = 0; i < 256; ++i) {
    all_values[i] = static_cast<std::uint8_t>(i);
  }
  corpus.push_back(std::move(all_values));

  Bytes sawtooth(3000);
  for (std::size_t i = 0; i < sawtooth.size(); ++i) {
    sawtooth[i] = static_cast<std::uint8_t>(i % 17);  // periodic matches
  }
  corpus.push_back(std::move(sawtooth));

  // Seeded random streams of several lengths (incompressible).
  for (const std::size_t n : {2u, 3u, 255u, 256u, 1000u, 65536u}) {
    Rng rng(0xC0DEC + n);
    Bytes random(n);
    for (auto& b : random) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    corpus.push_back(std::move(random));
  }

  // Random runs: bursty data with both long runs and noise.
  Rng rng(99);
  Bytes bursty;
  while (bursty.size() < 10000) {
    const auto value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto run = static_cast<std::size_t>(rng.uniform_int(1, 400));
    bursty.insert(bursty.end(), run, value);
  }
  corpus.push_back(std::move(bursty));
  return corpus;
}

std::string label_of(const Bytes& data, std::size_t index) {
  return "corpus[" + std::to_string(index) + "] len=" +
         std::to_string(data.size());
}

/// Sink/_into forms of the codec entry points (the Bytes-returning
/// wrappers are deprecated).
Bytes lzb_pack(const Bytes& input) {
  Bytes out;
  ByteSink sink(out);
  lzb_compress(input, sink);
  return out;
}

Bytes lzb_unpack(const Bytes& packed) {
  Bytes out;
  lzb_decompress_into(packed, std::numeric_limits<std::size_t>::max(), out);
  return out;
}

Bytes lossless_pack(const Bytes& input, LosslessBackend backend) {
  Bytes out;
  ByteSink sink(out);
  lossless_compress(input, backend, sink);
  return out;
}

Bytes lossless_unpack(std::span<const std::uint8_t> packed) {
  Bytes out;
  lossless_decompress_into(packed, std::numeric_limits<std::size_t>::max(),
                           out);
  return out;
}

Bytes rle_pack(const Bytes& input) {
  Bytes out;
  ByteSink sink(out);
  rle_compress(input, sink);
  return out;
}

Bytes rle_unpack(const Bytes& packed) {
  Bytes out;
  rle_decompress_into(packed, std::numeric_limits<std::size_t>::max(), out);
  return out;
}

Bytes huffman_pack(const std::vector<std::uint32_t>& symbols) {
  Bytes out;
  ByteSink sink(out);
  huffman_encode(symbols, sink);
  return out;
}

std::vector<std::uint32_t> huffman_unpack(const Bytes& encoded) {
  std::vector<std::uint32_t> out;
  huffman_decode_into(encoded, std::numeric_limits<std::size_t>::max(), out);
  return out;
}

TEST(CodecRoundTrip, RleInvertsExactly) {
  const auto corpus = byte_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Bytes encoded = rle_pack(corpus[i]);
    EXPECT_EQ(rle_unpack(encoded), corpus[i]) << label_of(corpus[i], i);
  }
}

TEST(CodecRoundTrip, LzbInvertsExactly) {
  const auto corpus = byte_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Bytes encoded = lzb_pack(corpus[i]);
    EXPECT_EQ(lzb_unpack(encoded), corpus[i]) << label_of(corpus[i], i);
  }
}

TEST(CodecRoundTrip, LosslessBackendsInvertExactly) {
  const auto corpus = byte_corpus();
  for (const LosslessBackend backend :
       {LosslessBackend::kNone, LosslessBackend::kLzb,
        LosslessBackend::kRleLzb}) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Bytes encoded = lossless_pack(corpus[i], backend);
      EXPECT_EQ(lossless_unpack(encoded), corpus[i])
          << to_string(backend) << " " << label_of(corpus[i], i);
    }
  }
}

std::vector<std::vector<std::uint32_t>> symbol_corpus() {
  std::vector<std::vector<std::uint32_t>> corpus;
  corpus.push_back({});            // empty stream
  corpus.push_back({42});          // single symbol
  corpus.push_back(std::vector<std::uint32_t>(5000, 7));  // one hot symbol
  corpus.push_back({0, 0xFFFFFFFFu, 0, 0xFFFFFFFFu});     // extreme values

  // Skewed quantization-code-like stream (most mass at the center).
  Rng rng(2718);
  std::vector<std::uint32_t> skewed(20000);
  for (auto& s : skewed) {
    const double u = rng.uniform();
    if (u < 0.85) {
      s = 512;  // zero bin
    } else {
      s = static_cast<std::uint32_t>(512 + rng.uniform_int(-64, 64));
    }
  }
  corpus.push_back(std::move(skewed));

  // Uniform random symbols over a wide alphabet.
  std::vector<std::uint32_t> uniform(4096);
  for (auto& s : uniform) {
    s = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
  }
  corpus.push_back(std::move(uniform));
  return corpus;
}

TEST(CodecRoundTrip, HuffmanInvertsExactly) {
  const auto corpus = symbol_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Bytes encoded = huffman_pack(corpus[i]);
    EXPECT_EQ(huffman_unpack(encoded), corpus[i])
        << "symbols[" << i << "] len=" << corpus[i].size();
  }
}

TEST(CodecRoundTrip, CompressedStreamsAreSelfDescribing) {
  // The lossless container embeds its backend id: decoding dispatches
  // without out-of-band information.
  const Bytes raw(1024, 0x3C);
  for (const LosslessBackend backend :
       {LosslessBackend::kNone, LosslessBackend::kLzb,
        LosslessBackend::kRleLzb}) {
    const Bytes blob = lossless_pack(raw, backend);
    EXPECT_EQ(lossless_unpack(blob), raw);
  }
  EXPECT_THROW(lossless_unpack(Bytes{}), CorruptStream);
}

}  // namespace
}  // namespace ocelot
