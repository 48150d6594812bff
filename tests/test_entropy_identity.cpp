// Byte identity of the default huffman + lzb entropy chain.
//
// The production coders pack and unpack Huffman bits a word at a time,
// decode through a pair table and probe LZB candidates without
// branches; the bytewise coders they replaced live on as oracles in
// tests/support/entropy_reference.hpp. These tests diff the two:
// Huffman streams over alphabets from 1 to 70,000 symbols and three
// skews must encode to the oracle's bytes, and every truncation, byte
// flip and hostile table must decode to the oracle's symbols or make
// both throw. LZB must emit the oracle's sequences on inputs that
// straddle its 64 KiB window. Engine fingerprints pin whole blobs on
// generated fields, so any change to the default chain's bytes shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "codec/huffman.hpp"
#include "codec/lzb.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "datagen/datasets.hpp"
#include "support/entropy_reference.hpp"

namespace ocelot {
namespace {

enum class Skew { kUniform, kZipf, kGeometric };

const char* skew_name(Skew s) {
  switch (s) {
    case Skew::kUniform:
      return "uniform";
    case Skew::kZipf:
      return "zipf";
    case Skew::kGeometric:
      return "geometric";
  }
  return "?";
}

/// `n` seeded symbols over `alphabet` values. Alphabets wider than 2^16
/// space their symbols 3 apart, so 70,000 symbols span more than the
/// encoder's 2^17-entry dense emit table and take its binary-search
/// path.
std::vector<std::uint32_t> make_symbols(std::size_t alphabet, Skew skew,
                                        std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t stride = alphabet > 65536 ? 3 : 1;
  const auto top = static_cast<double>(alphabet);
  std::vector<std::uint32_t> symbols(n);
  for (auto& s : symbols) {
    double k = 0.0;
    switch (skew) {
      case Skew::kUniform:
        k = static_cast<double>(
            rng.uniform_int(0, static_cast<std::int64_t>(alphabet) - 1));
        break;
      case Skew::kZipf:  // P(k) ~ 1 / (k + 1)
        k = std::floor(std::exp(rng.uniform() * std::log(top))) - 1.0;
        break;
      case Skew::kGeometric:  // P(k) = 0.3 * 0.7^k
        k = std::floor(std::log(1.0 - rng.uniform()) / std::log(0.7));
        break;
    }
    k = std::min(std::max(k, 0.0), top - 1.0);
    s = 11 + static_cast<std::uint32_t>(k) * stride;
  }
  return symbols;
}

Bytes huffman_bytes(std::span<const std::uint32_t> symbols) {
  Bytes out;
  ByteSink sink(out);
  huffman_encode(symbols, sink);
  return out;
}

/// The oracle takes no symbol bound, so the production decoder gets
/// none either when the two are diffed.
constexpr std::size_t kNoBound = std::numeric_limits<std::size_t>::max();

/// A decoder's result: its symbols, or nullopt when it threw
/// CorruptStream (any other exception fails the test).
using Outcome = std::optional<std::vector<std::uint32_t>>;

template <typename Decode>
Outcome outcome_of(Decode&& decode, std::span<const std::uint8_t> stream) {
  std::vector<std::uint32_t> out;
  try {
    decode(stream, out);
  } catch (const CorruptStream&) {
    return std::nullopt;
  }
  return out;
}

/// True when the stream claims a zero-bit (one-symbol) code with a huge
/// count. Such a claim costs no payload bytes, so only the caller's
/// symbol bound limits it; the diff runs unbounded and skips it rather
/// than allocate what it claims.
bool unbounded_zero_bit_claim(std::span<const std::uint8_t> stream) {
  try {
    BytesReader in(stream);
    const std::uint64_t n = in.get_varint();
    return n > (1u << 20) && in.get_varint() == 1;
  } catch (const CorruptStream&) {
    return false;
  }
}

/// Decodes `stream` with the production decoder and the oracle and
/// requires the same symbols, or a CorruptStream from both. Returns
/// whether the stream decoded.
bool expect_same_decode(std::span<const std::uint8_t> stream,
                        const std::string& what) {
  if (unbounded_zero_bit_claim(stream)) return false;
  const Outcome fast = outcome_of(
      [](auto s, auto& out) { huffman_decode_into(s, kNoBound, out); },
      stream);
  const Outcome ref = outcome_of(
      [](auto s, auto& out) { reference::huffman_decode_into(s, out); },
      stream);
  EXPECT_EQ(fast.has_value(), ref.has_value()) << what;
  if (fast.has_value() && ref.has_value()) {
    EXPECT_TRUE(*fast == *ref) << what;
  }
  return fast.has_value();
}

/// Offset of the payload blob's varint length prefix in a huffman
/// stream: after the count, the unique count and the table.
std::size_t payload_prefix_offset(std::span<const std::uint8_t> stream) {
  BytesReader in(stream);
  (void)in.get_varint();
  const std::uint64_t unique = in.get_varint();
  for (std::uint64_t i = 0; i < 2 * unique; ++i) (void)in.get_varint();
  return stream.size() - in.remaining();
}

/// The stream with its payload cut to `keep` bytes and the blob's
/// length prefix rewritten to match, so the bit decoder, not the byte
/// reader, meets the shortfall.
Bytes with_payload_cut(std::span<const std::uint8_t> stream,
                       std::size_t keep) {
  const std::size_t at = payload_prefix_offset(stream);
  BytesReader in(stream.subspan(at));
  const auto payload = in.get_blob();
  Bytes out(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(at));
  ByteSink sink(out);
  sink.put_blob(payload.first(std::min(keep, payload.size())));
  return out;
}

/// The stream with its symbol count replaced by `n`.
Bytes with_count(std::span<const std::uint8_t> stream, std::uint64_t n) {
  BytesReader in(stream);
  (void)in.get_varint();
  Bytes out;
  ByteSink sink(out);
  sink.put_varint(n);
  sink.put_bytes(stream.subspan(stream.size() - in.remaining()));
  return out;
}

constexpr std::size_t kAlphabets[] = {1, 2, 3, 256, 4096, 70000};
constexpr Skew kSkews[] = {Skew::kUniform, Skew::kZipf, Skew::kGeometric};

TEST(EntropyIdentity, HuffmanEncodeMatchesBytewiseOracle) {
  std::uint64_t seed = 1;
  for (const std::size_t alphabet : kAlphabets) {
    for (const Skew skew : kSkews) {
      for (const std::size_t n : {1u, 7u, 8u, 9u, 1000u, 60000u}) {
        const auto symbols = make_symbols(alphabet, skew, n, seed++);
        const Bytes fast = huffman_bytes(symbols);
        EXPECT_TRUE(fast == reference::huffman_encode(symbols))
            << "alphabet " << alphabet << " " << skew_name(skew) << " n "
            << n;
        std::vector<std::uint32_t> decoded;
        huffman_decode_into(fast, symbols.size(), decoded);
        EXPECT_TRUE(decoded == symbols);
      }
    }
  }
  // The histogram overload packs through the same store loop.
  const auto symbols = make_symbols(4096, Skew::kZipf, 5000, 99);
  Bytes with_hist;
  ByteSink sink(with_hist);
  huffman_encode(symbols, histogram_symbols(symbols), sink);
  EXPECT_TRUE(with_hist == reference::huffman_encode(symbols));
}

TEST(EntropyIdentity, HuffmanDecodeMatchesOracleOnTruncationsAndFlips) {
  std::uint64_t seed = 100;
  for (const std::size_t alphabet : kAlphabets) {
    for (const Skew skew : kSkews) {
      const std::string what =
          "alphabet " + std::to_string(alphabet) + " " + skew_name(skew);
      const auto symbols = make_symbols(alphabet, skew, 600, seed++);
      const Bytes stream = huffman_bytes(symbols);
      EXPECT_TRUE(expect_same_decode(stream, what));

      for (std::size_t len = 0; len < stream.size(); ++len) {
        EXPECT_FALSE(expect_same_decode(
            std::span<const std::uint8_t>(stream).first(len),
            what + " prefix " + std::to_string(len)));
      }
      // Payload cuts and count inflation reach the bit decoder's tail
      // and its exhaustion checks, which a stream prefix cannot.
      const std::size_t payload_bytes =
          stream.size() - payload_prefix_offset(stream);
      for (std::size_t keep = 0; keep < payload_bytes; ++keep) {
        (void)expect_same_decode(with_payload_cut(stream, keep),
                                 what + " payload " + std::to_string(keep));
      }
      for (const std::uint64_t n :
           {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{599},
            std::uint64_t{601}, std::uint64_t{608}, std::uint64_t{1200},
            std::uint64_t{1} << 33}) {
        (void)expect_same_decode(with_count(stream, n),
                                 what + " count " + std::to_string(n));
      }

      Rng rng(seed * 7919);
      for (int flip = 0; flip < 1000; ++flip) {
        Bytes hostile = stream;
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(stream.size()) - 1));
        hostile[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        (void)expect_same_decode(hostile,
                                 what + " flip at " + std::to_string(at));
      }
    }
  }
}

TEST(EntropyIdentity, HuffmanDecodeMatchesOracleOnHostileTables) {
  // Random length tables: over-full ones (overlapping codewords, whose
  // later LUT entries overwrite earlier ones), incomplete ones (windows
  // no code covers) and long codes, over random payload bits.
  Rng rng(4242);
  int decoded = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes stream;
    ByteSink sink(stream);
    sink.put_varint(static_cast<std::uint64_t>(rng.uniform_int(1, 2000)));
    const auto unique = static_cast<std::uint64_t>(rng.uniform_int(2, 40));
    sink.put_varint(unique);
    // Mostly LUT-sized codes, sometimes up to the 57-bit cap.
    const std::int64_t max_len =
        rng.chance(0.2) ? rng.uniform_int(17, 57) : rng.uniform_int(1, 16);
    for (std::uint64_t i = 0; i < unique; ++i) {
      sink.put_varint(static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
      sink.put_varint(static_cast<std::uint64_t>(rng.uniform_int(1, max_len)));
    }
    Bytes payload(static_cast<std::size_t>(rng.uniform_int(0, 300)));
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    sink.put_blob(payload);
    decoded += expect_same_decode(stream, "trial " + std::to_string(trial));
  }
  // Both outcomes must be exercised, not only the throwing one.
  EXPECT_GT(decoded, 100);
}

Bytes lzb_bytes(std::span<const std::uint8_t> raw) {
  Bytes out;
  ByteSink sink(out);
  lzb_compress(raw, sink);
  return out;
}

TEST(EntropyIdentity, LzbMatchesGreedyOracleAcrossTheWindow) {
  constexpr std::size_t kMax = 200000;
  Rng rng(77);
  std::vector<std::pair<std::string, Bytes>> sources;
  Bytes random(kMax);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  sources.emplace_back("random", random);
  sources.emplace_back("zeros", Bytes(kMax, 0));
  for (const std::size_t period : {3u, 64u, 1000u, 65535u, 65536u, 70000u}) {
    Bytes periodic(kMax);
    for (std::size_t i = 0; i < kMax; ++i) {
      periodic[i] = random[i % period];
    }
    sources.emplace_back("period " + std::to_string(period), periodic);
  }
  // The default chain's real input: Huffman output over quantization
  // codes, almost all literals with sparse short matches.
  const auto codes = make_symbols(4096, Skew::kZipf, 260000, 5);
  Bytes huff = huffman_bytes(codes);
  huff.resize(std::min(huff.size(), kMax));
  sources.emplace_back("huffman output", huff);

  for (const auto& [name, source] : sources) {
    for (const std::size_t size :
         {0u, 1u, 3u, 4u, 5u, 8u, 17u, 4096u, 65535u, 65536u, 65537u, 65540u,
          100000u, 131079u, 200000u}) {
      if (size > source.size()) continue;
      const auto raw = std::span<const std::uint8_t>(source).first(size);
      const Bytes packed = lzb_bytes(raw);
      EXPECT_TRUE(packed == reference::lzb_compress(raw))
          << name << " size " << size;
      Bytes unpacked;
      lzb_decompress_into(packed, unpacked);
      EXPECT_TRUE(std::equal(unpacked.begin(), unpacked.end(), raw.begin(),
                             raw.end()))
          << name << " size " << size;
    }
  }
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(EntropyIdentity, EngineFingerprintsMatchPinnedValues) {
  // FNV-1a 64 of Engine::compress blobs on generate_field(app, field,
  // 0.1, 42); the values predate the word-at-a-time entropy coders.
  struct Case {
    const char* app;
    const char* field;
    std::size_t fixed_bytes;
    std::uint64_t fixed_fnv;
    std::size_t adaptive_bytes;
    std::uint64_t adaptive_fnv;
  };
  const Case cases[] = {
      {"Miranda", "density", 24473, 0x0fe70dc35899d406ull, 22947,
       0x2dbc1723b4e5f820ull},
      {"CESM", "TS", 8830, 0x32ea1d5bf6250ee3ull, 18046,
       0xc68719a6d35ecc5dull},
      {"ISABEL", "Uf48", 20613, 0x940b30913dffe21bull, 19689,
       0xe3c5cb69d9852fccull},
      {"Nyx", "temperature", 93104, 0x49045c1af58fa1c3ull, 93661,
       0xb113d0796d51f5c6ull},
  };
  const std::string fixed = "mode=rel eb=1e-3 backend=sz3-interp";
  const std::string adaptive =
      fixed + " policy=adaptive block_slabs=8 workers=2";
  for (const Case& c : cases) {
    const FloatArray field = generate_field(c.app, c.field, 0.1, 42);
    for (const bool is_adaptive : {false, true}) {
      OptionSet options =
          OptionSet::from_line(is_adaptive ? adaptive : fixed, "test");
      const EngineRequest request = parse_compression_options(options);
      Bytes blob;
      (void)Engine::shared().compress(field, request, blob);
      EXPECT_EQ(blob.size(), is_adaptive ? c.adaptive_bytes : c.fixed_bytes)
          << c.app << "/" << c.field << (is_adaptive ? " adaptive" : "");
      EXPECT_EQ(fnv1a64(blob), is_adaptive ? c.adaptive_fnv : c.fixed_fnv)
          << c.app << "/" << c.field << (is_adaptive ? " adaptive" : "");
    }
  }
}

}  // namespace
}  // namespace ocelot
