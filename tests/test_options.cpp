// Unit tests for the shared key=value OptionSet parser (CLI trailing
// options, `ocelot serve` config, and ocelotd request option frames),
// and for the compression keys every front end parses through it.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"
#include "core/engine.hpp"

namespace ocelot {
namespace {

TEST(OptionSet, FromArgsRequiresKeyValueForm) {
  const OptionSet options =
      OptionSet::from_args({"eb=1e-3", "backend=sz3"}, "compress");
  EXPECT_EQ(options.size(), 2u);
  EXPECT_TRUE(options.has("eb"));
  try {
    (void)OptionSet::from_args({"eb=1", "oops"}, "compress");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "compress options are key=value, got: oops");
  }
}

TEST(OptionSet, FromLineSplitsOnWhitespace) {
  const OptionSet options =
      OptionSet::from_line("  eb=1e-3\t backend=sz3  ", "request");
  EXPECT_EQ(options.size(), 2u);
  EXPECT_TRUE(options.has("backend"));
  EXPECT_TRUE(OptionSet::from_line("", "request").empty());
}

TEST(OptionSet, LastValueWinsFirstPositionKept) {
  OptionSet options;
  options.set("a", "1");
  options.set("b", "2");
  options.set("a", "3");
  EXPECT_EQ(options.get_string("a"), "3");
  EXPECT_EQ(options.index_of("a"), std::optional<std::size_t>(0));
  EXPECT_EQ(options.index_of("b"), std::optional<std::size_t>(1));
  EXPECT_FALSE(options.index_of("missing").has_value());
}

TEST(OptionSet, TypedGettersParseAndReportErrors) {
  OptionSet options = OptionSet::from_line(
      "d=2.5 n=8 f=1 c=abs l=a,b,c bad_d=x bad_n=0 bad_f=yes bad_c=weird",
      "test");
  EXPECT_DOUBLE_EQ(options.get_double("d", 0.0), 2.5);
  EXPECT_EQ(options.get_count("n", 1), 8u);
  EXPECT_TRUE(options.get_flag("f", false));
  EXPECT_EQ(options.get_choice("c", {"abs", "rel"}, "rel"), "abs");
  EXPECT_EQ(options.get_list("l"),
            (std::vector<std::string>{"a", "b", "c"}));

  // Defaults when absent.
  EXPECT_DOUBLE_EQ(options.get_double("absent", 7.0), 7.0);
  EXPECT_EQ(options.get_count("absent", 3), 3u);
  EXPECT_FALSE(options.get_flag("absent", false));
  EXPECT_TRUE(options.get_list("absent").empty());

  EXPECT_THROW((void)options.get_double("bad_d", 0.0), InvalidArgument);
  EXPECT_THROW((void)options.get_count("bad_n", 1), InvalidArgument);
  EXPECT_THROW((void)options.get_flag("bad_f", false), InvalidArgument);
  try {
    (void)options.get_choice("bad_c", {"abs", "rel"}, "rel", "eb mode");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "unknown eb mode: weird (expected abs|rel)");
  }
}

TEST(OptionSet, RejectUnknownNamesFirstUnconsumedInOrder) {
  OptionSet options = OptionSet::from_line("known=1 typo=2 other=3", "serve");
  (void)options.get_string("known");
  try {
    options.reject_unknown("serve");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "unknown serve option: typo");
  }
  (void)options.take("typo");
  (void)options.take("other");
  EXPECT_NO_THROW(options.reject_unknown("serve"));
}

TEST(OptionSet, CanonicalLinePreservesOrderAndFiltersConsumed) {
  OptionSet options = OptionSet::from_line(
      "connect=unix:/s tenant=cli eb=1e-3 backend=sz3", "client");
  EXPECT_EQ(options.canonical_line(),
            "connect=unix:/s tenant=cli eb=1e-3 backend=sz3");
  // The client consumes its transport keys, then forwards the rest.
  (void)options.get_string("connect");
  (void)options.get_string("tenant");
  EXPECT_EQ(options.canonical_line(/*unconsumed_only=*/true),
            "eb=1e-3 backend=sz3");
}

TEST(OptionSet, StandaloneParsersShareErrorShape) {
  EXPECT_DOUBLE_EQ(parse_double_option("eb", "1e-4"), 1e-4);
  EXPECT_EQ(parse_count_option("workers", "12"), 12u);
  try {
    (void)parse_count_option("workers", "0");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "bad workers value: 0");
  }
  EXPECT_THROW((void)parse_double_option("eb", "1x"), InvalidArgument);
  EXPECT_THROW((void)parse_count_option("workers", "-3"), InvalidArgument);
}

TEST(OptionSet, UnsignedGetterAcceptsZeroButNoSignOrJunk) {
  OptionSet options = OptionSet::from_line(
      "zero=0 big=18446744073709551615 neg=-2 plus=+2 junk=5x", "fleet");
  EXPECT_EQ(options.get_uint("zero", 7), 0u);
  EXPECT_EQ(options.get_uint("big", 0), 18446744073709551615ull);
  EXPECT_EQ(options.get_uint("absent", 42), 42u);
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"neg", "-2"}, {"plus", "+2"}, {"junk", "5x"}}) {
    try {
      (void)options.get_uint(key, 0);
      FAIL() << "expected InvalidArgument for " << key;
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), "bad " + key + " value: " + value);
    }
  }
  EXPECT_THROW((void)parse_uint_option("seed", "18446744073709551616"),
               InvalidArgument);  // out of range
  EXPECT_THROW((void)parse_uint_option("seed", ""), InvalidArgument);
  EXPECT_THROW((void)parse_uint_option("seed", " 5"), InvalidArgument);
}

TEST(CompressionOptions, EntropyKeysAcceptOnlyRegisteredStages) {
  // bwt-mtf and lzw were removed: asking for either is an unknown
  // stage, and the error lists the two that remain.
  for (const char* line : {"entropy=bwt-mtf", "entropy_stages=huffman,lzw"}) {
    OptionSet options = OptionSet::from_line(line, "request");
    try {
      (void)parse_compression_options(options);
      FAIL() << "expected InvalidArgument for " << line;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("(registered: huffman ans)"),
                std::string::npos)
          << line << ": " << e.what();
    }
  }
  OptionSet options =
      OptionSet::from_line("entropy=ans entropy_stages=huffman,ans", "request");
  const EngineRequest request = parse_compression_options(options);
  EXPECT_EQ(request.config.entropy, "ans");
  EXPECT_EQ(request.adaptive_options.entropy_stages,
            (std::vector<std::string>{"huffman", "ans"}));
}

}  // namespace
}  // namespace ocelot
