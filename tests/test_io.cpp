// Tests for the file store, field file format, grouped archives, and
// OCB1 container robustness against truncation.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "io/block_container.hpp"
#include "io/dataset_file.hpp"
#include "io/file_store.hpp"
#include "io/group_archive.hpp"

namespace ocelot {
namespace {

TEST(FileStore, WriteReadListRemove) {
  FileStore store;
  store.write("a/x.dat", {1, 2, 3});
  store.write("a/y.dat", {4});
  store.write("b/z.dat", {5, 6});

  EXPECT_TRUE(store.exists("a/x.dat"));
  EXPECT_EQ(store.read("a/x.dat"), (Bytes{1, 2, 3}));
  EXPECT_EQ(store.size("b/z.dat"), 2u);
  EXPECT_EQ(store.list("a/"), (std::vector<std::string>{"a/x.dat", "a/y.dat"}));
  EXPECT_EQ(store.file_count(), 3u);
  EXPECT_DOUBLE_EQ(store.total_bytes(), 6.0);

  EXPECT_TRUE(store.remove("a/y.dat"));
  EXPECT_FALSE(store.remove("a/y.dat"));
  EXPECT_THROW((void)store.read("a/y.dat"), NotFound);
}

TEST(FileStore, OverwriteReplaces) {
  FileStore store;
  store.write("f", {1});
  store.write("f", {2, 3});
  EXPECT_EQ(store.read("f"), (Bytes{2, 3}));
  EXPECT_EQ(store.file_count(), 1u);
}

TEST(DatasetFile, RoundTripAllRanks) {
  Rng rng(1);
  for (const Shape& shape : {Shape(17), Shape(5, 9), Shape(3, 4, 5)}) {
    FloatArray data(shape);
    for (float& v : data.values()) {
      v = static_cast<float>(rng.normal(0.0, 10.0));
    }
    const Bytes blob = save_field("CESM/TMQ", data);
    const LoadedField loaded = load_field(blob);
    EXPECT_EQ(loaded.name, "CESM/TMQ");
    EXPECT_EQ(loaded.data.shape(), shape);
    EXPECT_EQ(loaded.data.vector(), data.vector());
  }
}

TEST(DatasetFile, CorruptInputThrows) {
  const FloatArray data(Shape(4, 4));
  Bytes blob = save_field("x", data);
  blob[0] = 'Z';
  EXPECT_THROW((void)load_field(blob), CorruptStream);

  Bytes truncated = save_field("x", data);
  truncated.resize(truncated.size() - 8);
  EXPECT_THROW((void)load_field(truncated), CorruptStream);
}

TEST(GroupArchive, RoundTripPreservesMembersBitExactly) {
  Rng rng(2);
  std::vector<GroupMember> members;
  for (int i = 0; i < 20; ++i) {
    GroupMember m;
    m.name = "file-" + std::to_string(i) + ".sz";
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 5000));
    for (std::size_t b = 0; b < n; ++b) {
      m.data.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    members.push_back(std::move(m));
  }
  const Bytes archive = build_group(members);
  const auto parsed = parse_group(archive);
  ASSERT_EQ(parsed.size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(parsed[i].name, members[i].name);
    EXPECT_EQ(parsed[i].data, members[i].data);
  }
}

TEST(GroupArchive, IndexHasCorrectOffsetsAndSizes) {
  std::vector<GroupMember> members = {
      {"a", {1, 2, 3}}, {"b", {}}, {"c", {9, 9}}};
  const Bytes archive = build_group(members);
  const auto index = read_group_index(archive);
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index[0].size, 3u);
  EXPECT_EQ(index[1].size, 0u);
  EXPECT_EQ(index[2].size, 2u);
  EXPECT_EQ(index[1].offset, index[0].offset + 3);
  // Body is the concatenation of payloads.
  EXPECT_EQ(archive[index[0].offset], 1);
  EXPECT_EQ(archive[index[2].offset + 1], 9);
}

TEST(GroupArchive, HeaderSizeIsModest) {
  // Grouping overhead must stay tiny relative to payloads.
  std::vector<GroupMember> members;
  for (int i = 0; i < 100; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    members.push_back({std::move(name), Bytes(10000, 1)});
  }
  const Bytes archive = build_group(members);
  EXPECT_LT(archive.size(), 100u * 10000u + 100u * 32u);
}

TEST(GroupArchive, MalformedArchiveThrows) {
  EXPECT_THROW((void)build_group({}), InvalidArgument);
  Bytes bad = {1, 2, 3, 4, 5};
  EXPECT_THROW((void)parse_group(bad), CorruptStream);

  std::vector<GroupMember> members = {{"a", {1, 2, 3}}};
  Bytes truncated = build_group(members);
  truncated.pop_back();
  EXPECT_THROW((void)parse_group(truncated), CorruptStream);
}

TEST(GroupMetadata, RenderParseRoundTrip) {
  const std::vector<std::vector<std::string>> groups = {
      {"cesm/TMQ.sz", "cesm/PSL.sz"},
      {"cesm/TS.sz"},
  };
  const std::string text = render_group_metadata(groups, "world-size=2");
  const auto parsed = parse_group_metadata(text);
  EXPECT_EQ(parsed, groups);
  EXPECT_NE(text.find("strategy: world-size=2"), std::string::npos);
}

TEST(GroupMetadata, EmptyTextThrows) {
  EXPECT_THROW((void)parse_group_metadata("no groups here"), CorruptStream);
}

TEST(BlockContainer, EveryTruncationEitherParsesOrThrows) {
  // Fuzz-style sweep: for a valid OCB1 container, every strict prefix
  // must be rejected with CorruptStream before any block read — no
  // other exception type, no UB, never a "successful" partial parse
  // (the body-size check makes full length the only valid length).
  Rng rng(17);
  std::vector<Bytes> payloads;
  for (int b = 0; b < 5; ++b) {
    Bytes payload;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    for (std::size_t i = 0; i < n; ++i) {
      payload.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    payloads.push_back(std::move(payload));
  }
  const Bytes container = build_block_container(
      Shape(10, 3), 2, {payloads.begin(), payloads.end()});

  ASSERT_NO_THROW((void)read_block_index(container));
  for (std::size_t len = 0; len < container.size(); ++len) {
    const std::span<const std::uint8_t> prefix(container.data(), len);
    EXPECT_THROW((void)read_block_index(prefix), CorruptStream)
        << "prefix length " << len;
  }
}

TEST(BlockContainer, TruncatedIndexEntryRejectedBeforeAnyBlockRead) {
  // Cut inside the per-block index (after the varint length of block 0
  // but before its CRC): the reader must throw while parsing the
  // index, never hand out a payload view.
  const Bytes container =
      build_block_container(Shape(4), 2, {Bytes{1, 2, 3}, Bytes{4, 5}});
  const BlockContainerInfo info = read_block_index(container);
  ASSERT_EQ(info.blocks.size(), 2u);
  // info.blocks[0].offset is where payloads start; the index occupies
  // everything before it. Truncate mid-index.
  const std::size_t mid_index = info.blocks[0].offset - 6;
  const std::span<const std::uint8_t> cut(container.data(), mid_index);
  EXPECT_THROW((void)read_block_index(cut), CorruptStream);
}

}  // namespace
}  // namespace ocelot
