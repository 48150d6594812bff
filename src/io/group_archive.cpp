#include "io/group_archive.hpp"

#include <cstring>

#include "common/error.hpp"

namespace ocelot {

namespace {
constexpr std::uint8_t kMagic[4] = {'O', 'C', 'G', '1'};
}

Bytes build_group(const std::vector<GroupMember>& members) {
  require(!members.empty(), "build_group: empty group");
  BytesWriter out;
  out.put_bytes(kMagic);
  out.put_varint(members.size());
  // Header: names and sizes; offsets are implied by cumulative sizes.
  for (const auto& m : members) {
    out.put_string(m.name);
    out.put_varint(m.data.size());
  }
  for (const auto& m : members) {
    out.put_bytes(m.data);
  }
  return out.take();
}

std::vector<GroupIndexEntry> read_group_index(
    std::span<const std::uint8_t> archive) {
  BytesReader in(archive);
  const auto magic = in.get_bytes(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0)
    throw CorruptStream("group archive: bad magic");
  const std::uint64_t count = in.get_varint();
  if (count == 0) throw CorruptStream("group archive: zero members");
  // Every header entry takes at least two bytes (name length and size
  // varints), so a count the rest of the archive cannot hold is
  // refused before anything is reserved for it.
  if (count > in.remaining() / 2)
    throw CorruptStream("group archive: more members than bytes");

  std::vector<GroupIndexEntry> index;
  index.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    GroupIndexEntry e;
    e.name = in.get_string();
    e.size = in.get_varint();
    index.push_back(std::move(e));
  }
  // Offsets start where the header ends. Each size is checked against
  // the body left before it is added, so crafted sizes can neither wrap
  // the sum nor point a member past the buffer.
  std::size_t offset = archive.size() - in.remaining();
  for (auto& e : index) {
    e.offset = offset;
    if (e.size > archive.size() - offset)
      throw CorruptStream("group archive: member overruns the archive");
    offset += e.size;
  }
  if (offset != archive.size())
    throw CorruptStream("group archive: body size mismatch");
  return index;
}

}  // namespace ocelot
