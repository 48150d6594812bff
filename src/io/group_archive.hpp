#pragma once
// Grouped-file archive for transfer optimization (Fig. 11).
//
// Many small compressed files transfer slowly (Table II), so Ocelot
// concatenates them into grouped files ("OCG1"): each group has a
// binary header (member count, per-member name and size; offsets
// follow from the sizes) followed by the concatenated member payloads.
// read_group_index is the one reader: it treats the archive as
// untrusted and views the payloads in place.

#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace ocelot {

/// One member of a group: a named payload.
struct GroupMember {
  std::string name;
  Bytes data;
};

/// Builds a grouped archive from members (header + body).
Bytes build_group(const std::vector<GroupMember>& members);

/// One member of a parsed archive: its name and where its payload
/// sits in the archive.
struct GroupIndexEntry {
  std::string name;
  std::size_t offset;
  std::size_t size;
};

/// Reads the member names, offsets and sizes without copying payloads.
/// Throws CorruptStream on malformed input: a bad magic, no members, a
/// member count the archive's bytes cannot hold, a member that runs
/// past the archive, or a body whose size the members do not cover
/// exactly.
std::vector<GroupIndexEntry> read_group_index(
    std::span<const std::uint8_t> archive);

}  // namespace ocelot
