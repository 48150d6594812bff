#pragma once
// Self-describing on-"disk" format for scientific arrays.
//
// The paper's data loader handles binary/HDF5/NetCDF files; here a
// single compact container ("OCF1") carries a name, a shape and f32
// samples (it has no dtype field: every field is f32), so fields
// survive round trips through the file store and the grouped archives
// without external metadata.

#include <string>

#include "common/bytes.hpp"
#include "common/ndarray.hpp"

namespace ocelot {

/// Serializes a named float field.
Bytes save_field(const std::string& name, const FloatArray& data);

/// Parsed field file.
struct LoadedField {
  std::string name;
  FloatArray data;
};

/// Parses a blob produced by save_field; throws CorruptStream on
/// malformed input.
LoadedField load_field(std::span<const std::uint8_t> blob);

}  // namespace ocelot
