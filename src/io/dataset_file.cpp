#include "io/dataset_file.hpp"

#include <cstring>

#include "common/error.hpp"
#include "compressor/compressor.hpp"

namespace ocelot {

namespace {
constexpr std::uint8_t kMagic[4] = {'O', 'C', 'F', '1'};
}

Bytes save_field(const std::string& name, const FloatArray& data) {
  BytesWriter out;
  out.put_bytes(kMagic);
  out.put_string(name);
  out.put(static_cast<std::uint8_t>(data.shape().rank()));
  for (int d = 0; d < data.shape().rank(); ++d) {
    out.put_varint(data.shape().dim(d));
  }
  const auto vals = data.values();
  out.put_blob({reinterpret_cast<const std::uint8_t*>(vals.data()),
                vals.size() * sizeof(float)});
  return out.take();
}

LoadedField load_field(std::span<const std::uint8_t> blob) {
  BytesReader in(blob);
  const auto magic = in.get_bytes(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0)
    throw CorruptStream("field file: bad magic");

  LoadedField out;
  out.name = in.get_string();
  // The checked shape reader the OCZ and OCB1 headers share: a product
  // past kMaxShapeElements would wrap the payload size check below.
  const Shape shape = read_shape(in, in.get<std::uint8_t>());

  const auto payload = in.get_blob();
  if (payload.size() != shape.size() * sizeof(float))
    throw CorruptStream("field file: payload size mismatch");
  std::vector<float> values(shape.size());
  std::memcpy(values.data(), payload.data(), payload.size());
  out.data = FloatArray(shape, std::move(values));
  return out;
}

}  // namespace ocelot
