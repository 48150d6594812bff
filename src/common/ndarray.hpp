#pragma once
// Dense N-dimensional array of floating-point samples.
//
// Scientific fields in this repo are 1-, 2- or 3-dimensional grids of
// f32 values. FloatArray owns its storage and carries the grid shape;
// it is the unit the dataset generators, the file formats and decode
// produce. FieldView is the read-only view of one that the compressor,
// the feature extractors and the advisors take, so a block of a field
// compresses from the field's own storage.
//
// Dimension order is row-major with dims()[0] slowest-varying, matching
// the "nz x ny x nx" convention the paper uses (e.g. RTM 449x449x235).

#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace ocelot {

/// Grid shape: up to 3 dimensions; unused dims are 1.
class Shape {
 public:
  Shape() : dims_{1, 1, 1}, rank_(0) {}
  explicit Shape(std::size_t n0) : dims_{n0, 1, 1}, rank_(1) {
    require(n0 > 0, "Shape: zero dimension");
  }
  Shape(std::size_t n0, std::size_t n1) : dims_{n0, n1, 1}, rank_(2) {
    require(n0 > 0 && n1 > 0, "Shape: zero dimension");
  }
  Shape(std::size_t n0, std::size_t n1, std::size_t n2)
      : dims_{n0, n1, n2}, rank_(3) {
    require(n0 > 0 && n1 > 0 && n2 > 0, "Shape: zero dimension");
  }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::size_t dim(int i) const { return dims_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] std::size_t size() const {
    return dims_[0] * dims_[1] * dims_[2];
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.rank_ == b.rank_ && a.dims_ == b.dims_;
  }

 private:
  std::array<std::size_t, 3> dims_;
  int rank_;
};

/// Owning dense array with shape.
template <typename T>
class NdArray {
 public:
  NdArray() = default;

  /// Allocates a zero-initialized array of the given shape.
  explicit NdArray(Shape shape) : shape_(shape), data_(shape.size(), T{}) {}

  /// Wraps existing sample data; size must match the shape.
  NdArray(Shape shape, std::vector<T> data)
      : shape_(shape), data_(std::move(data)) {
    require(data_.size() == shape_.size(),
            "NdArray: data size does not match shape");
  }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t byte_size() const { return data_.size() * sizeof(T); }

  [[nodiscard]] std::span<const T> values() const { return data_; }
  [[nodiscard]] std::span<T> values() { return data_; }
  [[nodiscard]] const std::vector<T>& vector() const { return data_; }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access: (row, col) with row the slow dimension.
  [[nodiscard]] T& at(std::size_t i, std::size_t j) {
    return data_[i * shape_.dim(1) + j];
  }
  [[nodiscard]] const T& at(std::size_t i, std::size_t j) const {
    return data_[i * shape_.dim(1) + j];
  }

  /// 3-D access: (plane, row, col) with plane the slow dimension.
  [[nodiscard]] T& at(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * shape_.dim(1) + j) * shape_.dim(2) + k];
  }
  [[nodiscard]] const T& at(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[(i * shape_.dim(1) + j) * shape_.dim(2) + k];
  }

 private:
  Shape shape_;
  std::vector<T> data_;
};

using FloatArray = NdArray<float>;

/// Read-only view of an f32 field: a shape plus values the caller
/// keeps alive. A whole FloatArray converts implicitly; a block of one
/// is its slab range with the block's shape.
class FieldView {
 public:
  FieldView(const Shape& shape, std::span<const float> values)
      : shape_(shape), values_(values) {
    require(values_.size() == shape_.size(),
            "FieldView: value count does not match the shape");
  }
  /// The whole array. Implicit, so compress(field, config) reads the
  /// same for an owned field as for a view.
  FieldView(const FloatArray& array)  // NOLINT(google-explicit-constructor)
      : FieldView(array.shape(), array.values()) {}

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::span<const float> values() const { return values_; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  Shape shape_;
  std::span<const float> values_;
};

}  // namespace ocelot
