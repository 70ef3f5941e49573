#ifndef GAIA_TENSOR_TENSOR_H_
#define GAIA_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gaia {

/// \brief Dense row-major float tensor.
///
/// The numeric workhorse of the library: owns a contiguous float buffer plus
/// a shape. Copies are deep; moves are cheap. All shape mismatches are
/// programming errors and abort via GAIA_CHECK — shape-correctness is
/// established at model-construction time through Status-returning factories.
class Tensor {
 public:
  Tensor() = default;

  /// Creates a zero-filled tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// Creates a tensor with the given shape and explicit contents.
  /// Pre: data.size() == product(shape).
  Tensor(std::vector<int64_t> shape, std::vector<float> data);

  static Tensor Zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape)); }
  static Tensor Ones(std::vector<int64_t> shape) { return Full(std::move(shape), 1.0f); }
  static Tensor Full(std::vector<int64_t> shape, float value);

  /// Gaussian-initialized tensor (mean 0, given stddev).
  static Tensor Randn(std::vector<int64_t> shape, Rng* rng, float stddev = 1.0f);

  /// Uniformly initialized tensor in [lo, hi).
  static Tensor RandUniform(std::vector<int64_t> shape, Rng* rng, float lo,
                            float hi);

  /// 2-D identity matrix of size n x n.
  static Tensor Eye(int64_t n);

  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim(int64_t axis) const;
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Element access; bounds-checked via GAIA_CHECK (cheap at our scale and
  /// invaluable for catching indexing bugs in model code).
  float& at(int64_t i);
  float at(int64_t i) const;
  float& at(int64_t i, int64_t j);
  float at(int64_t i, int64_t j) const;
  float& at(int64_t i, int64_t j, int64_t k);
  float at(int64_t i, int64_t j, int64_t k) const;

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Returns a tensor with the same data and a new shape.
  /// Pre: product(new_shape) == size().
  Tensor Reshape(std::vector<int64_t> new_shape) const;

  /// Human-readable shape, e.g. "[24, 32]".
  std::string ShapeString() const;

  /// Renders contents for debugging (truncated for big tensors).
  std::string ToString(int64_t max_elements = 64) const;

  /// In-place fill.
  void Fill(float value);

  /// In-place scaling.
  void Scale(float factor);

  /// In-place accumulate: this += other. Pre: same shape.
  void Accumulate(const Tensor& other);

  /// Sum of all elements.
  double Sum() const;

  /// Mean of all elements. Pre: non-empty.
  double Mean() const;

  /// Max / min over all elements. Pre: non-empty.
  float Max() const;
  float Min() const;

  /// Frobenius / L2 norm of the flattened tensor.
  double Norm() const;

  /// True when all elements are finite (no NaN / inf).
  bool AllFinite() const;

 private:
  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

/// Elementwise arithmetic; all require identical shapes.
Tensor operator+(const Tensor& a, const Tensor& b);
Tensor operator-(const Tensor& a, const Tensor& b);
Tensor operator*(const Tensor& a, const Tensor& b);
Tensor operator/(const Tensor& a, const Tensor& b);

/// Tensor-scalar arithmetic.
Tensor operator+(const Tensor& a, float s);
Tensor operator-(const Tensor& a, float s);
Tensor operator*(const Tensor& a, float s);
Tensor operator*(float s, const Tensor& a);

/// True when shapes match and elements differ by at most `tol`.
bool AllClose(const Tensor& a, const Tensor& b, float tol = 1e-5f);

}  // namespace gaia

#endif  // GAIA_TENSOR_TENSOR_H_
