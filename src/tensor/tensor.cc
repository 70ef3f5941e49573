#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "obs/obs.h"
#include "util/check.h"
#include "util/compiler.h"

namespace gaia {

namespace {

int64_t Product(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    GAIA_CHECK_GE(d, 0) << "negative dimension in shape";
    n *= d;
  }
  return n;
}

/// Allocation instruments. The bench harness and gaia_bench read these to
/// expose tensor churn alongside wall time (docs/OBSERVABILITY.md).
/// Resolved once; references are stable for the registry's lifetime.
struct AllocMetrics {
  obs::Counter& tensors = obs::MetricsRegistry::Global().GetCounter(
      "gaia_alloc_tensors_total",
      "Tensor buffers constructed (Zeros/Randn/op results; copies excluded)");
  obs::Counter& bytes = obs::MetricsRegistry::Global().GetCounter(
      "gaia_alloc_bytes_total",
      "Bytes allocated for tensor buffers constructed from a shape");
  static AllocMetrics& Get() {
    static AllocMetrics* metrics = new AllocMetrics();
    return *metrics;
  }
};

/// Every shape-constructing path (and so every factory and op result) lands
/// here. Off-path cost is one relaxed load and a branch.
void CountTensorAlloc(size_t elements) {
  if (elements > 0 && obs::Enabled()) {
    AllocMetrics& metrics = AllocMetrics::Get();
    metrics.tensors.Increment();
    metrics.bytes.Increment(elements * sizeof(float));
  }
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(Product(shape_)), 0.0f) {
  CountTensorAlloc(data_.size());
}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  GAIA_CHECK_EQ(Product(shape_), static_cast<int64_t>(data_.size()))
      << "shape does not match data size";
  CountTensorAlloc(data_.size());
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng* rng, float stddev) {
  GAIA_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::RandUniform(std::vector<int64_t> shape, Rng* rng, float lo,
                           float hi) {
  GAIA_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t({n, n});
  for (int64_t i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

int64_t Tensor::dim(int64_t axis) const {
  GAIA_CHECK_GE(axis, 0);
  GAIA_CHECK_LT(axis, ndim());
  return shape_[static_cast<size_t>(axis)];
}

float& Tensor::at(int64_t i) {
  GAIA_CHECK_EQ(ndim(), 1) << "at(i) on tensor " << ShapeString();
  GAIA_CHECK_GE(i, 0);
  GAIA_CHECK_LT(i, shape_[0]);
  return data_[static_cast<size_t>(i)];
}

float Tensor::at(int64_t i) const {
  return const_cast<Tensor*>(this)->at(i);
}

float& Tensor::at(int64_t i, int64_t j) {
  GAIA_CHECK_EQ(ndim(), 2) << "at(i,j) on tensor " << ShapeString();
  GAIA_CHECK_GE(i, 0);
  GAIA_CHECK_LT(i, shape_[0]);
  GAIA_CHECK_GE(j, 0);
  GAIA_CHECK_LT(j, shape_[1]);
  return data_[static_cast<size_t>(i * shape_[1] + j)];
}

float Tensor::at(int64_t i, int64_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(int64_t i, int64_t j, int64_t k) {
  GAIA_CHECK_EQ(ndim(), 3) << "at(i,j,k) on tensor " << ShapeString();
  GAIA_CHECK_GE(i, 0);
  GAIA_CHECK_LT(i, shape_[0]);
  GAIA_CHECK_GE(j, 0);
  GAIA_CHECK_LT(j, shape_[1]);
  GAIA_CHECK_GE(k, 0);
  GAIA_CHECK_LT(k, shape_[2]);
  return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

float Tensor::at(int64_t i, int64_t j, int64_t k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  GAIA_CHECK_EQ(Product(new_shape), size())
      << "reshape from " << ShapeString();
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

std::string Tensor::ToString(int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << ShapeString() << " {";
  int64_t n = std::min<int64_t>(size(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (n < size()) os << ", ...";
  os << '}';
  return os.str();
}

void Tensor::Fill(float value) {
  std::fill(data_.data(), data_.data() + size(), value);
}

void Tensor::Scale(float factor) {
  float* GAIA_RESTRICT p = data_.data();
  const int64_t n = size();
  for (int64_t i = 0; i < n; ++i) p[i] *= factor;
}

void Tensor::Accumulate(const Tensor& other) {
  GAIA_CHECK(SameShape(other))
      << ShapeString() << " vs " << other.ShapeString();
  float* GAIA_RESTRICT p = data_.data();
  const float* GAIA_RESTRICT q = other.data_.data();
  const int64_t n = size();
  for (int64_t i = 0; i < n; ++i) p[i] += q[i];
}

double Tensor::Sum() const {
  return std::accumulate(data_.data(), data_.data() + size(), 0.0);
}

double Tensor::Mean() const {
  GAIA_CHECK(!empty());
  return Sum() / static_cast<double>(size());
}

float Tensor::Max() const {
  GAIA_CHECK(!empty());
  return *std::max_element(data_.data(), data_.data() + size());
}

float Tensor::Min() const {
  GAIA_CHECK(!empty());
  return *std::min_element(data_.data(), data_.data() + size());
}

double Tensor::Norm() const {
  double sum_sq = 0.0;
  const float* p = data_.data();
  const int64_t n = size();
  for (int64_t i = 0; i < n; ++i) sum_sq += static_cast<double>(p[i]) * p[i];
  return std::sqrt(sum_sq);
}

bool Tensor::AllFinite() const {
  return std::all_of(data_.data(), data_.data() + size(),
                     [](float v) { return std::isfinite(v); });
}

namespace {

template <typename Op>
Tensor Zip(const Tensor& a, const Tensor& b, Op op) {
  GAIA_CHECK(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.size(); ++i) po[i] = op(pa[i], pb[i]);
  return out;
}

template <typename Op>
Tensor MapScalar(const Tensor& a, float s, Op op) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.size(); ++i) po[i] = op(pa[i], s);
  return out;
}

}  // namespace

Tensor operator+(const Tensor& a, const Tensor& b) {
  return Zip(a, b, [](float x, float y) { return x + y; });
}
Tensor operator-(const Tensor& a, const Tensor& b) {
  return Zip(a, b, [](float x, float y) { return x - y; });
}
Tensor operator*(const Tensor& a, const Tensor& b) {
  return Zip(a, b, [](float x, float y) { return x * y; });
}
Tensor operator/(const Tensor& a, const Tensor& b) {
  return Zip(a, b, [](float x, float y) { return x / y; });
}

Tensor operator+(const Tensor& a, float s) {
  return MapScalar(a, s, [](float x, float y) { return x + y; });
}
Tensor operator-(const Tensor& a, float s) {
  return MapScalar(a, s, [](float x, float y) { return x - y; });
}
Tensor operator*(const Tensor& a, float s) {
  return MapScalar(a, s, [](float x, float y) { return x * y; });
}
Tensor operator*(float s, const Tensor& a) { return a * s; }

bool AllClose(const Tensor& a, const Tensor& b, float tol) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

}  // namespace gaia
