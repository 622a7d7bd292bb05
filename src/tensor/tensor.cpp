#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace exaclim {

Tensor::Tensor(TensorShape shape)
    : shape_(std::move(shape)),
      buf_(AcquirePoolBuffer(
          static_cast<std::size_t>(shape_.NumElements()))),
      size_(shape_.NumElements()) {
  // Pool blocks hand back whatever the previous owner left; match the
  // zero-initialised std::vector this storage replaced so pooled and
  // non-pooled runs stay bit-identical.
  if (size_ > 0) {
    std::memset(buf_.data(), 0,
                static_cast<std::size_t>(size_) * sizeof(float));
  }
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_),
      buf_(AcquirePoolBuffer(static_cast<std::size_t>(other.size_))),
      size_(other.size_) {
  if (size_ > 0) {
    std::memcpy(buf_.data(), other.buf_.data(),
                static_cast<std::size_t>(size_) * sizeof(float));
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  if (static_cast<std::size_t>(other.size_) > buf_.capacity()) {
    buf_ = AcquirePoolBuffer(static_cast<std::size_t>(other.size_));
  }
  size_ = other.size_;
  if (size_ > 0) {
    std::memcpy(buf_.data(), other.buf_.data(),
                static_cast<std::size_t>(size_) * sizeof(float));
  }
  return *this;
}

Tensor Tensor::Uninitialized(TensorShape shape) {
  Tensor t;
  t.size_ = shape.NumElements();
  t.shape_ = std::move(shape);
  t.buf_ = AcquirePoolBuffer(static_cast<std::size_t>(t.size_));
#if EXACLIM_DCHECK_ENABLED
  t.Fill(std::numeric_limits<float>::quiet_NaN());
#endif
  return t;
}

Tensor Tensor::Full(TensorShape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(TensorShape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.Data()) v = rng.Normal(mean, stddev);
  return t;
}

Tensor Tensor::Uniform(TensorShape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.Data()) v = rng.Uniform(lo, hi);
  return t;
}

Tensor Tensor::FromVector(TensorShape shape, std::span<const float> values) {
  EXACLIM_CHECK(static_cast<std::int64_t>(values.size()) ==
                    shape.NumElements(),
                "value count " << values.size() << " != shape "
                               << shape.ToString());
  Tensor t;
  t.shape_ = std::move(shape);
  t.buf_ = AcquirePoolBuffer(values.size());
  t.size_ = static_cast<std::int64_t>(values.size());
  if (!values.empty()) {
    std::memcpy(t.buf_.data(), values.data(),
                values.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::FromVector(TensorShape shape, std::vector<float> values) {
  return FromVector(std::move(shape), std::span<const float>(values));
}

std::size_t Tensor::Offset(std::int64_t n, std::int64_t c, std::int64_t h,
                           std::int64_t w) const {
  EXACLIM_CHECK(shape_.rank() == 4, "At() requires rank-4, got rank "
                                        << shape_.rank());
  EXACLIM_CHECK(n >= 0 && n < shape_.n() && c >= 0 && c < shape_.c() &&
                    h >= 0 && h < shape_.h() && w >= 0 && w < shape_.w(),
                "index (" << n << "," << c << "," << h << "," << w
                          << ") out of " << shape_.ToString());
  return static_cast<std::size_t>(
      ((n * shape_.c() + c) * shape_.h() + h) * shape_.w() + w);
}

float& Tensor::At(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w) {
  return buf_.data()[Offset(n, c, h, w)];
}

float Tensor::At(std::int64_t n, std::int64_t c, std::int64_t h,
                 std::int64_t w) const {
  return buf_.data()[Offset(n, c, h, w)];
}

Tensor Tensor::Reshaped(TensorShape new_shape) const {
  EXACLIM_CHECK(new_shape.NumElements() == NumElements(),
                "reshape " << shape_.ToString() << " -> "
                           << new_shape.ToString()
                           << " changes element count");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.buf_ = AcquirePoolBuffer(static_cast<std::size_t>(size_));
  t.size_ = size_;
  if (size_ > 0) {
    std::memcpy(t.buf_.data(), buf_.data(),
                static_cast<std::size_t>(size_) * sizeof(float));
  }
  return t;
}

void Tensor::Fill(float value) {
  float* data = buf_.data();
  std::fill(data, data + size_, value);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  EXACLIM_CHECK(shape_ == other.shape_, "shape mismatch in +=");
  float* a = buf_.data();
  const float* b = other.buf_.data();
  for (std::int64_t i = 0; i < size_; ++i) a[i] += b[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  EXACLIM_CHECK(shape_ == other.shape_, "shape mismatch in -=");
  float* a = buf_.data();
  const float* b = other.buf_.data();
  for (std::int64_t i = 0; i < size_; ++i) a[i] -= b[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  float* a = buf_.data();
  for (std::int64_t i = 0; i < size_; ++i) a[i] *= scalar;
  return *this;
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  EXACLIM_CHECK(shape_ == other.shape_, "shape mismatch in Axpy");
  float* a = buf_.data();
  const float* b = other.buf_.data();
  for (std::int64_t i = 0; i < size_; ++i) a[i] += alpha * b[i];
}

float Tensor::Sum() const {
  double acc = 0.0;
  const float* a = buf_.data();
  for (std::int64_t i = 0; i < size_; ++i) acc += a[i];
  return static_cast<float>(acc);
}

float Tensor::Max() const {
  EXACLIM_CHECK(size_ > 0, "Max of empty tensor");
  const float* a = buf_.data();
  return *std::max_element(a, a + size_);
}

float Tensor::Min() const {
  EXACLIM_CHECK(size_ > 0, "Min of empty tensor");
  const float* a = buf_.data();
  return *std::min_element(a, a + size_);
}

float Tensor::Norm() const {
  double acc = 0.0;
  const float* a = buf_.data();
  for (std::int64_t i = 0; i < size_; ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::Dot(const Tensor& other) const {
  EXACLIM_CHECK(shape_ == other.shape_, "shape mismatch in Dot");
  const float* a = buf_.data();
  const float* b = other.buf_.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < size_; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

bool Tensor::AllFinite() const {
  const float* a = buf_.data();
  return std::all_of(a, a + size_,
                     [](float v) { return std::isfinite(v); });
}

}  // namespace exaclim
