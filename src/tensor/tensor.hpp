#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/pool.hpp"
#include "common/rng.hpp"
#include "tensor/shape.hpp"

namespace exaclim {

/// Dense FP32 tensor with row-major (NCHW) layout.
///
/// All network compute happens in FP32; FP16 training is emulated by
/// round-tripping values through the software binary16 type at the points
/// where the paper's pipeline stored FP16 (activations, weight copies,
/// gradients) — see tensor/cast.hpp. This captures the numerical behaviour
/// of mixed-precision Tensor Core training (FP16 storage, FP32 accumulate)
/// without a second kernel set.
///
/// Storage is a pooled buffer handle (common/pool.hpp, DESIGN §12): the
/// element buffer comes from the size-bucketed arena and returns to it on
/// destruction, so a warmed-up training step constructs and destroys
/// tensor temporaries without heap traffic. Copy-assignment reuses the
/// existing buffer when the new element count fits its capacity (the
/// same guarantee std::vector gave the cached_input_ = input pattern).
/// With EXACLIM_POOL=off every buffer is a plain exact-size heap
/// allocation, bit-identical in behaviour.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TensorShape shape);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept
      : shape_(other.shape_), buf_(std::move(other.buf_)),
        size_(other.size_) {
    other.shape_ = TensorShape();
    other.size_ = 0;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      shape_ = other.shape_;
      buf_ = std::move(other.buf_);
      size_ = other.size_;
      other.shape_ = TensorShape();
      other.size_ = 0;
    }
    return *this;
  }
  ~Tensor() = default;

  static Tensor Zeros(TensorShape shape) { return Tensor(std::move(shape)); }
  /// Pooled storage WITHOUT the zero-fill, for outputs the caller's
  /// kernel overwrites completely (DESIGN §12). Release builds hand back
  /// whatever the block's previous owner left; builds with
  /// EXACLIM_DCHECK_ENABLED (Debug, the sanitizer presets) fill it with
  /// quiet NaN instead, so a kernel that misses an element poisons its
  /// output and fails the bit-identity suites rather than passing on
  /// stale data that happens to match.
  static Tensor Uninitialized(TensorShape shape);
  static Tensor Full(TensorShape shape, float value);
  /// Elements drawn from N(mean, stddev); used for weight init.
  static Tensor Randn(TensorShape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  static Tensor Uniform(TensorShape shape, Rng& rng, float lo, float hi);
  /// Copies `values` into pooled storage.
  static Tensor FromVector(TensorShape shape, std::span<const float> values);
  static Tensor FromVector(TensorShape shape, std::vector<float> values);

  const TensorShape& shape() const { return shape_; }
  std::int64_t NumElements() const { return size_; }
  bool Empty() const { return size_ == 0; }

  std::span<float> Data() {
    return {buf_.data(), static_cast<std::size_t>(size_)};
  }
  std::span<const float> Data() const {
    return {buf_.data(), static_cast<std::size_t>(size_)};
  }
  float* Raw() { return buf_.data(); }
  const float* Raw() const { return buf_.data(); }

  float& operator[](std::size_t i) { return buf_.data()[i]; }
  float operator[](std::size_t i) const { return buf_.data()[i]; }

  /// NCHW element access (rank-4 only). Bounds-checked.
  float& At(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w);
  float At(std::int64_t n, std::int64_t c, std::int64_t h,
           std::int64_t w) const;

  /// Copies the elements into a fresh tensor with a new shape of equal
  /// element count. The result owns its own pool buffer — it never
  /// aliases the source's storage, so writes through either tensor stay
  /// invisible to the other (asserted in test_pool.cpp).
  Tensor Reshaped(TensorShape new_shape) const;

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  // In-place arithmetic (elementwise, shapes must match).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);

  /// this += alpha * other.
  void Axpy(float alpha, const Tensor& other);

  float Sum() const;
  float Max() const;
  float Min() const;
  /// L2 norm of all elements.
  float Norm() const;
  float Dot(const Tensor& other) const;

  bool AllFinite() const;

 private:
  std::size_t Offset(std::int64_t n, std::int64_t c, std::int64_t h,
                     std::int64_t w) const;

  TensorShape shape_;
  PoolBuffer buf_;
  std::int64_t size_ = 0;  // elements in use (<= buf_.capacity())
};

}  // namespace exaclim
