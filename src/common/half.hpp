#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>

namespace exaclim {

// The one float <-> binary16 conversion (DESIGN §17). Every FP16 path —
// RoundTripHalf / PackHalf / UnpackHalf (tensor/cast), the producing
// kernels that quantise as they write (nn/, the GEMM epilogue merge) and
// Half below — evaluates these three inline functions, so there is one
// rounding to prove: round to nearest even, subnormals, overflow to
// +/-inf from |x| >= 65520, NaN to the quiet NaN 0x7e00 (sign kept).
//
// Each function computes every regime's candidate and selects with bit
// masks, never a branch: a branch on the magnitude mispredicts on ReLU
// output, where about half the values are zero, and a branch-free body
// lets the PointwiseMap loops (tensor/epilogue.hpp) vectorise. Compares
// run on the int32 view of |x| (always >= 0), which SSE2 has. Bit-exact
// against the branchy scalar reference (tests/half_oracle.*) on all 2^32
// floats and 2^16 halves.

namespace half_detail {

/// All ones when `cond`, else zero.
inline std::uint32_t SelectMask(bool cond) {
  return 0u - static_cast<std::uint32_t>(cond);
}

/// `mask ? a : b` for a SelectMask.
inline std::uint32_t Select(std::uint32_t mask, std::uint32_t a,
                            std::uint32_t b) {
  return (a & mask) | (b & ~mask);
}

/// |x| below 2^-14: the binary16 result is subnormal or zero.
inline constexpr std::int32_t kHalfMinNormalBits = 0x38800000;
/// |x| from 65520 (the RTNE midpoint above the max finite 65504) up,
/// infinities and NaNs included: the binary16 result is not finite.
inline constexpr std::int32_t kHalfOverflowBits = 0x477ff000;
inline constexpr std::int32_t kFloatInfBits = 0x7f800000;

}  // namespace half_detail

/// float -> binary16 bits.
inline std::uint16_t FloatToHalfBits(float value) {
  using namespace half_detail;
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::uint32_t abs = bits & 0x7fffffffu;
  const auto iabs = static_cast<std::int32_t>(abs);
  // Normal: rebias the exponent ((15 - 127) << 23) and round to nearest
  // even; a mantissa carry rolls into the exponent, and up to inf.
  const std::uint32_t normal = (abs + 0xc8000fffu + ((abs >> 13) & 1u)) >> 13;
  // Subnormal or zero: adding 0.5f places the binary16 subnormal ulp at
  // the float mantissa's last bit, so the FPU does the denormalising
  // shift and the RTNE; stripping 0.5f's bits leaves the half mantissa.
  const std::uint32_t subnormal =
      std::bit_cast<std::uint32_t>(std::bit_cast<float>(abs) + 0.5f) -
      0x3f000000u;
  const std::uint32_t overflow =
      Select(SelectMask(iabs > kFloatInfBits), 0x7e00u, 0x7c00u);
  std::uint32_t out =
      Select(SelectMask(iabs < kHalfMinNormalBits), subnormal, normal);
  out = Select(SelectMask(iabs >= kHalfOverflowBits), overflow, out);
  return static_cast<std::uint16_t>(out | sign);
}

/// binary16 bits -> float (exact: every half is a float).
inline float HalfBitsToFloat(std::uint16_t half) {
  using namespace half_detail;
  const std::uint32_t h = half;
  const std::uint32_t sign = (h & 0x8000u) << 16;
  const std::uint32_t shifted = (h & 0x7fffu) << 13;
  const auto exp = static_cast<std::int32_t>(shifted & 0x0f800000u);
  // Normal: rebias the exponent by 127 - 15. Inf/NaN: exponent 31 -> 255,
  // mantissa (NaN payload) kept.
  const std::uint32_t normal = shifted + 0x38000000u;
  const std::uint32_t inf_nan = shifted + 0x70000000u;
  // Zero or subnormal: give it the exponent of 2^-14 and subtract 2^-14,
  // an exact float renormalisation.
  const std::uint32_t subnormal = std::bit_cast<std::uint32_t>(
      std::bit_cast<float>(shifted + 0x38800000u) -
      std::bit_cast<float>(0x38800000u));
  std::uint32_t out = Select(SelectMask(exp == 0), subnormal, normal);
  out = Select(SelectMask(exp == 0x0f800000), inf_nan, out);
  return std::bit_cast<float>(out | sign);
}

/// HalfBitsToFloat(FloatToHalfBits(value)) without the 16-bit detour:
/// the binary16 value as a float. The quantiser of FP16 storage
/// emulation.
inline float RoundTripBits(float value) {
  using namespace half_detail;
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = bits & 0x80000000u;
  const std::uint32_t abs = bits & 0x7fffffffu;
  const auto iabs = static_cast<std::int32_t>(abs);
  // Normal: round the 23-bit mantissa to 10 bits, nearest even, in place.
  const std::uint32_t normal =
      (abs + 0xfffu + ((abs >> 13) & 1u)) & 0xffffe000u;
  // Subnormal or zero: the same 0.5f add, then subtract it back (exact).
  const std::uint32_t subnormal =
      std::bit_cast<std::uint32_t>((std::bit_cast<float>(abs) + 0.5f) - 0.5f);
  const std::uint32_t overflow =
      Select(SelectMask(iabs > kFloatInfBits), 0x7fc00000u, 0x7f800000u);
  std::uint32_t out =
      Select(SelectMask(iabs < kHalfMinNormalBits), subnormal, normal);
  out = Select(SelectMask(iabs >= kHalfOverflowBits), overflow, out);
  return std::bit_cast<float>(out | sign);
}

/// Software IEEE 754 binary16 ("half") value.
///
/// Summit's Tensor Cores operate on FP16 inputs; on this substrate we
/// emulate the storage format exactly (round-to-nearest-even conversion,
/// denormals, infinities, NaN) so that the paper's mixed-precision
/// numerical-stability findings (Sec V-B1) reproduce faithfully. Arithmetic
/// is performed by converting through float, matching the FP16-in/FP32-out
/// accumulate behaviour of the Tensor Core FMA path.
class Half {
 public:
  constexpr Half() = default;

  /// Converts from float with round-to-nearest-even, overflowing to +/-inf.
  explicit Half(float value) : bits_(FloatToHalfBits(value)) {}

  /// Reinterprets raw binary16 bits.
  static constexpr Half FromBits(std::uint16_t bits) {
    Half h;
    h.bits_ = bits;
    return h;
  }

  /// Converts to float exactly (every binary16 value is representable).
  float ToFloat() const { return HalfBitsToFloat(bits_); }
  explicit operator float() const { return ToFloat(); }

  constexpr std::uint16_t bits() const { return bits_; }

  bool IsNan() const {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0;
  }
  bool IsInf() const {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) == 0;
  }
  bool IsFinite() const { return (bits_ & 0x7c00u) != 0x7c00u; }

  /// Largest finite binary16 value (65504).
  static constexpr Half Max() { return FromBits(0x7bffu); }
  /// Smallest positive normal binary16 value (2^-14).
  static constexpr Half MinNormal() { return FromBits(0x0400u); }
  /// Smallest positive subnormal binary16 value (2^-24).
  static constexpr Half MinSubnormal() { return FromBits(0x0001u); }

  friend bool operator==(Half a, Half b) {
    if (a.IsNan() || b.IsNan()) return false;
    // +0 == -0.
    if (((a.bits_ | b.bits_) & 0x7fffu) == 0) return true;
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Half a, Half b) { return !(a == b); }
  friend bool operator<(Half a, Half b) { return a.ToFloat() < b.ToFloat(); }

  friend Half operator+(Half a, Half b) {
    return Half(a.ToFloat() + b.ToFloat());
  }
  friend Half operator-(Half a, Half b) {
    return Half(a.ToFloat() - b.ToFloat());
  }
  friend Half operator*(Half a, Half b) {
    return Half(a.ToFloat() * b.ToFloat());
  }
  friend Half operator/(Half a, Half b) {
    return Half(a.ToFloat() / b.ToFloat());
  }
  friend Half operator-(Half a) { return FromBits(a.bits_ ^ 0x8000u); }

  Half& operator+=(Half other) { return *this = *this + other; }
  Half& operator-=(Half other) { return *this = *this - other; }
  Half& operator*=(Half other) { return *this = *this * other; }
  Half& operator/=(Half other) { return *this = *this / other; }

 private:
  std::uint16_t bits_ = 0;
};

std::ostream& operator<<(std::ostream& os, Half h);

/// Relative unit roundoff of binary16 (2^-11); useful for test tolerances.
inline constexpr float kHalfEpsilonRel = 1.0f / 2048.0f;

}  // namespace exaclim
