#include "half_oracle.hpp"

#include <bit>

namespace exaclim {
namespace {

std::uint32_t FloatBits(float f) { return std::bit_cast<std::uint32_t>(f); }
float BitsToFloat(std::uint32_t u) { return std::bit_cast<float>(u); }

}  // namespace

std::uint16_t OracleFloatToHalfBits(float value) {
  const std::uint32_t f = FloatBits(value);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t abs = f & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf or NaN. Preserve NaN-ness with a quiet-NaN payload bit.
    const std::uint32_t nan_payload = (abs > 0x7f800000u) ? 0x0200u : 0;
    return static_cast<std::uint16_t>(sign | 0x7c00u | nan_payload);
  }
  if (abs >= 0x477ff000u) {
    // Rounds to a magnitude >= 2^16 - 2^4: overflow to infinity.
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs < 0x33000001u) {
    // Magnitude below half the smallest subnormal: rounds to zero.
    return static_cast<std::uint16_t>(sign);
  }

  const int exp32 = static_cast<int>(abs >> 23);  // biased float exponent
  std::uint32_t mantissa = abs & 0x007fffffu;
  int exp16 = exp32 - 127 + 15;  // re-bias to binary16

  std::uint32_t shift;  // bits discarded from the 24-bit significand
  if (exp16 <= 0) {
    // Subnormal result: shift in the implicit leading 1 and denormalize.
    mantissa |= 0x00800000u;
    shift = static_cast<std::uint32_t>(13 + 1 - exp16);
    exp16 = 0;
  } else {
    shift = 13;
  }

  const std::uint32_t round_bit = 1u << (shift - 1);
  const std::uint32_t sticky_mask = round_bit - 1;
  std::uint32_t half_mantissa = mantissa >> shift;
  // Round to nearest even.
  if ((mantissa & round_bit) &&
      ((mantissa & sticky_mask) || (half_mantissa & 1u))) {
    ++half_mantissa;
  }

  // Carry from rounding may bump into the exponent (and may produce inf for
  // values just under the overflow threshold; excluded above).
  std::uint32_t result =
      (static_cast<std::uint32_t>(exp16) << 10) + half_mantissa;
  return static_cast<std::uint16_t>(sign | result);
}

float OracleHalfBitsToFloat(std::uint16_t bits) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(bits) & 0x8000u)
                             << 16;
  const std::uint32_t exp = (bits >> 10) & 0x1fu;
  std::uint32_t mantissa = bits & 0x03ffu;

  if (exp == 0x1fu) {  // inf / NaN
    return BitsToFloat(sign | 0x7f800000u | (mantissa << 13));
  }
  if (exp == 0) {
    if (mantissa == 0) return BitsToFloat(sign);  // +/- 0
    // Subnormal: normalize into float representation.
    int e = -1;
    do {
      ++e;
      mantissa <<= 1;
    } while ((mantissa & 0x0400u) == 0);
    mantissa &= 0x03ffu;
    const std::uint32_t f_exp =
        static_cast<std::uint32_t>(127 - 15 - e) << 23;
    return BitsToFloat(sign | f_exp | (mantissa << 13));
  }
  const std::uint32_t f_exp = (exp + 127 - 15) << 23;
  return BitsToFloat(sign | f_exp | (mantissa << 13));
}

}  // namespace exaclim
