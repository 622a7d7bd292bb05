#pragma once

// The branchy scalar float <-> binary16 conversion the library used
// before the select-based one in common/half.hpp: one branch per
// magnitude regime, the subnormal path normalised by a shift loop. Not
// part of the library; it is the reference the exhaustive equivalence
// tests hold FloatToHalfBits / HalfBitsToFloat / RoundTripBits and the
// span conversions of tensor/cast against.

#include <cstdint>

namespace exaclim {

/// float -> binary16 bits: round to nearest even, overflow to +/-inf,
/// NaN to the quiet NaN 0x7e00 with the sign kept.
std::uint16_t OracleFloatToHalfBits(float value);

/// binary16 bits -> float, exact.
float OracleHalfBitsToFloat(std::uint16_t bits);

}  // namespace exaclim
