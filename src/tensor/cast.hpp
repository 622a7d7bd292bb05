#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/half.hpp"

namespace exaclim {
class Tensor;

/// Numeric precision of a training pipeline. FP16 means "mixed precision
/// as the paper ran it": FP16 storage for activations/gradients/weight
/// copies with FP32 master weights and accumulation (Tensor Core style).
enum class Precision { kFP32, kFP16 };

const char* ToString(Precision p);

/// Rounds every element through IEEE binary16 in place (value -> half ->
/// value, RoundTripBits in common/half.hpp). This is the emulation point
/// for FP16 storage: applying it at layer boundaries gives the exact
/// quantisation, overflow-to-inf and flush behaviour the paper's
/// mixed-precision runs saw. One vectorised, data-independent pass,
/// parallelised over large spans.
void RoundTripHalf(std::span<float> values);
void RoundTripHalf(Tensor& tensor);

/// Converts to packed binary16 words (the wire/storage format used by the
/// FP16 allreduce path and the staging format benchmarks) and back. The
/// span overloads write into a preallocated buffer of equal size. Same
/// conversion as Half (FloatToHalfBits / HalfBitsToFloat), in the same
/// vectorised, parallelised loops as RoundTripHalf.
void PackHalf(std::span<const float> values,
              std::span<std::uint16_t> packed);
std::vector<std::uint16_t> PackHalf(std::span<const float> values);
void UnpackHalf(std::span<const std::uint16_t> packed,
                std::span<float> values);

/// Bytes per element under a given precision (4 or 2); used by the traffic
/// accounting in flops/ and netsim/.
inline int BytesPerElement(Precision p) {
  return p == Precision::kFP32 ? 4 : 2;
}

}  // namespace exaclim
