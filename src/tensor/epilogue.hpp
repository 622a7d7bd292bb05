#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/half.hpp"

// Shared scalar epilogue math — the bit-exactness contract of DESIGN §15.
//
// The fused GEMM epilogue (tensor/gemm_kernel.cpp) and the standalone
// BatchNorm2d / ReLU layers (nn/norm.cpp, nn/activation.cpp) must produce
// bit-identical results so SetConvFusion is a pure perf switch. Both
// sides therefore evaluate the pointwise math through these SAME inline
// definitions, compiled in TUs with identical flags — never the -mfma
// AVX2 kernel TU, whose contraction rules differ from the baseline ISA.
// The expressions are kept trivially small so the compiler's FP-contract
// decisions (a*b+c fusing on targets with scalar FMA) are made once per
// definition, not once per call site.

namespace exaclim {

/// x_hat = (v - mean) * inv_std — the normalisation half of BatchNorm.
inline float BnNormalise(float v, float mean, float inv_std) {
  return (v - mean) * inv_std;
}

/// gamma * x_hat + beta — the affine half of BatchNorm.
inline float BnAffine(float x_hat, float gamma, float beta) {
  return gamma * x_hat + beta;
}

/// Full folded BatchNorm scale/shift as one step (the GEMM epilogue has
/// no use for the intermediate x_hat the layer caches for backward).
inline float BnScaleShift(float v, float mean, float inv_std, float gamma,
                          float beta) {
  return BnAffine(BnNormalise(v, mean, inv_std), gamma, beta);
}

/// The ReLU activity predicate — also the mask bit the backward consumes.
inline bool ReluActive(float v) { return v > 0.0f; }

/// ReLU's defining semantics, written as the ternary (not max) so NaN
/// and -0.0 inputs map to +0.0. Kernels never evaluate it (see
/// ReluValueBits); it is the reference the branchless forms and the
/// SIMD merge paths must reproduce bit for bit.
inline float ReluValue(float v) { return ReluActive(v) ? v : 0.0f; }

/// Branchless ReluValue, bit-exact with the ternary for every input:
/// positive v keeps its bits, NaN/-0.0/negative all clear to +0.0 (the
/// predicate is false, so the mask wipes every bit). Every ReLU loop —
/// the fused GEMM merge, ReLU::Forward and BatchNorm2d's fused sweep —
/// uses this form, never the ternary: an activation's sign is a coin
/// flip, so a branch on it mispredicts about half the time (4x the cost
/// of the whole loop), and in the GEMM merge, whose C tiles are
/// cache-cold, it also serializes the outstanding misses.
inline float ReluValueBits(float v) {
  const std::uint32_t keep = 0u - static_cast<std::uint32_t>(ReluActive(v));
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) & keep);
}

/// Branchless `mask != 0 ? g : 0.0f` — the ReLU backward. A zero mask
/// wipes every bit (+0.0, exactly what the ternary yields), a set mask
/// keeps g's bits, NaN and -0.0 included. Same reason as ReluValueBits:
/// the mask is the forward's sign pattern, so a branch on it mispredicts.
inline float ReluMaskSelect(float g, unsigned char mask) {
  const std::uint32_t keep = 0u - static_cast<std::uint32_t>(mask != 0);
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(g) & keep);
}

/// The value a kernel stores: v itself, or under FP16 storage emulation
/// (kHalf) its binary16 rounding — exactly what a later RoundTripHalf
/// sweep over the output would leave, so a producing kernel can quantise
/// in the write pass it already makes (DESIGN §17). The FP32
/// instantiation is the identity, leaving FP32 kernel loops unchanged.
template <bool kHalf>
inline float Quantised(float v) {
  if constexpr (kHalf) {
    return RoundTripBits(v);
  } else {
    return v;
  }
}

/// Calls body(i, in[i]) for every i in [0, n) — the shape of every
/// pointwise kernel (ReLU forward and backward, BatchNorm2d's write
/// passes, the binary16 conversions of tensor/cast). GCC's -O2
/// vectorizer (cost model "very-cheap") only takes a loop whose trip
/// count is a known multiple of the vector width and whose stores
/// provably miss its loads, which a plain `for (i < n)` loop never is. So the walk copies each block of kBlock inputs into a
/// local array first, runs body over the block with a fixed trip count,
/// and finishes with a scalar tail. The block loop vectorizes when body
/// is branch-free and writes only through __restrict pointers; `in` may
/// alias those outputs (BatchNorm2d's in-place sweep), since each block
/// is read before any of it is written. Vectorizing an elementwise body
/// changes no bits, so this is a pure speed-up (3-4x for ReLU).
template <typename T, typename Body>
inline void PointwiseMap(const T* in, std::size_t n, Body body) {
  constexpr std::size_t kBlock = 16;  // one SSE vector of mask bytes
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    T v[kBlock];
    for (std::size_t j = 0; j < kBlock; ++j) v[j] = in[i + j];
    for (std::size_t j = 0; j < kBlock; ++j) body(i + j, v[j]);
  }
  for (; i < n; ++i) body(i, in[i]);
}

}  // namespace exaclim
