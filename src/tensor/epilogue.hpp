#pragma once

#include <bit>
#include <cstdint>

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

/// ReLU itself. Written as the ternary (not max) so NaN and -0.0 inputs
/// map to +0.0 everywhere, including the SIMD merge paths that mirror it.
inline float ReluValue(float v) { return ReluActive(v) ? v : 0.0f; }

/// Branchless ReluValue, bit-exact with the ternary for every input:
/// positive v keeps its bits, NaN/-0.0/negative all clear to +0.0 (the
/// predicate is false, so the mask wipes every bit). The fused GEMM merge
/// must use this form: its C tiles are cache-cold after the B panel
/// streamed through, and a data-dependent branch on the loaded value
/// serializes the outstanding misses — cmp+mask keeps them pipelined.
inline float ReluValueBits(float v) {
  const std::uint32_t keep = 0u - static_cast<std::uint32_t>(ReluActive(v));
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) & keep);
}

}  // namespace exaclim
