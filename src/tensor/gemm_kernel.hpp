#pragma once

// Packed, register-blocked GEMM microkernel engine (BLIS/Goto style) —
// DESIGN §10.
//
// The engine decomposes C = alpha*op(A)*op(B) + beta*C into three levels
// of cache blocking (KC panels of the contraction dim, MC row blocks, NC
// column blocks) around a fixed MRxNR register-tiled microkernel:
//
//   for jc in [0,n) step NC:                 B panel -> L3
//     for pc in [0,k) step KC:               beta applied on first pc only
//                                            (step = the prepacked A's
//                                            panel depth, <= KC)
//       pack op(B)[pc:pc+KC, jc:jc+NC] into NR-strips   (thread scratch)
//       parallel over MR-strips of op(A):
//         pack alpha*op(A)[ic:ic+MC, pc:pc+KC] into MR-strips  (L2)
//         for jr step NR:                    B strip -> L1
//           for ir step MR: microkernel      C tile -> registers
//
// Both pack formats are transpose-normalized (op() resolved at pack time)
// and alpha is folded into the A panels, so the microkernel inner loop is
// a pure broadcast-FMA sweep with fixed trip counts: it keeps the MRxNR
// C tile in registers across the whole KC panel and touches C once per
// panel. Variants: AVX2+FMA and NEON intrinsics selected at runtime when
// compiled in, with a portable autovectorized kernel as fallback.

#include <cstdint>
#include <vector>

namespace exaclim {

/// Name of the microkernel variant the packed engine dispatches to on
/// this machine: "avx2-fma", "neon" or "portable".
const char* GemmMicroKernelName();

// ------------------------------------------------ blocking geometry -----

/// Register tile: MR rows x NR columns of C per microkernel call. 6x16
/// fits AVX2 exactly (12 ymm accumulators + 2 B loads + 1 A broadcast =
/// 15 of 16 registers) and NEON comfortably (24 q accumulators of 32).
inline constexpr std::int64_t kGemmMR = 6;
inline constexpr std::int64_t kGemmNR = 16;

/// Cache blocks: KC sizes the packed strips so an MR-strip of A plus an
/// NR-strip of B stay L1-resident (6+16)*256*4B = 22KB; MC*KC A panels
/// (~144KB) target L2; KC*NC B panels (~2MB) target L3. MC is a multiple
/// of MR, NC a multiple of NR.
inline constexpr std::int64_t kGemmKC = 256;
inline constexpr std::int64_t kGemmMC = 144;
inline constexpr std::int64_t kGemmNC = 2048;

// ------------------------------------------------------ microkernels ----

/// Computes the MRxNR tile update C = beta*C + Acc where
/// Acc[i][j] = sum_p a[p*MR+i] * b[p*NR+j] over p in [0, kc).
/// `a` is an MR-strip (alpha already folded), `b` an NR-strip, both
/// zero-padded to full width; `c` points at the tile's top-left element
/// with row stride `ldc`. beta == 0 never reads C (it may hold garbage).
using GemmMicroKernelFn = void (*)(std::int64_t kc, const float* a,
                                   const float* b, float* c,
                                   std::int64_t ldc, float beta);

void GemmMicroKernelPortable(std::int64_t kc, const float* a, const float* b,
                             float* c, std::int64_t ldc, float beta);
#if defined(EXACLIM_GEMM_AVX2)
// Defined in gemm_kernel_avx2.cpp (compiled with -mavx2 -mfma); only
// dispatched to after a runtime cpuid check.
void GemmMicroKernelAvx2(std::int64_t kc, const float* a, const float* b,
                         float* c, std::int64_t ldc, float beta);
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
void GemmMicroKernelNeon(std::int64_t kc, const float* a, const float* b,
                         float* c, std::int64_t ldc, float beta);
#endif

/// The variant the packed engine uses on this machine (resolved once).
GemmMicroKernelFn ActiveGemmMicroKernel();

// ---------------------------------------------------- fused epilogues ---

/// Pointwise work folded into the C-writeback of the FINAL KC panel —
/// DESIGN §15. Per C element (row = conv output channel) the merge
/// computes, in order:
///
///   v = beta*C + Acc            (beta restricted to {0, 1})
///   if bias:       v += bias[row]
///   if half:       v = RoundTripBits(v)
///   if bn_mean:    x_hat = (v - bn_mean[row]) * bn_inv_std[row]
///                  if bn_norm: bn_norm[row*mask_ld + col] = x_hat
///                  v = bn_gamma[row] * x_hat + bn_beta[row]
///                  if half: v = RoundTripBits(v)
///   if relu_mask:  relu_mask[row*mask_ld + col] = (v > 0)
///   if relu:       v = v > 0 ? v : 0
///   C = v
///
/// via the shared helpers in tensor/epilogue.hpp, so the result is
/// bit-identical to running the unfused GEMM followed by the standalone
/// bias / BatchNorm2d / ReLU passes. `half` is FP16 storage emulation
/// (DESIGN §17): it quantises at exactly the points the unfused FP16
/// chain does — the conv output, and BN's output before the ReLU takes
/// its mask (ReLU of a quantised value needs no further rounding). All
/// pointers are per-output-channel arrays of length m (bn_* are all set
/// or all null); relu_mask and bn_norm (BatchNorm2d's x_hat backward
/// cache, so a GEMM-folded eval forward still supports Backward), when
/// non-null, have C's layout (row stride mask_ld == the GEMM's n).
struct GemmEpilogue {
  const float* bias = nullptr;
  const float* bn_mean = nullptr;
  const float* bn_inv_std = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  float* bn_norm = nullptr;
  bool relu = false;
  unsigned char* relu_mask = nullptr;
  std::int64_t mask_ld = 0;
  bool half = false;

  bool Empty() const {
    return bias == nullptr && bn_mean == nullptr && !relu &&
           relu_mask == nullptr && !half;
  }
};

/// SIMD fast path for the epilogue merge of one full MRxNR tile:
/// C = beta*C + Acc (+ bias[row]) (ReLU'd when `relu`). Only the
/// bias/ReLU subset — BN and mask tiles take the scalar path. `bias`,
/// when non-null, points at the tile's first row's entry. Must match the
/// scalar merge bit-for-bit (adds are exact; the ReLU mirrors the
/// ternary's NaN/-0.0 behaviour).
using GemmMergeBiasReluFn = void (*)(const float* acc, float* c,
                                     std::int64_t ldc, float beta,
                                     const float* bias, bool relu);
#if defined(EXACLIM_GEMM_AVX2)
void GemmMergeBiasReluAvx2(const float* acc, float* c, std::int64_t ldc,
                           float beta, const float* bias, bool relu);
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
void GemmMergeBiasReluNeon(const float* acc, float* c, std::int64_t ldc,
                           float beta, const float* bias, bool relu);
#endif

// ------------------------------------------------------- implicit B -----

/// One row of the implicit im2col matrix: B[r] covers input channel ci
/// and kernel tap (kh, kw) of a convolution, r = (ci*KH + kh)*KW + kw.
/// The element at output pixel (oy, ox) is
///
///   image[offset + oy*stride*in_row_stride + ox*stride]
///
/// when oy in [oy_lo, oy_hi) and ox in [ox_lo, ox_hi), else 0 (padding).
/// offset = ci*in_h*in_w + dy*in_w + dx with dy = kh*dilation - pad,
/// dx = kw*dilation - pad; it may be negative, so gathers must form the
/// full int64 element index before touching the pointer. Built once per
/// geometry by BuildImplicitRows (nn/conv_geometry.*) into pooled
/// scratch. The same descriptor also views a conv's output gradient as
/// its data-gradient operand (BuildGradRows: one row per tap and output
/// channel, stride 1 within a stride phase).
struct GemmImplicitRow {
  std::int64_t offset = 0;
  std::int64_t oy_lo = 0;
  std::int64_t oy_hi = 0;
  std::int64_t ox_lo = 0;
  std::int64_t ox_hi = 0;
};

/// A conv input image viewed as the k x n im2col matrix (k = rows per
/// patch, n = out_h*out_w) without materializing it: the B-panel packer
/// gathers its panels straight from `image` via the row table.
struct GemmImplicitB {
  const float* image = nullptr;       // one image, [in_c, in_h, in_w]
  const GemmImplicitRow* rows = nullptr;  // k entries
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;
  std::int64_t in_row_stride = 0;     // elements per input image row
  std::int64_t stride = 1;            // conv stride (shared h/w)
};

// ------------------------------------------------------ prepacked A -----

/// A matrix packed once into the engine's A-panel layout for reuse across
/// many Gemm calls with the same left operand — the conv layers pack the
/// weight matrix once per Forward/Backward and share it across batch
/// shards (read-only, so shard tasks need no copies).
///
/// Layout: for each block pc of `depth` contraction columns (the last
/// one possibly shorter), ceil(m/MR) MR-strips, strip s holding columns
/// p in [pc, pc+kc) as MR consecutive rows (p-major), rows beyond m
/// zero-padded, alpha folded in. Strips of one block are contiguous, so
/// block pc starts at data() + RoundUp(m, MR) * pc.
///
/// The depth is the engine's panel walk: every entry point that takes a
/// PackedGemmA steps its contraction by depth(), so each block is one
/// microkernel FMA chain merged into C by its own writeback. The default
/// kGemmKC is the engine's cache block; the conv data gradient packs one
/// block per kernel tap (depth = the tap's channel count) so the taps
/// merge into C in the order a patch-matrix scatter adds them (DESIGN
/// §15).
class PackedGemmA {
 public:
  /// Packs alpha * op(A) where op(A) is m x k (A stored k x m when
  /// trans_a), in blocks of `depth` columns (1 <= depth <= kGemmKC).
  /// Reuses the existing allocation when geometry matches.
  void Pack(bool trans_a, std::int64_t m, std::int64_t k, float alpha,
            const float* a, std::int64_t depth = kGemmKC);

  std::int64_t m() const { return m_; }
  std::int64_t k() const { return k_; }
  std::int64_t depth() const { return depth_; }
  bool empty() const { return data_.empty(); }

  /// Start of block `pc` (a multiple of depth(), < k).
  const float* Block(std::int64_t pc) const {
    return data_.data() + m_padded_ * pc;
  }

 private:
  std::int64_t m_ = 0;
  std::int64_t k_ = 0;
  std::int64_t depth_ = kGemmKC;
  std::int64_t m_padded_ = 0;  // m rounded up to a multiple of kGemmMR
  std::vector<float> data_;
};

// ------------------------------------------------------- entry points ---

/// Gemm() (tensor/gemm.hpp) packs both operands on every call; the entry
/// points below take the left operand prepacked instead.
///
/// C(m,n) = A*op(B) + beta*C, alpha folded into A at Pack time. A non-empty `epi` folds the epilogue into the final-KC-panel merge;
/// it requires beta in {0, 1} and k > 0.
void GemmPackedWithA(const PackedGemmA& a, bool trans_b, std::int64_t n,
                     const float* b, float beta, float* c,
                     const GemmEpilogue* epi = nullptr);

/// Implicit-GEMM convolution: C(m, out_h*out_w) = A * B + beta*C where
/// A is a prepacked matrix and B the implicit matrix the row table
/// describes (b.rows must have a.k() entries). No col buffer is ever
/// materialized — the B packer gathers panels from the image on the
/// fly. Bit-identical to packing the same panels from a materialized
/// buffer, since the contraction order is fixed by the panel walk
/// regardless of where B's bytes come from. The conv forward (A = W,
/// B = im2col(x)) and the conv data gradient (A = W regrouped per tap,
/// B = grad_output through BuildGradRows) both run here.
void GemmPackedImplicit(const PackedGemmA& a, const GemmImplicitB& b,
                        float beta, float* c,
                        const GemmEpilogue* epi = nullptr);

/// Implicit-GEMM weight gradient: C(m, n) = A * B^T + beta*C where A is
/// row-major m x k with k = b.out_h*b.out_w (grad_output of one image),
/// and B the n x k implicit matrix of b.rows (n entries). The transposed
/// B panels are gathered from the image: the same bytes Gemm(false,
/// true, ...) packs from a materialized col buffer, so the two are
/// bit-identical.
void GemmImplicitTransB(std::int64_t m, const float* a,
                        const GemmImplicitB& b, std::int64_t n, float beta,
                        float* c);

}  // namespace exaclim
