#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstring>

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/alloc_tracker.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "tensor/epilogue.hpp"
#include "tensor/gemm.hpp"

namespace exaclim {
namespace {

constexpr std::int64_t MR = kGemmMR;
constexpr std::int64_t NR = kGemmNR;
constexpr std::int64_t KC = kGemmKC;
constexpr std::int64_t MC = kGemmMC;
constexpr std::int64_t NC = kGemmNC;
static_assert(MC % MR == 0, "MC must hold whole MR-strips");
static_assert(NC % NR == 0, "NC must hold whole NR-strips");
static_assert(ScratchWarmElems(ScratchSlot::kGemmPackA) == MC * KC &&
                  ScratchWarmElems(ScratchSlot::kGemmPackB) == KC * NC,
              "pool workers must pre-size the pack slots the driver uses");

std::int64_t RoundUp(std::int64_t v, std::int64_t unit) {
  return (v + unit - 1) / unit * unit;
}

struct ResolvedKernel {
  GemmMicroKernelFn fn;
  const char* name;
  GemmMergeBiasReluFn merge;  // SIMD epilogue merge; null -> scalar path
};

ResolvedKernel ResolveMicroKernel() {
#if defined(EXACLIM_GEMM_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {&GemmMicroKernelAvx2, "avx2-fma", &GemmMergeBiasReluAvx2};
  }
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
  return {&GemmMicroKernelNeon, "neon", &GemmMergeBiasReluNeon};
#else
  return {&GemmMicroKernelPortable, "portable", nullptr};
#endif
}

const ResolvedKernel& ActiveKernel() {
  static const ResolvedKernel kernel = ResolveMicroKernel();
  return kernel;
}

// C *= beta over a contiguous run, honouring the beta == 0 no-read rule.
void ScaleC(float* c, std::int64_t elems, float beta) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::fill(c, c + elems, 0.0f);
    return;
  }
  for (std::int64_t i = 0; i < elems; ++i) c[i] *= beta;
}

// ------------------------------------------------------------ packing ---

// Packs alpha*op(A) strips [s0, s1) of KC block pc into dst: strip s
// holds rows [s*MR, s*MR+MR) x columns [pc, pc+kc), p-major with MR
// consecutive rows per column, rows beyond m zeroed.
void PackAStrips(bool trans_a, const float* a, std::int64_t m,
                 std::int64_t k, float alpha, std::int64_t pc,
                 std::int64_t kc, std::int64_t s0, std::int64_t s1,
                 float* dst) {
  for (std::int64_t s = s0; s < s1; ++s) {
    const std::int64_t ir = s * MR;
    const std::int64_t mr = std::min(MR, m - ir);
    float* strip = dst + (s - s0) * MR * kc;
    if (mr < MR) {
      std::memset(strip, 0, static_cast<std::size_t>(MR * kc) * sizeof(float));
    }
    if (!trans_a) {
      // A is row-major m x k: stream each row, scatter at stride MR.
      for (std::int64_t i = 0; i < mr; ++i) {
        const float* src = a + (ir + i) * k + pc;
        for (std::int64_t p = 0; p < kc; ++p) strip[p * MR + i] = alpha * src[p];
      }
    } else {
      // A stored k x m: each packed column is a contiguous slice of a row.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = a + (pc + p) * m + ir;
        float* dcol = strip + p * MR;
        for (std::int64_t i = 0; i < mr; ++i) dcol[i] = alpha * src[i];
      }
    }
  }
}

// Copies nr <= NR floats into one row of an NR-strip, zero-filling the
// rest. Full rows take a fixed-size copy the compiler inlines (the
// implicit packer deals every gathered row out through here, one call
// per NR columns).
void CopyStripRow(const float* src, std::int64_t nr, float* dst) {
  if (nr == NR) {
    std::memcpy(dst, src, static_cast<std::size_t>(NR) * sizeof(float));
    return;
  }
  std::memcpy(dst, src, static_cast<std::size_t>(nr) * sizeof(float));
  for (std::int64_t j = nr; j < NR; ++j) dst[j] = 0.0f;
}

// Packs op(B)[pc:pc+kc, jc:jc+nc] into NR-strips: strip jr/NR holds
// columns [jc+jr, jc+jr+NR), p-major with NR consecutive columns per p,
// columns beyond n zeroed.
void PackBPanel(bool trans_b, const float* b, std::int64_t k, std::int64_t n,
                std::int64_t pc, std::int64_t kc, std::int64_t jc,
                std::int64_t nc, float* dst) {
  for (std::int64_t jr = 0; jr < nc; jr += NR) {
    const std::int64_t nr = std::min(NR, nc - jr);
    float* strip = dst + (jr / NR) * kc * NR;
    if (!trans_b) {
      // B is row-major k x n: each packed row is a contiguous slice.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * n + jc + jr;
        float* drow = strip + p * NR;
        std::memcpy(drow, src, static_cast<std::size_t>(nr) * sizeof(float));
        for (std::int64_t j = nr; j < NR; ++j) drow[j] = 0.0f;
      }
    } else {
      // B stored n x k: stream each B row, scatter at stride NR.
      if (nr < NR) {
        std::memset(strip, 0,
                    static_cast<std::size_t>(kc * NR) * sizeof(float));
      }
      for (std::int64_t j = 0; j < nr; ++j) {
        const float* src = b + (jc + jr + j) * k + pc;
        float* dcol = strip + j;
        for (std::int64_t p = 0; p < kc; ++p) dcol[p * NR] = src[p];
      }
    }
  }
}

// dst[x] = src[x * stride] for x < count: the in-bounds middle of a
// strided conv's gather. Stride 2 (every downsampling conv) deinterleaves
// four floats per step on SSE2; each step loads src[2x .. 2x+7], which
// stays inside the run while x + 4 < count.
void GatherStrided(const float* src, std::int64_t stride, std::int64_t count,
                   float* dst) {
  std::int64_t x = 0;
#if defined(__SSE2__)
  if (stride == 2) {
    for (; x + 4 < count; x += 4) {
      const __m128 lo = _mm_loadu_ps(src + 2 * x);
      const __m128 hi = _mm_loadu_ps(src + 2 * x + 4);
      _mm_storeu_ps(dst + x, _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)));
    }
  }
#endif
  for (; x < count; ++x) dst[x] = src[x * stride];
}

// strip[p*NR + j] = rows[j*KC + p] for p < kc, j < NR: NR gathered rows
// transposed into one NR-strip of a packed B panel, 4x4 blocks at a time
// on SSE2.
void TransposeIntoStrip(const float* rows, std::int64_t kc, float* strip) {
  std::int64_t p = 0;
#if defined(__SSE2__)
  for (; p + 4 <= kc; p += 4) {
    for (std::int64_t j = 0; j < NR; j += 4) {
      __m128 r0 = _mm_loadu_ps(rows + (j + 0) * KC + p);
      __m128 r1 = _mm_loadu_ps(rows + (j + 1) * KC + p);
      __m128 r2 = _mm_loadu_ps(rows + (j + 2) * KC + p);
      __m128 r3 = _mm_loadu_ps(rows + (j + 3) * KC + p);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      _mm_storeu_ps(strip + (p + 0) * NR + j, r0);
      _mm_storeu_ps(strip + (p + 1) * NR + j, r1);
      _mm_storeu_ps(strip + (p + 2) * NR + j, r2);
      _mm_storeu_ps(strip + (p + 3) * NR + j, r3);
    }
  }
#endif
  for (; p < kc; ++p) {
    for (std::int64_t j = 0; j < NR; ++j) strip[p * NR + j] = rows[j * KC + p];
  }
}

// Fills dst[0..count) with row `rd` of the implicit im2col matrix at
// output pixels [j0, j0+count): exactly the bytes PackBPanel would have
// copied from a materialized patch matrix (copies and zeros only, so
// bit-identity with the col path is automatic). Walks the pixel range as
// per-output-row segments: zero prefix (left padding), a stride-1 memcpy
// or strided gather for the in-bounds middle, zero suffix.
void GatherImplicitRow(const GemmImplicitB& src, const GemmImplicitRow& rd,
                       std::int64_t j0, std::int64_t count, float* dst) {
  // hot-path: begin
  std::int64_t oy = j0 / src.out_w;
  std::int64_t ox = j0 - oy * src.out_w;
  std::int64_t filled = 0;
  while (filled < count) {
    const std::int64_t seg = std::min(count - filled, src.out_w - ox);
    float* d = dst + filled;
    if (oy < rd.oy_lo || oy >= rd.oy_hi) {
      for (std::int64_t j = 0; j < seg; ++j) d[j] = 0.0f;
    } else {
      // Element index for valid (oy, ox) is always >= 0; form it fully
      // before touching the pointer (rd.offset alone may be negative).
      const std::int64_t base =
          rd.offset + oy * src.stride * src.in_row_stride;
      const std::int64_t lo = std::min(std::max(ox, rd.ox_lo), ox + seg);
      const std::int64_t hi = std::max(lo, std::min(ox + seg, rd.ox_hi));
      for (std::int64_t x = ox; x < lo; ++x) d[x - ox] = 0.0f;
      if (src.stride == 1) {
        if (hi > lo) {
          std::memcpy(d + (lo - ox), src.image + (base + lo),
                      static_cast<std::size_t>(hi - lo) * sizeof(float));
        }
      } else if (hi > lo) {
        GatherStrided(src.image + (base + lo * src.stride), src.stride,
                      hi - lo, d + (lo - ox));
      }
      for (std::int64_t x = hi; x < ox + seg; ++x) d[x - ox] = 0.0f;
    }
    filled += seg;
    ox = 0;
    ++oy;
  }
  // hot-path: end
}

// PackBPanel's twin for an implicit B operand: same NR-strip layout and
// zero padding, but each packed row is gathered from the input image via
// its GemmImplicitRow descriptor instead of copied from a col buffer.
// With trans_b the operand is the implicit matrix's transpose (rows of
// the table become columns of op(B)): each strip column is one table
// row gathered over the panel's kc pixels, then transposed into place —
// the bytes PackBPanel's trans_b branch would copy from a col buffer.
void PackImplicitBPanel(const GemmImplicitB& src, bool trans_b,
                        std::int64_t pc, std::int64_t kc, std::int64_t jc,
                        std::int64_t nc, float* dst) {
  if (!trans_b) {
    // Gather each panel row whole (one segment walk per row, not one
    // per NR-wide strip), then deal it out to the strips.
    float row[NC];
    for (std::int64_t p = 0; p < kc; ++p) {
      GatherImplicitRow(src, src.rows[pc + p], jc, nc, row);
      for (std::int64_t jr = 0; jr < nc; jr += NR) {
        CopyStripRow(row + jr, std::min(NR, nc - jr),
                     dst + (jr / NR) * kc * NR + p * NR);
      }
    }
    return;
  }
  // Gather a strip's NR table rows whole (zero rows past n), then
  // transpose them into the strip.
  float rows[NR * KC];
  for (std::int64_t jr = 0; jr < nc; jr += NR) {
    const std::int64_t nr = std::min(NR, nc - jr);
    for (std::int64_t j = 0; j < NR; ++j) {
      if (j < nr) {
        GatherImplicitRow(src, src.rows[jc + jr + j], pc, kc, rows + j * KC);
      } else {
        std::fill(rows + j * KC, rows + j * KC + kc, 0.0f);
      }
    }
    TransposeIntoStrip(rows, kc, dst + (jr / NR) * kc * NR);
  }
}

// Applies a microkernel accumulator (NR-strided, from the edge-tile path)
// to the mr x nr corner of C at row stride ldc.
void MergeEdgeTile(const float* acc, float* c, std::int64_t mr,
                   std::int64_t nr, std::int64_t ldc, float beta) {
  for (std::int64_t i = 0; i < mr; ++i) {
    const float* arow = acc + i * NR;
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = arow[j];
    } else if (beta == 1.0f) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) {
        crow[j] = beta * crow[j] + arow[j];
      }
    }
  }
}

// Epilogue merge of one C row: `cols` columns (the tile's nr), combined
// with beta*C, then bias / BN scale-shift / ReLU(+mask) per
// GemmEpilogue's contract. The row is staged through a local array, one
// stage per operation, so every stage is a branch-free loop; with
// kCols = NR (full tiles) the trip counts are compile-time constants and
// the stages vectorise. Each element still sees exactly the scalar
// operation sequence of the unfused layers (the stages are elementwise),
// so the staging changes no bits.
template <std::int64_t kCols>
void MergeRowWithEpilogue(const float* arow, float* crow, float* nrow,
                          unsigned char* mrow, std::int64_t row,
                          std::int64_t nr, float beta,
                          const GemmEpilogue& epi) {
  const std::int64_t cols = kCols > 0 ? kCols : nr;
  float v[NR];
  float x_hat[NR];
  if (beta == 0.0f) {
    for (std::int64_t j = 0; j < cols; ++j) v[j] = arow[j];
  } else {
    for (std::int64_t j = 0; j < cols; ++j) v[j] = crow[j] + arow[j];
  }
  // Guarded adds: an unconditional `v += 0.0f` would flip -0.0 outputs
  // to +0.0 and break bit-identity with the unfused path.
  if (epi.bias != nullptr) {
    const float b = epi.bias[row];
    for (std::int64_t j = 0; j < cols; ++j) v[j] += b;
  }
  if (epi.half) {
    for (std::int64_t j = 0; j < cols; ++j) v[j] = RoundTripBits(v[j]);
  }
  if (epi.bn_mean != nullptr) {
    const float mean = epi.bn_mean[row];
    const float inv_std = epi.bn_inv_std[row];
    const float gamma = epi.bn_gamma[row];
    const float beta_bn = epi.bn_beta[row];
    for (std::int64_t j = 0; j < cols; ++j) {
      x_hat[j] = BnNormalise(v[j], mean, inv_std);
      v[j] = BnAffine(x_hat[j], gamma, beta_bn);
    }
    if (nrow != nullptr) {
      for (std::int64_t j = 0; j < cols; ++j) nrow[j] = x_hat[j];
    }
    if (epi.half) {
      for (std::int64_t j = 0; j < cols; ++j) v[j] = RoundTripBits(v[j]);
    }
  }
  if (mrow != nullptr) {
    for (std::int64_t j = 0; j < cols; ++j) {
      mrow[j] = static_cast<unsigned char>(ReluActive(v[j]));
    }
  }
  if (epi.relu) {
    for (std::int64_t j = 0; j < cols; ++j) v[j] = ReluValueBits(v[j]);
  }
  for (std::int64_t j = 0; j < cols; ++j) crow[j] = v[j];
}

// Epilogue merge for one mr x nr tile of the final KC panel. `ir` /
// `col0` locate the tile in C so per-channel vectors and the mask index
// correctly. beta is restricted to {0, 1} by the entry points: the
// generic-beta microkernel writeback may contract beta*C + Acc into an
// FMA on some ISAs, and this merge must stay bit-identical to the
// unfused writeback it replaces.
void MergeTileWithEpilogue(const float* acc, float* c, std::int64_t ldc,
                           std::int64_t ir, std::int64_t col0,
                           std::int64_t mr, std::int64_t nr, float beta,
                           const GemmEpilogue& epi) {
  // hot-path: begin
  for (std::int64_t i = 0; i < mr; ++i) {
    const std::int64_t row = ir + i;
    const std::int64_t out = row * epi.mask_ld + col0;
    unsigned char* mrow =
        epi.relu_mask != nullptr ? epi.relu_mask + out : nullptr;
    float* nrow = epi.bn_norm != nullptr ? epi.bn_norm + out : nullptr;
    if (nr == NR) {
      MergeRowWithEpilogue<NR>(acc + i * NR, c + i * ldc, nrow, mrow, row,
                               nr, beta, epi);
    } else {
      MergeRowWithEpilogue<0>(acc + i * NR, c + i * ldc, nrow, mrow, row,
                              nr, beta, epi);
    }
  }
  // hot-path: end
}

// ------------------------------------------------------------- driver ---

// Shared KC/MC/NC walk behind every entry point. When `prepacked` is
// non-null its panels replace on-the-fly A packing (alpha is already
// folded in) and the walk steps pc by its panel depth instead of KC;
// when `bimp` is non-null the B panels are gathered from the image
// instead of a dense matrix (op(B) = the implicit matrix, or its
// transpose when trans_b). A non-null `epi` (never empty; beta in {0,1};
// requires a prepacked A with no alpha scaling) is applied while merging
// the final panel into C, so fused chains touch C exactly as often as
// unfused ones. Parallelism is over MR-strips of C: the strip space
// partitions identically for every pc, and each C element's FP
// contraction order is fixed by (panel walk, microkernel p loop), so
// results never depend on the thread count.
void RunPackedGemm(const PackedGemmA* prepacked, bool trans_a,
                   const float* a, bool trans_b, const float* b,
                   const GemmImplicitB* bimp, std::int64_t m, std::int64_t n,
                   std::int64_t k, float alpha, float beta, float* c,
                   const GemmEpilogue* epi) {
  const GemmMicroKernelFn kernel = ActiveKernel().fn;
  const GemmMergeBiasReluFn simd_merge = ActiveKernel().merge;
  const std::int64_t m_strips = (m + MR - 1) / MR;
  const std::int64_t strips_per_mc = MC / MR;
  const std::int64_t depth = prepacked != nullptr ? prepacked->depth() : KC;

  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += depth) {
      const std::int64_t kc = std::min(depth, k - pc);
      const float beta_eff = pc == 0 ? beta : 1.0f;
      // The epilogue fires exactly once per C element: on this jc
      // block's final panel (every jc block walks all of [0, k)).
      const GemmEpilogue* tile_epi = pc + depth >= k ? epi : nullptr;
      // The SIMD merge covers only the bias/ReLU subset on full tiles;
      // BN, mask or FP16 epilogues use the scalar merge everywhere.
      const bool simd_epi = tile_epi != nullptr && simd_merge != nullptr &&
                            tile_epi->bn_mean == nullptr &&
                            tile_epi->relu_mask == nullptr &&
                            !tile_epi->half;
      // A BN or mask epilogue writes more than one output stream.
      const bool multi_stream =
          tile_epi != nullptr &&
          (tile_epi->bn_mean != nullptr || tile_epi->relu_mask != nullptr);
      // The forking thread packs B once; strip tasks share it read-only
      // (ParallelFor joins before the next acquire can grow the slot).
      // Both pack slots are always acquired at their full KC×NC / MC×KC
      // block size, so a thread's slot reaches its final size on its
      // first GEMM of any shape: which conv shards a pool worker happened
      // to run during warmup cannot leave it short. Steady state the
      // gemm.pack.* census sites therefore read zero; a thread's first
      // GEMM is exactly what they catch.
      float* bpack;
      {
        EXACLIM_ALLOC_CENSUS_THREAD("gemm.pack.b");
        bpack = AcquireScratch(ScratchSlot::kGemmPackB,
                               static_cast<std::size_t>(KC * NC));
        if (bimp != nullptr) {
          PackImplicitBPanel(*bimp, trans_b, pc, kc, jc, nc, bpack);
        } else {
          PackBPanel(trans_b, b, k, n, pc, kc, jc, nc, bpack);
        }
      }
      const float* pre_block = prepacked ? prepacked->Block(pc) : nullptr;

      ParallelFor(
          0, static_cast<std::size_t>(m_strips),
          [&](std::size_t lo_s, std::size_t hi_s) {
            const auto lo = static_cast<std::int64_t>(lo_s);
            const auto hi = static_cast<std::int64_t>(hi_s);
            for (std::int64_t s0 = lo; s0 < hi; s0 += strips_per_mc) {
              const std::int64_t s1 = std::min(hi, s0 + strips_per_mc);
              const float* apack;
              if (pre_block != nullptr) {
                apack = pre_block + s0 * MR * kc;
              } else {
                EXACLIM_ALLOC_CENSUS_THREAD("gemm.pack.a");
                float* dst = AcquireScratch(
                    ScratchSlot::kGemmPackA, static_cast<std::size_t>(MC * KC));
                PackAStrips(trans_a, a, m, k, alpha, pc, kc, s0, s1, dst);
                apack = dst;
              }
              // hot-path: begin
              if (multi_stream) {
                // Tiles are independent, so the walk order changes no
                // bits. The default walk below keeps one B strip hot
                // across the MC block's A strips. A BN/mask epilogue
                // writes up to three streams per C row (C, x_hat, mask),
                // and stepping one line at a time through all MC rows of
                // all three outruns L1 and the prefetchers; so these
                // tiles walk one A strip's rows end to end instead (the
                // final panel's B block, at most KC x NC, stays
                // L2-resident). 2x faster on the pointwise Conv→BN→ReLU
                // eval fold.
                for (std::int64_t s = s0; s < s1; ++s) {
                  const std::int64_t ir = s * MR;
                  const std::int64_t mr = std::min(MR, m - ir);
                  const float* astrip = apack + (s - s0) * MR * kc;
                  for (std::int64_t jr = 0; jr < nc; jr += NR) {
                    const std::int64_t nr = std::min(NR, nc - jr);
                    float acc[kGemmMR * kGemmNR];
                    kernel(kc, astrip, bpack + (jr / NR) * kc * NR, acc, NR,
                           0.0f);
                    MergeTileWithEpilogue(acc, c + ir * n + jc + jr, n, ir,
                                          jc + jr, mr, nr, beta_eff,
                                          *tile_epi);
                  }
                }
                continue;
              }
              for (std::int64_t jr = 0; jr < nc; jr += NR) {
                const std::int64_t nr = std::min(NR, nc - jr);
                const float* bstrip = bpack + (jr / NR) * kc * NR;
                for (std::int64_t s = s0; s < s1; ++s) {
                  const std::int64_t ir = s * MR;
                  const std::int64_t mr = std::min(MR, m - ir);
                  const float* astrip = apack + (s - s0) * MR * kc;
                  float* ctile = c + ir * n + jc + jr;
                  if (tile_epi == nullptr && mr == MR && nr == NR) {
                    kernel(kc, astrip, bstrip, ctile, n, beta_eff);
                  } else if (tile_epi == nullptr) {
                    float acc[kGemmMR * kGemmNR];
                    kernel(kc, astrip, bstrip, acc, NR, 0.0f);
                    MergeEdgeTile(acc, ctile, mr, nr, n, beta_eff);
                  } else {
                    // Final-panel tiles of a fused GEMM: accumulate into
                    // registers/stack as usual, then one epilogue-fused
                    // pass over C (the whole point of DESIGN §15).
                    float acc[kGemmMR * kGemmNR];
                    kernel(kc, astrip, bstrip, acc, NR, 0.0f);
                    if (simd_epi && mr == MR && nr == NR) {
                      simd_merge(acc, ctile, n, beta_eff,
                                 tile_epi->bias != nullptr
                                     ? tile_epi->bias + ir
                                     : nullptr,
                                 tile_epi->relu);
                    } else {
                      MergeTileWithEpilogue(acc, ctile, n, ir, jc + jr, mr,
                                            nr, beta_eff, *tile_epi);
                    }
                  }
                }
              }
              // hot-path: end
            }
          },
          /*grain=*/1);
    }
  }
}

}  // namespace

// ---------------------------------------------------------- queries ----

const char* GemmMicroKernelName() { return ActiveKernel().name; }

GemmMicroKernelFn ActiveGemmMicroKernel() { return ActiveKernel().fn; }

// ------------------------------------------------------ microkernels ----

void GemmMicroKernelPortable(std::int64_t kc, const float* a, const float* b,
                             float* c, std::int64_t ldc, float beta) {
  // Fixed trip counts + __restrict let the autovectorizer keep the whole
  // accumulator tile in registers (modulo spills on narrow ISAs).
  // hot-path: begin
  float acc[kGemmMR * kGemmNR] = {};
  const float* __restrict ap = a;
  const float* __restrict bp = b;
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t i = 0; i < MR; ++i) {
      const float av = ap[i];
      float* __restrict arow = acc + i * NR;
      for (std::int64_t j = 0; j < NR; ++j) arow[j] += av * bp[j];
    }
    ap += MR;
    bp += NR;
  }
  for (std::int64_t i = 0; i < MR; ++i) {
    const float* arow = acc + i * NR;
    float* __restrict crow = c + i * ldc;
    if (beta == 0.0f) {
      for (std::int64_t j = 0; j < NR; ++j) crow[j] = arow[j];
    } else if (beta == 1.0f) {
      for (std::int64_t j = 0; j < NR; ++j) crow[j] += arow[j];
    } else {
      for (std::int64_t j = 0; j < NR; ++j) {
        crow[j] = beta * crow[j] + arow[j];
      }
    }
  }
  // hot-path: end
}

#if defined(__aarch64__) && defined(__ARM_NEON)
void GemmMicroKernelNeon(std::int64_t kc, const float* a, const float* b,
                         float* c, std::int64_t ldc, float beta) {
  // hot-path: begin
  float32x4_t acc[kGemmMR][4];
  for (int i = 0; i < kGemmMR; ++i) {
    for (int q = 0; q < 4; ++q) acc[i][q] = vdupq_n_f32(0.0f);
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const float32x4_t b0 = vld1q_f32(b);
    const float32x4_t b1 = vld1q_f32(b + 4);
    const float32x4_t b2 = vld1q_f32(b + 8);
    const float32x4_t b3 = vld1q_f32(b + 12);
    for (int i = 0; i < kGemmMR; ++i) {
      const float32x4_t av = vdupq_n_f32(a[i]);
      acc[i][0] = vfmaq_f32(acc[i][0], av, b0);
      acc[i][1] = vfmaq_f32(acc[i][1], av, b1);
      acc[i][2] = vfmaq_f32(acc[i][2], av, b2);
      acc[i][3] = vfmaq_f32(acc[i][3], av, b3);
    }
    a += kGemmMR;
    b += kGemmNR;
  }
  for (int i = 0; i < kGemmMR; ++i) {
    float* crow = c + i * ldc;
    for (int q = 0; q < 4; ++q) {
      float32x4_t out = acc[i][q];
      if (beta == 1.0f) {
        out = vaddq_f32(vld1q_f32(crow + 4 * q), out);
      } else if (beta != 0.0f) {
        out = vfmaq_n_f32(out, vld1q_f32(crow + 4 * q), beta);
      }
      vst1q_f32(crow + 4 * q, out);
    }
  }
  // hot-path: end
}

void GemmMergeBiasReluNeon(const float* acc, float* c, std::int64_t ldc,
                           float beta, const float* bias, bool relu) {
  // hot-path: begin
  const float32x4_t zero = vdupq_n_f32(0.0f);
  for (int i = 0; i < kGemmMR; ++i) {
    const float* arow = acc + i * kGemmNR;
    float* crow = c + i * ldc;
    const float32x4_t bv = bias != nullptr ? vdupq_n_f32(bias[i]) : zero;
    for (int q = 0; q < 4; ++q) {
      float32x4_t v = vld1q_f32(arow + 4 * q);
      if (beta != 0.0f) v = vaddq_f32(vld1q_f32(crow + 4 * q), v);
      if (bias != nullptr) v = vaddq_f32(v, bv);
      if (relu) {
        // vmaxq's NaN semantics differ from the scalar ternary; a
        // compare+select mirrors `v > 0 ? v : 0` exactly (NaN and -0.0
        // both select +0.0).
        v = vbslq_f32(vcgtq_f32(v, zero), v, zero);
      }
      vst1q_f32(crow + 4 * q, v);
    }
  }
  // hot-path: end
}
#endif  // __aarch64__ && __ARM_NEON

// ------------------------------------------------------ prepacked A -----

void PackedGemmA::Pack(bool trans_a, std::int64_t m, std::int64_t k,
                       float alpha, const float* a, std::int64_t depth) {
  EXACLIM_CHECK(m >= 0 && k >= 0, "PackedGemmA: bad dims " << m << "x" << k);
  EXACLIM_CHECK(depth >= 1 && depth <= KC,
                "PackedGemmA: panel depth " << depth << " outside [1, "
                                            << KC << "]");
  m_ = m;
  k_ = k;
  depth_ = depth;
  m_padded_ = RoundUp(m, MR);
  data_.resize(static_cast<std::size_t>(m_padded_ * k));
  const std::int64_t strips = (m + MR - 1) / MR;
  for (std::int64_t pc = 0; pc < k; pc += depth) {
    const std::int64_t kc = std::min(depth, k - pc);
    PackAStrips(trans_a, a, m, k, alpha, pc, kc, 0, strips,
                data_.data() + m_padded_ * pc);
  }
}

// ------------------------------------------------------- entry points ---

namespace {

// Normalizes and validates the caller's epilogue: empty folds to null;
// a live epilogue needs beta in {0,1} (MergeTileWithEpilogue's contract)
// and a real product term to hang off.
const GemmEpilogue* CheckEpilogue(const GemmEpilogue* epi, std::int64_t k,
                                  float beta) {
  if (epi == nullptr || epi->Empty()) return nullptr;
  EXACLIM_CHECK(beta == 0.0f || beta == 1.0f,
                "Gemm epilogue requires beta in {0, 1}, got " << beta);
  EXACLIM_CHECK(k > 0, "Gemm epilogue requires k > 0");
  EXACLIM_CHECK(
      (epi->relu_mask == nullptr && epi->bn_norm == nullptr) ||
          epi->mask_ld > 0,
      "Gemm epilogue mask/norm outputs need a row stride");
  const bool bn_all = epi->bn_mean != nullptr && epi->bn_inv_std != nullptr &&
                      epi->bn_gamma != nullptr && epi->bn_beta != nullptr;
  const bool bn_none = epi->bn_mean == nullptr &&
                       epi->bn_inv_std == nullptr &&
                       epi->bn_gamma == nullptr && epi->bn_beta == nullptr;
  EXACLIM_CHECK(bn_all || bn_none, "Gemm epilogue BN vectors must all be set");
  EXACLIM_CHECK(epi->bn_norm == nullptr || bn_all,
                "Gemm epilogue x_hat writeback needs the BN vectors");
  return epi;
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    // BLAS semantics: no product term, C = beta*C; beta == 0 overwrites C,
    // never reads it (C may hold NaN/Inf garbage).
    ScaleC(c, m * n, beta);
    return;
  }
  RunPackedGemm(nullptr, trans_a, a, trans_b, b, nullptr, m, n, k, alpha,
                beta, c, nullptr);
}

void GemmChecked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, std::span<const float> a,
                 std::span<const float> b, float beta, std::span<float> c) {
  EXACLIM_CHECK(static_cast<std::int64_t>(a.size()) == m * k,
                "A size " << a.size() << " != " << m * k);
  EXACLIM_CHECK(static_cast<std::int64_t>(b.size()) == k * n,
                "B size " << b.size() << " != " << k * n);
  EXACLIM_CHECK(static_cast<std::int64_t>(c.size()) == m * n,
                "C size " << c.size() << " != " << m * n);
  Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta, c.data());
}

void GemmPackedWithA(const PackedGemmA& a, bool trans_b, std::int64_t n,
                     const float* b, float beta, float* c,
                     const GemmEpilogue* epi) {
  const std::int64_t m = a.m();
  const std::int64_t k = a.k();
  epi = CheckEpilogue(epi, k, beta);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    ScaleC(c, m * n, beta);
    return;
  }
  EXACLIM_CHECK(!a.empty(), "GemmPackedWithA: operand not packed");
  RunPackedGemm(&a, /*trans_a=*/false, nullptr, trans_b, b, nullptr, m, n, k,
                /*alpha=*/1.0f, beta, c, epi);
}

void GemmPackedImplicit(const PackedGemmA& a, const GemmImplicitB& b,
                        float beta, float* c, const GemmEpilogue* epi) {
  const std::int64_t m = a.m();
  const std::int64_t k = a.k();
  const std::int64_t n = b.out_h * b.out_w;
  epi = CheckEpilogue(epi, k, beta);
  if (m == 0 || n == 0) return;
  EXACLIM_CHECK(k > 0 && !a.empty(), "GemmPackedImplicit: A not packed");
  EXACLIM_CHECK(b.image != nullptr && b.rows != nullptr && b.stride >= 1 &&
                    b.in_row_stride >= 1,
                "GemmPackedImplicit: bad implicit-B descriptor");
  RunPackedGemm(&a, /*trans_a=*/false, nullptr, /*trans_b=*/false, nullptr,
                &b, m, n, k, /*alpha=*/1.0f, beta, c, epi);
}

void GemmImplicitTransB(std::int64_t m, const float* a,
                        const GemmImplicitB& b, std::int64_t n, float beta,
                        float* c) {
  const std::int64_t k = b.out_h * b.out_w;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    ScaleC(c, m * n, beta);
    return;
  }
  EXACLIM_CHECK(b.image != nullptr && b.rows != nullptr && b.stride >= 1 &&
                    b.in_row_stride >= 1,
                "GemmImplicitTransB: bad implicit-B descriptor");
  RunPackedGemm(nullptr, /*trans_a=*/false, a, /*trans_b=*/true, nullptr, &b,
                m, n, k, /*alpha=*/1.0f, beta, c, nullptr);
}

}  // namespace exaclim
