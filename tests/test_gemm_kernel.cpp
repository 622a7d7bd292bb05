#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "im2col_oracle.hpp"
#include "nn/conv_geometry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {
namespace {

// Reference O(mnk) GEMM with double accumulation.
std::vector<float> NaiveGemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                             std::int64_t k, float alpha,
                             const std::vector<float>& a,
                             const std::vector<float>& b, float beta,
                             std::vector<float> c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      const float prior = beta == 0.0f ? 0.0f : beta * c[i * n + j];
      c[i * n + j] = static_cast<float>(alpha * acc + prior);
    }
  }
  return c;
}

std::vector<float> RandomVec(Rng& rng, std::int64_t count) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (auto& x : v) x = rng.Uniform(-1.0f, 1.0f);
  return v;
}

// Accumulated float rounding grows with the contraction length; the naive
// reference accumulates in double, so allow k-scaled absolute error.
float Tol(std::int64_t k) {
  return 1e-4f * (1.0f + std::sqrt(static_cast<float>(k)));
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& want,
                float tol, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << what << " at " << i;
  }
}

// ---------------------------------------------------- microkernel ------

TEST(GemmMicroKernel, NameIsKnown) {
  const std::string name = GemmMicroKernelName();
  EXPECT_TRUE(name == "avx2-fma" || name == "neon" || name == "portable")
      << name;
  EXPECT_NE(ActiveGemmMicroKernel(), nullptr);
}

// ------------------------------------------------------- fuzzing --------

// Deterministic sweep: every transpose combo x alpha x beta on a shape
// that exercises edge strips in both m (65 = 10*MR+5) and n (63 = 3*NR+15)
// and two KC panels (k=257).
TEST(GemmKernelFuzz, TransposeAlphaBetaSweep) {
  const std::int64_t m = 65, n = 63, k = 257;
  Rng rng(101);
  const std::vector<float> a = RandomVec(rng, m * k);
  const std::vector<float> b = RandomVec(rng, k * n);
  const std::vector<float> c0 = RandomVec(rng, m * n);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const float alpha : {0.0f, 1.0f, -0.5f}) {
        for (const float beta : {0.0f, 1.0f, 0.7f}) {
          const std::vector<float> want =
              NaiveGemm(ta, tb, m, n, k, alpha, a, b, beta, c0);
          std::vector<float> got = c0;
          Gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, got.data());
          ExpectNear(got, want, Tol(k), "sweep");
        }
      }
    }
  }
}

// Randomized shapes drawn from the edge-hunting set: sizes straddling MR,
// NR, KC and the 64-wide blocks of common layer shapes.
TEST(GemmKernelFuzz, RandomShapes) {
  constexpr std::int64_t kSizes[] = {1, 2, 3, 5, 17, 63, 64, 65, 257};
  constexpr std::int64_t kMaxElems = 1 << 22;  // per-trial m*n*k budget
  Rng rng(202);
  for (int trial = 0; trial < 60; ++trial) {
    std::int64_t m, n, k;
    do {
      m = kSizes[rng.Index(std::size(kSizes))];
      n = kSizes[rng.Index(std::size(kSizes))];
      k = kSizes[rng.Index(std::size(kSizes))];
    } while (m * n * k > kMaxElems);
    const bool ta = rng.Bernoulli(0.5);
    const bool tb = rng.Bernoulli(0.5);
    const float alphas[] = {0.0f, 1.0f, -0.5f};
    const float betas[] = {0.0f, 1.0f, 0.7f};
    const float alpha = alphas[rng.Index(3)];
    const float beta = betas[rng.Index(3)];
    const std::vector<float> a = RandomVec(rng, m * k);
    const std::vector<float> b = RandomVec(rng, k * n);
    const std::vector<float> c0 = RandomVec(rng, m * n);
    const std::vector<float> want =
        NaiveGemm(ta, tb, m, n, k, alpha, a, b, beta, c0);
    std::vector<float> got = c0;
    Gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, got.data());
    ExpectNear(got, want, Tol(k), "random shape");
  }
}

// beta == 0 must overwrite C without reading it: NaN poison must not leak.
TEST(GemmKernelFuzz, BetaZeroIgnoresPoisonedC) {
  const std::int64_t m = 65, n = 63, k = 64;
  Rng rng(303);
  const std::vector<float> a = RandomVec(rng, m * k);
  const std::vector<float> b = RandomVec(rng, k * n);
  const std::vector<float> want = NaiveGemm(
      false, false, m, n, k, 1.0f, a, b, 0.0f,
      std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
  std::vector<float> got(static_cast<std::size_t>(m * n),
                         std::numeric_limits<float>::quiet_NaN());
  Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, got.data());
  for (const float v : got) ASSERT_FALSE(std::isnan(v));
  ExpectNear(got, want, Tol(k), "poisoned C");
}

// alpha == 0 and k == 0 both degenerate to C *= beta, with no A/B reads.
TEST(GemmKernelFuzz, DegenerateScaleOnly) {
  const std::int64_t m = 17, n = 33;
  Rng rng(404);
  const std::vector<float> c0 = RandomVec(rng, m * n);
  std::vector<float> got = c0;
  Gemm(false, false, m, n, /*k=*/0, 1.0f, nullptr, nullptr, 0.7f, got.data());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_FLOAT_EQ(got[i], 0.7f * c0[i]);
  }
  got = c0;
  Gemm(false, false, m, n, /*k=*/64, 0.0f, nullptr, nullptr, 0.0f,
       got.data());
  for (const float v : got) ASSERT_EQ(v, 0.0f);
}

// ------------------------------------------------- prepacked operand ----

TEST(GemmKernelPrepack, MatchesOnTheFlyPath) {
  const std::int64_t m = 65, n = 130, k = 257;
  Rng rng(505);
  const std::vector<float> b = RandomVec(rng, k * n);
  const std::vector<float> c0 = RandomVec(rng, m * n);
  for (const bool ta : {false, true}) {
    const std::vector<float> a = RandomVec(rng, m * k);
    for (const float alpha : {1.0f, -0.5f}) {
      for (const float beta : {0.0f, 0.7f}) {
        std::vector<float> want = c0;
        Gemm(ta, false, m, n, k, alpha, a.data(), b.data(), beta,
             want.data());
        PackedGemmA packed;
        packed.Pack(ta, m, k, alpha, a.data());
        EXPECT_EQ(packed.m(), m);
        EXPECT_EQ(packed.k(), k);
        std::vector<float> got = c0;
        GemmPackedWithA(packed, false, n, b.data(), beta, got.data());
        // Same engine, same pack layout: results are bit-identical.
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "ta=" << ta << " i=" << i;
        }
      }
    }
  }
}

TEST(GemmKernelPrepack, ReusableAcrossManyRightOperands) {
  const std::int64_t m = 6, n = 37, k = 29;
  Rng rng(606);
  const std::vector<float> a = RandomVec(rng, m * k);
  PackedGemmA packed;
  packed.Pack(false, m, k, 1.0f, a.data());
  for (int rep = 0; rep < 4; ++rep) {
    const std::vector<float> b = RandomVec(rng, k * n);
    const std::vector<float> want = NaiveGemm(
        false, false, m, n, k, 1.0f, a, b, 0.0f,
        std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
    std::vector<float> got(static_cast<std::size_t>(m * n));
    GemmPackedWithA(packed, false, n, b.data(), 0.0f, got.data());
    ExpectNear(got, want, Tol(k), "prepacked");
  }
}

// A panel depth d makes the engine merge every d-deep FMA chain into C
// on its own: exactly a chain of GemmPackedWithA calls over the d-column
// chunks of A and B (beta 0, then 1), with the epilogue on the last one.
// Edge tiles on both axes; d = 256 = kGemmKC is the default walk.
TEST(GemmKernelPrepack, PanelDepthEqualsChainOfChunkGemms) {
  const std::int64_t m = 13, n = 37, k = 300;
  Rng rng(808);
  const std::vector<float> a = RandomVec(rng, m * k);
  const std::vector<float> b = RandomVec(rng, k * n);
  const std::vector<float> bias = RandomVec(rng, m);
  GemmEpilogue epi;
  epi.bias = bias.data();
  epi.relu = true;
  for (const std::int64_t d : {1, 4, 7, 256}) {
    for (const bool with_epi : {false, true}) {
      PackedGemmA packed;
      packed.Pack(false, m, k, 1.0f, a.data(), d);
      EXPECT_EQ(packed.depth(), d);
      std::vector<float> got(static_cast<std::size_t>(m * n), -7.0f);
      GemmPackedWithA(packed, false, n, b.data(), 0.0f, got.data(),
                      with_epi ? &epi : nullptr);

      std::vector<float> want(got.size(), -7.0f);
      std::vector<float> chunk;
      for (std::int64_t pc = 0; pc < k; pc += d) {
        const std::int64_t kc = std::min(d, k - pc);
        chunk.assign(static_cast<std::size_t>(m * kc), 0.0f);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t p = 0; p < kc; ++p) {
            chunk[static_cast<std::size_t>(i * kc + p)] =
                a[static_cast<std::size_t>(i * k + pc + p)];
          }
        }
        PackedGemmA part;
        part.Pack(false, m, kc, 1.0f, chunk.data());
        const bool last = pc + d >= k;
        GemmPackedWithA(part, false, n, b.data() + pc * n,
                        pc == 0 ? 0.0f : 1.0f, want.data(),
                        with_epi && last ? &epi : nullptr);
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "d=" << d << " epi=" << with_epi
                                   << " i=" << i;
      }
    }
  }
}

// ------------------------------------------------------- implicit B ----

// The transposed implicit-B GEMM (conv weight gradient) packs the same
// bytes Gemm(false, true, ...) packs from a materialized col buffer, so
// the two are bit-identical; both agree with the double reference.
TEST(GemmKernelImplicit, TransposedGatherMatchesMaterializedCol) {
  for (const ConvGeometry g :
       {ConvGeometry{.in_c = 3, .in_h = 20, .in_w = 19, .k_h = 3,
                     .k_w = 3, .stride = 1, .pad = 1, .dilation = 1},
        ConvGeometry{.in_c = 2, .in_h = 23, .in_w = 24, .k_h = 3,
                     .k_w = 3, .stride = 2, .pad = 1, .dilation = 1},
        ConvGeometry{.in_c = 2, .in_h = 17, .in_w = 18, .k_h = 3,
                     .k_w = 3, .stride = 1, .pad = 4, .dilation = 4}}) {
    const std::int64_t m = 7;
    const std::int64_t n = g.PatchSize();
    const std::int64_t k = g.OutPixels();
    Rng rng(909);
    const std::vector<float> image = RandomVec(rng, g.in_c * g.in_h * g.in_w);
    const std::vector<float> a = RandomVec(rng, m * k);
    const std::vector<float> c0 = RandomVec(rng, m * n);
    std::vector<GemmImplicitRow> rows(static_cast<std::size_t>(n));
    BuildImplicitRows(g, rows.data());
    std::vector<float> col(static_cast<std::size_t>(n * k));
    Im2ColFromRows(g, rows.data(), image.data(), col.data());
    GemmImplicitB bimp;
    bimp.image = image.data();
    bimp.rows = rows.data();
    bimp.out_h = g.OutH();
    bimp.out_w = g.OutW();
    bimp.in_row_stride = g.in_w;
    bimp.stride = g.stride;
    for (const float beta : {0.0f, 1.0f}) {
      std::vector<float> want = c0;
      Gemm(false, true, m, n, k, 1.0f, a.data(), col.data(), beta,
           want.data());
      std::vector<float> got = c0;
      GemmImplicitTransB(m, a.data(), bimp, n, beta, got.data());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "stride " << g.stride << " beta "
                                   << beta << " i=" << i;
      }
      ExpectNear(got, NaiveGemm(false, true, m, n, k, 1.0f, a, col, beta, c0),
                 Tol(k), "implicit transposed");
    }
  }
}

// ------------------------------------------------- scratch workspace ----

TEST(GemmKernelScratch, PackBuffersReusedNotReallocated) {
  const std::int64_t m = 64, n = 128, k = 128;
  Rng rng(707);
  const std::vector<float> a = RandomVec(rng, m * k);
  const std::vector<float> b = RandomVec(rng, k * n);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  // The calling thread packs B; its scratch must be warm now and stay at
  // the same capacity across identically-shaped calls (grow-only reuse).
  const std::size_t warm = ScratchCapacity(ScratchSlot::kGemmPackB);
  EXPECT_GE(warm, static_cast<std::size_t>(kGemmNR * std::min(k, kGemmKC)));
  for (int rep = 0; rep < 3; ++rep) {
    Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    EXPECT_EQ(ScratchCapacity(ScratchSlot::kGemmPackB), warm);
  }
}

}  // namespace
}  // namespace exaclim
