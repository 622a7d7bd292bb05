// Batch-parallel convolution engine (DESIGN §9): serial-vs-parallel
// bit-exactness of gradients, the nesting-aware thread-pool policy as
// seen from conv, workspace reuse across geometry changes, and the GEMM
// correctness fixes that rode along (k == 0 fast path, grain clamp).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "im2col_oracle.hpp"
#include "models/tiramisu.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/conv_engine.hpp"
#include "nn/norm.hpp"
#include "nn/sequential.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {
namespace {

/// Restores the engine mode on scope exit so tests cannot leak state.
struct EngineModeGuard {
  bool saved = ConvBatchParallelEnabled();
  ~EngineModeGuard() { SetConvBatchParallel(saved); }
};

struct GradSnapshot {
  std::vector<float> output;
  std::vector<float> grad_input;
  std::vector<std::vector<float>> param_grads;
};

template <typename LayerT>
GradSnapshot RunStep(LayerT& layer, const Tensor& x, const Tensor& g,
                     bool parallel) {
  SetConvBatchParallel(parallel);
  for (Param* p : layer.Params()) p->grad.SetZero();
  const Tensor y = layer.Forward(x, true);
  const Tensor gx = layer.Backward(g);
  GradSnapshot snap;
  snap.output.assign(y.Data().begin(), y.Data().end());
  snap.grad_input.assign(gx.Data().begin(), gx.Data().end());
  for (Param* p : layer.Params()) {
    snap.param_grads.emplace_back(p->grad.Data().begin(),
                                  p->grad.Data().end());
  }
  return snap;
}

void ExpectBitIdentical(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": serial and parallel results differ bitwise";
}

void ExpectBitIdentical(const GradSnapshot& serial,
                        const GradSnapshot& parallel) {
  ExpectBitIdentical(serial.output, parallel.output, "output");
  ExpectBitIdentical(serial.grad_input, parallel.grad_input, "grad_input");
  ASSERT_EQ(serial.param_grads.size(), parallel.param_grads.size());
  for (std::size_t i = 0; i < serial.param_grads.size(); ++i) {
    ExpectBitIdentical(serial.param_grads[i], parallel.param_grads[i],
                       "param grad");
  }
}

class ConvEngineBitExact : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ConvEngineBitExact, Conv2dBackwardMatchesSerialBitwise) {
  EngineModeGuard guard;
  const std::int64_t batch = GetParam();
  Rng rng(7);
  Conv2d conv("c", {.in_c = 5, .out_c = 4, .kernel = 3}, rng);
  Rng xrng(11);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 5, 9, 8), xrng,
                                   -1.0f, 1.0f);
  Rng grng(13);
  const Tensor g =
      Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1.0f, 1.0f);

  const GradSnapshot serial = RunStep(conv, x, g, /*parallel=*/false);
  const GradSnapshot parallel = RunStep(conv, x, g, /*parallel=*/true);
  ExpectBitIdentical(serial, parallel);
}

TEST_P(ConvEngineBitExact, PointwiseConvBackwardMatchesSerialBitwise) {
  EngineModeGuard guard;
  const std::int64_t batch = GetParam();
  Rng rng(17);
  Conv2d conv("p", {.in_c = 6, .out_c = 3, .kernel = 1, .pad = 0}, rng);
  Rng xrng(19);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 6, 7, 7), xrng,
                                   -1.0f, 1.0f);
  Rng grng(23);
  const Tensor g =
      Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1.0f, 1.0f);

  const GradSnapshot serial = RunStep(conv, x, g, /*parallel=*/false);
  const GradSnapshot parallel = RunStep(conv, x, g, /*parallel=*/true);
  ExpectBitIdentical(serial, parallel);
}

TEST_P(ConvEngineBitExact, ConvTransposeBackwardMatchesSerialBitwise) {
  EngineModeGuard guard;
  const std::int64_t batch = GetParam();
  Rng rng(29);
  ConvTranspose2d deconv(
      "d", {.in_c = 4, .out_c = 3, .kernel = 3, .stride = 2, .out_pad = 1},
      rng);
  Rng xrng(31);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 4, 5, 6), xrng,
                                   -1.0f, 1.0f);
  Rng grng(37);
  const Tensor g =
      Tensor::Uniform(deconv.OutputShape(x.shape()), grng, -1.0f, 1.0f);

  const GradSnapshot serial = RunStep(deconv, x, g, /*parallel=*/false);
  const GradSnapshot parallel = RunStep(deconv, x, g, /*parallel=*/true);
  ExpectBitIdentical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Batches, ConvEngineBitExact,
                         ::testing::Values(1, 3, 8));

// The shard partition must cover the batch exactly once, in order.
TEST(ConvEngine, ShardRangesPartitionTheBatch) {
  for (const std::int64_t n : {1, 2, 3, 7, 8, 16, 17, 33}) {
    const std::int64_t shards = ConvGradShards(n);
    EXPECT_GE(shards, 1);
    EXPECT_LE(shards, n);
    std::int64_t expect_lo = 0;
    for (std::int64_t s = 0; s < shards; ++s) {
      const ConvShardRange r = ShardImageRange(n, shards, s);
      EXPECT_EQ(r.lo, expect_lo) << "n=" << n << " s=" << s;
      EXPECT_LE(r.lo, r.hi);
      expect_lo = r.hi;
    }
    EXPECT_EQ(expect_lo, n) << "n=" << n;
  }
}

// With the engine disabled, shards run serially in shard order on the
// calling thread.
TEST(ConvEngine, DisabledModeRunsShardsInOrder) {
  EngineModeGuard guard;
  SetConvBatchParallel(false);
  std::vector<std::int64_t> order;
  RunConvShards(5, [&](std::int64_t s) { order.push_back(s); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

// The per-layer workspace must resize correctly when the same layer sees
// different input geometries (e.g. multi-scale evaluation).
TEST(ConvEngine, WorkspaceSurvivesGeometryChanges) {
  EngineModeGuard guard;
  SetConvBatchParallel(true);
  Rng rng(41);
  Conv2d conv("c", {.in_c = 3, .out_c = 4, .kernel = 3}, rng);
  Rng rng2(41);
  Conv2d fresh("c", {.in_c = 3, .out_c = 4, .kernel = 3}, rng2);
  for (const auto& [h, w, batch] :
       {std::tuple{8, 8, 4}, {12, 10, 2}, {6, 14, 8}, {8, 8, 4}}) {
    Rng xrng(static_cast<std::uint64_t>(h * 100 + w));
    const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 3, h, w),
                                     xrng, -1.0f, 1.0f);
    const Tensor got = conv.Forward(x, false);
    const Tensor want = fresh.Forward(x, false);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(0, std::memcmp(got.Raw(), want.Raw(),
                             static_cast<std::size_t>(got.NumElements()) *
                                 sizeof(float)))
        << h << "x" << w;
  }
}

// Default "same" padding must account for dilation: a 3x3 rate-2/4 conv
// with pad = -1 keeps the spatial map (the ASPP configuration).
TEST(ConvEngine, SamePadDefaultScalesWithDilation) {
  Rng rng(43);
  for (const std::int64_t d : {1, 2, 4}) {
    Conv2d conv("a", {.in_c = 2, .out_c = 2, .kernel = 3, .dilation = d},
                rng);
    EXPECT_EQ(conv.options().pad, d) << "dilation " << d;
    const auto out = conv.OutputShape(TensorShape::NCHW(1, 2, 12, 16));
    EXPECT_EQ(out, TensorShape::NCHW(1, 2, 12, 16)) << "dilation " << d;
  }
  Conv2d k5("k5", {.in_c = 2, .out_c = 2, .kernel = 5, .dilation = 3}, rng);
  EXPECT_EQ(k5.options().pad, 6);
}

// k == 0 with beta == 0 must overwrite C (BLAS semantics), even when C
// holds NaN/Inf garbage from an uninitialised or reused buffer.
TEST(GemmEdge, ZeroKBetaZeroOverwritesGarbage) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> c{nan, inf, -inf, 3.5f};
  Gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 0.0f, c.data());
  for (const float v : c) EXPECT_EQ(v, 0.0f);

  std::vector<float> c2{1.0f, 2.0f, 3.0f, 4.0f};
  Gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 0.5f, c2.data());
  EXPECT_EQ(c2, (std::vector<float>{0.5f, 1.0f, 1.5f, 2.0f}));

  std::vector<float> c3{1.0f, 2.0f, 3.0f, 4.0f};
  Gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 1.0f, c3.data());
  EXPECT_EQ(c3, (std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}));
}

// Wide-N GEMM exercises the grain clamp (one kBlockM panel minimum per
// task); validate against a naive reference.
TEST(GemmEdge, WideNMatchesNaiveReference) {
  const std::int64_t m = 3, n = 2048, k = 5;
  Rng rng(47);
  const Tensor a = Tensor::Uniform(TensorShape{m, k}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::Uniform(TensorShape{k, n}, rng, -1.0f, 1.0f);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  Gemm(false, false, m, n, k, 1.0f, a.Raw(), b.Raw(), 0.0f, c.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; j += 97) {
      double want = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        want += static_cast<double>(a[static_cast<std::size_t>(i * k + p)]) *
                b[static_cast<std::size_t>(p * n + j)];
      }
      EXPECT_NEAR(c[static_cast<std::size_t>(i * n + j)], want, 1e-4)
          << i << "," << j;
    }
  }
}

// ------------- implicit GEMM + fused epilogues (DESIGN §15) -------------

/// Restores the fusion knob on scope exit.
struct FusionGuard {
  bool saved = ConvFusionEnabled();
  ~FusionGuard() { SetConvFusion(saved); }
};

std::vector<float> Snapshot(const Tensor& t) {
  return {t.Data().begin(), t.Data().end()};
}

struct ImplicitGeo {
  std::int64_t in_c, out_c, kernel, stride, pad, dilation;
  std::int64_t h, w;
};

class ConvImplicitBitExact : public ::testing::TestWithParam<ImplicitGeo> {};

// The implicit B-panel gather must reproduce the materialized im2col
// lowering bit-for-bit — same packed panels, same contraction order —
// with and without the bias epilogue fold. The oracle adds the bias in a
// separate pass, so the fold is checked too.
TEST_P(ConvImplicitBitExact, ForwardMatchesIm2ColBitwise) {
  FusionGuard guard;
  const ImplicitGeo g = GetParam();
  Rng rng(71);
  Conv2d conv("c",
              {.in_c = g.in_c, .out_c = g.out_c, .kernel = g.kernel,
               .stride = g.stride, .pad = g.pad, .dilation = g.dilation,
               .bias = true},
              rng);
  // A non-zero bias, so the epilogue fold has something to get wrong.
  Rng brng(72);
  conv.Params().at(1)->value =
      Tensor::Uniform(TensorShape{g.out_c}, brng, -1.0f, 1.0f);
  Rng xrng(73);
  const Tensor x = Tensor::Uniform(
      TensorShape::NCHW(2, g.in_c, g.h, g.w), xrng, -1.0f, 1.0f);
  MaterialisedConv2d oracle(conv);
  const Tensor yc = oracle.Forward(x, /*fold_bias=*/false);
  for (const bool fuse : {false, true}) {
    SetConvFusion(fuse);
    const Tensor yi = conv.Forward(x, false);
    ASSERT_EQ(yi.shape(), yc.shape());
    ExpectBitIdentical(Snapshot(yc), Snapshot(yi),
                       fuse ? "fused forward" : "unfused forward");
  }
}

void ExpectGradsBitIdentical(const ConvGrads& want, const Tensor& grad_input,
                             const std::vector<Param*>& params) {
  ExpectBitIdentical(Snapshot(want.grad_input), Snapshot(grad_input),
                     "grad_input");
  ExpectBitIdentical(want.weight, Snapshot(params.at(0)->grad),
                     "weight grad");
  ExpectBitIdentical(want.bias, Snapshot(params.at(1)->grad), "bias grad");
}

// Both implicit gradients — the transposed weight-gradient gather and the
// per-tap data-gradient panels (stride phases included) — must reproduce
// the materialized backward bit-for-bit: gW += gy @ im2col(x)^T, and
// gx = Col2Im(W^T @ gy). Swept over batch sizes (shard layouts) and both
// batch walks.
TEST_P(ConvImplicitBitExact, BackwardMatchesIm2ColBitwise) {
  EngineModeGuard guard;
  const ImplicitGeo g = GetParam();
  Rng rng(81);
  Conv2d conv("c",
              {.in_c = g.in_c, .out_c = g.out_c, .kernel = g.kernel,
               .stride = g.stride, .pad = g.pad, .dilation = g.dilation,
               .bias = true},
              rng);
  MaterialisedConv2d oracle(conv);
  for (const std::int64_t batch : {1, 2, 3, 5}) {
    Rng xrng(83);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(batch, g.in_c, g.h, g.w), xrng, -1.0f, 1.0f);
    Rng grng(85);
    const Tensor gy =
        Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1.0f, 1.0f);
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch
                                        << (parallel ? " parallel" : " serial"));
      SetConvBatchParallel(parallel);
      const ConvGrads want = oracle.Backward(x, gy);
      for (Param* p : conv.Params()) p->grad.SetZero();
      (void)conv.Forward(x, true);
      const Tensor gx = conv.Backward(gy);
      ExpectGradsBitIdentical(want, gx, conv.Params());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, ConvImplicitBitExact,
    ::testing::Values(ImplicitGeo{3, 4, 3, 1, 1, 1, 8, 9},   // plain 3x3
                      ImplicitGeo{2, 5, 1, 1, 0, 1, 7, 7},   // pointwise
                      ImplicitGeo{4, 2, 3, 2, 1, 1, 9, 10},  // strided
                      ImplicitGeo{2, 3, 3, 2, 0, 1, 9, 9},   // stride 2 pad 0
                      ImplicitGeo{2, 3, 3, 1, 2, 2, 8, 8},   // atrous d=2
                      ImplicitGeo{2, 3, 3, 1, -1, 2, 8, 8},  // dilated same
                      ImplicitGeo{2, 2, 3, 1, -1, 4, 10, 9},
                      ImplicitGeo{1, 2, 5, 2, 2, 1, 11, 10},  // 5x5 strided
                      ImplicitGeo{3, 3, 7, 2, 3, 1, 14, 14},  // stem 7x7/2
                      ImplicitGeo{2, 2, 3, 1, 6, 6, 9, 9},    // extreme d=6
                      ImplicitGeo{3, 2, 1, 2, 0, 1, 9, 8},    // 1x1/2
                      ImplicitGeo{2, 3, 1, 1, 1, 1, 6, 7}));  // padded 1x1

struct DeconvGeo {
  std::int64_t in_c, out_c, kernel, stride, pad, out_pad;
  std::int64_t h, w;
};

class ConvTransposeImplicitBitExact
    : public ::testing::TestWithParam<DeconvGeo> {};

// ConvTranspose2d runs the same two operators: its forward is the
// per-tap data-gradient GEMM (stride phases for the upsampling deconvs),
// its backward the forward implicit gather (data gradient) and the
// transposed gather (weight gradient). All bit-identical to the
// materialized Col2Im / Im2ColFromRows lowering.
TEST_P(ConvTransposeImplicitBitExact, ForwardAndBackwardMatchIm2ColBitwise) {
  EngineModeGuard guard;
  const DeconvGeo g = GetParam();
  Rng rng(87);
  ConvTranspose2d deconv("d",
                         {.in_c = g.in_c, .out_c = g.out_c,
                          .kernel = g.kernel, .stride = g.stride,
                          .pad = g.pad, .out_pad = g.out_pad},
                         rng);
  Rng brng(88);
  deconv.Params().at(1)->value =
      Tensor::Uniform(TensorShape{g.out_c}, brng, -1.0f, 1.0f);
  MaterialisedConvTranspose2d oracle(deconv);
  for (const std::int64_t batch : {1, 2, 3, 5}) {
    Rng xrng(89);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(batch, g.in_c, g.h, g.w), xrng, -1.0f, 1.0f);
    Rng grng(90);
    const Tensor gy =
        Tensor::Uniform(deconv.OutputShape(x.shape()), grng, -1.0f, 1.0f);
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch
                                        << (parallel ? " parallel" : " serial"));
      SetConvBatchParallel(parallel);
      const Tensor want_y = oracle.Forward(x);
      const ConvGrads want = oracle.Backward(x, gy);
      for (Param* p : deconv.Params()) p->grad.SetZero();
      const Tensor y = deconv.Forward(x, true);
      ExpectBitIdentical(Snapshot(want_y), Snapshot(y), "forward");
      const Tensor gx = deconv.Backward(gy);
      ExpectGradsBitIdentical(want, gx, deconv.Params());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, ConvTransposeImplicitBitExact,
    ::testing::Values(DeconvGeo{3, 4, 3, 1, 1, 0, 6, 7},   // stride 1
                      DeconvGeo{4, 3, 3, 2, 1, 1, 5, 6},   // 2x upsample
                      DeconvGeo{2, 3, 3, 2, 1, 0, 5, 5},   // stride 2
                      DeconvGeo{3, 2, 4, 2, 1, 0, 4, 5},   // 4x4/2
                      DeconvGeo{2, 2, 2, 2, 0, 1, 4, 3},   // 2x2/2 out_pad
                      DeconvGeo{2, 3, 3, 3, 0, 2, 3, 4}));  // stride 3

// A data-gradient tap deeper than kGemmKC channels splits into several
// panels, so the tap's partial sums merge into C one panel at a time:
// (C + p0) + p1 where Col2Im added C + (p0 + p1). No model runs such a
// conv; pin that the result stays a correct gradient against a double-
// accumulating reference, within a relative error of 1e-5 of the sum of
// |terms| (float rounding over 2700-term sums).
TEST(ConvImplicitDeepTap, DataGradientWithinToleranceOfDoubleReference) {
  constexpr std::int64_t kInC = 3, kOutC = 300, kH = 6, kW = 6;
  static_assert(kOutC > kGemmKC);
  Rng rng(91);
  Conv2d conv("deep", {.in_c = kInC, .out_c = kOutC, .kernel = 3}, rng);
  Rng xrng(92);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(1, kInC, kH, kW), xrng,
                                   -1.0f, 1.0f);
  Rng grng(93);
  const Tensor gy =
      Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1.0f, 1.0f);
  (void)conv.Forward(x, true);
  const Tensor gx = conv.Backward(gy);
  const Tensor& w = conv.weight().value;
  for (std::int64_t ci = 0; ci < kInC; ++ci) {
    for (std::int64_t iy = 0; iy < kH; ++iy) {
      for (std::int64_t ix = 0; ix < kW; ++ix) {
        double want = 0.0;
        double magnitude = 0.0;
        for (std::int64_t co = 0; co < kOutC; ++co) {
          for (std::int64_t kh = 0; kh < 3; ++kh) {
            for (std::int64_t kw = 0; kw < 3; ++kw) {
              const std::int64_t oy = iy + 1 - kh;  // stride 1, pad 1
              const std::int64_t ox = ix + 1 - kw;
              if (oy < 0 || oy >= kH || ox < 0 || ox >= kW) continue;
              const double term =
                  static_cast<double>(
                      w[static_cast<std::size_t>(co * kInC * 9 + ci * 9 +
                                                 kh * 3 + kw)]) *
                  gy[static_cast<std::size_t>((co * kH + oy) * kW + ox)];
              want += term;
              magnitude += std::abs(term);
            }
          }
        }
        const float got =
            gx[static_cast<std::size_t>((ci * kH + iy) * kW + ix)];
        EXPECT_NEAR(got, want, 1e-5 * magnitude)
            << "ci " << ci << " iy " << iy << " ix " << ix;
      }
    }
  }
}

/// The binary16 round-to-zero threshold is 2^-25: a positive value below
/// it becomes +0, and a ReLU that reads the quantised value must clear
/// its mask there. Under FP16 this makes output channel 0 of a chain's
/// pre-ReLU producer straddle that threshold: BN's gamma[0] = 2^-26
/// scales x_hat to y in about +/-2^-25, and without a BN the conv's
/// channel-0 weights are +/-2^-24 (a binary16 subnormal, so the weight
/// quantisation keeps them) with no bias. The other channels get a
/// nonzero conv bias, so the epilogue's bias add runs before its rounding.
void PrepareFp16Chain(Sequential& seq, bool with_bn) {
  seq.SetPrecision(Precision::kFP16);
  auto& conv = static_cast<Conv2d&>(seq.at(0));
  const std::vector<Param*> params = conv.Params();
  Tensor& bias = params.at(1)->value;
  Rng brng(99);
  bias = Tensor::Uniform(bias.shape(), brng, -0.5f, 0.5f);
  if (with_bn) {
    auto& bn = static_cast<BatchNorm2d&>(seq.at(1));
    bn.Params().at(0)->value[0] = std::ldexp(1.0f, -26);
    return;
  }
  bias[0] = 0.0f;
  Tensor& w = params.at(0)->value;
  const std::int64_t row = w.shape()[1];
  for (std::int64_t k = 0; k < row; ++k) {
    const auto i = static_cast<std::size_t>(k);
    w[i] = std::copysign(std::ldexp(1.0f, -24), w[i]);
  }
}

/// Runs one forward+backward step through a Conv2d(→BN)(→ReLU) chain with
/// fusion on or off, returning bitwise-comparable results. All RNG seeds
/// are fixed, so two calls differ only in the knobs under test.
GradSnapshot RunChainStep(bool fuse, bool with_bn, bool with_relu,
                          const Conv2d::Options& copts, bool train,
                          Precision precision = Precision::kFP32) {
  FusionGuard guard;
  SetConvFusion(fuse);
  Rng rng(91);
  Sequential seq("chain");
  seq.Emplace<Conv2d>("c", copts, rng);
  if (with_bn) seq.Emplace<BatchNorm2d>("bn", copts.out_c);
  if (with_relu) seq.Emplace<ReLU>("r");
  if (precision == Precision::kFP16) PrepareFp16Chain(seq, with_bn);

  // Warm the BN running stats (and every pooled buffer) with a training
  // step, then measure the step under test.
  Rng wrng(93);
  const Tensor warm = Tensor::Uniform(
      TensorShape::NCHW(2, copts.in_c, 8, 8), wrng, -1.0f, 1.0f);
  (void)seq.Forward(warm, true);

  Rng xrng(95);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(2, copts.in_c, 8, 8),
                                   xrng, -1.0f, 1.0f);
  for (Param* p : seq.Params()) p->grad.SetZero();
  const Tensor y = seq.Forward(x, train);
  Rng grng(97);
  const Tensor g = Tensor::Uniform(y.shape(), grng, -1.0f, 1.0f);
  const Tensor gx = seq.Backward(g);

  GradSnapshot snap;
  snap.output = Snapshot(y);
  snap.grad_input = Snapshot(gx);
  for (Param* p : seq.Params()) snap.param_grads.push_back(Snapshot(p->grad));
  return snap;
}

constexpr Conv2d::Options kChain3x3{.in_c = 3, .out_c = 4};
constexpr Conv2d::Options kChainPointwise{.in_c = 3, .out_c = 4,
                                          .kernel = 1, .pad = 0};

void ExpectChainBitIdentical(bool with_bn, bool with_relu,
                             const Conv2d::Options& copts, bool train,
                             Precision precision = Precision::kFP32) {
  const GradSnapshot fused = RunChainStep(/*fuse=*/true, with_bn, with_relu,
                                          copts, train, precision);
  const GradSnapshot unfused = RunChainStep(/*fuse=*/false, with_bn,
                                            with_relu, copts, train,
                                            precision);
  ExpectBitIdentical(unfused, fused);
}

// Training: the conv's bias folds into the GEMM epilogue and the BN+ReLU
// collapse into one in-place sweep that still fills every backward cache.
TEST(ConvFusion, TrainChainMatchesUnfusedBitwise) {
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/true, kChain3x3,
                          /*train=*/true);
}

// Inference: the whole BN affine (from running stats) plus the ReLU fold
// into the GEMM epilogue — and Backward after the folded eval forward
// (the gradcheck pattern) still matches bitwise.
TEST(ConvFusion, EvalFoldMatchesUnfusedBitwise) {
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/true, kChain3x3,
                          /*train=*/false);
}

TEST(ConvFusion, ConvBnChainWithoutReluMatchesUnfused) {
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/false, kChain3x3,
                          /*train=*/true);
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/false, kChain3x3,
                          /*train=*/false);
}

TEST(ConvFusion, ConvReluChainMatchesUnfused) {
  ExpectChainBitIdentical(/*with_bn=*/false, /*with_relu=*/true, kChain3x3,
                          /*train=*/true);
  ExpectChainBitIdentical(/*with_bn=*/false, /*with_relu=*/true, kChain3x3,
                          /*train=*/false);
}

// The pointwise fast path (direct 1x1 GEMM on the activation map) writes C
// through the packed engine too, so the full eval fold applies there.
TEST(ConvFusion, PointwiseFastPathFusesBitExact) {
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/true,
                          kChainPointwise, /*train=*/true);
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/true,
                          kChainPointwise, /*train=*/false);
}

/// One forward+backward step through BatchNorm2d→ReLU(→Conv2d), the
/// pre-activation unit of Tiramisu, with fusion on or off. Under FP16,
/// gamma[0] = 2^-26 puts channel 0's y around the round-to-zero
/// threshold (PrepareFp16Chain).
GradSnapshot RunBnReluStep(bool fuse, bool with_conv, bool train,
                           Precision precision = Precision::kFP32) {
  FusionGuard guard;
  SetConvFusion(fuse);
  constexpr std::int64_t kC = 3;
  Rng rng(101);
  Sequential seq("unit");
  seq.Emplace<BatchNorm2d>("bn", kC);
  seq.Emplace<ReLU>("r");
  if (with_conv) {
    seq.Emplace<Conv2d>("c", Conv2d::Options{.in_c = kC, .out_c = 4}, rng);
  }
  if (precision == Precision::kFP16) {
    seq.SetPrecision(Precision::kFP16);
    seq.at(0).Params().at(0)->value[0] = std::ldexp(1.0f, -26);
  }

  Rng wrng(103);
  const TensorShape shape = TensorShape::NCHW(2, kC, 8, 8);
  (void)seq.Forward(Tensor::Uniform(shape, wrng, -1.0f, 1.0f), true);
  Rng xrng(105);
  const Tensor x = Tensor::Uniform(shape, xrng, -1.0f, 1.0f);
  for (Param* p : seq.Params()) p->grad.SetZero();
  const Tensor y = seq.Forward(x, train);
  Rng grng(107);
  const Tensor g = Tensor::Uniform(y.shape(), grng, -1.0f, 1.0f);
  const Tensor gx = seq.Backward(g);

  GradSnapshot snap;
  snap.output = Snapshot(y);
  snap.grad_input = Snapshot(gx);
  for (Param* p : seq.Params()) snap.param_grads.push_back(Snapshot(p->grad));
  return snap;
}

/// A Tiramisu dense block (every unit BN→ReLU→Conv) forward+backward.
GradSnapshot RunDenseBlockStep(bool fuse, bool train) {
  FusionGuard guard;
  SetConvFusion(fuse);
  Rng rng(111);
  DenseBlock block("db", {.in_c = 5, .growth = 3, .layers = 3}, rng);
  Rng xrng(113);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(2, 5, 8, 8), xrng,
                                   -1.0f, 1.0f);
  (void)block.Forward(x, true);  // move the running stats off their init
  for (Param* p : block.Params()) p->grad.SetZero();
  const Tensor y = block.Forward(x, train);
  Rng grng(117);
  const Tensor g = Tensor::Uniform(y.shape(), grng, -1.0f, 1.0f);
  const Tensor gx = block.Backward(g);

  GradSnapshot snap;
  snap.output = Snapshot(y);
  snap.grad_input = Snapshot(gx);
  for (Param* p : block.Params()) {
    snap.param_grads.push_back(Snapshot(p->grad));
  }
  return snap;
}

// The BatchNorm2d→ReLU chain runs as one BN sweep that applies the ReLU
// and fills its mask: output, every gradient and (through Backward) every
// cache must match the two-layer walk, train and eval, alone and in
// front of a conv, and inside a whole dense block.
TEST(ConvFusion, BnReluChainMatchesUnfusedBitwise) {
  for (const bool train : {true, false}) {
    for (const bool with_conv : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "train " << train << " conv "
                                        << with_conv);
      ExpectBitIdentical(RunBnReluStep(/*fuse=*/false, with_conv, train),
                         RunBnReluStep(/*fuse=*/true, with_conv, train));
    }
    SCOPED_TRACE(::testing::Message() << "dense block, train " << train);
    ExpectBitIdentical(RunDenseBlockStep(/*fuse=*/false, train),
                       RunDenseBlockStep(/*fuse=*/true, train));
  }
}

// The matcher finds a chain whose members share one precision, FP32 or
// FP16, and never one that mixes them.
TEST(ConvFusion, BnReluPairFusesOnlyAtOnePrecision) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<BatchNorm2d>("bn", 4));
  layers.push_back(std::make_unique<ReLU>("r"));
  EXPECT_EQ(FusableChainAt(layers, 0), 2u);
  EXPECT_EQ(FusableChainAt(layers, 1), 0u);  // a trailing ReLU alone
  layers[0]->SetPrecision(Precision::kFP16);
  EXPECT_EQ(FusableChainAt(layers, 0), 0u);
  layers[1]->SetPrecision(Precision::kFP16);
  EXPECT_EQ(FusableChainAt(layers, 0), 2u);
  layers[0]->SetPrecision(Precision::kFP32);
  EXPECT_EQ(FusableChainAt(layers, 0), 0u);
}

// ------------- FP16 fused chains (DESIGN §17) ----------------------------
//
// Under FP16 emulation a fused chain quantises exactly where the unfused
// walk does: the conv output (in the GEMM epilogue, after the bias add)
// before BN's statistics, and BN's y before the ReLU takes its mask.
// Every chain must match the walk bit for bit, in train and eval mode,
// including channel 0, whose pre-ReLU values straddle the binary16
// round-to-zero threshold.

TEST(ConvFusionFp16, BnReluMatchesUnfusedBitwise) {
  for (const bool train : {true, false}) {
    for (const bool with_conv : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "train " << train << " conv "
                                        << with_conv);
      ExpectBitIdentical(
          RunBnReluStep(/*fuse=*/false, with_conv, train, Precision::kFP16),
          RunBnReluStep(/*fuse=*/true, with_conv, train, Precision::kFP16));
    }
  }
}

TEST(ConvFusionFp16, ConvChainsMatchUnfusedBitwise) {
  struct Chain {
    const char* name;
    bool with_bn, with_relu;
  };
  for (const Chain chain : {Chain{"conv->relu", false, true},
                            Chain{"conv->bn", true, false},
                            Chain{"conv->bn->relu", true, true},
                            Chain{"biased conv", false, false}}) {
    for (const Conv2d::Options& copts : {kChain3x3, kChainPointwise}) {
      for (const bool train : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << chain.name << " kernel " << copts.kernel
                     << " train " << train);
        ExpectChainBitIdentical(chain.with_bn, chain.with_relu, copts, train,
                                Precision::kFP16);
      }
    }
  }
}

// The underflow case itself: y that is positive in FP32 but rounds to +0
// in binary16 gets mask 0 from the fused BN→ReLU sweep and from the
// conv epilogue, so no gradient flows through it.
TEST(ConvFusionFp16, UnderflowToZeroClearsTheReluMask) {
  FusionGuard guard;
  SetConvFusion(true);
  const TensorShape shape = TensorShape::NCHW(2, 1, 8, 8);
  Rng xrng(121);
  const Tensor x = Tensor::Uniform(shape, xrng, -1.0f, 1.0f);
  const Tensor ones = Tensor::Full(shape, 1.0f);
  const auto expect_all_zero = [](const Tensor& t, const char* what) {
    for (const float v : t.Data()) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v), 0u) << what;
    }
  };

  // BN→ReLU: gamma = 2^-28 puts every |y| well below 2^-25.
  BatchNorm2d bn("bn", 1);
  ReLU relu("r");
  bn.Params().at(0)->value[0] = std::ldexp(1.0f, -28);
  relu.SetPrecision(Precision::kFP16);
  {
    // In FP32 about half of y is positive, so the mask passes gradient.
    (void)bn.ForwardFused(x, true, relu);
    EXPECT_GT(relu.Backward(ones).Sum(), 0.0f);
  }
  bn.SetPrecision(Precision::kFP16);
  expect_all_zero(bn.ForwardFused(x, true, relu), "bn->relu output");
  expect_all_zero(relu.Backward(ones), "bn->relu mask");

  // Conv→ReLU in the GEMM epilogue: a 1x1 conv with weight 2^-24 and no
  // bias leaves |v| <= 2^-24 * 0.5 < 2^-25 where |x| < 0.5.
  Rng rng(123);
  Conv2d conv("c", {.in_c = 1, .out_c = 1, .kernel = 1, .pad = 0}, rng);
  conv.weight().value[0] = std::ldexp(1.0f, -24);
  conv.SetPrecision(Precision::kFP16);
  const Tensor small = Tensor::Uniform(shape, xrng, -0.49f, 0.49f);
  ConvFusedOps ops;
  ops.relu = true;
  ops.relu_mask = relu.BeginFusedForward(shape);
  expect_all_zero(conv.ForwardFused(small, true, ops), "conv->relu output");
  expect_all_zero(relu.Backward(ones), "conv->relu mask");
}

// ------------- TSan stress: the fused path's threaded writebacks --------
//
// The fused eval fold writes four output streams from the GEMM's parallel
// MR-strip tasks (C, the bias add, BatchNorm's x_hat cache and the ReLU
// mask); the train path layers an in-place BN sweep over plane-parallel
// loops. Any cross-strip overlap in those writebacks is TSan-visible
// here — this binary carries the `stress` label the TSan preset runs —
// and every round must reproduce round 0 bitwise.
TEST(ConvFusionStress, HammeredFusedChainIsRaceFreeAndBitStable) {
  for (const bool train : {true, false}) {
    GradSnapshot reference;
    for (int round = 0; round < 15; ++round) {
      GradSnapshot snap = RunChainStep(/*fuse=*/true, /*with_bn=*/true,
                                       /*with_relu=*/true, kChain3x3, train);
      if (round == 0) {
        reference = std::move(snap);
      } else {
        ExpectBitIdentical(reference, snap);
      }
    }
  }
}

// Several fused chains training and folding concurrently from caller
// threads, all sharding onto the one global pool (the multi-tower usage
// pattern). Each chain owns its layers and workspaces; nothing may bleed
// across, and each thread's eval fold must be bit-stable round to round.
TEST(ConvFusionStress, ConcurrentFusedChainsShareGlobalPool) {
  FusionGuard guard;
  SetConvFusion(true);
  constexpr int kChains = 4;
  std::vector<std::thread> threads;
  threads.reserve(kChains);
  std::vector<std::vector<float>> firsts(kChains);
  for (int t = 0; t < kChains; ++t) {
    threads.emplace_back([&firsts, t] {
      Rng rng(120 + static_cast<std::uint64_t>(t));
      Sequential seq("chain" + std::to_string(t));
      seq.Emplace<Conv2d>("c", kChain3x3, rng);
      seq.Emplace<BatchNorm2d>("bn", kChain3x3.out_c);
      seq.Emplace<ReLU>("r");
      Rng xrng(130 + static_cast<std::uint64_t>(t));
      const Tensor x = Tensor::Uniform(TensorShape::NCHW(2, kChain3x3.in_c,
                                                         8, 8),
                                       xrng, -1.0f, 1.0f);
      (void)seq.Forward(x, /*train=*/true);  // warm BN stats + buffers
      std::vector<float> first;
      for (int round = 0; round < 10; ++round) {
        const Tensor y = seq.Forward(x, /*train=*/false);  // eval fold
        if (round == 0) {
          first = Snapshot(y);
        } else {
          EXPECT_TRUE(Snapshot(y) == first)
              << "chain " << t << " diverged at round " << round;
        }
      }
      firsts[static_cast<std::size_t>(t)] = std::move(first);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& f : firsts) EXPECT_FALSE(f.empty());
}

// A conv issued while the engine is batch-parallel must keep its nested
// GEMMs inline: InParallelRegion is observable from inside a shard when
// the pool actually forked.
TEST(ConvEngine, NestedParallelForFromShardRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> nested_inline{0};
  pool.ParallelFor(
      0, 8,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_TRUE(ThreadPool::InParallelRegion());
        // A nested call must run inline over the full range, exactly once.
        int calls = 0;
        std::size_t seen = 0;
        pool.ParallelFor(
            0, 1000,
            [&](std::size_t b, std::size_t e) {
              ++calls;
              seen += e - b;
            },
            /*grain=*/1);
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(seen, 1000u);
        nested_inline.fetch_add(static_cast<int>(hi - lo));
      },
      /*grain=*/1);
  EXPECT_EQ(nested_inline.load(), 8);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

}  // namespace
}  // namespace exaclim
