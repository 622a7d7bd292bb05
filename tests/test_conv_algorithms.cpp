// Property sweep over the convolution geometries (Sec VI: cuDNN's
// dynamic algorithm choice is the reason the paper traced the API to
// count FLOPs): whichever algorithm the geometry selects must match an
// independent naive reference, for all geometry corners, under every
// execution walk (batch-parallel or serial shards, bias folded into the
// GEMM epilogue or added in a separate pass).

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "nn/conv.hpp"
#include "nn/conv_engine.hpp"

namespace exaclim {
namespace {

// Independent reference implementation (straight from the definition,
// sharing no code with nn/conv.cpp or nn/im2col.cpp).
Tensor ReferenceConv(const Tensor& input, const Tensor& weight,
                     const Tensor* bias, const Conv2d::Options& o) {
  const std::int64_t n = input.shape().n(), h = input.shape().h(),
                     w = input.shape().w();
  const std::int64_t pad =
      o.pad >= 0 ? o.pad : o.dilation * (o.kernel / 2);
  const std::int64_t eff_k = o.dilation * (o.kernel - 1) + 1;
  const std::int64_t oh = (h + 2 * pad - eff_k) / o.stride + 1;
  const std::int64_t ow = (w + 2 * pad - eff_k) / o.stride + 1;
  Tensor out(TensorShape::NCHW(n, o.out_c, oh, ow));
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t oc = 0; oc < o.out_c; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc =
              bias ? (*bias)[static_cast<std::size_t>(oc)] : 0.0;
          for (std::int64_t ic = 0; ic < o.in_c; ++ic) {
            for (std::int64_t ky = 0; ky < o.kernel; ++ky) {
              for (std::int64_t kx = 0; kx < o.kernel; ++kx) {
                const std::int64_t iy =
                    oy * o.stride + ky * o.dilation - pad;
                const std::int64_t ix =
                    ox * o.stride + kx * o.dilation - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                const float wv = weight[static_cast<std::size_t>(
                    ((oc * o.in_c + ic) * o.kernel + ky) * o.kernel + kx)];
                acc += static_cast<double>(wv) * input.At(b, ic, iy, ix);
              }
            }
          }
          out.At(b, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct GeometryCase {
  std::int64_t in_c, out_c, kernel, stride, pad, dilation;
  std::int64_t h, w;
};

/// One forward execution walk: shards on the pool or serially, bias in
/// the GEMM epilogue or in its own pass.
struct Walk {
  bool parallel;
  bool fuse;
};

/// Restores the engine walk on scope exit so cases cannot leak state.
struct WalkGuard {
  bool parallel = ConvBatchParallelEnabled();
  bool fuse = ConvFusionEnabled();
  ~WalkGuard() {
    SetConvBatchParallel(parallel);
    SetConvFusion(fuse);
  }
};

class ConvAlgorithmParity
    : public ::testing::TestWithParam<std::tuple<GeometryCase, Walk>> {};

TEST_P(ConvAlgorithmParity, MatchesNaiveReference) {
  const auto [geo, walk] = GetParam();
  WalkGuard guard;
  SetConvBatchParallel(walk.parallel);
  SetConvFusion(walk.fuse);
  Conv2d::Options opts{.in_c = geo.in_c, .out_c = geo.out_c,
                       .kernel = geo.kernel, .stride = geo.stride,
                       .pad = geo.pad, .dilation = geo.dilation,
                       .bias = true};
  Rng rng(7);
  Conv2d conv("c", opts, rng);
  // A non-zero bias, so both the epilogue fold and the separate pass
  // have something to get wrong.
  Rng brng(13);
  Tensor& bias = conv.Params().at(1)->value;
  bias = Tensor::Uniform(TensorShape{geo.out_c}, brng, -1.0f, 1.0f);
  Rng xrng(11);
  const Tensor x = Tensor::Uniform(
      TensorShape::NCHW(2, geo.in_c, geo.h, geo.w), xrng, -1.0f, 1.0f);

  const Tensor expected = ReferenceConv(x, conv.weight().value, &bias, opts);
  const Tensor actual = conv.Forward(x, false);
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::int64_t i = 0; i < actual.NumElements(); ++i) {
    EXPECT_NEAR(actual[static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)], 2e-4f)
        << ToString(conv.chosen_algorithm()) << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, ConvAlgorithmParity,
    ::testing::Combine(
        ::testing::Values(
            GeometryCase{3, 4, 3, 1, 1, 1, 8, 9},    // plain 3x3
            GeometryCase{2, 5, 1, 1, 0, 1, 7, 7},    // pointwise
            GeometryCase{4, 2, 3, 2, 1, 1, 9, 10},   // strided
            GeometryCase{2, 3, 3, 1, 2, 2, 8, 8},    // atrous d=2
            GeometryCase{2, 3, 3, 1, -1, 2, 8, 8},   // atrous default pad
            GeometryCase{2, 2, 3, 1, -1, 4, 10, 9},  // atrous d=4 def. pad
            GeometryCase{1, 2, 5, 1, 2, 1, 10, 10},  // 5x5 (Tiramisu mod)
            GeometryCase{3, 3, 7, 2, 3, 1, 14, 14},  // stem 7x7/2
            GeometryCase{2, 2, 3, 1, 6, 6, 9, 9},    // extreme dilation
            GeometryCase{2, 3, 1, 2, 0, 1, 9, 9},    // strided 1x1
            GeometryCase{2, 3, 1, 1, 1, 1, 6, 6}),   // padded 1x1
        ::testing::Values(Walk{.parallel = true, .fuse = true},
                          Walk{.parallel = true, .fuse = false},
                          Walk{.parallel = false, .fuse = true},
                          Walk{.parallel = false, .fuse = false})));

TEST(ConvAlgorithm, AutoSelectsDirectForPointwise) {
  Rng rng(1);
  Conv2d pointwise("p", {.in_c = 4, .out_c = 4, .kernel = 1, .pad = 0},
                   rng);
  EXPECT_EQ(pointwise.chosen_algorithm(), ConvAlgorithm::kDirect);
  Conv2d spatial("s", {.in_c = 4, .out_c = 4, .kernel = 3}, rng);
  EXPECT_EQ(spatial.chosen_algorithm(), ConvAlgorithm::kImplicitGemm);
  // A 1x1 kernel that strides or pads is not pointwise: the activation
  // map is not its patch matrix.
  Conv2d strided("t", {.in_c = 4, .out_c = 4, .kernel = 1, .stride = 2,
                       .pad = 0},
                 rng);
  EXPECT_EQ(strided.chosen_algorithm(), ConvAlgorithm::kImplicitGemm);
  Conv2d padded("q", {.in_c = 4, .out_c = 4, .kernel = 1, .pad = 1}, rng);
  EXPECT_EQ(padded.chosen_algorithm(), ConvAlgorithm::kImplicitGemm);
}

TEST(ConvAlgorithm, ToStringNames) {
  EXPECT_STREQ(ToString(ConvAlgorithm::kAuto), "auto");
  EXPECT_STREQ(ToString(ConvAlgorithm::kImplicitGemm), "implicit-gemm");
  EXPECT_STREQ(ToString(ConvAlgorithm::kDirect), "direct");
  EXPECT_EQ(DefaultConvAlgorithm(), ConvAlgorithm::kAuto);
}

}  // namespace
}  // namespace exaclim
