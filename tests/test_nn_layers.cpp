#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "gradcheck.hpp"
#include "nn/activation.hpp"
#include "nn/combine.hpp"
#include "nn/conv.hpp"
#include "nn/im2col.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"

namespace exaclim {
namespace {

using testing::CheckInputGradient;
using testing::CheckParamGradients;

Tensor RandomInput(TensorShape shape, std::uint64_t seed = 1) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), rng, -1.0f, 1.0f);
}

// ------------------------------------------------------------ Im2Col ----

TEST(Im2Col, IdentityFor1x1) {
  ConvGeometry g{.in_c = 2, .in_h = 3, .in_w = 3, .k_h = 1, .k_w = 1,
                 .stride = 1, .pad = 0, .dilation = 1};
  std::vector<float> img(18);
  std::iota(img.begin(), img.end(), 0.0f);
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize()) *
                         g.OutPixels());
  Im2Col(g, img.data(), col.data());
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_EQ(col[i], img[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
  ConvGeometry g{.in_c = 1, .in_h = 2, .in_w = 2, .k_h = 3, .k_w = 3,
                 .stride = 1, .pad = 1, .dilation = 1};
  std::vector<float> img{1, 2, 3, 4};
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize()) *
                         g.OutPixels());
  Im2Col(g, img.data(), col.data());
  // Output pixel (0,0) with kernel offset (0,0) reads input (-1,-1) = 0.
  EXPECT_EQ(col[0], 0.0f);
  // Kernel offset (1,1) (row 4) reads input (0,0) for output (0,0).
  EXPECT_EQ(col[4 * 4 + 0], 1.0f);
  // Kernel offset (2,2) (row 8) reads input (1,1) for output (0,0).
  EXPECT_EQ(col[8 * 4 + 0], 4.0f);
}

TEST(Im2Col, DilationSamplesSparsely) {
  ConvGeometry g{.in_c = 1, .in_h = 5, .in_w = 5, .k_h = 3, .k_w = 3,
                 .stride = 1, .pad = 2, .dilation = 2};
  EXPECT_EQ(g.OutH(), 5);
  std::vector<float> img(25);
  std::iota(img.begin(), img.end(), 0.0f);
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize()) *
                         g.OutPixels());
  Im2Col(g, img.data(), col.data());
  // Center output pixel (2,2), kernel offset (0,0) reads (2-2, 2-2) = (0,0).
  EXPECT_EQ(col[0 * 25 + 12], 0.0f);
  // Kernel offset (2,2) reads (2+2, 2+2) = (4,4) = 24.
  EXPECT_EQ(col[8 * 25 + 12], 24.0f);
}

TEST(Im2Col, StridedGeometry) {
  ConvGeometry g{.in_c = 1, .in_h = 7, .in_w = 7, .k_h = 3, .k_w = 3,
                 .stride = 2, .pad = 1, .dilation = 1};
  EXPECT_EQ(g.OutH(), 4);
  EXPECT_EQ(g.OutW(), 4);
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <Im2Col(x), c> == <x, Col2Im(c)> for random x, c — the defining
  // property that makes conv backward correct.
  ConvGeometry g{.in_c = 3, .in_h = 6, .in_w = 5, .k_h = 3, .k_w = 3,
                 .stride = 2, .pad = 1, .dilation = 1};
  Rng rng(4);
  std::vector<float> x(static_cast<std::size_t>(g.in_c * g.in_h * g.in_w));
  std::vector<float> c(static_cast<std::size_t>(g.PatchSize()) *
                       g.OutPixels());
  for (auto& v : x) v = rng.Uniform(-1, 1);
  for (auto& v : c) v = rng.Uniform(-1, 1);

  std::vector<float> col(c.size());
  Im2Col(g, x.data(), col.data());
  double lhs = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    lhs += static_cast<double>(col[i]) * c[i];
  }
  std::vector<float> img(x.size(), 0.0f);
  Col2Im(g, c.data(), img.data());
  double rhs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * img[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ------------------------------------------------------------ Conv2d ----

struct ConvCase {
  Conv2d::Options opts;
  std::int64_t in_h;
  std::int64_t in_w;
  const char* label;
};

class ConvGradCheck : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradCheck, InputAndParamGradients) {
  const ConvCase& tc = GetParam();
  Rng rng(10);
  Conv2d conv("conv", tc.opts, rng);
  const Tensor input =
      RandomInput(TensorShape::NCHW(2, tc.opts.in_c, tc.in_h, tc.in_w));
  const auto in_res = CheckInputGradient(conv, input);
  EXPECT_LT(in_res.max_rel_err, 2e-2) << tc.label;
  const auto p_res = CheckParamGradients(conv, input);
  EXPECT_LT(p_res.max_rel_err, 2e-2) << tc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ConvGradCheck,
    ::testing::Values(
        ConvCase{{.in_c = 3, .out_c = 4, .kernel = 3}, 6, 7, "plain3x3"},
        ConvCase{{.in_c = 2, .out_c = 3, .kernel = 1, .pad = 0}, 5, 5,
                 "pointwise1x1"},
        ConvCase{{.in_c = 2, .out_c = 4, .kernel = 3, .stride = 2}, 8, 8,
                 "strided"},
        ConvCase{{.in_c = 2, .out_c = 2, .kernel = 3, .pad = 2,
                  .dilation = 2},
                 9, 9, "atrous_d2"},
        ConvCase{{.in_c = 2, .out_c = 2, .kernel = 3, .dilation = 2}, 9, 9,
                 "atrous_d2_defaultpad"},
        ConvCase{{.in_c = 2, .out_c = 2, .kernel = 3, .dilation = 4}, 11, 10,
                 "atrous_d4_defaultpad"},
        ConvCase{{.in_c = 2, .out_c = 3, .kernel = 5, .stride = 2}, 9, 9,
                 "strided_defaultpad5x5"},
        ConvCase{{.in_c = 3, .out_c = 2, .kernel = 5}, 9, 8, "kernel5x5"},
        ConvCase{{.in_c = 2, .out_c = 3, .kernel = 3, .bias = false}, 6, 6,
                 "nobias"},
        ConvCase{{.in_c = 1, .out_c = 2, .kernel = 7, .stride = 2}, 12, 12,
                 "stem7x7s2"}),
    [](const auto& info) { return info.param.label; });

TEST(Conv2d, OutputShapeMatchesPaperStem) {
  // Fig 1: 7×7 conv /2 on 1152×768 -> 576×384 (with pad 3).
  Rng rng(1);
  Conv2d conv("stem", {.in_c = 16, .out_c = 64, .kernel = 7, .stride = 2},
              rng);
  const auto out =
      conv.OutputShape(TensorShape::NCHW(1, 16, 768, 1152));
  EXPECT_EQ(out, TensorShape::NCHW(1, 64, 384, 576));
}

TEST(Conv2d, AtrousShapePreserving) {
  // ASPP atrous convs keep spatial size: pad = dilation for 3×3.
  Rng rng(1);
  for (std::int64_t d : {12, 24, 36}) {
    Conv2d conv("aspp",
                {.in_c = 8, .out_c = 8, .kernel = 3, .pad = d, .dilation = d},
                rng);
    const auto out = conv.OutputShape(TensorShape::NCHW(1, 8, 96, 144));
    EXPECT_EQ(out, TensorShape::NCHW(1, 8, 96, 144)) << "d=" << d;
  }
}

TEST(Conv2d, KnownValueSingleElement) {
  Rng rng(1);
  Conv2d conv("c", {.in_c = 1, .out_c = 1, .kernel = 1, .pad = 0}, rng);
  conv.weight().value[0] = 2.0f;
  conv.Params()[1]->value[0] = 0.5f;  // bias
  const Tensor x = Tensor::FromVector(TensorShape::NCHW(1, 1, 1, 2), {3, 4});
  const Tensor y = conv.Forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 6.5f);
  EXPECT_FLOAT_EQ(y[1], 8.5f);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Rng rng(1);
  Conv2d conv("c", {.in_c = 3, .out_c = 4}, rng);
  EXPECT_THROW(conv.OutputShape(TensorShape::NCHW(1, 2, 4, 4)), Error);
}

TEST(Conv2d, GradAccumulatesAcrossCalls) {
  Rng rng(2);
  Conv2d conv("c", {.in_c = 1, .out_c = 1, .kernel = 3}, rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 1, 4, 4));
  (void)conv.Forward(x, true);
  (void)conv.Backward(Tensor::Full(TensorShape::NCHW(1, 1, 4, 4), 1.0f));
  const Tensor once = conv.weight().grad;
  (void)conv.Forward(x, true);
  (void)conv.Backward(Tensor::Full(TensorShape::NCHW(1, 1, 4, 4), 1.0f));
  for (std::int64_t i = 0; i < once.NumElements(); ++i) {
    EXPECT_NEAR(conv.weight().grad[static_cast<std::size_t>(i)],
                2.0f * once[static_cast<std::size_t>(i)], 1e-5f);
  }
}

// --------------------------------------------------- ConvTranspose2d ----

struct DeconvCase {
  ConvTranspose2d::Options opts;
  std::int64_t in_h;
  std::int64_t in_w;
  const char* label;
};

class DeconvGradCheck : public ::testing::TestWithParam<DeconvCase> {};

TEST_P(DeconvGradCheck, InputAndParamGradients) {
  const DeconvCase& tc = GetParam();
  Rng rng(20);
  ConvTranspose2d deconv("deconv", tc.opts, rng);
  const Tensor input =
      RandomInput(TensorShape::NCHW(2, tc.opts.in_c, tc.in_h, tc.in_w));
  const auto in_res = CheckInputGradient(deconv, input);
  EXPECT_LT(in_res.max_rel_err, 2e-2) << tc.label;
  const auto p_res = CheckParamGradients(deconv, input);
  EXPECT_LT(p_res.max_rel_err, 2e-2) << tc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, DeconvGradCheck,
    ::testing::Values(
        DeconvCase{{.in_c = 3, .out_c = 2, .kernel = 3, .stride = 2}, 4, 5,
                   "upsample2x"},
        DeconvCase{{.in_c = 2, .out_c = 2, .kernel = 4, .stride = 2, .pad = 1},
                   4, 4, "kernel4"},
        DeconvCase{{.in_c = 2, .out_c = 3, .kernel = 3, .stride = 1, .pad = 1},
                   5, 5, "stride1"},
        DeconvCase{{.in_c = 2, .out_c = 2, .kernel = 3, .stride = 2,
                    .bias = false},
                   3, 3, "nobias"},
        DeconvCase{{.in_c = 2, .out_c = 2, .kernel = 3, .stride = 2,
                    .pad = 1, .out_pad = 1},
                   4, 4, "outpad_doubling"}),
    [](const auto& info) { return info.param.label; });

TEST(ConvTranspose2d, DoublesResolutionLikeFig1Decoder) {
  // Fig 1 decoder: 3×3 deconv /2 chains 144×96 -> 288×192 -> ... 1152×768.
  Rng rng(1);
  ConvTranspose2d deconv("up",
                         {.in_c = 8, .out_c = 8, .kernel = 3, .stride = 2},
                         rng);
  const auto out = deconv.OutputShape(TensorShape::NCHW(1, 8, 96, 144));
  EXPECT_EQ(out.h(), 191);  // (96-1)*2 - 2*1 + 3
  // Exact doubling requires kernel 4 or output padding; the models use
  // kernel 4 for the /2 deconvs to land on even sizes.
  ConvTranspose2d deconv4("up4",
                          {.in_c = 8, .out_c = 8, .kernel = 4, .stride = 2,
                           .pad = 1},
                          rng);
  const auto out4 = deconv4.OutputShape(TensorShape::NCHW(1, 8, 96, 144));
  EXPECT_EQ(out4, TensorShape::NCHW(1, 8, 192, 288));
}

// ----------------------------------------------------------- Pooling ----

TEST(MaxPool2d, KnownValues) {
  MaxPool2d pool("p", 2, 2, 0);
  const Tensor x = Tensor::FromVector(
      TensorShape::NCHW(1, 1, 2, 4), {1, 5, 2, 0, 3, 4, 8, 6});
  const Tensor y = pool.Forward(x, false);
  EXPECT_EQ(y.shape(), TensorShape::NCHW(1, 1, 1, 2));
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 8.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool("p", 2, 2, 0);
  const Tensor x = Tensor::FromVector(
      TensorShape::NCHW(1, 1, 2, 2), {1, 5, 3, 4});
  (void)pool.Forward(x, false);
  const Tensor g =
      pool.Backward(Tensor::FromVector(TensorShape::NCHW(1, 1, 1, 1), {7}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 7.0f);
  EXPECT_EQ(g[2], 0.0f);
  EXPECT_EQ(g[3], 0.0f);
}

TEST(MaxPool2d, GradCheck) {
  // Perturbation must not flip an argmax: use well-separated values.
  MaxPool2d pool("p", 3, 2);
  Rng rng(3);
  Tensor x(TensorShape::NCHW(1, 2, 7, 7));
  for (std::int64_t i = 0; i < x.NumElements(); ++i) {
    x[static_cast<std::size_t>(i)] = static_cast<float>(i % 17) +
                                     rng.Uniform(0.0f, 0.05f);
  }
  const auto res = CheckInputGradient(pool, x, 1e-3);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

TEST(MaxPool2d, FullyPaddedEdgeWindowsActAsZero) {
  // kernel 1, pad 1: the output border windows cover only padding. They
  // must read as 0 with no argmax, and backward must route no gradient
  // through them.
  MaxPool2d pool("p", 1, 1, 1);
  const Tensor x = Tensor::FromVector(TensorShape::NCHW(1, 1, 2, 2),
                                      {-1.0f, -2.0f, -3.0f, -4.0f});
  const Tensor y = pool.Forward(x, false);
  ASSERT_EQ(y.shape(), TensorShape::NCHW(1, 1, 4, 4));
  for (std::int64_t oy = 0; oy < 4; ++oy) {
    for (std::int64_t ox = 0; ox < 4; ++ox) {
      const bool border = oy == 0 || oy == 3 || ox == 0 || ox == 3;
      const float v = y[static_cast<std::size_t>(oy * 4 + ox)];
      if (border) {
        EXPECT_EQ(v, 0.0f) << oy << "," << ox;  // not -inf, not garbage
      } else {
        EXPECT_EQ(v, x[static_cast<std::size_t>((oy - 1) * 2 + (ox - 1))]);
      }
    }
  }
  const Tensor g =
      pool.Backward(Tensor::Full(TensorShape::NCHW(1, 1, 4, 4), 1.0f));
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(g[static_cast<std::size_t>(i)], 1.0f);  // interior only
  }
}

TEST(MaxPool2d, PaddedGradCheck) {
  // Default pad (kernel/2) produces partially- and fully-padded edge
  // windows; gradients must still match finite differences.
  MaxPool2d pool("p", 3, 2);
  Rng rng(31);
  Tensor x(TensorShape::NCHW(2, 2, 6, 6));
  for (std::int64_t i = 0; i < x.NumElements(); ++i) {
    x[static_cast<std::size_t>(i)] =
        static_cast<float>(i % 13) + rng.Uniform(0.0f, 0.05f);
  }
  const auto res = CheckInputGradient(pool, x, 1e-3);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

TEST(AvgPool2d, GlobalPooling) {
  AvgPool2d pool("gap", 0, 1);
  const Tensor x = Tensor::FromVector(
      TensorShape::NCHW(1, 2, 2, 2), {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = pool.Forward(x, false);
  EXPECT_EQ(y.shape(), TensorShape::NCHW(1, 2, 1, 1));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
}

TEST(AvgPool2d, GradCheck) {
  AvgPool2d pool("ap", 2, 2);
  const Tensor x = RandomInput(TensorShape::NCHW(2, 2, 6, 6), 8);
  const auto res = CheckInputGradient(pool, x);
  EXPECT_LT(res.max_rel_err, 1e-2);
}

// --------------------------------------------------------- BatchNorm ----

TEST(BatchNorm2d, NormalisesToZeroMeanUnitVar) {
  Rng rng(5);
  BatchNorm2d bn("bn", 3);
  const Tensor x = Tensor::Randn(TensorShape::NCHW(4, 3, 8, 8), rng, 5.0f,
                                 3.0f);
  const Tensor y = bn.Forward(x, true);
  // gamma=1, beta=0 initially: output is normalised input.
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0, sumsq = 0;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t h = 0; h < 8; ++h) {
        for (std::int64_t w = 0; w < 8; ++w) {
          const double v = y.At(n, c, h, w);
          sum += v;
          sumsq += v * v;
        }
      }
    }
    const double mean = sum / (4 * 64);
    const double var = sumsq / (4 * 64) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Rng rng(6);
  BatchNorm2d bn("bn", 2);
  const Tensor x = Tensor::Randn(TensorShape::NCHW(8, 2, 4, 4), rng, 2.0f,
                                 1.0f);
  for (int i = 0; i < 50; ++i) (void)bn.Forward(x, true);
  // After many identical batches the running stats converge to batch stats;
  // eval output should then match train output closely.
  const Tensor y_train = bn.Forward(x, true);
  const Tensor y_eval = bn.Forward(x, false);
  for (std::int64_t i = 0; i < y_train.NumElements(); ++i) {
    EXPECT_NEAR(y_train[static_cast<std::size_t>(i)],
                y_eval[static_cast<std::size_t>(i)], 0.05f);
  }
}

TEST(BatchNorm2d, GradCheckEvalMode) {
  // Gradcheck in eval mode (running stats fixed -> layer is affine).
  Rng rng(7);
  BatchNorm2d bn("bn", 2);
  const Tensor warm = Tensor::Randn(TensorShape::NCHW(4, 2, 5, 5), rng);
  (void)bn.Forward(warm, true);
  const Tensor x = RandomInput(TensorShape::NCHW(2, 2, 5, 5), 9);
  const auto in_res = CheckInputGradient(bn, x);
  EXPECT_LT(in_res.max_rel_err, 1e-2);
  const auto p_res = CheckParamGradients(bn, x);
  EXPECT_LT(p_res.max_rel_err, 1e-2);
}

TEST(BatchNorm2d, TrainModeBackwardSumsToZero) {
  // In train mode, the gradient through the batch statistics makes the
  // per-channel sum of input gradients vanish.
  Rng rng(8);
  BatchNorm2d bn("bn", 2);
  const Tensor x = Tensor::Randn(TensorShape::NCHW(3, 2, 4, 4), rng);
  (void)bn.Forward(x, true);
  Rng grng(9);
  const Tensor g =
      Tensor::Uniform(TensorShape::NCHW(3, 2, 4, 4), grng, -1, 1);
  const Tensor gin = bn.Backward(g);
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0;
    for (std::int64_t n = 0; n < 3; ++n) {
      for (std::int64_t h = 0; h < 4; ++h) {
        for (std::int64_t w = 0; w < 4; ++w) sum += gin.At(n, c, h, w);
      }
    }
    EXPECT_NEAR(sum, 0.0, 1e-3) << "c=" << c;
  }
}

// ------------------------------------------------------- Activations ----

TEST(ReLU, ForwardBackward) {
  ReLU relu("r");
  const Tensor x =
      Tensor::FromVector(TensorShape::NCHW(1, 1, 1, 4), {-1, 0, 2, -3});
  const Tensor y = relu.Forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  const Tensor g = relu.Backward(
      Tensor::FromVector(TensorShape::NCHW(1, 1, 1, 4), {5, 5, 5, 5}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[2], 5.0f);
}

TEST(Dropout, EvalIsIdentity) {
  Rng rng(1);
  Dropout drop("d", 0.5f, rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 1, 4, 4));
  const Tensor y = drop.Forward(x, false);
  for (std::int64_t i = 0; i < x.NumElements(); ++i) {
    EXPECT_EQ(y[static_cast<std::size_t>(i)],
              x[static_cast<std::size_t>(i)]);
  }
}

TEST(Dropout, TrainPreservesExpectation) {
  Rng rng(2);
  Dropout drop("d", 0.3f, rng);
  const Tensor x = Tensor::Full(TensorShape::NCHW(1, 1, 100, 100), 1.0f);
  const Tensor y = drop.Forward(x, true);
  EXPECT_NEAR(y.Sum() / y.NumElements(), 1.0, 0.05);
  // Kept elements are scaled by exactly 1/(1-p).
  for (std::int64_t i = 0; i < y.NumElements(); ++i) {
    const float v = y[static_cast<std::size_t>(i)];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 1.0f / 0.7f) < 1e-5f);
  }
}

TEST(Dropout, BackwardUsesSameMask) {
  Rng rng(3);
  Dropout drop("d", 0.5f, rng);
  const Tensor x = Tensor::Full(TensorShape::NCHW(1, 1, 8, 8), 1.0f);
  const Tensor y = drop.Forward(x, true);
  const Tensor g = drop.Backward(Tensor::Full(x.shape(), 1.0f));
  for (std::int64_t i = 0; i < x.NumElements(); ++i) {
    EXPECT_EQ(g[static_cast<std::size_t>(i)],
              y[static_cast<std::size_t>(i)]);
  }
}

TEST(Dropout, RejectsInvalidRate) {
  Rng rng(1);
  EXPECT_THROW(Dropout("d", 1.0f, rng), Error);
  EXPECT_THROW(Dropout("d", -0.1f, rng), Error);
}

// ----------------------------------------------------------- Combine ----

TEST(ConcatChannels, LayoutAndSplitRoundTrip) {
  const Tensor a = Tensor::FromVector(TensorShape::NCHW(1, 1, 1, 2), {1, 2});
  const Tensor b =
      Tensor::FromVector(TensorShape::NCHW(1, 2, 1, 2), {3, 4, 5, 6});
  const Tensor cat = ConcatChannels(a, b);
  EXPECT_EQ(cat.shape(), TensorShape::NCHW(1, 3, 1, 2));
  EXPECT_EQ(cat[0], 1.0f);
  EXPECT_EQ(cat[2], 3.0f);
  EXPECT_EQ(cat[5], 6.0f);

  const std::vector<std::int64_t> channels{1, 2};
  std::vector<Tensor> parts(2);
  SplitChannelsInto(cat, channels, parts);
  EXPECT_EQ(parts[0].shape(), a.shape());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(parts[0][static_cast<std::size_t>(i)],
              a[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(parts[1][static_cast<std::size_t>(i)],
              b[static_cast<std::size_t>(i)]);
  }
}

TEST(ConcatChannels, MultiBatch) {
  const Tensor a = Tensor::FromVector(TensorShape::NCHW(2, 1, 1, 1), {1, 2});
  const Tensor b = Tensor::FromVector(TensorShape::NCHW(2, 1, 1, 1), {3, 4});
  const Tensor cat = ConcatChannels(a, b);
  // n0: [1,3], n1: [2,4]
  EXPECT_EQ(cat[0], 1.0f);
  EXPECT_EQ(cat[1], 3.0f);
  EXPECT_EQ(cat[2], 2.0f);
  EXPECT_EQ(cat[3], 4.0f);
}

TEST(ConcatChannels, RejectsSpatialMismatch) {
  const Tensor a(TensorShape::NCHW(1, 1, 2, 2));
  const Tensor b(TensorShape::NCHW(1, 1, 3, 2));
  EXPECT_THROW(ConcatChannels(a, b), Error);
}

TEST(SliceChannels, ExtractsRange) {
  const Tensor x = Tensor::FromVector(TensorShape::NCHW(1, 3, 1, 2),
                                      {1, 2, 3, 4, 5, 6});
  const Tensor mid = SliceChannels(x, 1, 1);
  EXPECT_EQ(mid.shape(), TensorShape::NCHW(1, 1, 1, 2));
  EXPECT_EQ(mid[0], 3.0f);
  EXPECT_EQ(mid[1], 4.0f);
  EXPECT_THROW(SliceChannels(x, 2, 2), Error);
}

TEST(BilinearUpsample2d, ConstantStaysConstant) {
  BilinearUpsample2d up("u", 2);
  const Tensor x = Tensor::Full(TensorShape::NCHW(1, 1, 3, 3), 4.0f);
  const Tensor y = up.Forward(x, false);
  EXPECT_EQ(y.shape(), TensorShape::NCHW(1, 1, 6, 6));
  for (std::int64_t i = 0; i < y.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(y[static_cast<std::size_t>(i)], 4.0f);
  }
}

TEST(BilinearUpsample2d, GradCheck) {
  BilinearUpsample2d up("u", 2);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 2, 4, 4), 11);
  const auto res = CheckInputGradient(up, x);
  EXPECT_LT(res.max_rel_err, 1e-2);
}

// -------------------------------------------------------- Sequential ----

TEST(Sequential, ChainsForwardBackwardAndParams) {
  Rng rng(12);
  Sequential seq("block");
  seq.Emplace<Conv2d>("c1", Conv2d::Options{.in_c = 2, .out_c = 3}, rng);
  seq.Emplace<BatchNorm2d>("bn", 3);
  seq.Emplace<ReLU>("relu");
  seq.Emplace<Conv2d>("c2", Conv2d::Options{.in_c = 3, .out_c = 1}, rng);

  EXPECT_EQ(seq.Params().size(), 2u + 2u + 2u);  // two convs(w,b) + bn(g,b)
  const auto out = seq.OutputShape(TensorShape::NCHW(1, 2, 6, 6));
  EXPECT_EQ(out, TensorShape::NCHW(1, 1, 6, 6));

  // Warm batchnorm running stats, then gradcheck in eval mode.
  const Tensor warm = RandomInput(TensorShape::NCHW(4, 2, 6, 6), 13);
  (void)seq.Forward(warm, true);
  const Tensor x = RandomInput(TensorShape::NCHW(2, 2, 6, 6), 14);
  const auto res = CheckInputGradient(seq, x);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

TEST(Sequential, PrecisionPropagates) {
  Rng rng(15);
  Sequential seq("s");
  auto& conv =
      seq.Emplace<Conv2d>("c", Conv2d::Options{.in_c = 1, .out_c = 1}, rng);
  seq.SetPrecision(Precision::kFP16);
  EXPECT_EQ(conv.precision(), Precision::kFP16);
}

TEST(Sequential, FP16OutputsAreHalfRepresentable) {
  Rng rng(16);
  Sequential seq("s");
  seq.Emplace<Conv2d>("c", Conv2d::Options{.in_c = 2, .out_c = 2}, rng);
  seq.Emplace<ReLU>("r");
  seq.SetPrecision(Precision::kFP16);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 2, 5, 5), 17);
  const Tensor y = seq.Forward(x, false);
  for (std::int64_t i = 0; i < y.NumElements(); ++i) {
    const float v = y[static_cast<std::size_t>(i)];
    EXPECT_EQ(v, Half(v).ToFloat());  // exactly representable in binary16
  }
}

}  // namespace
}  // namespace exaclim
