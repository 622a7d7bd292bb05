#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "optim/lag.hpp"
#include "optim/larc.hpp"
#include "optim/loss_scaler.hpp"
#include "optim/optimizer.hpp"

namespace exaclim {
namespace {

// Simple quadratic objective f(w) = 0.5 * ||w - target||^2 whose gradient
// is (w - target); any sane optimizer must converge to target.
struct Quadratic {
  Param param;
  Tensor target;

  Quadratic(std::int64_t n, std::uint64_t seed)
      : param("w", Tensor::Zeros(TensorShape{n})),
        target(TensorShape{n}) {
    Rng rng(seed);
    for (std::int64_t i = 0; i < n; ++i) {
      target[static_cast<std::size_t>(i)] = rng.Uniform(-2.0f, 2.0f);
    }
  }

  void ComputeGrad() {
    for (std::int64_t i = 0; i < param.value.NumElements(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      param.grad[idx] = param.value[idx] - target[idx];
    }
  }

  float Distance() const {
    double acc = 0;
    for (std::int64_t i = 0; i < param.value.NumElements(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const double d = param.value[idx] - target[idx];
      acc += d * d;
    }
    return static_cast<float>(std::sqrt(acc));
  }
};

TEST(SGD, ConvergesOnQuadratic) {
  Quadratic q(16, 1);
  SGD opt({&q.param}, {.lr = 0.2f});
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    q.ComputeGrad();
    opt.Step();
  }
  EXPECT_LT(q.Distance(), 1e-4f);
}

TEST(SGD, MomentumAcceleratesConvergence) {
  Quadratic plain(16, 2), heavy(16, 2);
  SGD opt_plain({&plain.param}, {.lr = 0.02f});
  SGD opt_heavy({&heavy.param}, {.lr = 0.02f, .momentum = 0.9f});
  for (int i = 0; i < 40; ++i) {
    plain.ComputeGrad();
    opt_plain.Step();
    heavy.ComputeGrad();
    opt_heavy.Step();
  }
  EXPECT_LT(heavy.Distance(), plain.Distance());
}

TEST(SGD, WeightDecayShrinksWeights) {
  Param p("w", Tensor::Full(TensorShape{4}, 1.0f));
  SGD opt({&p}, {.lr = 0.1f, .weight_decay = 0.5f});
  p.grad.SetZero();
  opt.Step();
  EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.1f * 0.5f);
}

TEST(Adam, ConvergesOnQuadratic) {
  Quadratic q(16, 3);
  Adam opt({&q.param}, {.lr = 0.1f});
  for (int i = 0; i < 300; ++i) {
    q.ComputeGrad();
    opt.Step();
  }
  EXPECT_LT(q.Distance(), 1e-2f);
  EXPECT_EQ(opt.step_count(), 300);
}

TEST(Adam, FirstStepSizeIsLearningRate) {
  // With bias correction, the first Adam update has magnitude ~lr
  // regardless of gradient scale.
  for (const float gscale : {1e-4f, 1.0f, 1e4f}) {
    Param p("w", Tensor::Zeros(TensorShape{1}));
    Adam opt({&p}, {.lr = 0.01f});
    p.grad[0] = gscale;
    opt.Step();
    EXPECT_NEAR(p.value[0], -0.01f, 1e-4f) << "gscale=" << gscale;
  }
}

TEST(Optimizer, ZeroGradClears) {
  Param p("w", Tensor::Zeros(TensorShape{3}));
  SGD opt({&p}, {.lr = 0.1f});
  p.grad.Fill(5.0f);
  opt.ZeroGrad();
  EXPECT_EQ(p.grad.Norm(), 0.0f);
}

TEST(Optimizer, UnscaleGradients) {
  Param p("w", Tensor::Zeros(TensorShape{2}));
  SGD opt({&p}, {.lr = 0.1f});
  p.grad.Fill(512.0f);
  opt.UnscaleGradients(256.0f);
  EXPECT_FLOAT_EQ(p.grad[0], 2.0f);
}

TEST(Optimizer, DetectsNonFiniteGradient) {
  Param p("w", Tensor::Zeros(TensorShape{2}));
  SGD opt({&p}, {.lr = 0.1f});
  p.grad[0] = 1.0f;
  EXPECT_FALSE(opt.HasNonFiniteGradient());
  p.grad[1] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(opt.HasNonFiniteGradient());
}

// ---------------------------------------------------------------- LARC --

TEST(LARC, ClipsLocalRateToGlobal) {
  // Large weights + tiny gradients: LARC rate >> lr, clip keeps it at lr.
  Param p("w", Tensor::Full(TensorShape{4}, 100.0f));
  auto inner = std::make_unique<SGD>(std::vector<Param*>{&p},
                                     SGD::Options{.lr = 0.1f});
  LARC larc(std::move(inner), {});
  p.grad.Fill(1e-6f);
  larc.Step();
  EXPECT_FLOAT_EQ(larc.last_multiplier(0), 1.0f);
}

TEST(LARC, ShrinksUpdateWhenGradientsLarge) {
  // Gradient norm huge relative to weights: LARC scales the update down
  // to trust * ||w|| / ||g|| of the raw step.
  Param p("w", Tensor::Full(TensorShape{4}, 1.0f));
  auto inner = std::make_unique<SGD>(std::vector<Param*>{&p},
                                     SGD::Options{.lr = 1.0f});
  LARC larc(std::move(inner), {.trust_coefficient = 1e-3f, .epsilon = 1e-8f,
                               .clip = true});
  p.grad.Fill(1000.0f);
  const float before = p.value[0];
  larc.Step();
  const float update = before - p.value[0];
  // Expected: lr * multiplier * g = larc_rate * g,
  // larc_rate = 1e-3 * 2 / 2000 = 1e-6 -> update = 1e-3.
  EXPECT_NEAR(update, 1e-3f, 1e-5f);
}

TEST(LARC, StabilisesLargeLRTraining) {
  // With an absurd global LR, plain SGD diverges on the quadratic while
  // LARC-wrapped SGD does not (the large-batch stability role of
  // Sec V-B2).
  Quadratic plain(8, 4), guarded(8, 4);
  SGD diverging({&plain.param}, {.lr = 5.0f});
  LARC larc(std::make_unique<SGD>(std::vector<Param*>{&guarded.param},
                                  SGD::Options{.lr = 5.0f}),
            {.trust_coefficient = 0.1f, .epsilon = 1e-8f, .clip = true});
  for (int i = 0; i < 50; ++i) {
    plain.ComputeGrad();
    diverging.Step();
    guarded.ComputeGrad();
    larc.Step();
  }
  EXPECT_TRUE(std::isnan(plain.Distance()) || plain.Distance() > 1e3f);
  EXPECT_LT(guarded.Distance(), 10.0f);
  EXPECT_TRUE(guarded.param.value.AllFinite());
}

TEST(LARC, NoClipModeIsLARS) {
  // clip=false reproduces LARS: the local rate may exceed the global
  // rate (multiplier > 1), which is why LARS needs warm-up; LARC's clip
  // caps the multiplier at 1 (Sec V-B2).
  for (const bool clip : {false, true}) {
    Param p("w", Tensor::Full(TensorShape{4}, 10.0f));
    LARC larc(std::make_unique<SGD>(std::vector<Param*>{&p},
                                    SGD::Options{.lr = 1e-4f}),
              {.trust_coefficient = 0.1f, .epsilon = 1e-8f, .clip = clip});
    p.grad.Fill(0.01f);  // tiny gradients: larc_rate >> lr
    larc.Step();
    if (clip) {
      EXPECT_FLOAT_EQ(larc.last_multiplier(0), 1.0f);
    } else {
      EXPECT_GT(larc.last_multiplier(0), 100.0f);
    }
  }
}

TEST(LARC, ZeroGradientIsNoop) {
  Param p("w", Tensor::Full(TensorShape{2}, 3.0f));
  LARC larc(std::make_unique<SGD>(std::vector<Param*>{&p},
                                  SGD::Options{.lr = 0.1f}),
            {});
  p.grad.SetZero();
  larc.Step();
  EXPECT_FLOAT_EQ(p.value[0], 3.0f);
}

// --------------------------------------------------------- GradientLag --

TEST(GradientLag, LagZeroIsPassThrough) {
  Param p("w", Tensor::Zeros(TensorShape{1}));
  GradientLag lag(std::make_unique<SGD>(std::vector<Param*>{&p},
                                        SGD::Options{.lr = 1.0f}),
                  0);
  p.grad[0] = 2.0f;
  lag.Step();
  EXPECT_FLOAT_EQ(p.value[0], -2.0f);
}

TEST(GradientLag, LagOneAppliesPreviousGradient) {
  Param p("w", Tensor::Zeros(TensorShape{1}));
  GradientLag lag(std::make_unique<SGD>(std::vector<Param*>{&p},
                                        SGD::Options{.lr = 1.0f}),
                  1);
  // Step 1: gradient 3 buffered, no update applied.
  p.grad[0] = 3.0f;
  lag.Step();
  EXPECT_FLOAT_EQ(p.value[0], 0.0f);
  EXPECT_EQ(lag.warmup_steps_skipped(), 1);
  // Step 2: gradient 5 buffered, update applies the lagged 3.
  p.grad[0] = 5.0f;
  lag.Step();
  EXPECT_FLOAT_EQ(p.value[0], -3.0f);
  // Step 3: applies the 5.
  p.grad[0] = 0.0f;
  lag.Step();
  EXPECT_FLOAT_EQ(p.value[0], -8.0f);
}

TEST(GradientLag, LagTwoRingBuffer) {
  Param p("w", Tensor::Zeros(TensorShape{1}));
  GradientLag lag(std::make_unique<SGD>(std::vector<Param*>{&p},
                                        SGD::Options{.lr = 1.0f}),
                  2);
  for (float g : {1.0f, 2.0f, 3.0f, 4.0f}) {
    p.grad[0] = g;
    lag.Step();
  }
  // Applied gradients: steps 3 and 4 apply g1=1 and g2=2.
  EXPECT_FLOAT_EQ(p.value[0], -3.0f);
  EXPECT_EQ(lag.warmup_steps_skipped(), 2);
}

TEST(GradientLag, StillConvergesOnQuadratic) {
  // Sec V-B4: lagging changes the optimizer but with a modest LR the
  // training still converges.
  Quadratic q(8, 5);
  GradientLag lag(std::make_unique<SGD>(std::vector<Param*>{&q.param},
                                        SGD::Options{.lr = 0.1f}),
                  1);
  for (int i = 0; i < 200; ++i) {
    q.ComputeGrad();
    lag.Step();
  }
  EXPECT_LT(q.Distance(), 1e-3f);
}

// ---------------------------------------------------------- LossScaler --

TEST(LossScaler, HalvesOnOverflow) {
  LossScaler scaler({.initial_scale = 1024.0f});
  EXPECT_FALSE(scaler.Update(/*grads_finite=*/false));
  EXPECT_FLOAT_EQ(scaler.scale(), 512.0f);
  EXPECT_EQ(scaler.overflow_count(), 1);
}

TEST(LossScaler, GrowsAfterInterval) {
  LossScaler scaler(
      {.initial_scale = 64.0f, .max_scale = 256.0f, .growth_interval = 3});
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(scaler.Update(true));
  EXPECT_FLOAT_EQ(scaler.scale(), 128.0f);
  for (int i = 0; i < 6; ++i) scaler.Update(true);
  EXPECT_FLOAT_EQ(scaler.scale(), 256.0f);  // capped at max
}

TEST(LossScaler, StaticWhenGrowthDisabled) {
  LossScaler scaler({.initial_scale = 128.0f, .growth_interval = 0});
  for (int i = 0; i < 100; ++i) scaler.Update(true);
  EXPECT_FLOAT_EQ(scaler.scale(), 128.0f);
}

TEST(LossScaler, RespectsMinScale) {
  LossScaler scaler({.initial_scale = 2.0f, .min_scale = 1.0f});
  scaler.Update(false);
  scaler.Update(false);
  scaler.Update(false);
  EXPECT_FLOAT_EQ(scaler.scale(), 1.0f);
}

}  // namespace
}  // namespace exaclim
