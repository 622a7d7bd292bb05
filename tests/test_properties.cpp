// Randomised property tests across the substrates (seeded, so
// reproducible): collectives against brute-force sums at fuzzed sizes,
// binary16 arithmetic against double-precision reference rounding,
// model shape algebra across geometry sweeps, and loss-gradient
// finite-difference checks across weighting schemes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

#include "comm/collectives.hpp"
#include "common/half.hpp"
#include "hvd/control_plane.hpp"
#include "hvd/hybrid.hpp"
#include "flops/opspec.hpp"
#include "models/deeplab.hpp"
#include "models/tiramisu.hpp"
#include "nn/loss.hpp"

namespace exaclim {
namespace {

// --------------------------------------------------- Collective fuzz ----

TEST(PropertyCollectives, FuzzedAllreduceMatchesBruteForce) {
  Rng fuzz(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const int ranks = static_cast<int>(fuzz.Int(1, 9));
    const auto len = static_cast<std::size_t>(fuzz.Int(1, 300));
    const bool ring = fuzz.Int(0, 1) == 0;

    // Brute-force expected sums.
    std::vector<std::vector<float>> inputs(
        static_cast<std::size_t>(ranks));
    std::vector<float> expected(len, 0.0f);
    for (int r = 0; r < ranks; ++r) {
      Rng rng(100 * trial + r);
      auto& in = inputs[static_cast<std::size_t>(r)];
      in.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        in[i] = rng.Uniform(-2.0f, 2.0f);
        expected[i] += in[i];
      }
    }

    SimWorld world(ranks);
    world.Run([&](Communicator& comm) {
      auto data = inputs[static_cast<std::size_t>(comm.rank())];
      const RankGroup group = RankGroup::World(comm);
      if (ring) {
        GroupAllreduceRing(comm, group, data, 1500);
      } else {
        GroupAllreduceTree(comm, group, data, 1500);
      }
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_NEAR(data[i], expected[i], 1e-4f)
            << "trial " << trial << " ranks " << ranks << " algo "
            << (ring ? "ring" : "tree");
      }
    });
  }
}

TEST(PropertyCollectives, FuzzedHybridMatchesBruteForce) {
  // Any world size, so the last node is often ragged, under both wires.
  Rng fuzz(77);
  int ragged[2] = {0, 0};  // per wire: trials whose last node is partial
  for (int trial = 0; trial < 16; ++trial) {
    const int rpn = static_cast<int>(fuzz.Int(1, 4));
    const int nodes = static_cast<int>(fuzz.Int(1, 3));
    const int ranks = static_cast<int>(fuzz.Int(1, rpn * nodes));
    const auto len = static_cast<std::size_t>(fuzz.Int(1, 200));
    const int mpi_ranks = static_cast<int>(fuzz.Int(1, rpn));
    const WireFormat wire =
        trial % 4 < 2 ? WireFormat::kFP32 : WireFormat::kFP16;
    if (ranks % rpn != 0) ++ragged[wire == WireFormat::kFP16 ? 1 : 0];

    std::vector<float> expected(len, 0.0f);
    std::vector<std::vector<float>> inputs(
        static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      Rng rng(9000 + 64 * trial + r);
      auto& in = inputs[static_cast<std::size_t>(r)];
      in.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        in[i] = rng.Uniform(-1.0f, 1.0f);
        expected[i] += in[i];
      }
    }
    SimWorld world(ranks);
    world.Run([&](Communicator& comm) {
      auto& data = inputs[static_cast<std::size_t>(comm.rank())];
      HybridAllreduceOptions opts;
      opts.topology.ranks_per_node = rpn;
      opts.mpi_ranks_per_node = mpi_ranks;
      HybridAllreduce(comm, data, opts, 9500, wire);
    });
    const std::string where = "trial " + std::to_string(trial) + " rpn " +
                              std::to_string(rpn) + " ranks " +
                              std::to_string(ranks) + " wire " +
                              ToString(wire);
    // Packed binary16 partial sums lose up to half an ulp per hop.
    for (std::size_t i = 0; i < len; ++i) {
      const float tol = wire == WireFormat::kFP16
                            ? 1e-2f * std::max(1.0f, std::abs(expected[i]))
                            : 1e-4f;
      ASSERT_NEAR(inputs[0][i], expected[i], tol) << where << " i " << i;
    }
    for (int r = 1; r < ranks; ++r) {
      ASSERT_EQ(std::memcmp(inputs[static_cast<std::size_t>(r)].data(),
                            inputs[0].data(), len * sizeof(float)),
                0)
          << where << ": rank " << r << " differs from rank 0";
    }
  }
  EXPECT_GT(ragged[0], 0);
  EXPECT_GT(ragged[1], 0);
}

// ------------------------------------------------------- Half fuzz ------

TEST(PropertyHalf, ConversionMatchesDoubleRoundingReference) {
  // For random floats, converting through our binary16 must equal the
  // correctly-rounded (nearest-even) value computed via long-double
  // arithmetic on the representable neighbours.
  Rng rng(555);
  for (int trial = 0; trial < 20000; ++trial) {
    const float v = rng.Uniform(-70000.0f, 70000.0f);
    const float q = Half(v).ToFloat();
    if (!Half(v).IsFinite()) {
      EXPECT_GT(std::fabs(v), 65504.0f);
      continue;
    }
    // q must be a representable binary16 value...
    EXPECT_EQ(Half(q).bits(), Half(v).bits());
    // ...and no other representable value may be strictly closer.
    const float ulp_up = Half::FromBits(
        static_cast<std::uint16_t>(Half(q).bits() + 1)).ToFloat();
    const float ulp_down = Half::FromBits(
        static_cast<std::uint16_t>(Half(q).bits() - 1)).ToFloat();
    const double err = std::fabs(static_cast<double>(q) - v);
    if (std::isfinite(ulp_up)) {
      EXPECT_LE(err, std::fabs(static_cast<double>(ulp_up) - v) + 1e-12)
          << "v=" << v;
    }
    if (std::isfinite(ulp_down)) {
      EXPECT_LE(err, std::fabs(static_cast<double>(ulp_down) - v) + 1e-12)
          << "v=" << v;
    }
  }
}

TEST(PropertyHalf, ArithmeticIsFloatThenRound) {
  // Our Half ops are defined as float arithmetic + round: verify the
  // composition explicitly over random pairs.
  Rng rng(556);
  for (int trial = 0; trial < 5000; ++trial) {
    const Half a(rng.Uniform(-100.0f, 100.0f));
    const Half b(rng.Uniform(-100.0f, 100.0f));
    EXPECT_EQ((a + b).bits(), Half(a.ToFloat() + b.ToFloat()).bits());
    EXPECT_EQ((a * b).bits(), Half(a.ToFloat() * b.ToFloat()).bits());
  }
}

// --------------------------------------------------- Model geometry -----

class TiramisuGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TiramisuGeometry, OutputAlwaysPerPixelClassMap) {
  const auto [h_blocks, w_blocks] = GetParam();
  Tiramisu::Config cfg = Tiramisu::Config::Downscaled(4);
  const std::int64_t div = std::int64_t{1} << cfg.down_layers.size();
  const std::int64_t h = div * h_blocks, w = div * w_blocks;
  Rng rng(1);
  Tiramisu net(cfg, rng);
  const auto out = net.OutputShape(TensorShape::NCHW(2, 4, h, w));
  EXPECT_EQ(out, TensorShape::NCHW(2, 3, h, w));
  // Spec builder agrees for every geometry.
  const ArchSpec spec = BuildTiramisuSpec(cfg, h, w);
  EXPECT_EQ(spec.ops.back().out_h, h);
  EXPECT_EQ(spec.ops.back().out_w, w);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TiramisuGeometry,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(2, 4, 7)));

class DeepLabGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DeepLabGeometry, OutputAlwaysPerPixelClassMap) {
  const auto [h_blocks, w_blocks] = GetParam();
  const std::int64_t h = 8 * h_blocks, w = 8 * w_blocks;
  auto cfg = DeepLabV3Plus::Config::Downscaled(4);
  Rng rng(1);
  DeepLabV3Plus net(cfg, rng);
  const auto out = net.OutputShape(TensorShape::NCHW(1, 4, h, w));
  EXPECT_EQ(out, TensorShape::NCHW(1, 3, h, w));
  const ArchSpec spec = BuildDeepLabSpec(cfg, h, w);
  EXPECT_EQ(spec.ops.back().out_h, h);
  EXPECT_EQ(spec.ops.back().out_w, w);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeepLabGeometry,
                         ::testing::Combine(::testing::Values(3, 4, 6),
                                            ::testing::Values(3, 5, 8)));

// ----------------------------------------------------- Loss property ----

class LossWeightingSchemes
    : public ::testing::TestWithParam<WeightingScheme> {};

TEST_P(LossWeightingSchemes, GradientMatchesFiniteDifference) {
  const WeightingScheme scheme = GetParam();
  const std::array<double, 3> freq{0.9, 0.08, 0.02};
  SegmentationLossOptions opts;
  std::vector<float> weights;  // named: class_weights is a non-owning span
  if (scheme != WeightingScheme::kNone) {
    weights = MakeClassWeights(freq, scheme);
    opts.class_weights = weights;
  }
  Rng lrng(42);
  Tensor logits =
      Tensor::Uniform(TensorShape::NCHW(1, 3, 4, 4), lrng, -2.0f, 2.0f);
  std::vector<std::uint8_t> labels(16);
  Rng rng(43);
  for (auto& l : labels) l = static_cast<std::uint8_t>(rng.Int(0, 2));

  const auto res = WeightedSoftmaxCrossEntropy(logits, labels, opts);
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.NumElements(); i += 5) {
    const auto idx = static_cast<std::size_t>(i);
    const float saved = logits[idx];
    logits[idx] = saved + static_cast<float>(eps);
    const double up = WeightedSoftmaxCrossEntropy(logits, labels, opts).loss;
    logits[idx] = saved - static_cast<float>(eps);
    const double down =
        WeightedSoftmaxCrossEntropy(logits, labels, opts).loss;
    logits[idx] = saved;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(res.grad_logits[idx], numeric,
                1e-3 * std::max(1.0, std::fabs(numeric)))
        << ToString(scheme) << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, LossWeightingSchemes,
                         ::testing::Values(WeightingScheme::kNone,
                                           WeightingScheme::kInverse,
                                           WeightingScheme::kInverseSqrt));

// ------------------------------------------------- ControlPlane fuzz ----

TEST(PropertyControlPlane, FuzzedConfigurationsAlwaysAgree) {
  Rng fuzz(31337);
  for (int trial = 0; trial < 10; ++trial) {
    const int ranks = static_cast<int>(fuzz.Int(2, 17));
    const int tensors = static_cast<int>(fuzz.Int(1, 40));
    const bool hierarchical = fuzz.Bernoulli(0.5);
    const int radix = static_cast<int>(fuzz.Int(1, 5));

    SimWorld world(ranks);
    std::vector<std::vector<int>> orders(static_cast<std::size_t>(ranks));
    world.Run([&](Communicator& comm) {
      auto plane = MakeControlPlane(hierarchical, radix);
      std::vector<int> ready(static_cast<std::size_t>(tensors));
      for (int i = 0; i < tensors; ++i) {
        ready[static_cast<std::size_t>(i)] = i;
      }
      Rng shuffle(1000 * trial + comm.rank());
      std::shuffle(ready.begin(), ready.end(), shuffle.engine());
      orders[static_cast<std::size_t>(comm.rank())] =
          plane->NegotiateOrder(comm, ready);
    });
    for (int r = 1; r < ranks; ++r) {
      ASSERT_EQ(orders[static_cast<std::size_t>(r)], orders[0])
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace exaclim
