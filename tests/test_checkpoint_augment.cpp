#include <gtest/gtest.h>

#include <filesystem>

#include "common/alloc_tracker.hpp"
#include "data/augment.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("exaclim_ckpt_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  Rng rng(1);
  Tiramisu model(Tiramisu::Config::Downscaled(4), rng);
  const auto path = dir_ / "model.ncf";
  EXPECT_GT(SaveCheckpoint(path, model.Params()), 1000);

  Rng rng2(999);  // different init
  Tiramisu restored(Tiramisu::Config::Downscaled(4), rng2);
  LoadCheckpoint(path, restored.Params());

  const auto a = model.Params();
  const auto b = restored.Params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->value.NumElements(), b[i]->value.NumElements());
    for (std::int64_t j = 0; j < a[i]->value.NumElements(); ++j) {
      ASSERT_EQ(a[i]->value[static_cast<std::size_t>(j)],
                b[i]->value[static_cast<std::size_t>(j)])
          << a[i]->name;
    }
  }
}

TEST_F(CheckpointTest, RestoredModelProducesIdenticalOutputs) {
  Rng rng(2);
  Tiramisu model(Tiramisu::Config::Downscaled(4), rng);
  Rng xrng(3);
  const Tensor x =
      Tensor::Uniform(TensorShape::NCHW(1, 4, 16, 16), xrng, -1, 1);
  // Warm batch norms so running stats matter... then note: running stats
  // are NOT parameters, so eval outputs differ unless stats are fresh.
  const Tensor y = model.Forward(x, false);

  const auto path = dir_ / "model.ncf";
  SaveCheckpoint(path, model.Params());
  Rng rng2(4);
  Tiramisu restored(Tiramisu::Config::Downscaled(4), rng2);
  LoadCheckpoint(path, restored.Params());
  const Tensor y2 = restored.Forward(x, false);
  for (std::int64_t i = 0; i < y.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(y[static_cast<std::size_t>(i)],
                    y2[static_cast<std::size_t>(i)]);
  }
}

TEST_F(CheckpointTest, ArchitectureMismatchThrows) {
  Rng rng(5);
  Tiramisu small(Tiramisu::Config::Downscaled(4), rng);
  const auto path = dir_ / "small.ncf";
  SaveCheckpoint(path, small.Params());

  Tiramisu::Config bigger = Tiramisu::Config::Downscaled(4);
  bigger.growth_rate = 8;  // different widths
  Rng rng2(6);
  Tiramisu other(bigger, rng2);
  EXPECT_THROW(LoadCheckpoint(path, other.Params()), Error);
}

TEST_F(CheckpointTest, MissingParameterThrows) {
  Rng rng(7);
  Conv2d conv("lonely", {.in_c = 2, .out_c = 2}, rng);
  Param extra("not_in_file", Tensor::Zeros(TensorShape{3}));
  const auto path = dir_ / "conv.ncf";
  SaveCheckpoint(path, conv.Params());
  std::vector<Param*> wanted = conv.Params();
  wanted.push_back(&extra);
  EXPECT_THROW(LoadCheckpoint(path, wanted), Error);
}

// ------------------------------------------------------------ Augment ---

Batch MakeBatch(std::int64_t n, std::int64_t c, std::int64_t h,
                std::int64_t w, std::uint64_t seed = 1) {
  Rng rng(seed);
  Batch b;
  b.fields = Tensor::Uniform(TensorShape::NCHW(n, c, h, w), rng, -1, 1);
  b.labels.resize(static_cast<std::size_t>(n * h * w));
  for (auto& l : b.labels) {
    l = static_cast<std::uint8_t>(rng.Int(0, 2));
  }
  return b;
}

TEST(Augment, RollLongitudeIsPeriodicShift) {
  Batch b = MakeBatch(1, 1, 2, 5);
  const Batch original = b;
  RollLongitude(b, 2, 2, 5);
  for (std::int64_t y = 0; y < 2; ++y) {
    for (std::int64_t x = 0; x < 5; ++x) {
      EXPECT_EQ(b.fields.At(0, 0, y, (x + 2) % 5),
                original.fields.At(0, 0, y, x));
      EXPECT_EQ(b.labels[static_cast<std::size_t>(y * 5 + (x + 2) % 5)],
                original.labels[static_cast<std::size_t>(y * 5 + x)]);
    }
  }
}

TEST(Augment, RollAllocatesNothing) {
  // Augmentation runs on the driver's step path: a roll rotates rows in
  // place.
  Batch b = MakeBatch(2, 3, 8, 12);
  const Batch original = b;
  SetAllocTracking(true);
  std::int64_t violations = -1;
  {
    ScopedAllocCheck guard(EXACLIM_ALLOC_SITE("test.augment_roll"),
                           ScopedAllocCheck::Mode::kAssertNoAlloc);
    RollLongitude(b, 5, 8, 12);
    violations = guard.violations();
  }
  SetAllocTracking(false);
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(b.fields.At(1, 2, 7, 5), original.fields.At(1, 2, 7, 0));
  EXPECT_EQ(b.labels[static_cast<std::size_t>(8 * 12 + 7 * 12 + 5)],
            original.labels[static_cast<std::size_t>(8 * 12 + 7 * 12)]);
}

TEST(Augment, FullRollIsIdentity) {
  Batch b = MakeBatch(2, 3, 4, 6);
  const Batch original = b;
  RollLongitude(b, 6, 4, 6);
  for (std::int64_t i = 0; i < b.fields.NumElements(); ++i) {
    EXPECT_EQ(b.fields[static_cast<std::size_t>(i)],
              original.fields[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(b.labels, original.labels);
}

TEST(Augment, MirrorLatitudeFlipsAndNegatesMeridionalWind) {
  Batch b = MakeBatch(1, 2, 4, 3);
  const Batch original = b;
  const std::vector<std::int64_t> v_channels{1};
  MirrorLatitude(b, v_channels, 4, 3);
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 3; ++x) {
      EXPECT_EQ(b.fields.At(0, 0, y, x),
                original.fields.At(0, 0, 3 - y, x));
      EXPECT_EQ(b.fields.At(0, 1, y, x),
                -original.fields.At(0, 1, 3 - y, x));
      EXPECT_EQ(b.labels[static_cast<std::size_t>(y * 3 + x)],
                original.labels[static_cast<std::size_t>((3 - y) * 3 + x)]);
    }
  }
}

TEST(Augment, DoubleMirrorIsIdentity) {
  Batch b = MakeBatch(2, 2, 6, 4);
  const Batch original = b;
  const std::vector<std::int64_t> v_channels{0};
  MirrorLatitude(b, v_channels, 6, 4);
  MirrorLatitude(b, v_channels, 6, 4);
  for (std::int64_t i = 0; i < b.fields.NumElements(); ++i) {
    EXPECT_EQ(b.fields[static_cast<std::size_t>(i)],
              original.fields[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(b.labels, original.labels);
}

TEST(Augment, AugmentBatchPreservesClassCounts) {
  // Rolls/mirrors permute pixels; the label histogram is invariant.
  Batch b = MakeBatch(2, 3, 8, 8, 9);
  std::array<int, 3> before{};
  for (const auto l : b.labels) ++before[l];
  AugmentOptions opts;
  opts.meridional_channels = {2};
  opts.noise_stddev = 0.0f;
  Rng rng(4);
  AugmentBatch(b, opts, rng, 8, 8);
  std::array<int, 3> after{};
  for (const auto l : b.labels) ++after[l];
  EXPECT_EQ(before, after);
}

TEST(Augment, HeuristicLabelsCommuteWithRoll) {
  // Labelling then rolling == rolling then labelling: the TECA-style
  // heuristics are equivariant to the periodic shift, which is what
  // makes the augmentation label-consistent.
  ClimateGenerator gen({.height = 32, .width = 48});
  HeuristicLabeler labeler;
  ClimateSample sample = gen.Generate(3, 1);
  labeler.LabelInPlace(sample);

  Batch b;
  b.fields = sample.fields.Reshaped(
      TensorShape::NCHW(1, kNumClimateChannels, 32, 48));
  b.labels = sample.labels;
  RollLongitude(b, 11, 32, 48);

  ClimateSample rolled;
  rolled.height = 32;
  rolled.width = 48;
  rolled.fields =
      b.fields.Reshaped(TensorShape{kNumClimateChannels, 32, 48});
  rolled.truth.assign(32 * 48, 0);
  const auto relabelled = labeler.Label(rolled);
  EXPECT_EQ(relabelled, b.labels);
}

TEST(Augment, TrainingWithAugmentationStillConverges) {
  ClimateDataset::Options d;
  d.num_samples = 40;
  d.generator.height = 32;
  d.generator.width = 32;
  d.channels = {kTMQ, kU850, kV850, kPSL};
  const ClimateDataset dataset(d);
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.learning_rate = 2e-3f;
  const auto freq = dataset.MeasureFrequencies(8);
  RankTrainer trainer(
      o, MakeClassWeights(freq, WeightingScheme::kInverseSqrt), 0);

  AugmentOptions aug;
  aug.meridional_channels = {2};  // V850 within the 4-channel subset
  Rng rng(17);
  // Random augmentation makes per-step losses noisy; compare the mean of
  // the first and last 8 steps.
  double head = 0, tail = 0;
  const int steps = 40;
  for (int s = 0; s < steps; ++s) {
    std::vector<std::int64_t> idx{
        rng.Int(0, dataset.size(DatasetSplit::kTrain) - 1)};
    Batch batch = dataset.MakeBatch(DatasetSplit::kTrain, idx);
    AugmentBatch(batch, aug, rng, 32, 32);
    const auto r = trainer.Step(batch);
    if (s < 8) head += r.loss;
    if (s >= steps - 8) tail += r.loss;
  }
  EXPECT_LT(tail, head);
}

}  // namespace
}  // namespace exaclim
