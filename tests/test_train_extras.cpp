// Tests for the driver's epochs (Sec VI validation-overhead accounting) and
// the strong-scaling mode of the at-scale model (Sec III-A).

#include <gtest/gtest.h>

#include "netsim/scale.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

ClimateDataset::Options SmallData() {
  ClimateDataset::Options d;
  d.num_samples = 40;
  d.generator.height = 32;
  d.generator.width = 32;
  d.channels = {kTMQ, kU850, kV850, kPSL};
  return d;
}

TrainerOptions SmallTrainer() {
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.learning_rate = 2e-3f;
  o.exchanger.transport = ReduceTransport::kMpiRing;
  return o;
}

// Mean loss of each epoch in a run's loss history.
std::vector<double> EpochMeans(const TrainRunResult& r, int steps_per_epoch) {
  std::vector<double> means;
  for (std::size_t b = 0; b < r.loss_history.size(); b += steps_per_epoch) {
    double sum = 0.0;
    for (int s = 0; s < steps_per_epoch; ++s) sum += r.loss_history[b + s];
    means.push_back(sum / steps_per_epoch);
  }
  return means;
}

TEST(EpochRunner, LossFallsAcrossEpochs) {
  const ClimateDataset dataset(SmallData());
  TrainerOptions trainer = SmallTrainer();
  trainer.learning_rate = 1e-3f;
  trainer.local_batch = 2;
  TrainRunOptions opts;
  opts.steps_per_epoch = 15;
  opts.validation_samples = 2;
  const auto result = RunDistributedTraining(trainer, dataset, /*ranks=*/1,
                                             /*steps=*/60, 32, opts);
  const auto epoch_loss = EpochMeans(result, opts.steps_per_epoch);
  ASSERT_EQ(epoch_loss.size(), 4u);
  ASSERT_EQ(result.validation.size(), 4u);
  EXPECT_LT(epoch_loss.back(), epoch_loss.front());
}

TEST(EpochRunner, ValidationOverheadIsSmallFraction) {
  // Sec VI: the per-epoch validation pass is "negligible once amortized
  // over the steps" — with epoch-sized step counts it stays a small
  // fraction of wall time.
  const ClimateDataset dataset(SmallData());
  TrainRunOptions opts;
  opts.steps_per_epoch = 25;
  opts.validation_samples = 2;
  const auto result =
      RunDistributedTraining(SmallTrainer(), dataset, 1, 50, 32, opts);
  EXPECT_GT(result.train_seconds, 0.0);
  EXPECT_LT(result.ValidationFraction(), 0.25);
}

TEST(EpochRunner, AugmentedTrainingRuns) {
  const ClimateDataset dataset(SmallData());
  TrainRunOptions opts;
  opts.steps_per_epoch = 10;
  opts.validation_samples = 2;
  opts.augment = AugmentOptions{.meridional_channels = {2}};
  const auto augmented =
      RunDistributedTraining(SmallTrainer(), dataset, 2, 20, 16, opts);
  for (const double l : augmented.loss_history) {
    EXPECT_TRUE(std::isfinite(l));
  }
  // The rolled/mirrored inputs change the trajectory.
  opts.augment.reset();
  const auto plain =
      RunDistributedTraining(SmallTrainer(), dataset, 2, 20, 16, opts);
  EXPECT_NE(augmented.loss_history, plain.loss_history);
}

TEST(EpochRunner, DefaultOptionsRunOneBareEpoch) {
  // No TrainRunOptions: the whole run is one epoch with no validation,
  // augmentation or checkpoint, and a seed fixes every loss bit.
  const ClimateDataset dataset(SmallData());
  const auto a = RunDistributedTraining(SmallTrainer(), dataset, 2, 6, 16);
  ASSERT_EQ(a.loss_history.size(), 6u);
  EXPECT_TRUE(a.validation.empty());
  EXPECT_EQ(a.validation_seconds, 0.0);
  EXPECT_EQ(a.ValidationFraction(), 0.0);
  EXPECT_EQ(a.checkpoints_written, 0);
  EXPECT_EQ(a.start_epoch, 0);
  EXPECT_FALSE(a.resumed);
  const auto b = RunDistributedTraining(SmallTrainer(), dataset, 2, 6, 16);
  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
}

TEST(EpochRunner, RejectsInconsistentEpochOptions) {
  const ClimateDataset dataset(SmallData());
  TrainRunOptions opts;
  opts.steps_per_epoch = 4;  // 10 steps is not a whole number of epochs
  EXPECT_THROW(
      (void)RunDistributedTraining(SmallTrainer(), dataset, 1, 10, 16, opts),
      Error);
  opts.steps_per_epoch = -5;
  EXPECT_THROW(
      (void)RunDistributedTraining(SmallTrainer(), dataset, 1, 10, 16, opts),
      Error);
  opts.steps_per_epoch = 5;
  opts.resume = true;  // nowhere to resume from
  EXPECT_THROW(
      (void)RunDistributedTraining(SmallTrainer(), dataset, 1, 10, 16, opts),
      Error);
}

// ------------------------------------------------------ StrongScaling ---

ScaleOptions SummitDeepLab() {
  // FP16 configuration (anchored local batch 2) so the strong-scaling
  // sweep can shrink the per-GPU batch below the weak-scaling setting.
  ScaleOptions o;
  o.machine = MachineModel::Summit();
  o.spec = PaperDeepLabSpec(16);
  o.precision = Precision::kFP16;
  o.local_batch = 2;
  o.lag = 1;
  o.anchor_samples_per_sec = 2.67;
  o.anchor_tf_per_sample = 14.41;
  return o;
}

TEST(StrongScaling, SingleGpuIsBaseline) {
  ScaleSimulator sim(SummitDeepLab());
  const auto p = sim.SimulateStrongScaling(1, 1024);
  EXPECT_NEAR(p.efficiency, 1.0, 1e-9);
}

TEST(StrongScaling, EfficiencyDecaysFasterThanWeakScaling) {
  // The Sec III-A rationale for preferring weak scaling: with a fixed
  // global batch, per-GPU work shrinks while the fixed costs do not.
  ScaleSimulator sim(SummitDeepLab());
  // With more GPUs than anchored-batch-sized shares, the fixed per-step
  // cost replicates across GPUs and efficiency collapses.
  EXPECT_LT(sim.SimulateStrongScaling(4096, 4096).efficiency,
            sim.SimulateStrongScaling(1024, 4096).efficiency);
  EXPECT_LT(sim.SimulateStrongScaling(1024, 4096).efficiency,
            sim.SimulateStrongScaling(256, 4096).efficiency);
  // At the per-GPU-batch-of-1 point it is strictly below weak scaling at
  // the same GPU count (which keeps the batch at the anchored size).
  EXPECT_LT(sim.SimulateStrongScaling(4096, 4096).efficiency,
            sim.Simulate(4096).efficiency);
}

TEST(StrongScaling, ThroughputStillImprovesBeforeTheWall) {
  ScaleSimulator sim(SummitDeepLab());
  const auto p256 = sim.SimulateStrongScaling(256, 4096);
  const auto p1024 = sim.SimulateStrongScaling(1024, 4096);
  EXPECT_GT(p1024.images_per_sec, p256.images_per_sec);
  // Time-to-batch shrinks: that is the point of strong scaling when
  // hyperparameters cap the global batch.
  EXPECT_LT(p1024.step_seconds, p256.step_seconds);
}

TEST(StrongScaling, RejectsFewerSamplesThanGpus) {
  ScaleSimulator sim(SummitDeepLab());
  EXPECT_THROW((void)sim.SimulateStrongScaling(4096, 1024), Error);
}

}  // namespace
}  // namespace exaclim
