#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "stats/stats.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

ClimateDataset::Options TinyData() {
  ClimateDataset::Options o;
  o.num_samples = 40;
  o.generator.height = 32;
  o.generator.width = 32;
  o.channels = {kTMQ, kU850, kV850, kPSL};  // 4 channels: fast on CPU
  return o;
}

TrainerOptions TinyTrainer() {
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.learning_rate = 2e-3f;
  o.exchanger.transport = ReduceTransport::kMpiRing;
  o.exchanger.hybrid.topology.ranks_per_node = 2;
  o.exchanger.hybrid.mpi_ranks_per_node = 1;
  return o;
}

TEST(RankTrainer, LossDecreasesOnFixedBatch) {
  ClimateDataset dataset(TinyData());
  const auto freq = dataset.MeasureFrequencies(8);
  const auto weights = MakeClassWeights(freq, WeightingScheme::kInverseSqrt);
  RankTrainer trainer(TinyTrainer(), weights, 0);
  const std::vector<std::int64_t> idx{0};
  const Batch batch = dataset.MakeBatch(DatasetSplit::kTrain, idx);
  double first = 0, last = 0;
  for (int s = 0; s < 12; ++s) {
    const auto r = trainer.Step(batch);
    if (s == 0) first = r.loss;
    last = r.loss;
    EXPECT_TRUE(r.update_applied);
  }
  EXPECT_LT(last, first);
}

TEST(RankTrainer, DeepLabVariantTrains) {
  ClimateDataset dataset(TinyData());
  TrainerOptions o = TinyTrainer();
  o.arch = TrainerOptions::Arch::kDeepLab;
  o.deeplab = DeepLabV3Plus::Config::Downscaled(4);
  const auto freq = dataset.MeasureFrequencies(8);
  RankTrainer trainer(
      o, MakeClassWeights(freq, WeightingScheme::kInverseSqrt), 0);
  const Batch batch =
      dataset.MakeBatch(DatasetSplit::kTrain, std::vector<std::int64_t>{1});
  double first = 0, last = 0;
  for (int s = 0; s < 8; ++s) {
    const auto r = trainer.Step(batch);
    if (s == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first);
}

TEST(RankTrainer, ReplicasStayIdenticalAcrossRanks) {
  // The synchronous-training invariant: after N distributed steps the
  // model weights on every rank are bit-identical, despite each rank
  // seeing different data and shuffling its readiness order differently.
  ClimateDataset dataset(TinyData());
  const auto freq = dataset.MeasureFrequencies(8);
  const auto weights = MakeClassWeights(freq, WeightingScheme::kInverseSqrt);
  const int ranks = 4;
  std::vector<std::vector<float>> final_weights(ranks);
  SimWorld world(ranks);
  world.Run([&](Communicator& comm) {
    RankTrainer trainer(TinyTrainer(), weights, comm.rank());
    Rng rng(10 + comm.rank());
    for (int s = 0; s < 3; ++s) {
      const std::vector<std::int64_t> idx{
          rng.Int(0, dataset.size(DatasetSplit::kTrain) - 1)};
      const Batch batch = dataset.MakeBatch(DatasetSplit::kTrain, idx);
      (void)trainer.Step(batch, &comm);
    }
    auto& out = final_weights[static_cast<std::size_t>(comm.rank())];
    for (const Param* p : trainer.params()) {
      out.insert(out.end(), p->value.Data().begin(), p->value.Data().end());
    }
  });
  for (int r = 1; r < ranks; ++r) {
    EXPECT_EQ(final_weights[static_cast<std::size_t>(r)], final_weights[0])
        << "rank " << r << " diverged";
  }
}

TEST(RankTrainer, FP16TrainingRunsWithLossScaling) {
  ClimateDataset dataset(TinyData());
  TrainerOptions o = TinyTrainer();
  o.precision = Precision::kFP16;
  o.loss_scaler.initial_scale = 256.0f;
  const auto freq = dataset.MeasureFrequencies(8);
  RankTrainer trainer(
      o, MakeClassWeights(freq, WeightingScheme::kInverseSqrt), 0);
  const Batch batch =
      dataset.MakeBatch(DatasetSplit::kTrain, std::vector<std::int64_t>{2});
  double first = 0, last = 0;
  int applied = 0;
  for (int s = 0; s < 12; ++s) {
    const auto r = trainer.Step(batch);
    EXPECT_EQ(r.loss_scale, 256.0f);
    if (s == 0) first = r.loss;
    last = r.loss;
    applied += r.update_applied ? 1 : 0;
  }
  EXPECT_GT(applied, 8);  // most steps apply
  EXPECT_LT(last, first);
  // Weights stay finite under FP16 with inverse-sqrt weighting (the Sec
  // V-B1 stability claim).
  for (const Param* p : trainer.params()) {
    EXPECT_TRUE(p->value.AllFinite()) << p->name;
  }
}

TEST(RankTrainer, EvaluateProducesConfusionMatrix) {
  ClimateDataset dataset(TinyData());
  const auto freq = dataset.MeasureFrequencies(8);
  RankTrainer trainer(
      TinyTrainer(), MakeClassWeights(freq, WeightingScheme::kInverseSqrt),
      0);
  const auto cm = trainer.Evaluate(dataset, DatasetSplit::kValidation, 2);
  EXPECT_EQ(cm.total(), 2 * 32 * 32);
  EXPECT_GE(cm.MeanIoU(), 0.0);
  EXPECT_LE(cm.MeanIoU(), 1.0);
}

TEST(RunDistributedTraining, HybridTrainsAtEveryWorldSize) {
  // The default exchanger runs the hybrid transport at 6 ranks per node,
  // and any world size trains: the last node may be partial. Up to 6
  // ranks the world is one node, whose hybrid is exactly the group ring,
  // so with the readiness shuffle off it ends on the ring's parameters.
  ClimateDataset dataset(TinyData());
  TrainerOptions hybrid = TinyTrainer();
  hybrid.exchanger = ExchangerOptions{};
  hybrid.exchanger.shuffle_ready_order = false;
  TrainerOptions four_per_node = hybrid;
  four_per_node.exchanger.hybrid.topology.ranks_per_node = 4;
  TrainerOptions ring = hybrid;
  ring.exchanger.transport = ReduceTransport::kMpiRing;
  for (const int ranks : {1, 2, 3, 4, 6, 7, 8}) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    for (const TrainerOptions* o : {&hybrid, &four_per_node}) {
      const TrainRunResult r = RunDistributedTraining(*o, dataset, ranks, 2, 4);
      ASSERT_EQ(r.loss_history.size(), 2u);
      EXPECT_TRUE(std::isfinite(r.final_loss));
      for (const std::uint32_t crc : r.survivor_param_crcs) {
        EXPECT_EQ(crc, r.survivor_param_crcs[0]);
      }
      if (o == &hybrid && ranks <= 6) {
        const TrainRunResult flat =
            RunDistributedTraining(ring, dataset, ranks, 2, 4);
        EXPECT_EQ(r.loss_history, flat.loss_history);
        EXPECT_EQ(r.survivor_param_crcs, flat.survivor_param_crcs);
      }
    }
  }
}

/// Sets `name` to `value` for its lifetime, then restores the previous
/// value (or unsets it).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

TEST(RunDistributedTraining, TypedOptionsAreTheOnlyConfig) {
  // Variables that once overrode the exchanger and elastic options must
  // change nothing, not even fail on a malformed value.
  ClimateDataset dataset(TinyData());
  TrainerOptions o = TinyTrainer();
  o.exchanger.shuffle_ready_order = false;
  const TrainRunResult plain = RunDistributedTraining(o, dataset, 2, 2, 4);
  TrainRunResult with_env;
  {
    const ScopedEnv wire("EXACLIM_WIRE", "fp16");
    const ScopedEnv fusion("EXACLIM_FUSION_BYTES", "1");
    const ScopedEnv elastic("EXACLIM_ELASTIC", "on");
    const ScopedEnv timeout("EXACLIM_ELASTIC_TIMEOUT", "nan");
    with_env = RunDistributedTraining(o, dataset, 2, 2, 4);
  }
  ASSERT_EQ(with_env.loss_history.size(), plain.loss_history.size());
  for (std::size_t i = 0; i < plain.loss_history.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(with_env.loss_history[i]),
              std::bit_cast<std::uint64_t>(plain.loss_history[i]))
        << "step " << i;
  }
  EXPECT_EQ(with_env.survivor_param_crcs, plain.survivor_param_crcs);
}

TEST(RunDistributedTraining, LossTrendsDownAcrossRanks) {
  ClimateDataset dataset(TinyData());
  TrainerOptions o = TinyTrainer();
  const auto result = RunDistributedTraining(o, dataset, 2, 20, 8);
  ASSERT_EQ(result.loss_history.size(), 20u);
  const auto smoothed = MovingAverage(result.loss_history, 5);
  EXPECT_LT(smoothed.back(), smoothed[4] * 1.05);
  EXPECT_EQ(result.skipped_steps, 0);
}

TEST(RunDistributedTraining, LagVariantConverges) {
  ClimateDataset dataset(TinyData());
  TrainerOptions o = TinyTrainer();
  o.lag = 1;
  const auto result = RunDistributedTraining(o, dataset, 2, 16, 8);
  const auto smoothed = MovingAverage(result.loss_history, 4);
  EXPECT_LT(smoothed.back(), smoothed[3] * 1.10);
}

TEST(RunDistributedTraining, UnweightedLossLearnsDegenerateBackground) {
  // Sec V-B1: with an unweighted loss the network collapses to
  // predicting background everywhere — high pixel accuracy, useless
  // masks. Weighted loss avoids the collapse.
  ClimateDataset::Options data_opts = TinyData();
  ClimateDataset dataset(data_opts);
  TrainerOptions unweighted = TinyTrainer();
  unweighted.weighting = WeightingScheme::kNone;
  const auto result = RunDistributedTraining(unweighted, dataset, 1, 30, 8);
  // Pixel accuracy converges to roughly the background frequency.
  const auto freq = dataset.MeasureFrequencies(8);
  EXPECT_GT(result.accuracy_history.back(), freq[kBackground] - 0.05);
}

}  // namespace
}  // namespace exaclim
