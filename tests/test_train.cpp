#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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

TEST(RankTrainer, HybridTransportRejectsPartialNodes) {
  // The default exchanger runs the hybrid transport at 6 ranks per node.
  // A world that is not a whole number of nodes must fail on every rank,
  // from Step on the rank thread, before any rank sends a message.
  ClimateDataset dataset(TinyData());
  const auto weights = MakeClassWeights(dataset.MeasureFrequencies(8),
                                        WeightingScheme::kInverseSqrt);
  const Batch batch =
      dataset.MakeBatch(DatasetSplit::kTrain, std::vector<std::int64_t>{0});
  // Runs one step on `ranks` ranks; returns how many ranks' Step threw.
  const auto rejecting_ranks = [&](int ranks,
                                   const ExchangerOptions& exchanger) {
    TrainerOptions o = TinyTrainer();
    o.exchanger = exchanger;
    std::atomic<int> rejected{0};
    SimWorld world(ranks);
    world.Run([&](Communicator& comm) {
      RankTrainer trainer(o, weights, comm.rank());
      try {
        EXPECT_TRUE(std::isfinite(trainer.Step(batch, &comm).loss));
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("world size " + std::to_string(ranks)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("hybrid.topology.ranks_per_node = 6"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("kMpiRing"), std::string::npos) << what;
        ++rejected;
      }
    });
    return rejected.load();
  };
  for (const int ranks : {1, 2, 3, 4, 6, 7, 8}) {
    EXPECT_EQ(rejecting_ranks(ranks, ExchangerOptions{}),
              ranks == 6 ? 0 : ranks)
        << ranks << " ranks";
  }
  ExchangerOptions four_per_node;
  four_per_node.hybrid.topology.ranks_per_node = 4;
  EXPECT_EQ(rejecting_ranks(8, four_per_node), 0);
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
