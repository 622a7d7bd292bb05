// Cross-module integration tests: the full data plane + training stack
// wired together the way the paper's production runs were, plus
// end-to-end determinism guarantees.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "io/pipeline.hpp"
#include "io/sample_io.hpp"
#include "io/staging.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

namespace fs = std::filesystem;

ClimateDataset::Options DataOptions() {
  ClimateDataset::Options d;
  d.num_samples = 40;
  d.generator.height = 32;
  d.generator.width = 32;
  d.channels = {kTMQ, kU850, kV850, kPSL};
  return d;
}

TrainerOptions TrainOptions() {
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.learning_rate = 2e-3f;
  o.exchanger.transport = ReduceTransport::kMpiRing;
  return o;
}

TEST(Integration, FullDataPlaneToTraining) {
  // Dataset -> NCF files on a counted "global filesystem" -> distributed
  // staging -> node-local files -> prefetching pipeline -> training.
  const fs::path dir =
      fs::temp_directory_path() /
      ("exaclim_integration_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  const int num_files = 12;
  ClimateGenerator gen({.height = 32, .width = 32});
  HeuristicLabeler labeler;
  MockGlobalFs global_fs;
  for (int f = 0; f < num_files; ++f) {
    ClimateSample s = gen.Generate(5, f);
    labeler.LabelInPlace(s);
    const fs::path p = dir / ("f" + std::to_string(f) + ".ncf");
    WriteSampleFile(p, s);
    std::ifstream in(p, std::ios::binary);
    std::vector<std::byte> bytes(
        static_cast<std::size_t>(fs::file_size(p)));
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    global_fs.Put(f, std::move(bytes));
  }

  // Stage across 4 ranks; rank 0's staged set feeds the pipeline.
  std::map<int, std::vector<std::byte>> rank0_files;
  SimWorld world(4);
  world.Run([&](Communicator& comm) {
    std::set<int> needs;
    for (int f = comm.rank(); f < num_files; f += 2) {
      needs.insert(f % num_files);
    }
    auto staged = StageDataset(comm, global_fs, needs, num_files);
    if (comm.rank() == 0) rank0_files = std::move(staged);
  });
  ASSERT_FALSE(rank0_files.empty());
  for (const int f : {0, 2, 4}) EXPECT_EQ(global_fs.reads(f), 1);

  const fs::path local = dir / "local";
  fs::create_directories(local);
  std::vector<fs::path> paths;
  for (const auto& [id, bytes] : rank0_files) {
    const fs::path p = local / ("staged" + std::to_string(id) + ".ncf");
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    paths.push_back(p);
  }

  InputPipeline pipeline(
      [&](std::int64_t index) {
        const ClimateSample s = ReadSampleFile(
            paths[static_cast<std::size_t>(index) % paths.size()]);
        Batch b;
        // Select the 4 training channels from the full 16-channel file.
        const std::int64_t hw = s.height * s.width;
        b.fields = Tensor(TensorShape::NCHW(1, 4, s.height, s.width));
        const int chans[4] = {kTMQ, kU850, kV850, kPSL};
        for (int c = 0; c < 4; ++c) {
          std::memcpy(b.fields.Raw() + c * hw,
                      s.fields.Raw() + chans[c] * hw,
                      sizeof(float) * static_cast<std::size_t>(hw));
        }
        b.labels = s.labels;
        return b;
      },
      20, {.workers = 2, .prefetch_depth = 2});

  const std::array<double, 3> freq{0.975, 0.022, 0.003};
  RankTrainer trainer(TrainOptions(),
                      MakeClassWeights(freq, WeightingScheme::kInverseSqrt),
                      0);
  int steps = 0;
  double first = 0, last = 0;
  while (auto batch = pipeline.Next()) {
    const auto r = trainer.Step(*batch);
    if (steps == 0) first = r.loss;
    last = r.loss;
    ++steps;
  }
  EXPECT_EQ(steps, 20);
  EXPECT_LT(last, first);
  fs::remove_all(dir);
}

TEST(Integration, RepeatedMultiRankRunsAreBitIdentical) {
  // Default options, readiness shuffle on: the control plane's
  // negotiated tensor order depends on message arrival timing (exactly
  // as in real Horovod), but each bucket's fused layout is its emission
  // order, so repeated 3-rank runs agree bit for bit. (Bit-identity
  // ACROSS RANKS within one run is tested in test_train.)
  const ClimateDataset dataset(DataOptions());
  const auto a = RunDistributedTraining(TrainOptions(), dataset, 3, 8, 8);
  const auto b = RunDistributedTraining(TrainOptions(), dataset, 3, 8, 8);
  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
}

TEST(Integration, SingleRankRunsAreBitDeterministic) {
  // With one rank there is no negotiation at all: repeated runs are
  // bit-identical.
  const ClimateDataset dataset(DataOptions());
  const auto a = RunDistributedTraining(TrainOptions(), dataset, 1, 8, 8);
  const auto b = RunDistributedTraining(TrainOptions(), dataset, 1, 8, 8);
  EXPECT_EQ(a.loss_history, b.loss_history);
}

TEST(Integration, CheckpointResumeContinuesTraining) {
  const ClimateDataset dataset(DataOptions());
  const auto freq = dataset.MeasureFrequencies(8);
  const auto weights = MakeClassWeights(freq, WeightingScheme::kInverseSqrt);
  const fs::path path =
      fs::temp_directory_path() /
      ("exaclim_resume_" + std::to_string(::getpid()) + ".ncf");

  // Phase 1: train, checkpoint, record evaluation.
  double miou_at_checkpoint = 0.0;
  {
    RankTrainer trainer(TrainOptions(), weights, 0);
    Rng rng(3);
    for (int s = 0; s < 30; ++s) {
      std::vector<std::int64_t> idx{
          rng.Int(0, dataset.size(DatasetSplit::kTrain) - 1)};
      (void)trainer.Step(dataset.MakeBatch(DatasetSplit::kTrain, idx));
    }
    SaveCheckpoint(path, trainer.params());
    miou_at_checkpoint =
        trainer.Evaluate(dataset, DatasetSplit::kValidation, 3).MeanIoU();
  }

  // Phase 2: restore into a fresh process-equivalent and verify the
  // evaluation carries over, then keep training without blowing up.
  {
    RankTrainer trainer(TrainOptions(), weights, 0);
    LoadCheckpoint(path, trainer.params());
    const double miou_restored =
        trainer.Evaluate(dataset, DatasetSplit::kValidation, 3).MeanIoU();
    // Running batch-norm stats are fresh (not checkpointed), so allow a
    // small difference.
    EXPECT_NEAR(miou_restored, miou_at_checkpoint, 0.15);
    Rng rng(4);
    for (int s = 0; s < 5; ++s) {
      std::vector<std::int64_t> idx{
          rng.Int(0, dataset.size(DatasetSplit::kTrain) - 1)};
      const auto r =
          trainer.Step(dataset.MakeBatch(DatasetSplit::kTrain, idx));
      EXPECT_TRUE(std::isfinite(r.loss));
    }
  }
  fs::remove(path);
}

TEST(Integration, HeuristicLabelsDriveLearnableSignal) {
  // The whole premise: a network trained on heuristic labels recovers
  // the PLANTED ground truth better than chance — i.e. the heuristics
  // transfer the physical signal (Sec VIII-A's bootstrapping idea).
  ClimateDataset::Options opts = DataOptions();
  const ClimateDataset dataset(opts);
  const auto freq = dataset.MeasureFrequencies(8);
  RankTrainer trainer(TrainOptions(),
                      MakeClassWeights(freq, WeightingScheme::kInverseSqrt),
                      0);
  Rng rng(6);
  for (int s = 0; s < 80; ++s) {
    std::vector<std::int64_t> idx{
        rng.Int(0, dataset.size(DatasetSplit::kTrain) - 1)};
    (void)trainer.Step(dataset.MakeBatch(DatasetSplit::kTrain, idx));
  }
  // Evaluate against the PLANTED truth, not the heuristic labels.
  ConfusionMatrix cm(kNumClimateClasses);
  for (std::int64_t i = 0; i < 4; ++i) {
    const auto sample = dataset.GetSample(DatasetSplit::kValidation, i);
    Batch batch = dataset.MakeBatch(DatasetSplit::kValidation,
                                    std::vector<std::int64_t>{i});
    const Tensor logits = trainer.model().Forward(batch.fields, false);
    cm.Add(PredictClasses(logits), sample.truth);
  }
  EXPECT_GT(cm.PixelAccuracy(), 0.95);
  EXPECT_GT(cm.MeanIoU(), 0.35);  // far above all-BG collapse (~0.33)
}

}  // namespace
}  // namespace exaclim
