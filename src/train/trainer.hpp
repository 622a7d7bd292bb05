#pragma once

#include <memory>
#include <vector>

#include "comm/elastic.hpp"
#include "comm/world.hpp"
#include "data/dataset.hpp"
#include "hvd/exchanger.hpp"
#include "models/deeplab.hpp"
#include "models/tiramisu.hpp"
#include "nn/loss.hpp"
#include "optim/lag.hpp"
#include "optim/larc.hpp"
#include "optim/loss_scaler.hpp"
#include "optim/optimizer.hpp"
#include "stats/stats.hpp"

namespace exaclim {

/// Everything configurable about a (downscaled, CPU-runnable) version of
/// the paper's training runs: architecture, precision, loss weighting,
/// optimizer stack (SGD/Adam, LARC, gradient lag, dynamic loss scaling)
/// and the Horovod-style gradient exchange.
struct TrainerOptions {
  enum class Arch { kTiramisu, kDeepLab };
  enum class Opt { kSGD, kAdam };

  Arch arch = Arch::kTiramisu;
  Tiramisu::Config tiramisu = Tiramisu::Config::Downscaled(8);
  DeepLabV3Plus::Config deeplab = DeepLabV3Plus::Config::Downscaled(8);

  Precision precision = Precision::kFP32;
  LossScaler::Options loss_scaler{};  // active under FP16
  WeightingScheme weighting = WeightingScheme::kInverseSqrt;

  Opt optimizer = Opt::kAdam;
  float learning_rate = 1e-3f;
  float momentum = 0.9f;
  bool use_larc = true;
  LARC::Options larc{};
  int lag = 0;

  ExchangerOptions exchanger{};
  /// Elastic training (DESIGN §13): survive rank death mid-step via
  /// bounded collectives + world rebuild + live-peer weight resync.
  ElasticOptions elastic{};
  std::int64_t local_batch = 1;
  std::uint64_t seed = 42;
};

/// One rank's training state: model replica (identically initialised on
/// every rank from the shared seed), optimizer stack, loss scaler and
/// gradient exchanger. Step() performs one synchronous data-parallel
/// training step, which leaves replicas bit-identical across ranks.
class RankTrainer {
 public:
  RankTrainer(const TrainerOptions& opts,
              std::vector<float> class_weights, int rank);

  /// Wall-clock breakdown of a single step, filled on every call (cheap
  /// steady_clock reads). When observability is enabled the same numbers
  /// also stream into the "step.*_s" histograms and the trace as nested
  /// spans under "step".
  struct StepTimings {
    double forward_seconds = 0.0;
    double backward_seconds = 0.0;
    double exchange_seconds = 0.0;  // 0 when running without a communicator
    double update_seconds = 0.0;
    double total_seconds = 0.0;
  };

  struct StepResult {
    double loss = 0.0;
    double pixel_accuracy = 0.0;
    bool update_applied = true;  // false: FP16 overflow skipped the step
    float loss_scale = 1.0f;
    StepTimings timings;
  };

  /// One synchronous data-parallel training step. With a communicator,
  /// all ranks call collectively with their own local batch and gradients
  /// are exchanged; with `comm == nullptr` the step is local-only (single
  /// process, no gradient exchange).
  StepResult Step(const Batch& batch, Communicator* comm = nullptr);

  /// Elastic step: the exchange runs bounded over the current view. On a
  /// failed exchange (`!exchange.ok()`) the partial gradients are
  /// discarded — no optimizer or loss-scaler update happens — so every
  /// survivor's replica stays bit-identical and the step can be retried
  /// after Rebuild()+ResyncFromRoot().
  struct ElasticStepResult {
    StepResult step;
    CollectiveResult exchange;
  };
  ElasticStepResult StepElastic(const Batch& batch, Communicator& comm,
                                ElasticWorld& elastic);

  /// Re-aligns replicas after a rebuild: the view's index-0 survivor
  /// broadcasts its weights in memory (no disk checkpoint on the hot
  /// recovery path), CRC32-verified on every receiver. `*resync_bytes`
  /// gets the broadcast payload size.
  CollectiveResult ResyncFromRoot(Communicator& comm, ElasticWorld& elastic,
                                  std::int64_t* resync_bytes);

  /// CRC32 over all parameter values — the replica-consistency probe the
  /// chaos tests assert with.
  std::uint32_t ParamsCrc32() const;

  /// Runs inference over up to `max_samples` of a split, accumulating a
  /// confusion matrix (mean IoU is the Sec VII-D metric).
  ConfusionMatrix Evaluate(const ClimateDataset& dataset, DatasetSplit split,
                           std::int64_t max_samples);

  Layer& model() { return *model_; }
  const std::vector<Param*>& params() const { return params_; }
  std::int64_t ParameterCount() const;

 private:
  StepResult StepImpl(const Batch& batch, Communicator* comm,
                      ElasticWorld* elastic,
                      CollectiveResult* exchange_status);

  TrainerOptions opts_;
  std::vector<float> class_weights_;
  std::unique_ptr<Layer> model_;
  std::vector<Param*> params_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<GradientExchanger> exchanger_;
  /// Streams per-layer grad-ready events from Backward into the
  /// exchanger, whose fused buckets follow this emission order.
  GradReadyRecorder recorder_;
  LossScaler scaler_;
};

/// Convergence-run driver (the engine behind Fig 6 / Fig 7 benches):
/// trains over `ranks` simulated data-parallel ranks for `steps` steps,
/// each rank drawing batches from its own local shard (Sec V-A1
/// resampling), and records the rank-0 loss curve.
struct TrainRunResult {
  std::vector<double> loss_history;       // per step (lowest live rank)
  std::vector<double> accuracy_history;   // per step (lowest live rank)
  std::int64_t skipped_steps = 0;         // FP16 overflow skips
  double final_loss = 0.0;

  // Elastic outcome (populated when opts.elastic.enabled; with no
  // failures: final_world_size == ranks, generation 0, 0 recoveries).
  int final_world_size = 0;
  int final_generation = 0;
  std::int64_t recoveries = 0;      // world rebuilds survived
  std::int64_t resync_bytes = 0;    // weight bytes re-broadcast in memory
  std::vector<char> survived;       // per world rank: finished the run
  std::vector<std::uint32_t> survivor_param_crcs;  // per rank, 0 if dead
};

TrainRunResult RunDistributedTraining(const TrainerOptions& opts,
                                      const ClimateDataset& dataset,
                                      int ranks, int steps,
                                      std::int64_t images_per_rank = 32);

/// Builds the model described by the options (used by benches that need
/// a standalone replica, e.g. for evaluation).
std::unique_ptr<Layer> BuildModel(const TrainerOptions& opts, Rng& rng);

}  // namespace exaclim
