#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flops/opspec.hpp"
#include "train/trainer.hpp"

namespace perfbench {

/// Intra-op pool size of every workload. perfbench/run.py pins
/// EXACLIM_THREADS to it and the runner refuses to measure otherwise. One
/// thread: with batch 2 the conv engine splits a convolution into two
/// shards, so a 4-thread pool idled half its threads through every conv
/// while each fork/join waited on all four, and on a shared 4-vCPU host
/// the single-rank step time then drifted by a third between runs.
inline constexpr int kPoolThreads = 1;

/// One named benchmark workload: what the library is asked to train and
/// how the benchmark feeds it. Every workload uses the 4-channel Piz Daint
/// subset on a 128x128 grid, local batch 2 and the Downscaled(4) models.
struct Workload {
  std::string name;
  int ranks = 1;
  /// true: batches are generated in set-up and cycled; false: every rank
  /// calls ClimateDataset::MakeBatch on its local shard every step, the
  /// loop of RunDistributedTraining.
  bool pregenerated = true;
  /// FaultInjector spec armed for the whole run ("" = none).
  std::string wire_delay;
  exaclim::TrainerOptions trainer;
  /// Op list the nn replay rebuilds layer by layer.
  exaclim::ArchSpec spec;
};

/// Builds the named workload for a run seed; throws on an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Tiny configuration for the self-test: few steps, one set-up.
  bool smoke = false;
  /// Self-test hook: poisons one replica's weights after training, which
  /// the correctness checks must count as failed.
  bool corrupt_replica = false;
  /// Where the traced run writes its spans (chrome://tracing JSON).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons `correct` is false (empty when it is true).
  std::vector<std::string> problems;
  /// Diagnostics printed on the info line (check values, step counts).
  std::vector<Metric> notes;
};

Report RunWorkload(const Workload& workload, const RunOptions& options);

}  // namespace perfbench
