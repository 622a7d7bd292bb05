#include "step_bench/workload.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/alloc_tracker.hpp"
#include "common/fault.hpp"
#include "flops/cost.hpp"
#include "nn/loss.hpp"
#include "stats/stats.hpp"
#include "step_bench/probes.hpp"

namespace perfbench {
namespace {

using exaclim::Batch;
using exaclim::ClimateDataset;
using exaclim::Communicator;
using exaclim::DatasetSplit;
using exaclim::RankTrainer;
using exaclim::Rng;
using exaclim::TrainerOptions;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kGrid = 128;
constexpr std::int64_t kLocalBatch = 2;
// RunDistributedTraining's default local-shard size.
constexpr std::int64_t kImagesPerRank = 32;
// Samples MeasureFrequencies reads for the class weights, as in
// RunDistributedTraining.
constexpr std::int64_t kFrequencySamples = 16;
constexpr int kPregenBatches = 8;  // per rank, cycled through
constexpr int kHeldOutBatches = 4;
constexpr int kWarmupSteps = 3;
// step_ms_p90 must leave at least ten timed steps above it.
constexpr int kMinTimedSteps = 100;
constexpr int kMaxTimedSteps = 20000;
// Each session of the traced run only needs stable per-phase medians.
constexpr int kMinTracedSteps = 40;
constexpr int kSetupRepeats = 3;
constexpr int kReplayReps = 5;
constexpr int kGemmReps = 15;
// Share of --seconds spent in the timed training window and the timed
// inference window (the traced run splits the training share between an
// untraced and a traced session).
constexpr double kTrainShare = 0.7;
constexpr double kInferShare = 0.2;
constexpr double kTracedInferShare = 0.05;
// Losses averaged at each end of an untraced run for the training check.
constexpr std::size_t kLossWindow = 10;

const char* const kWireDelay = "comm.delay:1:1:-1:0.005";

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double P50(const std::vector<double>& v) {
  return v.empty() ? 0.0 : exaclim::Percentile(v, 0.5);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

ClimateDataset::Options DatasetOptions(std::uint64_t seed) {
  ClimateDataset::Options d;
  d.generator.height = kGrid;
  d.generator.width = kGrid;
  d.channels.assign(exaclim::kPizDaintChannels.begin(),
                    exaclim::kPizDaintChannels.end());
  d.seed = Rng(seed).Fork(1).seed();
  return d;
}

/// One recorded span of the traced run; times are seconds since the
/// run's start. `parent` indexes the same rank's span list (-1: root).
struct Span {
  const char* name = "";
  std::int64_t step = -1;
  int parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
};

struct RankLog {
  // Timed steps only.
  std::vector<double> batch_s, forward_s, backward_s, exchange_s, update_s,
      iteration_s;
  // Warm-up and timed steps.
  std::vector<double> losses;
  std::int64_t skipped_updates = 0;
  std::int64_t allocs = 0;
  std::int64_t alloc_bytes = 0;
  std::uint32_t warmup_crc = 0;
  std::uint32_t final_crc = 0;
  bool params_finite = true;
  std::uint64_t prediction_hash = 0;
  std::int64_t nonfinite_logits = 0;
  std::vector<double> infer_forward_s;  // one per timed inference batch
  double mean_iou = 0.0;
  double chance_iou = 0.0;
  std::vector<Span> spans;
};

struct Session {
  bool ok = true;
  std::string error;
  double setup_s = 0.0;
  double window_s = 0.0;
  int timed_steps = 0;
  int infer_batches = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::vector<RankLog> logs;
};

enum class SessionKind { kSetupOnly, kMeasure };

struct SessionPlan {
  SessionKind kind = SessionKind::kMeasure;
  bool traced = false;
  double train_window_s = 0.0;
  double infer_window_s = 0.0;
  int min_timed_steps = kMinTimedSteps;
};

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t h) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Expected mean IoU of a prediction that picks each class uniformly at
/// random, against the labels counted in `cm`.
double ChanceMeanIoU(const exaclim::ConfusionMatrix& cm) {
  const int c = exaclim::kNumClimateClasses;
  const double p = 1.0 / c;
  double acc = 0.0;
  for (int k = 0; k < c; ++k) {
    const double f = cm.LabelFrequency(k);
    acc += f * p / (f + p - f * p);
  }
  return acc / c;
}

/// Mean of the first (`head`) or the last kLossWindow losses.
double MeanLoss(const std::vector<double>& losses, bool head) {
  const std::size_t n = std::min(kLossWindow, losses.size());
  const std::size_t from = head ? 0 : losses.size() - n;
  double s = 0.0;
  for (std::size_t i = from; i < from + n; ++i) s += losses[i];
  return n ? s / static_cast<double>(n) : 0.0;
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Binds the calling thread to the CPU whose contiguous share of `n`
/// items holds item `i` (each of `cpus` takes about n / size items), or,
/// for n = 0, lets it run on all of `cpus` again.
void BindThread(const std::vector<int>& cpus, std::int64_t i,
                std::int64_t n) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (n <= 0) {
    for (const int c : cpus) CPU_SET(c, &set);
  } else {
    const auto k = static_cast<std::size_t>(
        std::clamp<std::int64_t>(i, 0, n - 1) *
        static_cast<std::int64_t>(cpus.size()) / n);
    CPU_SET(cpus[k], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

bool AllParamsFinite(RankTrainer& trainer) {
  for (const exaclim::Param* p : trainer.params()) {
    if (!p->value.AllFinite()) return false;
  }
  return true;
}

/// Held-out batches from the test split, drawn from the run seed.
std::vector<Batch> HeldOutBatches(const ClimateDataset& dataset,
                                  std::uint64_t seed) {
  Rng rng = Rng(seed).Fork(3);
  std::vector<Batch> out;
  for (int b = 0; b < kHeldOutBatches; ++b) {
    std::vector<std::int64_t> idx(kLocalBatch);
    for (auto& i : idx) {
      i = rng.Int(0, dataset.size(DatasetSplit::kTest) - 1);
    }
    out.push_back(dataset.MakeBatch(DatasetSplit::kTest, idx));
  }
  return out;
}

/// One set-up (dataset, class weights, batches, world, trainers, warm-up)
/// and, for kMeasure, the timed training window and the timed inference
/// window. Every rank's trainer starts from the same seed, so two sessions
/// of one run train through the same losses.
Session RunSession(const Workload& w, const RunOptions& o,
                   const SessionPlan& plan, Clock::time_point epoch) {
  Session s;
  s.logs.resize(static_cast<std::size_t>(w.ranks));
  const auto t_start = Clock::now();
  const auto since_epoch = [&](Clock::time_point t) {
    return Seconds(epoch, t);
  };

  const ClimateDataset dataset(DatasetOptions(o.seed));
  const auto weights = exaclim::MakeClassWeights(
      dataset.MeasureFrequencies(kFrequencySamples), w.trainer.weighting);
  const std::vector<Batch> held_out = HeldOutBatches(dataset, o.seed);
  if (!w.wire_delay.empty()) {
    exaclim::FaultInjector::Global().Reset();
    exaclim::FaultInjector::Global().ArmFromString(w.wire_delay);
  }

  std::barrier<> sync(w.ranks);
  // A lone busy thread stays on one CPU, and on a shared host each CPU
  // turns slow and fast as neighbours come and go, so a single-threaded
  // phase read that one CPU's luck: one-rank step times and inference
  // rates differed by a third between runs. Where one thread computes (the
  // one-rank timed steps, each rank's inference turn) it spends an equal
  // contiguous share of the phase on every CPU, so a run samples them all
  // with one move per CPU.
  const std::vector<int> cpus = AllowedCpus();
  Clock::time_point window_start;
  std::vector<exaclim::Layer::StateTensor> rank0_state;

  const auto body = [&](Communicator* comm, int rank) {
    RankLog& log = s.logs[static_cast<std::size_t>(rank)];
    RankTrainer trainer(w.trainer, weights, rank);
    // Shard and batch order exactly as RunDistributedTraining draws them.
    const auto shard = dataset.LocalShard(rank, kImagesPerRank);
    Rng batch_rng = Rng(w.trainer.seed ^ 0xba7c4)
                        .Fork(static_cast<std::uint64_t>(rank));
    const auto draw = [&] {
      std::vector<std::int64_t> idx(static_cast<std::size_t>(kLocalBatch));
      for (auto& i : idx) i = shard[batch_rng.Index(shard.size())];
      return idx;
    };
    std::vector<Batch> pregen;
    if (w.pregenerated) {
      for (int b = 0; b < kPregenBatches; ++b) {
        pregen.push_back(dataset.MakeBatch(DatasetSplit::kTrain, draw()));
      }
    }
    // Allocation census around Step: the whole process on one rank (pool
    // workers included); each rank thread's own on N ranks, which run
    // with a 1-thread pool so nothing of a step leaves that thread.
    const auto alloc_counters = [&] {
      return w.ranks == 1 ? exaclim::GlobalAllocCounters()
                          : exaclim::ThreadAllocCounters();
    };

    // Fastest warm-up iteration after the first: sizes the timed window.
    double warm_iteration_s = std::numeric_limits<double>::infinity();
    const auto step = [&](std::int64_t index, bool timed) {
      if (w.ranks == 1) {
        // Warm-up on the first CPU, the timed steps on each in turn.
        BindThread(cpus, timed ? index - kWarmupSteps : 0,
                   timed ? s.timed_steps : 1);
      }
      const auto t0 = Clock::now();
      Batch made;
      const Batch* batch = nullptr;
      if (w.pregenerated) {
        batch = &pregen[static_cast<std::size_t>(index) % pregen.size()];
      } else {
        const auto idx = draw();
        made = dataset.MakeBatch(DatasetSplit::kTrain, idx);
        batch = &made;
      }
      const auto t1 = Clock::now();
      const bool traced = plan.traced && timed;
      const exaclim::AllocCounters a0 =
          traced ? alloc_counters() : exaclim::AllocCounters{};
      const RankTrainer::StepResult r = trainer.Step(*batch, comm);
      const auto t2 = Clock::now();
      if (traced) {
        const exaclim::AllocCounters a1 = alloc_counters();
        log.allocs += a1.count - a0.count;
        log.alloc_bytes += a1.bytes - a0.bytes;
      }
      log.losses.push_back(r.loss);
      if (!r.update_applied) ++log.skipped_updates;
      if (index > 0 && !timed) {
        warm_iteration_s = std::min(warm_iteration_s, Seconds(t0, t2));
      }
      if (!timed) return;
      const auto& tm = r.timings;
      log.batch_s.push_back(Seconds(t0, t1));
      log.forward_s.push_back(tm.forward_seconds);
      log.backward_s.push_back(tm.backward_seconds);
      log.exchange_s.push_back(tm.exchange_seconds);
      log.update_s.push_back(tm.update_seconds);
      log.iteration_s.push_back(Seconds(t0, t2));
      if (!traced) return;
      const int iter = static_cast<int>(log.spans.size());
      log.spans.push_back(
          {"iteration", index, -1, since_epoch(t0), since_epoch(t2)});
      log.spans.push_back({w.pregenerated ? "batch.pregenerated"
                                          : "ClimateDataset::MakeBatch",
                           index, iter, since_epoch(t0), since_epoch(t1)});
      const int st = static_cast<int>(log.spans.size());
      log.spans.push_back(
          {"RankTrainer::Step", index, iter, since_epoch(t1), since_epoch(t2)});
      double t = since_epoch(t1);
      const std::pair<const char*, double> phases[] = {
          {"step.forward", tm.forward_seconds},
          {"step.backward", tm.backward_seconds},
          {"step.exchange", tm.exchange_seconds},
          {"step.update", tm.update_seconds}};
      for (const auto& [name, secs] : phases) {
        log.spans.push_back({name, index, st, t, t + secs});
        t += secs;
      }
    };

    const auto predict = [&] {
      // Untimed pass over the held-out batches: the predictions are hashed
      // for the cross-rank comparison and scored against the labels. It
      // also warms the inference path before the timed window.
      exaclim::ConfusionMatrix cm(exaclim::kNumClimateClasses);
      std::uint64_t hash = 0xcbf29ce484222325ull;
      for (const Batch& b : held_out) {
        const exaclim::Tensor logits =
            trainer.model().Forward(b.fields, /*train=*/false);
        if (!logits.AllFinite()) ++log.nonfinite_logits;
        const auto pred = exaclim::PredictClasses(logits);
        hash = Fnv1a(pred, hash);
        cm.Add(pred, b.labels);
      }
      log.prediction_hash = hash;
      log.mean_iou = cm.MeanIoU();
      log.chance_iou = ChanceMeanIoU(cm);
    };

    try {
      for (int i = 0; i < kWarmupSteps; ++i) step(i, /*timed=*/false);
      log.warmup_crc = trainer.ParamsCrc32();
      sync.arrive_and_wait();
      if (rank == 0) {
        s.setup_s = Seconds(t_start, Clock::now());
        const double n =
            plan.train_window_s / std::max(warm_iteration_s, 1e-4);
        s.timed_steps = static_cast<int>(std::clamp<double>(
            n, plan.min_timed_steps, kMaxTimedSteps));
      }
      if (plan.kind == SessionKind::kSetupOnly) return;
      sync.arrive_and_wait();
      // Nothing in the timed window grows a log.
      const auto n = static_cast<std::size_t>(s.timed_steps);
      for (auto* v : {&log.batch_s, &log.forward_s, &log.backward_s,
                      &log.exchange_s, &log.update_s, &log.iteration_s}) {
        v->reserve(n);
      }
      log.losses.reserve(kWarmupSteps + n);
      if (plan.traced) log.spans.reserve(7 * n + 1024);
      sync.arrive_and_wait();
      if (rank == 0) window_start = Clock::now();
      for (int i = 0; i < s.timed_steps; ++i) {
        step(kWarmupSteps + i, /*timed=*/true);
      }
      sync.arrive_and_wait();
      if (rank == 0) s.window_s = Seconds(window_start, Clock::now());

      if (o.corrupt_replica && rank == w.ranks - 1) {
        trainer.params().front()->value.Data()[0] =
            std::numeric_limits<float>::quiet_NaN();
      }
      log.final_crc = trainer.ParamsCrc32();
      log.params_finite = AllParamsFinite(trainer);
      // Inference serves one model: batch-norm running statistics stay
      // per rank in training (as in the paper), so every rank takes rank
      // 0's before predicting. Identical weights must then predict
      // identically on every rank.
      if (rank == 0) rank0_state = trainer.model().StateTensors();
      sync.arrive_and_wait();
      if (rank != 0) {
        const auto mine = trainer.model().StateTensors();
        for (std::size_t i = 0; i < mine.size(); ++i) {
          *mine[i].tensor = *rank0_state[i].tensor;
        }
      }
      sync.arrive_and_wait();
      const auto p0 = Clock::now();
      predict();
      const double per_batch = Seconds(p0, Clock::now()) / kHeldOutBatches;
      sync.arrive_and_wait();
      if (rank == 0) {
        s.infer_batches = static_cast<int>(std::clamp<double>(
            plan.infer_window_s / w.ranks / std::max(per_batch, 1e-5),
            kHeldOutBatches, 100000));
      }
      sync.arrive_and_wait();
      // Ranks serve in turn, each alone on the machine: concurrent ranks
      // contend for caches and memory by a share that changes from run
      // to run, which made the rate too unsteady to compare.
      for (int turn = 0; turn < w.ranks; ++turn) {
        if (turn == rank) {
          log.infer_forward_s.reserve(
              static_cast<std::size_t>(s.infer_batches));
          for (int i = 0; i < s.infer_batches; ++i) {
            BindThread(cpus, i, s.infer_batches);
            const auto t0 = Clock::now();
            const exaclim::Tensor logits = trainer.model().Forward(
                held_out[static_cast<std::size_t>(i) % held_out.size()]
                    .fields,
                /*train=*/false);
            const auto t1 = Clock::now();
            log.infer_forward_s.push_back(Seconds(t0, t1));
            if (plan.traced) {
              log.spans.push_back(
                  {"infer.Forward", i, -1, since_epoch(t0), since_epoch(t1)});
            }
          }
          BindThread(cpus, 0, 0);
        }
        sync.arrive_and_wait();
      }
    } catch (...) {
      // Peers blocked in the library's collectives are released by
      // SimWorld's mailbox poisoning; peers at a barrier by this drop.
      sync.arrive_and_drop();
      throw;
    }
  };

  try {
    if (w.ranks == 1) {
      body(nullptr, 0);
    } else {
      exaclim::SimWorld world(w.ranks);
      world.Run([&](Communicator& comm) { body(&comm, comm.rank()); });
      s.messages = world.total_messages();
      s.bytes = world.total_bytes();
    }
  } catch (const std::exception& e) {
    s.ok = false;
    s.error = e.what();
  }
  BindThread(cpus, 0, 0);  // the one-rank body ran on this thread
  if (!w.wire_delay.empty()) exaclim::FaultInjector::Global().Reset();
  return s;
}

/// Failure accounting of one measured session (see README.md): a step
/// fails if it threw or any rank's loss is non-finite; a replica mismatch
/// (parameter CRCs, non-finite weights or predictions differing across
/// ranks) fails every step; an inference batch fails if its logits are
/// non-finite. A scored session must also have trained and learned: rank
/// 0's mean loss over its last kLossWindow steps lies below that over its
/// first, and its held-out mean IoU beats a uniformly random prediction of
/// the same labels.
void Account(const Session& s, bool scored, Report* rep) {
  const std::int64_t steps = kWarmupSteps + s.timed_steps;
  std::int64_t attempted = steps;
  for (const RankLog& log : s.logs) {
    attempted += kHeldOutBatches +
                 static_cast<std::int64_t>(log.infer_forward_s.size());
  }
  rep->attempted += attempted;
  if (!s.ok) {
    rep->failed += attempted;
    rep->problems.push_back("session failed: " + s.error);
    return;
  }
  std::int64_t failed_steps = 0;
  for (std::int64_t i = 0; i < steps; ++i) {
    for (const RankLog& log : s.logs) {
      const auto idx = static_cast<std::size_t>(i);
      if (idx >= log.losses.size() || !std::isfinite(log.losses[idx])) {
        ++failed_steps;
        break;
      }
    }
  }
  const RankLog& r0 = s.logs.front();
  bool consistent = true;
  for (const RankLog& log : s.logs) {
    consistent = consistent && log.params_finite &&
                 log.final_crc == r0.final_crc &&
                 log.prediction_hash == r0.prediction_hash;
  }
  if (!consistent) {
    failed_steps = steps;
    rep->problems.push_back(
        "replicas differ across ranks or hold non-finite weights");
  }
  rep->failed += failed_steps;
  for (const RankLog& log : s.logs) {
    if (log.nonfinite_logits > 0) {
      rep->failed += kHeldOutBatches +
                     static_cast<std::int64_t>(log.infer_forward_s.size());
    }
  }
  if (!scored) return;
  const double head = MeanLoss(r0.losses, true);
  const double tail = MeanLoss(r0.losses, false);
  if (!(tail < head)) {
    rep->problems.push_back("loss did not fall: first steps " +
                            std::to_string(head) + ", last steps " +
                            std::to_string(tail));
  }
  if (!(r0.mean_iou > r0.chance_iou)) {
    rep->problems.push_back("held-out mean IoU " +
                            std::to_string(r0.mean_iou) +
                            " not above chance " +
                            std::to_string(r0.chance_iou));
  }
}

void AddNotes(const Session& s, Report* rep) {
  const RankLog& r0 = s.logs.front();
  rep->notes.push_back({"mean_iou", r0.mean_iou, "ratio"});
  rep->notes.push_back({"chance_iou", r0.chance_iou, "ratio"});
  rep->notes.push_back({"loss_head", MeanLoss(r0.losses, true), "loss"});
  rep->notes.push_back({"loss_tail", MeanLoss(r0.losses, false), "loss"});
  rep->notes.push_back(
      {"timed_steps", static_cast<double>(s.timed_steps), "count"});
  rep->notes.push_back(
      {"infer_batches_per_rank", static_cast<double>(s.infer_batches),
       "count"});
}

/// The driver workload must be the shipped path: its first warm-up steps
/// reproduce RunDistributedTraining's loss history and replica CRCs bit
/// for bit with the same options and seed.
void CheckDriverFidelity(const Workload& w, const RunOptions& o,
                         const Session& s, Report* rep) {
  if (!s.ok) return;
  const ClimateDataset dataset(DatasetOptions(o.seed));
  const exaclim::TrainRunResult ref = exaclim::RunDistributedTraining(
      w.trainer, dataset, w.ranks, kWarmupSteps, kImagesPerRank);
  bool same = ref.loss_history.size() == kWarmupSteps &&
              ref.survivor_param_crcs.size() == s.logs.size();
  for (std::size_t i = 0; same && i < kWarmupSteps; ++i) {
    same = std::bit_cast<std::uint64_t>(ref.loss_history[i]) ==
           std::bit_cast<std::uint64_t>(s.logs.front().losses[i]);
  }
  for (std::size_t r = 0; same && r < s.logs.size(); ++r) {
    same = ref.survivor_param_crcs[r] == s.logs[r].warmup_crc;
  }
  rep->notes.push_back({"driver_fidelity", same ? 1.0 : 0.0, "bool"});
  if (!same) {
    rep->problems.push_back(
        "driver loop diverges from RunDistributedTraining");
  }
}

/// Tracing must not change results: every rank's losses in the traced
/// session equal the untraced session's, bit for bit, over their common
/// prefix.
bool SameLosses(const Session& a, const Session& b) {
  if (!a.ok || !b.ok) return false;
  for (std::size_t r = 0; r < a.logs.size(); ++r) {
    const auto& la = a.logs[r].losses;
    const auto& lb = b.logs[r].losses;
    const std::size_t n = std::min(la.size(), lb.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (std::bit_cast<std::uint64_t>(la[i]) !=
          std::bit_cast<std::uint64_t>(lb[i])) {
        return false;
      }
    }
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SamplesPerSecond(const Workload& w, const Session& s) {
  return s.window_s > 0.0 ? static_cast<double>(w.ranks) * kLocalBatch *
                                s.timed_steps / s.window_s
                          : 0.0;
}

void WriteTrace(const std::string& path, const Session& s,
                const std::vector<Span>& probes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  const auto emit = [&](const Span& sp, std::size_t tid) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%zu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%lld,"
                 "\"parent\":%d}}",
                 first ? "" : ",", sp.name, tid, sp.t0 * 1e6,
                 (sp.t1 - sp.t0) * 1e6, static_cast<long long>(sp.step),
                 sp.parent);
    first = false;
  };
  for (std::size_t r = 0; r < s.logs.size(); ++r) {
    for (const Span& sp : s.logs[r].spans) emit(sp, r);
  }
  for (const Span& sp : probes) emit(sp, s.logs.size());
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void AddPerLayerMetrics(const Workload& w, const RunOptions& o,
                        const Session& base, const Session& t,
                        Clock::time_point epoch, Report* rep) {
  auto& m = rep->metrics;
  const RankLog& r0 = t.logs.front();
  const double fwd = P50(r0.forward_s);
  const double bwd = P50(r0.backward_s);
  const double exch = P50(r0.exchange_s);
  const double upd = P50(r0.update_s);
  const double batch = P50(r0.batch_s);
  const double iter = P50(r0.iteration_s);
  const double iter_sum = Sum(r0.iteration_s);
  const double steps = kWarmupSteps + t.timed_steps;
  m.push_back({"train.forward_ms", fwd * 1e3, "ms"});
  m.push_back({"train.backward_ms", bwd * 1e3, "ms"});
  m.push_back({"train.update_ms", upd * 1e3, "ms"});
  m.push_back({"train.exchange_ms", exch * 1e3, "ms"});
  m.push_back({"hvd.exchange_share", Sum(r0.exchange_s) / iter_sum, "ratio"});
  m.push_back({"comm.messages_per_step",
               static_cast<double>(t.messages) / steps, "count"});
  m.push_back(
      {"comm.bytes_per_step", static_cast<double>(t.bytes) / steps, "B"});
  std::vector<double> skew;
  for (int i = 0; i < t.timed_steps; ++i) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (const RankLog& log : t.logs) {
      const auto k = static_cast<std::size_t>(i);
      const double busy = log.batch_s[k] + log.forward_s[k] + log.backward_s[k];
      lo = std::min(lo, busy);
      hi = std::max(hi, busy);
    }
    skew.push_back(hi - lo);
  }
  m.push_back({"train.rank_skew_ms", P50(skew) * 1e3, "ms"});
  m.push_back({"train.fp16_skipped_steps",
               static_cast<double>(r0.skipped_updates), "count"});
  m.push_back({"data.make_batch_ms", batch * 1e3, "ms"});
  m.push_back({"data.step_share", Sum(r0.batch_s) / iter_sum, "ratio"});
  m.push_back({"train.phase_coverage",
               (fwd + bwd + exch + upd + batch) / iter, "ratio"});

  std::vector<Span> probes;
  const auto r_t0 = Clock::now();
  const ReplayTimes replay =
      ReplaySpec(w.spec, kLocalBatch, w.trainer.precision,
                 o.smoke ? 1 : kReplayReps, o.seed);
  const auto r_t1 = Clock::now();
  const double peak = MeasureGemmPeakGflops(o.smoke ? 2 : kGemmReps);
  const auto r_t2 = Clock::now();
  probes.push_back({"nn.replay", -1, -1, Seconds(epoch, r_t0),
                    Seconds(epoch, r_t1)});
  probes.push_back({"tensor.Gemm.probe", -1, -1, Seconds(epoch, r_t1),
                    Seconds(epoch, r_t2)});

  double replay_total = 0.0;
  for (std::size_t k = 0; k < kReplayKinds.size(); ++k) {
    const std::string kind = kReplayKinds[k];
    m.push_back({"nn." + kind + ".fwd_ms", replay.fwd_s[k] * 1e3, "ms"});
    m.push_back({"nn." + kind + ".bwd_ms", replay.bwd_s[k] * 1e3, "ms"});
    replay_total += replay.fwd_s[k] + replay.bwd_s[k];
  }
  m.push_back({"nn.conv.fwd_gflops",
               replay.conv_fwd_flops / replay.fwd_s[0] * 1e-9, "GFLOP/s"});
  m.push_back({"nn.conv.bwd_gflops",
               2.0 * replay.conv_fwd_flops / replay.bwd_s[0] * 1e-9,
               "GFLOP/s"});
  m.push_back({"nn.replay_coverage", replay_total / (fwd + bwd), "ratio"});
  m.push_back({"tensor.gemm_peak_gflops", peak, "GFLOP/s"});
  const exaclim::TrainingCost cost =
      exaclim::AnalyzeTraining(w.spec, w.trainer.precision, kLocalBatch);
  const double conv_flops =
      cost.at(exaclim::KernelCategory::kFwdConv).flops +
      cost.at(exaclim::KernelCategory::kBwdConv).flops;
  m.push_back({"train.frac_of_gemm_peak",
               conv_flops / (fwd + bwd) / (peak * 1e9), "ratio"});
  std::int64_t allocs = 0, alloc_bytes = 0;
  for (const RankLog& log : t.logs) {
    allocs += log.allocs;
    alloc_bytes += log.alloc_bytes;
  }
  const double timed = std::max(1, t.timed_steps);
  m.push_back({"common.allocs_per_step", allocs / timed, "count"});
  m.push_back({"common.alloc_bytes_per_step", alloc_bytes / timed, "B"});
  m.push_back({"trace.overhead_frac",
               1.0 - SamplesPerSecond(w, t) / SamplesPerSecond(w, base),
               "ratio"});
  if (!o.trace_path.empty()) WriteTrace(o.trace_path, t, probes);
}

}  // namespace

// The multi-rank workloads turn off the exchanger's readiness shuffle. It
// emulates TensorFlow's nondeterministic scheduling: the negotiated tensor
// order then follows message arrival, which moves tensors between fusion
// offsets and changes the rounding of the reduction from run to run. With
// it off, a seed fixes every loss, which the bit-for-bit checks need.
Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  TrainerOptions& t = w.trainer;
  t.local_batch = kLocalBatch;
  t.seed = Rng(seed).Fork(2).seed();
  constexpr auto kChannels =
      static_cast<std::int64_t>(exaclim::kPizDaintChannels.size());
  t.tiramisu = exaclim::Tiramisu::Config::Downscaled(kChannels);
  t.deeplab = exaclim::DeepLabV3Plus::Config::Downscaled(kChannels);
  if (name == "tiramisu_1rank") {
    w.ranks = 1;
  } else if (name == "deeplab_4rank_fp16") {
    w.ranks = 4;
    t.arch = TrainerOptions::Arch::kDeepLab;
    t.precision = exaclim::Precision::kFP16;
    t.exchanger.wire_precision = exaclim::Precision::kFP16;
    t.exchanger.transport = exaclim::ReduceTransport::kHybrid;
    // Two nodes of two ranks: the default six ranks per node cannot
    // hold a 4-rank world.
    t.exchanger.hybrid.topology.ranks_per_node = 2;
    t.exchanger.shuffle_ready_order = false;
    w.wire_delay = kWireDelay;
  } else if (name == "tiramisu_4rank_driver") {
    w.ranks = 4;
    w.pregenerated = false;
    t.exchanger.transport = exaclim::ReduceTransport::kMpiRing;
    t.exchanger.shuffle_ready_order = false;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.spec = t.arch == TrainerOptions::Arch::kTiramisu
               ? exaclim::BuildTiramisuSpec(t.tiramisu, kGrid, kGrid)
               : exaclim::BuildDeepLabSpec(t.deeplab, kGrid, kGrid);
  return w;
}

Report RunWorkload(const Workload& w, const RunOptions& o) {
  const auto epoch = Clock::now();
  Report rep;
  SessionPlan plan;
  plan.infer_window_s = o.seconds * kInferShare;
  plan.min_timed_steps = o.smoke ? 2 : kMinTimedSteps;
  // Only an untraced full run trains enough steps (at least 100 timed) to
  // be scored; the traced run's sessions are held to bit-identical losses
  // instead.
  const bool scored = !o.smoke && !o.traced;

  if (!o.traced) {
    // Set up several times and report the median set-up; the last set-up
    // goes on to the timed windows.
    std::vector<double> setups;
    SessionPlan setup_only = plan;
    setup_only.kind = SessionKind::kSetupOnly;
    for (int k = 1; k < (o.smoke ? 1 : kSetupRepeats); ++k) {
      const Session s = RunSession(w, o, setup_only, epoch);
      if (!s.ok) rep.problems.push_back("set-up failed: " + s.error);
      setups.push_back(s.setup_s);
    }
    plan.train_window_s = o.seconds * kTrainShare;
    const Session s = RunSession(w, o, plan, epoch);
    setups.push_back(s.setup_s);
    Account(s, scored, &rep);
    AddNotes(s, &rep);
    if (!w.pregenerated) CheckDriverFidelity(w, o, s, &rep);
    const RankLog& r0 = s.logs.front();
    // Every rank serves its own copy concurrently: the sum over ranks of
    // each rank's median per-batch rate.
    double infer_rate = 0.0;
    for (const RankLog& log : s.logs) {
      const double per_batch = P50(log.infer_forward_s);
      if (per_batch > 0.0) infer_rate += kLocalBatch / per_batch;
    }
    auto& m = rep.metrics;
    m.push_back({"train_samples_per_s", SamplesPerSecond(w, s), "samples/s"});
    m.push_back({"step_ms_p50", P50(r0.iteration_s) * 1e3, "ms"});
    m.push_back({"step_ms_p90",
                 r0.iteration_s.empty()
                     ? 0.0
                     : exaclim::Percentile(r0.iteration_s, 0.9) * 1e3,
                 "ms"});
    m.push_back({"infer_samples_per_s", infer_rate, "samples/s"});
    m.push_back({"setup_s", P50(setups), "s"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  } else {
    // An untraced and a traced session of the same seed: the difference
    // is the tracing overhead, and their losses must match bit for bit.
    plan.train_window_s = o.seconds * kTrainShare / 2.0;
    plan.infer_window_s = o.seconds * kTracedInferShare;
    plan.min_timed_steps = o.smoke ? 2 : kMinTracedSteps;
    const Session base = RunSession(w, o, plan, epoch);
    SessionPlan traced = plan;
    traced.traced = true;
    exaclim::SetAllocTracking(true);
    const Session t = RunSession(w, o, traced, epoch);
    exaclim::SetAllocTracking(false);
    Account(base, scored, &rep);
    Account(t, scored, &rep);
    AddNotes(t, &rep);
    if (!w.pregenerated) CheckDriverFidelity(w, o, t, &rep);
    const bool same = SameLosses(base, t);
    rep.notes.push_back({"traced_losses_match", same ? 1.0 : 0.0, "bool"});
    if (!same) rep.problems.push_back("tracing changed the losses");
    if (t.ok && base.ok) AddPerLayerMetrics(w, o, base, t, epoch, &rep);
    rep.metrics.push_back(
        {"failed_op_frac",
         static_cast<double>(rep.failed) /
             static_cast<double>(std::max<std::int64_t>(1, rep.attempted)),
         "ratio"});
  }
  rep.correct = rep.failed == 0 && rep.problems.empty();
  return rep;
}

}  // namespace perfbench
