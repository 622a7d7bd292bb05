// Overlapped gradient exchange (DESIGN §14): executed step-time of the
// trainer, whose exchange engine reduces each bucket as backward closes
// it ("overlap"), vs the same step with the same engine fed only after
// backward ("serialized": backward records its grad-ready order into a
// recorder bound to no sink, then the bench replays that order into the
// engine) — the same messages and the same math either way, asserted —
// wire bytes of the packed-FP16 format vs FP32, a zero-alloc census of
// the steady-state exchange phase, and the netsim model's predicted
// serialized/overlapped ratio as a cross-check.
//
// Emits BENCH_overlap.json; the ci.sh `overlap-smoke` stage asserts the
// overlapped exposed-comm tail stays well under the serialized exchange,
// fences the step wall time, and ratchets the exchange-phase allocation
// census against tools/alloc_budget_exchange.json.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "data/dataset.hpp"
#include "netsim/scale.hpp"
#include "nn/loss.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "stats/stats.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

constexpr int kRanks = 4;
constexpr int kWarmupSteps = 2;
constexpr int kMeasuredSteps = 4;
constexpr int kRounds = 3;  // serialized/overlapped runs alternate

TrainerOptions BenchTrainer() {
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.learning_rate = 2e-3f;
  o.exchanger.transport = ReduceTransport::kMpiRing;
  o.exchanger.shuffle_ready_order = false;
  // A few buckets per step so early buckets close (and reduce) while
  // backward is still producing the later ones. The downscaled Tiramisu
  // carries ~15 KB of gradients, so 4 KB splits a step into ~4 buckets.
  o.exchanger.fusion_threshold_bytes = 4 << 10;
  return o;
}

/// The trainer's FP32 step (BenchTrainer's model, loss and Adam+LARC
/// stack, built as RankTrainer builds them) with the exchange serialized
/// after backward: backward records its grad-ready order into a
/// recorder bound to no sink, and once backward is done that order is
/// replayed into the engine, so its exchange thread starts reducing
/// only then. Same buckets, messages and arithmetic as the trainer.
class SerializedRank {
 public:
  SerializedRank(const TrainerOptions& o, const std::vector<float>& weights)
      : weights_(weights) {
    EXACLIM_CHECK(o.precision == Precision::kFP32 &&
                      o.optimizer == TrainerOptions::Opt::kAdam &&
                      o.use_larc && o.lag == 0,
                  "SerializedRank mirrors the FP32 Adam+LARC trainer only");
    Rng rng(o.seed);
    model_ = BuildModel(o, rng);
    model_->SetPrecision(o.precision);
    params_ = model_->Params();
    optimizer_ = std::make_unique<LARC>(
        std::make_unique<Adam>(params_, Adam::Options{.lr = o.learning_rate}),
        o.larc);
    exchanger_ = std::make_unique<GradientExchanger>(o.exchanger,
                                                     o.seed ^ 0xe8c4ull);
    recorder_.Bind(params_);
  }

  RankTrainer::StepTimings Step(const Batch& batch, Communicator& comm) {
    RankTrainer::StepTimings t;
    obs::ScopedTimer step_timer("step", "train", &t.total_seconds);
    SegmentationLossResult loss;
    {
      obs::ScopedTimer timer("step.forward", "train", &t.forward_seconds);
      optimizer_->ZeroGrad();
      const Tensor logits = model_->Forward(batch.fields, /*train=*/true);
      SegmentationLossOptions loss_opts;
      loss_opts.class_weights = weights_;
      loss = WeightedSoftmaxCrossEntropy(logits, batch.labels, loss_opts);
    }
    {
      obs::ScopedTimer timer("step.backward", "train", &t.backward_seconds);
      recorder_.BeginStep(/*sink=*/nullptr);
      model_->SetGradReadyListener(&recorder_);
      (void)model_->Backward(loss.grad_logits);
      model_->SetGradReadyListener(nullptr);
      recorder_.FlushRemaining();
    }
    {
      obs::ScopedTimer timer("step.exchange", "train", &t.exchange_seconds);
      exchanger_->BeginStep(comm, params_, /*elastic=*/nullptr, kNoTimeout);
      for (const int id : recorder_.order()) exchanger_->NotifyGradReady(id);
      RequireCollective(comm, "serialized exchange", exchanger_->WaitAll());
    }
    {
      obs::ScopedTimer timer("step.update", "train", &t.update_seconds);
      optimizer_->Step();
    }
    return t;
  }

  /// Same checksum as RankTrainer::ParamsCrc32.
  std::uint32_t ParamsCrc32() const {
    std::uint32_t crc = 0;
    for (const Param* p : params_) {
      const auto data = p->value.Data();
      crc = Crc32(std::as_bytes(std::span<const float>(data.data(),
                                                       data.size())),
                  crc);
    }
    return crc;
  }

 private:
  std::vector<float> weights_;
  std::unique_ptr<Layer> model_;
  std::vector<Param*> params_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<GradientExchanger> exchanger_;
  GradReadyRecorder recorder_;
};

struct StepTimes {
  std::vector<double> step_s;      // rank 0 per-step wall time
  std::vector<double> exchange_s;  // rank 0 per-step exchange-phase time:
                                   // the full exchange when serialized,
                                   // only the exposed WaitAll tail when
                                   // overlapped
};

/// What one timed run moved and computed: SimWorld's message and byte
/// totals and rank 0's final parameter CRC.
struct RunTotals {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::uint32_t rank0_crc = 0;
};

/// Runs `kWarmupSteps + kMeasuredSteps` distributed steps over kRanks
/// SimWorld ranks and appends rank 0's measured per-step timings.
/// Every rank draws the same deterministic batch sequence as the other
/// configuration, so the two timed runs execute identical math. The
/// caller alternates serialized/overlapped rounds so slow machine-load
/// drift hits both configurations evenly.
RunTotals TimeSteps(const ClimateDataset& dataset,
                    const std::vector<float>& weights, bool overlap,
                    StepTimes* out, bool diag = false) {
  std::int64_t buf0 = 0, byt0 = 0;
  if (auto* c = obs::CounterOrNull("exchange.buffers")) buf0 = c->value();
  if (auto* c = obs::CounterOrNull("exchange.bytes")) byt0 = c->value();
  RunTotals totals;
  SimWorld world(kRanks);
  world.Run([&](Communicator& comm) {
    std::unique_ptr<RankTrainer> trainer;
    std::unique_ptr<SerializedRank> serialized;
    if (overlap) {
      trainer = std::make_unique<RankTrainer>(BenchTrainer(), weights,
                                              comm.rank());
    } else {
      serialized = std::make_unique<SerializedRank>(BenchTrainer(), weights);
    }
    const auto step = [&](const Batch& batch) {
      return overlap ? trainer->Step(batch, &comm).timings
                     : serialized->Step(batch, comm);
    };
    Rng rng(1234u + static_cast<std::uint64_t>(comm.rank()));
    const auto next_batch = [&] {
      std::vector<std::int64_t> idx(2);
      for (auto& i : idx) {
        i = rng.Int(0, dataset.size(DatasetSplit::kTrain) - 1);
      }
      return dataset.MakeBatch(DatasetSplit::kTrain, idx);
    };
    for (int s = 0; s < kWarmupSteps; ++s) (void)step(next_batch());
    for (int s = 0; s < kMeasuredSteps; ++s) {
      const RankTrainer::StepTimings t = step(next_batch());
      if (comm.rank() == 0) {
        out->step_s.push_back(t.total_seconds);
        out->exchange_s.push_back(t.exchange_seconds);
      }
    }
    if (comm.rank() == 0) {
      totals.rank0_crc = overlap ? trainer->ParamsCrc32()
                                 : serialized->ParamsCrc32();
    }
  });
  totals.messages = world.total_messages();
  totals.bytes = world.total_bytes();
  if (!diag) return totals;
  if (auto* c = obs::CounterOrNull("exchange.buffers")) {
    std::int64_t byt = 0;
    if (auto* b = obs::CounterOrNull("exchange.bytes")) byt = b->value() - byt0;
    const double steps = (kWarmupSteps + kMeasuredSteps) * kRanks;
    std::printf("  %s: %.0f fused buckets/step, %.0f gradient bytes/step\n",
                overlap ? "overlapped" : "serialized",
                static_cast<double>(c->value() - buf0) / steps,
                static_cast<double>(byt) / steps);
  }
  return totals;
}

/// Total bytes SimWorld moved for one full exchange of `elems` gradient
/// floats under the given wire format.
std::int64_t ExchangeWireBytes(Precision wire, std::int64_t elems) {
  SimWorld world(kRanks);
  world.Run([&](Communicator& comm) {
    Param param("g", Tensor::Zeros(TensorShape{elems}));
    param.grad.Fill(static_cast<float>(comm.rank() + 1) * 0.25f);
    ExchangerOptions opts;
    opts.transport = ReduceTransport::kMpiRing;
    opts.shuffle_ready_order = false;
    opts.wire_precision = wire;
    GradientExchanger exchanger(opts, 5);
    std::vector<Param*> params{&param};
    exchanger.Exchange(comm, params);
  });
  return world.total_bytes();
}

struct ExchangeAllocs {
  std::int64_t count = 0;
  std::int64_t bytes = 0;
};

/// Process-wide allocations of `reps` streamed exchanges over kRanks
/// ranks (FP16 wire, multiple buckets). Nothing but the exchange path
/// runs inside the world, so the census is attributable; the caller
/// subtracts two rep counts to cancel the fixed setup/warmup costs.
ExchangeAllocs CensusRun(int reps) {
  ResetAllocSiteStats();
  std::int64_t count = 0, bytes = 0;
  {
    EXACLIM_ALLOC_CENSUS("exchange.census");
    SimWorld world(kRanks);
    world.Run([&](Communicator& comm) {
      std::vector<std::unique_ptr<Param>> owned;
      std::vector<Param*> params;
      for (int i = 0; i < 12; ++i) {
        owned.push_back(std::make_unique<Param>(
            "g" + std::to_string(i), Tensor::Zeros(TensorShape{4096})));
        owned.back()->grad.Fill(static_cast<float>(comm.rank() + i));
        params.push_back(owned.back().get());
      }
      ExchangerOptions opts;
      opts.transport = ReduceTransport::kMpiRing;
      opts.shuffle_ready_order = false;
      opts.wire_precision = Precision::kFP16;
      opts.fusion_threshold_bytes = 16 << 10;  // a few tensors per bucket
      GradientExchanger exchanger(opts, 5);
      for (int s = 0; s < reps; ++s) {
        exchanger.BeginStep(comm, params, nullptr, kNoTimeout);
        for (int i = 0; i < static_cast<int>(params.size()); ++i) {
          exchanger.NotifyGradReady(i);
        }
        (void)exchanger.WaitAll();
      }
    });
  }
  const AllocSiteId id = FindAllocSite("exchange.census");
  if (id >= 0) {
    const AllocSiteInfo info = GetAllocSite(id);
    count = info.count;
    bytes = info.bytes;
  }
  return {count, bytes};
}

}  // namespace

int Main() {
  // Pin the pool (ParallelFor closure counts scale with workers) and
  // count heap traffic for the exchange-phase census below.
  setenv("EXACLIM_THREADS", "4", /*overwrite=*/1);
  SetAllocTracking(true);
  if (!obs::EnableFromEnv()) obs::Enable();

  ClimateDataset::Options d;
  d.num_samples = 24;
  d.generator.height = 128;
  d.generator.width = 128;
  d.channels = {kTMQ, kU850, kV850, kPSL};
  const ClimateDataset dataset(d);
  const auto weights = MakeClassWeights(dataset.MeasureFrequencies(8),
                                        WeightingScheme::kInverseSqrt);

  obs::BenchReport report("overlap");

  // ---- Executed step time: serialized vs overlapped exchange. --------
  // Arm a deterministic 5 ms per-message delivery latency (the
  // comm.delay fault site, DESIGN §8) for the timed rounds. SimWorld's
  // transport is otherwise pure memcpy: on a box with fewer cores than
  // ranks the compute halves of both configurations time-slice the same
  // CPU and the overlap win drowns in scheduler noise. Wire latency is
  // a timed condvar wait, not CPU, so it models the network component
  // that overlap actually hides — it is hideable on any core count
  // (CPU contention only lengthens backward, which *grows* the hiding
  // window), which makes the comparison deterministic: the serialized
  // path pays every bucket's latency chain after backward, the
  // overlapped path only the tail that backward could not cover.
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmFromString("comm.delay:1:1:-1:0.005");
  StepTimes ser_times, ovl_times;
  RunTotals ser_totals, ovl_totals;
  for (int round = 0; round < kRounds; ++round) {
    ser_totals = TimeSteps(dataset, weights, /*overlap=*/false, &ser_times,
                           /*diag=*/round == 0);
    ovl_totals = TimeSteps(dataset, weights, /*overlap=*/true, &ovl_times,
                           /*diag=*/round == 0);
    // The two modes differ only in when the engine is fed: same
    // buckets, same messages, same arithmetic.
    EXACLIM_CHECK(ser_totals.messages == ovl_totals.messages &&
                      ser_totals.bytes == ovl_totals.bytes,
                  "serialized and overlapped runs moved different traffic: "
                      << ser_totals.messages << " vs "
                      << ovl_totals.messages << " messages, "
                      << ser_totals.bytes << " vs " << ovl_totals.bytes
                      << " bytes");
    EXACLIM_CHECK(ser_totals.rank0_crc == ovl_totals.rank0_crc,
                  "serialized and overlapped runs diverged: param CRC "
                      << ser_totals.rank0_crc << " vs "
                      << ovl_totals.rank0_crc);
  }
  FaultInjector::Global().Reset();
  const std::vector<double>& serialized = ser_times.step_s;
  const std::vector<double>& overlapped = ovl_times.step_s;

  // Steady-state exchange allocation census (exchange thread + packed
  // FP16 wire; the bucket plan is negotiated in the first step only).
  // Two rep counts, subtracted: world/exchanger setup, the negotiation
  // and first-step buffer growth cancel, leaving only the per-exchange
  // steady-state heap traffic.
  constexpr int kCensusBase = 3;
  constexpr int kCensusExtra = 8;
  const ExchangeAllocs base = CensusRun(kCensusBase);
  const ExchangeAllocs more = CensusRun(kCensusBase + kCensusExtra);
  const double exch_allocs =
      static_cast<double>(more.count - base.count) / kCensusExtra;
  const double exch_bytes =
      static_cast<double>(more.bytes - base.bytes) / kCensusExtra;

  const double ser_med = Summarize(serialized).median;
  const double ovl_med = Summarize(overlapped).median;
  const double ser_exch_med = Summarize(ser_times.exchange_s).median;
  const double ovl_exch_med = Summarize(ovl_times.exchange_s).median;
  report.AddSeries("step_serialized_s", serialized);
  report.AddSeries("step_overlap_s", overlapped);
  // Exposed exchange time: the serialized path pays the whole exchange
  // after backward; the overlapped path pays only the WaitAll tail not
  // hidden behind backward compute. This is the structural win and the
  // sharp CI gate — step wall time also improves but is noisier.
  report.AddSeries("exchange_exposed_serialized_s", ser_times.exchange_s);
  report.AddSeries("exchange_exposed_overlap_s", ovl_times.exchange_s);
  report.AddScalar("overlap_step_ratio", ovl_med / ser_med);
  report.AddScalar("messages_per_run", static_cast<double>(ovl_totals.messages));
  report.AddScalar("bytes_per_run", static_cast<double>(ovl_totals.bytes));
  report.AddScalar("alloc_count.step.exchange", exch_allocs);
  report.AddScalar("alloc_bytes.step.exchange", exch_bytes);

  std::printf(
      "DESIGN §14 — overlapped exchange, executed over %d SimWorld ranks "
      "(Tiramisu 1/4-scale, ring transport, %d x %d measured steps)\n",
      kRanks, kRounds, kMeasuredSteps);
  std::printf("  %-28s %12s %16s\n", "mode", "step [ms]",
              "exposed comm [ms]");
  std::printf("  %-28s %12.2f %16.2f\n", "serialized (comm after bwd)",
              ser_med * 1e3, ser_exch_med * 1e3);
  std::printf("  %-28s %12.2f %16.2f\n", "overlapped (as-ready buckets)",
              ovl_med * 1e3, ovl_exch_med * 1e3);
  std::printf(
      "  overlapped/serialized: step-time ratio %.3f, exposed-comm ratio "
      "%.3f\n",
      ovl_med / ser_med, ovl_exch_med / ser_exch_med);
  std::printf(
      "  both modes per run: %lld messages, %lld bytes, rank-0 param CRC "
      "%08x\n",
      static_cast<long long>(ovl_totals.messages),
      static_cast<long long>(ovl_totals.bytes), ovl_totals.rank0_crc);
  std::printf(
      "  exchange heap traffic (steady state, %d ranks, per overlapped "
      "exchange): %.0f allocs, %.0f bytes\n",
      kRanks, exch_allocs, exch_bytes);

  // ---- Wire bytes: packed FP16 vs FP32. ------------------------------
  const std::int64_t grad_elems = 1 << 18;  // 1 MB of gradients
  const std::int64_t bytes_fp32 =
      ExchangeWireBytes(Precision::kFP32, grad_elems);
  const std::int64_t bytes_fp16 =
      ExchangeWireBytes(Precision::kFP16, grad_elems);
  report.AddScalar("exchange_bytes_fp32", static_cast<double>(bytes_fp32));
  report.AddScalar("exchange_bytes_fp16", static_cast<double>(bytes_fp16));
  report.AddScalar("wire_byte_ratio",
                   static_cast<double>(bytes_fp16) /
                       static_cast<double>(bytes_fp32));
  std::printf(
      "\nPacked wire (1 MB gradient, ring over %d ranks): FP32 %.2f MB, "
      "FP16 %.2f MB on the wire (ratio %.3f)\n",
      kRanks, bytes_fp32 / 1e6, bytes_fp16 / 1e6,
      static_cast<double>(bytes_fp16) / static_cast<double>(bytes_fp32));

  // ---- Model cross-check: netsim's serialized/overlapped ratio. ------
  ScaleOptions o;
  o.machine = MachineModel::Summit();
  o.spec = PaperDeepLabSpec(16);
  o.precision = Precision::kFP32;
  o.anchor_samples_per_sec = 0.87;
  o.anchor_tf_per_sample = 14.41;
  ScaleOptions serial_opts = o;
  serial_opts.overlap_exchange = false;
  const ScaleSimulator overlap_sim(o), serial_sim(serial_opts);
  std::printf(
      "\nModelled serialized/overlapped step ratio at Summit scale "
      "(DeepLabv3+ FP32, lag 0):\n");
  std::printf("  %7s %16s %16s %8s\n", "GPUs", "serialized [ms]",
              "overlapped [ms]", "ratio");
  for (const int gpus : {96, 1536, 6144, 27360}) {
    const double ts = serial_sim.Simulate(gpus).step_seconds;
    const double to = overlap_sim.Simulate(gpus).step_seconds;
    std::printf("  %7d %16.1f %16.1f %8.3f\n", gpus, ts * 1e3, to * 1e3,
                to / ts);
  }
  const double model_ratio =
      overlap_sim.Simulate(27360).step_seconds /
      serial_sim.Simulate(27360).step_seconds;
  report.AddScalar("model_overlap_ratio_27360", model_ratio);
  std::printf(
      "  The executed ratio above is CPU-substrate-bound; at Summit scale "
      "the model\n  puts the hidden fraction at %.0f%% of the exchange.\n",
      (1.0 - model_ratio) * 100.0);

  const auto path = report.WriteJsonFile();
  if (!path.empty()) std::printf("\nwrote %s\n", path.string().c_str());
  obs::FinishFromEnv();
  return 0;
}

}  // namespace exaclim

int main() { return exaclim::Main(); }
