// Exchange engine tests (DESIGN §14): bit-identity and identical message
// counts of overlap-on vs overlap-off (FP32 and the packed-FP16 wire),
// bucket composition under the readiness shuffle, strict env parsing,
// the bounded bucket-tag layout (regression for the tag overflow past
// the elastic generation stride), binary16 overflow-boundary agreement
// between the RTNE converter, CountHalfNonFinite's bit threshold and the
// packed wire, wire-byte halving under FP16, and the chaos soak with the
// exchange running on its dedicated thread.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "comm/elastic.hpp"
#include "comm/world.hpp"
#include "common/fault.hpp"
#include "common/half.hpp"
#include "hvd/exchanger.hpp"
#include "tensor/cast.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

struct FaultScope {
  FaultScope() { FaultInjector::Global().Reset(); }
  ~FaultScope() { FaultInjector::Global().Reset(); }
};

std::vector<std::unique_ptr<Param>> MakeParams(int rank, std::int64_t count,
                                               std::int64_t elems) {
  std::vector<std::unique_ptr<Param>> params;
  for (std::int64_t i = 0; i < count; ++i) {
    auto p = std::make_unique<Param>("p" + std::to_string(i),
                                     Tensor::Zeros(TensorShape{elems + i}));
    for (std::int64_t j = 0; j < p->grad.NumElements(); ++j) {
      p->grad[static_cast<std::size_t>(j)] =
          static_cast<float>(rank + 1) * 0.5f + static_cast<float>(i + j);
    }
    params.push_back(std::move(p));
  }
  return params;
}

ClimateDataset::Options TinyData() {
  ClimateDataset::Options o;
  o.num_samples = 40;
  o.generator.height = 32;
  o.generator.width = 32;
  o.channels = {kTMQ, kU850, kV850, kPSL};
  return o;
}

TrainerOptions TinyTrainer() {
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.learning_rate = 2e-3f;
  o.exchanger.transport = ReduceTransport::kMpiRing;
  // Overlap-on must be bit-identical to overlap-off: the readiness
  // shuffle stays off because with it the negotiated order inside a
  // bucket follows message arrival, which moves the reduction's rounding
  // (DESIGN §13).
  o.exchanger.shuffle_ready_order = false;
  return o;
}

// ------------------------------------------------ exchanger-level runs --

struct ExchangeOutcome {
  std::vector<float> rank0_grads;
  bool ranks_identical = true;  // every rank ended with rank 0's grads
  std::int64_t fused_buffers = 0;
  std::int64_t messages = 0;  // SimWorld totals over the whole exchange
  std::int64_t bytes = 0;
};

/// Runs one exchange over 6 ranks with a small fusion threshold (so the
/// tensors split into several buckets) and returns rank 0's resulting
/// gradients. `overlap == true` drives BeginStep/NotifyGradReady/WaitAll
/// by hand on an exchanger with its exchange thread; `overlap == false`
/// runs the blocking Exchange, which drives the same engine inline.
ExchangeOutcome RunExchange(ReduceTransport transport, Precision wire,
                            bool overlap, bool shuffle = false) {
  const int p = 6;
  SimWorld world(p);
  ExchangeOutcome out;
  std::vector<std::vector<float>> grads(p);
  world.Run([&](Communicator& comm) {
    auto owned = MakeParams(comm.rank(), 5, 7);
    std::vector<Param*> params;
    for (auto& q : owned) params.push_back(q.get());
    ExchangerOptions opts;
    opts.transport = transport;
    opts.wire_precision = wire;
    opts.shuffle_ready_order = shuffle;
    opts.overlap = overlap;
    opts.fusion_threshold_bytes = 64;  // a few tensors per bucket
    opts.hybrid.topology.ranks_per_node = 3;
    opts.hybrid.mpi_ranks_per_node = 2;
    GradientExchanger exchanger(opts, 7);
    if (overlap) {
      exchanger.BeginStep(comm, params, /*elastic=*/nullptr, kNoTimeout);
      for (int i = 0; i < static_cast<int>(params.size()); ++i) {
        exchanger.NotifyGradReady(i);
      }
      const CollectiveResult r = exchanger.WaitAll();
      EXPECT_TRUE(r.ok());
    } else {
      exchanger.Exchange(comm, params);
    }
    if (comm.rank() == 0) out.fused_buffers = exchanger.last_fused_buffers();
    std::vector<float>& flat = grads[static_cast<std::size_t>(comm.rank())];
    for (Param* q : params) {
      flat.insert(flat.end(), q->grad.Data().begin(), q->grad.Data().end());
    }
  });
  out.rank0_grads = grads[0];
  for (const auto& g : grads) out.ranks_identical &= g == grads[0];
  out.messages = world.total_messages();
  out.bytes = world.total_bytes();
  return out;
}

class OverlapTransports : public ::testing::TestWithParam<ReduceTransport> {};

TEST_P(OverlapTransports, OverlapOnIsBitIdenticalToOffFP32) {
  const ExchangeOutcome off =
      RunExchange(GetParam(), Precision::kFP32, /*overlap=*/false);
  const ExchangeOutcome on =
      RunExchange(GetParam(), Precision::kFP32, /*overlap=*/true);
  EXPECT_GT(off.fused_buffers, 1);  // the threshold actually split buckets
  EXPECT_EQ(on.fused_buffers, off.fused_buffers);
  EXPECT_EQ(on.rank0_grads, off.rank0_grads);  // bit identity
  // Both drives run one engine: the same per-bucket negotiations and
  // reductions, message for message.
  EXPECT_EQ(on.messages, off.messages);
  EXPECT_EQ(on.bytes, off.bytes);
}

TEST_P(OverlapTransports, OverlapOnIsBitIdenticalToOffFP16Wire) {
  const ExchangeOutcome off =
      RunExchange(GetParam(), Precision::kFP16, /*overlap=*/false);
  const ExchangeOutcome on =
      RunExchange(GetParam(), Precision::kFP16, /*overlap=*/true);
  EXPECT_EQ(on.fused_buffers, off.fused_buffers);
  EXPECT_EQ(on.rank0_grads, off.rank0_grads);  // bit identity
  EXPECT_EQ(on.messages, off.messages);
  EXPECT_EQ(on.bytes, off.bytes);
}

TEST_P(OverlapTransports, ShuffledReadinessKeepsBucketsAndRankAgreement) {
  // The readiness shuffle reorders tensors inside each bucket before the
  // bucket is negotiated; buckets themselves follow the emission order,
  // so the bucket count matches the unshuffled run in both drives.
  const ExchangeOutcome plain =
      RunExchange(GetParam(), Precision::kFP32, /*overlap=*/false);
  for (const bool overlap : {false, true}) {
    const ExchangeOutcome shuffled = RunExchange(
        GetParam(), Precision::kFP32, overlap, /*shuffle=*/true);
    EXPECT_TRUE(shuffled.ranks_identical) << "overlap " << overlap;
    EXPECT_EQ(shuffled.fused_buffers, plain.fused_buffers)
        << "overlap " << overlap;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, OverlapTransports,
                         ::testing::Values(ReduceTransport::kMpiRing,
                                           ReduceTransport::kMpiTree,
                                           ReduceTransport::kHybrid));

TEST(OverlapExchange, AllRanksFinishBitIdenticalAcrossRanks) {
  const int p = 4;
  SimWorld world(p);
  std::vector<std::vector<float>> results(p);
  world.Run([&](Communicator& comm) {
    auto owned = MakeParams(comm.rank(), 6, 5);
    std::vector<Param*> params;
    for (auto& q : owned) params.push_back(q.get());
    ExchangerOptions opts;
    opts.transport = ReduceTransport::kMpiRing;
    opts.shuffle_ready_order = false;
    opts.fusion_threshold_bytes = 48;
    opts.overlap = true;
    GradientExchanger exchanger(opts, 11);
    // Two consecutive overlapped steps through one exchanger (the
    // persistent exchange thread is reused).
    for (int s = 0; s < 2; ++s) {
      exchanger.BeginStep(comm, params, nullptr, kNoTimeout);
      for (int i = 0; i < static_cast<int>(params.size()); ++i) {
        exchanger.NotifyGradReady(i);
      }
      const CollectiveResult r = exchanger.WaitAll();
      EXPECT_TRUE(r.ok());
    }
    std::vector<float>& flat = results[static_cast<std::size_t>(comm.rank())];
    for (Param* q : params) {
      flat.insert(flat.end(), q->grad.Data().begin(), q->grad.Data().end());
    }
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
  }
}

// ------------------------------------------------- trainer bit identity --

TEST(OverlapBitIdentity, TrainerOverlapOnMatchesOff) {
  ClimateDataset dataset(TinyData());
  TrainerOptions off = TinyTrainer();
  TrainerOptions on = off;
  on.exchanger.overlap = true;

  const TrainRunResult a = RunDistributedTraining(off, dataset, 4, 3, 8);
  const TrainRunResult b = RunDistributedTraining(on, dataset, 4, 3, 8);
  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.accuracy_history, b.accuracy_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
}

TEST(OverlapBitIdentity, TrainerOverlapOnMatchesOffFP16Wire) {
  ClimateDataset dataset(TinyData());
  TrainerOptions off = TinyTrainer();
  off.exchanger.wire_precision = Precision::kFP16;
  TrainerOptions on = off;
  on.exchanger.overlap = true;

  const TrainRunResult a = RunDistributedTraining(off, dataset, 4, 3, 8);
  const TrainRunResult b = RunDistributedTraining(on, dataset, 4, 3, 8);
  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
}

TEST(OverlapBitIdentity, HybridTransportAlsoMatches) {
  ClimateDataset dataset(TinyData());
  TrainerOptions off = TinyTrainer();
  off.exchanger.transport = ReduceTransport::kHybrid;
  off.exchanger.hybrid.topology.ranks_per_node = 2;
  off.exchanger.hybrid.mpi_ranks_per_node = 2;
  TrainerOptions on = off;
  on.exchanger.overlap = true;

  const TrainRunResult a = RunDistributedTraining(off, dataset, 4, 3, 8);
  const TrainRunResult b = RunDistributedTraining(on, dataset, 4, 3, 8);
  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
}

// --------------------------------------------------- bucket tag layout --

TEST(BucketTagLayout, StaysInsideOneGenerationSaltBudget) {
  EXPECT_GE(kBucketTagSlots, 1000);
  for (const int i : {0, 1, kBucketTagSlots - 1, kBucketTagSlots,
                      2 * kBucketTagSlots + 17, 100000, 1 << 28}) {
    const int tag = BucketTag(i);
    EXPECT_GE(tag, kBucketTagBase) << "bucket " << i;
    // Every tag a bucket's collective can touch (tag .. tag+stride)
    // stays below the generation stride, so GenTag(BucketTag(i)) can
    // never alias the next generation's namespace.
    EXPECT_LE(tag + kBucketTagStride, kGenTagStride) << "bucket " << i;
  }
  // Regression: the pre-fix layout (20000 + i*700) crossed into
  // generation N+1's tag namespace at bucket 1400.
  EXPECT_GE(20000 + 1400 * 700, kGenTagStride);
}

TEST(BucketTagLayout, ExchangeSurvivesMoreBucketsThanTagSlots) {
  // Tiny fusion threshold: every tensor becomes its own bucket, and with
  // more tensors than tag slots the window index wraps — the collective
  // must still finish with correctly averaged gradients.
  const int n = kBucketTagSlots + 40;
  SimWorld world(2);
  std::int64_t buffers = 0;
  world.Run([&](Communicator& comm) {
    std::vector<std::unique_ptr<Param>> owned;
    std::vector<Param*> params;
    for (int i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<Param>("p" + std::to_string(i),
                                              Tensor::Zeros(TensorShape{1})));
      owned.back()->grad[0] = static_cast<float>(comm.rank() + 1);
      params.push_back(owned.back().get());
    }
    ExchangerOptions opts;
    opts.transport = ReduceTransport::kMpiRing;
    opts.shuffle_ready_order = false;
    opts.fusion_threshold_bytes = 1;
    GradientExchanger exchanger(opts, 3);
    exchanger.Exchange(comm, params);
    for (int i = 0; i < n; ++i) {
      ASSERT_FLOAT_EQ(params[static_cast<std::size_t>(i)]->grad[0], 1.5f)
          << "tensor " << i;
    }
    if (comm.rank() == 0) buffers = exchanger.last_fused_buffers();
  });
  EXPECT_EQ(buffers, n);
}

// ------------------------------------------------------ env overrides --

/// FromEnv's error text with `name=value` set, or "" when it accepted it.
std::string FromEnvError(const char* name, const char* value) {
  ::setenv(name, value, 1);
  std::string what;
  try {
    (void)ExchangerOptions::FromEnv(ExchangerOptions{});
  } catch (const std::exception& e) {
    what = e.what();
  }
  ::unsetenv(name);
  return what;
}

TEST(ExchangerOptionsEnv, FromEnvOverridesProgrammaticOptions) {
  ::setenv("EXACLIM_OVERLAP", "1", 1);
  ::setenv("EXACLIM_FUSION_BYTES", "123456", 1);
  ::setenv("EXACLIM_WIRE", "fp16", 1);
  const ExchangerOptions on = ExchangerOptions::FromEnv(ExchangerOptions{});
  EXPECT_TRUE(on.overlap);
  EXPECT_EQ(on.fusion_threshold_bytes, 123456);
  EXPECT_EQ(on.wire_precision, Precision::kFP16);

  ::setenv("EXACLIM_OVERLAP", "off", 1);
  ::setenv("EXACLIM_WIRE", "fp32", 1);
  ExchangerOptions base;
  base.overlap = true;
  base.wire_precision = Precision::kFP16;
  const ExchangerOptions off = ExchangerOptions::FromEnv(base);
  EXPECT_FALSE(off.overlap);
  EXPECT_EQ(off.wire_precision, Precision::kFP32);

  ::unsetenv("EXACLIM_OVERLAP");
  ::unsetenv("EXACLIM_FUSION_BYTES");
  ::unsetenv("EXACLIM_WIRE");

  // Every documented spelling is accepted...
  for (const char* v : {"on", "1", "true", "off", "0", "false"}) {
    EXPECT_EQ(FromEnvError("EXACLIM_OVERLAP", v), "") << v;
  }
  // ...and anything else fails with a message naming the variable,
  // instead of silently meaning something else.
  for (const auto& [name, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"EXACLIM_OVERLAP", "no"},
           {"EXACLIM_OVERLAP", ""},
           {"EXACLIM_FUSION_BYTES", "4MB"},
           {"EXACLIM_FUSION_BYTES", "abc"},
           {"EXACLIM_FUSION_BYTES", "0"},
           {"EXACLIM_FUSION_BYTES", "-4096"},
           {"EXACLIM_FUSION_BYTES", ""},
           {"EXACLIM_FUSION_BYTES", "99999999999999999999"},
           {"EXACLIM_WIRE", "bf16"},
           {"EXACLIM_WIRE", ""}}) {
    const std::string what = FromEnvError(name, value);
    EXPECT_NE(what.find(name), std::string::npos)
        << name << "='" << value << "' gave: '" << what << "'";
  }
}

// ------------------------------------------- binary16 overflow boundary --

TEST(HalfOverflowBoundary, ThresholdBitPatternIsSixtyFiveThousandFiveTwenty) {
  // CountHalfNonFinite compares against 0x477ff000 — the float 65520.0f,
  // the exact RTNE overflow boundary of binary16 (halfway between the
  // max finite half 65504 and the would-be 65536; the tie rounds to the
  // even candidate, which is infinity).
  EXPECT_EQ(std::bit_cast<std::uint32_t>(65520.0f), 0x477ff000u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(65504.0f), 0x477fe000u);

  EXPECT_TRUE(Half(65504.0f).IsFinite());
  EXPECT_EQ(Half(65504.0f).bits(), 0x7bffu);
  // Just below the boundary rounds DOWN to 65504 — still finite.
  EXPECT_TRUE(Half(std::nextafterf(65520.0f, 0.0f)).IsFinite());
  EXPECT_EQ(Half(std::nextafterf(65520.0f, 0.0f)).bits(), 0x7bffu);
  // The boundary itself is a tie: round-to-even overflows to +inf.
  EXPECT_TRUE(Half(65520.0f).IsInf());
  EXPECT_TRUE(Half(-65520.0f).IsInf());
  EXPECT_TRUE(Half(65536.0f).IsInf());
  EXPECT_TRUE(
      Half(std::numeric_limits<float>::quiet_NaN()).IsNan());
}

TEST(HalfOverflowBoundary, FuzzCounterPackAndRtneAgree) {
  // Fuzz the overflow boundary: for every value, the three FP16 paths —
  // RTNE conversion (Half), the counter's bit threshold
  // (CountHalfNonFinite) and the packed wire (PackHalf/UnpackHalf) —
  // must agree on finiteness, and the packed bits must equal the RTNE
  // bits (the wire is exactly the storage conversion).
  std::mt19937 rng(0xC0FFEEu);
  std::vector<float> values{
      0.0f,      -0.0f,    1.0f,      65504.0f,  -65504.0f,
      65519.5f,  65520.0f, -65520.0f, 65536.0f,  1e30f,
      -1e30f,    1e-8f,    std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::nextafterf(65520.0f, 0.0f),
      std::nextafterf(65520.0f, 1e30f)};
  std::uniform_real_distribution<float> near_boundary(65400.0f, 65700.0f);
  std::uniform_real_distribution<float> wide(-1e6f, 1e6f);
  for (int i = 0; i < 2000; ++i) values.push_back(near_boundary(rng));
  for (int i = 0; i < 2000; ++i) values.push_back(wide(rng));
  for (int i = 0; i < 500; ++i) {
    // Sign/mantissa fuzz right at the boundary neighbourhood.
    values.push_back((rng() % 2 ? 1.0f : -1.0f) *
                     (65519.0f + static_cast<float>(rng() % 4096) / 1024.0f));
  }

  std::int64_t expected_nonfinite = 0;
  for (const float v : values) {
    const Half h(v);
    const bool finite = h.IsFinite();
    if (!finite) ++expected_nonfinite;

    const float one[1] = {v};
    EXPECT_EQ(CountHalfNonFinite(std::span<const float>(one, 1)),
              finite ? 0 : 1)
        << "value " << v;

    std::uint16_t packed[1] = {0};
    PackHalf(std::span<const float>(one, 1),
             std::span<std::uint16_t>(packed, 1));
    EXPECT_EQ(packed[0], h.bits()) << "value " << v;

    float unpacked[1] = {0.0f};
    UnpackHalf(std::span<const std::uint16_t>(packed, 1),
               std::span<float>(unpacked, 1));
    EXPECT_EQ(std::isfinite(unpacked[0]), finite) << "value " << v;
  }
  // And the batched counter agrees with the per-element sum.
  EXPECT_EQ(CountHalfNonFinite(values), expected_nonfinite);
}

// --------------------------------------------------- wire byte halving --

TEST(WireBytes, FP16WireHalvesBytesOnTheWire) {
  const std::int64_t elems = 40000;
  auto run = [&](Precision wire) {
    SimWorld world(4);
    world.Run([&](Communicator& comm) {
      Param param("p", Tensor::Zeros(TensorShape{elems}));
      param.grad.Fill(static_cast<float>(comm.rank() + 1));
      ExchangerOptions opts;
      opts.transport = ReduceTransport::kMpiRing;
      opts.shuffle_ready_order = false;
      opts.wire_precision = wire;
      GradientExchanger exchanger(opts, 3);
      std::vector<Param*> params{&param};
      exchanger.Exchange(comm, params);
      EXPECT_FLOAT_EQ(param.grad[0], 2.5f);  // mean of 1..4, half-exact
    });
    return world.total_bytes();
  };
  const std::int64_t fp32 = run(Precision::kFP32);
  const std::int64_t fp16 = run(Precision::kFP16);
  // Data dominates control traffic at this size: the FP16 wire must cut
  // total bytes to about half, not merely relabel the accounting.
  EXPECT_LT(fp16, fp32 * 55 / 100);
  EXPECT_GT(fp16, fp32 * 45 / 100);
}

// ----------------------------------------------------------- chaos soak --
//
// The same deterministic schedule as test_elastic's ChaosSmoke, with the
// exchange overlapped: rank 4 dies at its step-3 entry, rank 1 dies
// mid-exchange at step 4 — this time on its dedicated exchange thread,
// with the RankKilledError rethrown out of WaitAll on the trainer thread.

constexpr char kChaosSchedule[] =
    "elastic.kill.4:1:7:1:0:3,elastic.exchange.kill.1:1:9:1:0:4";

TEST(OverlapChaosSmoke, TrainingSurvivesKillsWithOverlappedExchange) {
  FaultScope scope;
  FaultInjector::Global().ArmFromString(kChaosSchedule);
  ClimateDataset dataset(TinyData());
  TrainerOptions opts = TinyTrainer();
  opts.exchanger.overlap = true;
  opts.elastic.enabled = true;
  opts.elastic.collective_timeout_s = 30.0;
  opts.elastic.rebuild_timeout_s = 20.0;
  const TrainRunResult result =
      RunDistributedTraining(opts, dataset, /*ranks=*/6, /*steps=*/7,
                             /*images_per_rank=*/8);

  EXPECT_EQ(result.survived, (std::vector<char>{1, 0, 1, 1, 0, 1}));
  EXPECT_EQ(result.final_world_size, 4);
  EXPECT_EQ(result.final_generation, 2);
  EXPECT_EQ(result.recoveries, 2);

  const std::uint32_t crc = result.survivor_param_crcs[0];
  EXPECT_NE(crc, 0u);
  for (const int rank : {2, 3, 5}) {
    EXPECT_EQ(result.survivor_param_crcs[static_cast<std::size_t>(rank)],
              crc)
        << "rank " << rank << " diverged";
  }
  ASSERT_EQ(result.loss_history.size(), 7u);
  for (const double loss : result.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, 0.0);
  }
}

}  // namespace
}  // namespace exaclim
