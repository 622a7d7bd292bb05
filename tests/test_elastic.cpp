// Elastic-training tests (DESIGN §13): deadline-aware collectives under
// rank death (the kill-position matrix), survivor-consensus world
// rebuild, live-peer weight resync, bit-identity of elastic-on with no
// faults, and the seeded chaos soak that kills two ranks mid-run.
//
// Deadlines in here are deliberately generous: dead-rank detection is
// poll-sliced (~25 ms regardless of where in the topology the victim
// sits), so a big deadline costs nothing on the failure path while
// keeping slow-machine (TSan) runs free of spurious timeouts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/elastic.hpp"
#include "comm/world.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "hvd/control_plane.hpp"
#include "hvd/hybrid.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "stats/stats.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

struct FaultScope {
  FaultScope() { FaultInjector::Global().Reset(); }
  ~FaultScope() { FaultInjector::Global().Reset(); }
};

ClimateDataset::Options TinyData() {
  ClimateDataset::Options o;
  o.num_samples = 40;
  o.generator.height = 32;
  o.generator.width = 32;
  o.channels = {kTMQ, kU850, kV850, kPSL};
  return o;
}

TrainerOptions TinyElasticTrainer() {
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.learning_rate = 2e-3f;
  o.exchanger.transport = ReduceTransport::kMpiRing;
  o.elastic.enabled = true;
  // Failure detection does not wait for these (dead-rank scans fire
  // within a slice); they only bound genuinely wedged peers.
  o.elastic.collective_timeout_s = 30.0;
  o.elastic.rebuild_timeout_s = 20.0;
  return o;
}

// ------------------------------------------------- ElasticOptions env --

TEST(ElasticOptionsEnv, FromEnvOverridesProgrammaticOptions) {
  ::setenv("EXACLIM_ELASTIC", "1", 1);
  ::setenv("EXACLIM_ELASTIC_TIMEOUT", "2.5", 1);
  ::setenv("EXACLIM_ELASTIC_REBUILD_TIMEOUT", "7.25", 1);
  const ElasticOptions on = ElasticOptions::FromEnv(ElasticOptions{});
  EXPECT_TRUE(on.enabled);
  EXPECT_DOUBLE_EQ(on.collective_timeout_s, 2.5);
  EXPECT_DOUBLE_EQ(on.rebuild_timeout_s, 7.25);

  ::setenv("EXACLIM_ELASTIC", "off", 1);
  ElasticOptions base;
  base.enabled = true;
  EXPECT_FALSE(ElasticOptions::FromEnv(base).enabled);

  ::unsetenv("EXACLIM_ELASTIC");
  ::unsetenv("EXACLIM_ELASTIC_TIMEOUT");
  ::unsetenv("EXACLIM_ELASTIC_REBUILD_TIMEOUT");
  EXPECT_FALSE(ElasticOptions::FromEnv(ElasticOptions{}).enabled);

  // Every documented spelling is accepted with its meaning...
  for (const auto& [value, on] : std::vector<std::pair<const char*, bool>>{
           {"on", true}, {"1", true}, {"true", true},
           {"off", false}, {"0", false}, {"false", false}}) {
    ::setenv("EXACLIM_ELASTIC", value, 1);
    ElasticOptions flipped;
    flipped.enabled = !on;
    EXPECT_EQ(ElasticOptions::FromEnv(flipped).enabled, on) << value;
  }
  ::unsetenv("EXACLIM_ELASTIC");
  ::setenv("EXACLIM_ELASTIC_TIMEOUT", "1e-3", 1);
  ::setenv("EXACLIM_ELASTIC_REBUILD_TIMEOUT", "30", 1);
  const ElasticOptions numbers = ElasticOptions::FromEnv(ElasticOptions{});
  EXPECT_DOUBLE_EQ(numbers.collective_timeout_s, 1e-3);
  EXPECT_DOUBLE_EQ(numbers.rebuild_timeout_s, 30.0);
  ::unsetenv("EXACLIM_ELASTIC_TIMEOUT");
  ::unsetenv("EXACLIM_ELASTIC_REBUILD_TIMEOUT");

  // ...and anything else fails with an Error naming the variable, instead
  // of silently meaning something else or escaping as a std::stod error.
  for (const auto& [name, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"EXACLIM_ELASTIC", "no"},
           {"EXACLIM_ELASTIC", "yes"},
           {"EXACLIM_ELASTIC", ""},
           {"EXACLIM_ELASTIC_TIMEOUT", "abc"},
           {"EXACLIM_ELASTIC_TIMEOUT", "5s"},
           {"EXACLIM_ELASTIC_TIMEOUT", "-1"},
           {"EXACLIM_ELASTIC_TIMEOUT", "0"},
           {"EXACLIM_ELASTIC_TIMEOUT", "nan"},
           {"EXACLIM_ELASTIC_TIMEOUT", "inf"},
           {"EXACLIM_ELASTIC_TIMEOUT", ""},
           {"EXACLIM_ELASTIC_REBUILD_TIMEOUT", "abc"},
           {"EXACLIM_ELASTIC_REBUILD_TIMEOUT", "2.5 "},
           {"EXACLIM_ELASTIC_REBUILD_TIMEOUT", "0"}}) {
    ::setenv(name, value, 1);
    std::string what;
    try {
      (void)ElasticOptions::FromEnv(ElasticOptions{});
    } catch (const Error& e) {
      what = e.what();
    } catch (const std::exception& e) {
      what = std::string("non-Error exception: ") + e.what();
    }
    ::unsetenv(name);
    EXPECT_NE(what.find(name), std::string::npos)
        << name << "='" << value << "' gave: '" << what << "'";
    EXPECT_EQ(what.find("non-Error"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------ Deadline --

TEST(Deadline, UnboundedNeverExpires) {
  const Deadline d(kNoTimeout);
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), kNoTimeout);
}

TEST(Deadline, BoundedCountsDownAndExpires) {
  const Deadline d(0.05);
  EXPECT_LE(d.Remaining(), 0.05);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.Remaining(), 0.0);
}

// --------------------------------------------- collective kill matrix --
//
// (algorithm) x (killed-rank position): every survivor's bounded
// collective must return kPeerDead naming the actual victim — including
// survivors whose wait edge is with a live peer that is itself stuck —
// and must never hang.

enum class Scheme { kRing, kTree, kHybrid };

void RunKillMatrixCase(Scheme scheme, int victim) {
  const int n = scheme == Scheme::kHybrid ? 4 : 6;
  HybridAllreduceOptions hybrid;
  hybrid.topology.ranks_per_node = 2;
  hybrid.mpi_ranks_per_node = 2;

  std::atomic<int> survivors_checked{0};
  SimWorld world(n);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == victim) {
      comm.KillSelf();
      return;
    }
    std::vector<float> data(64, static_cast<float>(comm.rank() + 1));
    const Deadline deadline(30.0);
    CollectiveResult r;
    switch (scheme) {
      case Scheme::kRing:
        r = TryGroupAllreduceRing(comm, RankGroup::World(comm), data,
                                  deadline, 1500);
        break;
      case Scheme::kTree:
        r = TryGroupAllreduceTree(comm, RankGroup::World(comm), data,
                                  deadline, 1500);
        break;
      case Scheme::kHybrid:
        r = TryHybridAllreduce(comm, data, hybrid, deadline);
        break;
    }
    EXPECT_EQ(r.status, CollectiveStatus::kPeerDead)
        << "rank " << comm.rank() << " got " << ToString(r.status);
    EXPECT_EQ(r.suspect_rank, victim) << "rank " << comm.rank();
    survivors_checked.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(survivors_checked.load(), n - 1);
}

TEST(CollectiveKillMatrix, RingFirstRankDies) {
  RunKillMatrixCase(Scheme::kRing, 0);
}
TEST(CollectiveKillMatrix, RingMiddleRankDies) {
  RunKillMatrixCase(Scheme::kRing, 3);
}
TEST(CollectiveKillMatrix, RingLastRankDies) {
  RunKillMatrixCase(Scheme::kRing, 5);
}
TEST(CollectiveKillMatrix, TreeFirstRankDies) {
  RunKillMatrixCase(Scheme::kTree, 0);
}
TEST(CollectiveKillMatrix, TreeMiddleRankDies) {
  RunKillMatrixCase(Scheme::kTree, 3);
}
TEST(CollectiveKillMatrix, TreeLastRankDies) {
  RunKillMatrixCase(Scheme::kTree, 5);
}
TEST(CollectiveKillMatrix, HybridFirstRankDies) {
  RunKillMatrixCase(Scheme::kHybrid, 0);
}
TEST(CollectiveKillMatrix, HybridMiddleRankDies) {
  RunKillMatrixCase(Scheme::kHybrid, 1);
}
TEST(CollectiveKillMatrix, HybridLastRankDies) {
  RunKillMatrixCase(Scheme::kHybrid, 3);
}

// ------------------------------------------- generation >= 1 timeouts --
//
// Ex-members stay dead in the world forever, so a timeout inside a
// later generation must not be blamed on them: over the survivor view a
// live-but-silent member surfaces as kTimeout naming the rank whose
// message never arrived.

TEST(GenerationTimeout, SilentMemberIsNotBlamedOnADeadExMember) {
  const std::vector<int> view{1, 2, 3};
  std::atomic<int> checked{0};
  SimWorld world(4);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.KillSelf();  // the ex-member dropped by generation 1
      return;
    }
    if (comm.rank() == 3) return;  // alive, but never joins
    const RankGroup group(view, comm.rank());

    // Rank 1 waits on its ring predecessor 3; rank 2 gets rank 1's first
    // shard, then waits on rank 1, which is stuck on rank 3.
    std::vector<float> data(8, 1.0f);
    const CollectiveResult ring = TryGroupAllreduceRing(
        comm, group, data, Deadline(0.3), kGenTagStride + 1500);
    EXPECT_EQ(ring.status, CollectiveStatus::kTimeout)
        << "rank " << comm.rank() << " ring got " << ToString(ring.status)
        << " suspect " << ring.suspect_rank;
    EXPECT_EQ(ring.suspect_rank, comm.rank() == 1 ? 3 : 1);

    // Radix-2 tree over the view: rank 1 is the root collecting
    // readiness from any child, rank 2 waits on rank 1 for the order.
    const std::vector<int> ready{0, 1, 2};
    std::vector<int> order;
    const CollectiveResult plane =
        HierarchicalControlPlane(2).TryNegotiateOrder(
            comm, group, ready, Deadline(0.3), kGenTagStride, &order);
    EXPECT_EQ(plane.status, CollectiveStatus::kTimeout)
        << "rank " << comm.rank() << " negotiation got "
        << ToString(plane.status) << " suspect " << plane.suspect_rank;
    EXPECT_EQ(plane.suspect_rank, comm.rank() == 1 ? kAnySource : 1);
    checked.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(checked.load(), 2);
}

// -------------------------------------------------------- ElasticWorld --

TEST(ElasticWorld, InitialViewIsIdentity) {
  SimWorld world(3);
  world.Run([&](Communicator& comm) {
    ElasticOptions eo;
    eo.enabled = true;
    const ElasticWorld elastic(comm, eo);
    EXPECT_EQ(elastic.generation(), 0);
    EXPECT_EQ(elastic.view().size(), 3);
    EXPECT_EQ(elastic.view().my_index, comm.rank());
    EXPECT_EQ(elastic.GenTag(42), 42);
  });
}

void RunRebuildCase(int world_size, int victim) {
  std::atomic<int> rebuilt{0};
  SimWorld world(world_size);
  world.Run([&](Communicator& comm) {
    ElasticOptions eo;
    eo.enabled = true;
    eo.rebuild_timeout_s = 20.0;
    ElasticWorld elastic(comm, eo);
    if (comm.rank() == victim) {
      comm.KillSelf();
      return;
    }
    // Mirrors training: a failed exchange precedes Rebuild, so by the
    // time survivors enter the consensus the death is observable.
    while (!comm.PeerDead(victim)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const CollectiveResult r = elastic.Rebuild();
    ASSERT_TRUE(r.ok()) << "rank " << comm.rank() << ": "
                        << ToString(r.status);
    EXPECT_EQ(elastic.generation(), 1);
    const ElasticView& view = elastic.view();
    EXPECT_EQ(view.size(), world_size - 1);
    EXPECT_FALSE(view.IsMember(victim));
    EXPECT_EQ(view.my_index, view.IndexOf(comm.rank()));
    // Members are the ascending survivors, densely re-ranked.
    int expected_index = 0;
    for (int rank = 0; rank < world_size; ++rank) {
      if (rank == victim) continue;
      EXPECT_EQ(view.WorldRank(expected_index), rank);
      ++expected_index;
    }
    // Tags moved to the new generation's namespace.
    EXPECT_EQ(elastic.GenTag(42), 42 + kGenTagStride);
    rebuilt.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(rebuilt.load(), world_size - 1);
}

TEST(ElasticWorld, RebuildDropsAMiddleRank) { RunRebuildCase(5, 2); }

TEST(ElasticWorld, RebuildSurvivesRootDeath) {
  // Killing rank 0 forces the consensus to elect a new tree root.
  RunRebuildCase(5, 0);
}

TEST(ElasticWorld, BackToBackRebuilds) {
  SimWorld world(4);
  std::atomic<int> completed{0};
  world.Run([&](Communicator& comm) {
    ElasticOptions eo;
    eo.enabled = true;
    eo.rebuild_timeout_s = 20.0;
    ElasticWorld elastic(comm, eo);
    for (const int victim : {3, 1}) {
      if (comm.rank() == victim) {
        comm.KillSelf();
        return;
      }
      while (!comm.PeerDead(victim)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const CollectiveResult r = elastic.Rebuild();
      ASSERT_TRUE(r.ok()) << "rank " << comm.rank();
    }
    EXPECT_EQ(elastic.generation(), 2);
    EXPECT_EQ(elastic.view().size(), 2);
    EXPECT_TRUE(elastic.view().IsMember(0));
    EXPECT_TRUE(elastic.view().IsMember(2));
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(completed.load(), 2);
}

// ------------------------------------------------------------- Resync --

TEST(ElasticResync, BroadcastRealignsDivergedReplicas) {
  const TrainerOptions opts = TinyElasticTrainer();
  const std::vector<float> class_weights(
      static_cast<std::size_t>(kNumClimateClasses), 1.0f);
  const int ranks = 3;
  std::vector<std::uint32_t> crcs(static_cast<std::size_t>(ranks), 0);
  std::vector<std::int64_t> bytes(static_cast<std::size_t>(ranks), 0);
  SimWorld world(ranks);
  world.Run([&](Communicator& comm) {
    RankTrainer trainer(opts, class_weights, comm.rank());
    ElasticWorld elastic(comm, opts.elastic);
    if (comm.rank() != 0) {
      // Diverge the non-root replicas; resync must erase this.
      auto data = trainer.params().front()->value.Data();
      data[0] += static_cast<float>(comm.rank());
    }
    std::int64_t b = 0;
    const CollectiveResult r = trainer.ResyncFromRoot(comm, elastic, &b);
    ASSERT_TRUE(r.ok()) << "rank " << comm.rank();
    crcs[static_cast<std::size_t>(comm.rank())] = trainer.ParamsCrc32();
    bytes[static_cast<std::size_t>(comm.rank())] = b;
  });
  EXPECT_NE(crcs[0], 0u);
  EXPECT_EQ(crcs[1], crcs[0]);
  EXPECT_EQ(crcs[2], crcs[0]);
  for (const std::int64_t b : bytes) {
    EXPECT_GT(b, 0);
    EXPECT_EQ(b, bytes[0]);
  }
}

// ------------------------------------------------------- bit identity --

TEST(ElasticBitIdentity, ElasticOnWithNoFaultsMatchesElasticOff) {
  // The same binary with elastic enabled but no faults armed must
  // produce bit-identical results: generation 0 runs the exact same
  // algorithms over the exact same rank sets as the non-elastic path.
  //
  // The readiness shuffle stays off here: it emulates TensorFlow's
  // timing-dependent scheduler, which makes the *negotiated reduce
  // order* (and with it floating-point grouping) vary run to run on
  // both paths. With deterministic readiness the comparison isolates
  // exactly the elastic machinery.
  ClimateDataset dataset(TinyData());
  TrainerOptions off = TinyElasticTrainer();
  off.exchanger.shuffle_ready_order = false;
  off.elastic.enabled = false;
  TrainerOptions on = TinyElasticTrainer();
  on.exchanger.shuffle_ready_order = false;

  const TrainRunResult a = RunDistributedTraining(off, dataset, 4, 4, 8);
  const TrainRunResult b = RunDistributedTraining(on, dataset, 4, 4, 8);

  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.accuracy_history, b.accuracy_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
  EXPECT_EQ(b.final_generation, 0);
  EXPECT_EQ(b.recoveries, 0);
  EXPECT_EQ(b.resync_bytes, 0);
  EXPECT_EQ(b.final_world_size, 4);
  EXPECT_EQ(b.survived, std::vector<char>(4, 1));
}

TEST(ElasticBitIdentity, HybridTransportAlsoMatches) {
  ClimateDataset dataset(TinyData());
  TrainerOptions off = TinyElasticTrainer();
  off.exchanger.shuffle_ready_order = false;
  off.exchanger.transport = ReduceTransport::kHybrid;
  off.exchanger.hybrid.topology.ranks_per_node = 2;
  off.exchanger.hybrid.mpi_ranks_per_node = 2;
  off.elastic.enabled = false;
  TrainerOptions on = off;
  on.elastic = TinyElasticTrainer().elastic;

  const TrainRunResult a = RunDistributedTraining(off, dataset, 4, 3, 8);
  const TrainRunResult b = RunDistributedTraining(on, dataset, 4, 3, 8);
  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
}

// ---------------------------------------------- slow backward deadline --
//
// The collective timeout bounds each bucket's exchange, not backward: a
// backward pass longer than collective_timeout_s on every rank must not
// time the step out. The deadline is armed per bucket when the exchange
// thread takes it, so this holds both for a one-bucket step (the bucket
// closes after backward) and for a multi-bucket step whose early
// buckets reduce mid-backward while the last one waits out the delay.

TEST(ElasticDeadline, BackwardLongerThanCollectiveTimeoutStillExchanges) {
  FaultScope scope;
  ClimateDataset dataset(TinyData());
  TrainerOptions opts = TinyElasticTrainer();
  opts.exchanger.shuffle_ready_order = false;
  // Still far above the exchange itself plus the ranks' compute skew,
  // even under TSan; only the injected backward delay exceeds it.
  opts.elastic.collective_timeout_s = 1.0;
  const std::int64_t grad_bytes =
      RankTrainer(opts,
                  std::vector<float>(
                      static_cast<std::size_t>(kNumClimateClasses), 1.0f),
                  0)
          .ParameterCount() *
      static_cast<std::int64_t>(sizeof(float));

  constexpr std::int64_t kOneBucket = std::int64_t{1} << 30;
  constexpr std::int64_t kSmallBuckets = 4 << 10;
  for (const std::int64_t threshold : {kOneBucket, kSmallBuckets}) {
    SCOPED_TRACE("fusion_threshold_bytes " + std::to_string(threshold));
    // A bucket of more than one tensor never exceeds the threshold, so
    // gradients worth several small thresholds split into several
    // buckets, all but the last closing during backward.
    if (threshold == kSmallBuckets) {
      ASSERT_GT(grad_bytes, 3 * threshold);
    }
    FaultInjector::Global().Reset();
    opts.exchanger.fusion_threshold_bytes = threshold;
    const TrainRunResult fast =
        RunDistributedTraining(opts, dataset, 2, 2, 8);

    FaultSpec slow_backward;
    slow_backward.site = "step.backward.delay";
    slow_backward.delay_seconds = 1.5;
    // Every rank's backward in both steps (2 x 2). The budget also keeps
    // a regression from retrying forever: once spent, a rolled-back step
    // retries fast and the recovery count below catches it.
    slow_backward.max_triggers = 4;
    FaultInjector::Global().Arm(slow_backward);
    const TrainRunResult slow =
        RunDistributedTraining(opts, dataset, 2, 2, 8);

    EXPECT_EQ(FaultInjector::Global().InjectionCount("step.backward.delay"),
              4);
    EXPECT_EQ(slow.recoveries, 0);
    EXPECT_EQ(slow.final_generation, 0);
    EXPECT_EQ(slow.final_world_size, 2);
    EXPECT_EQ(slow.loss_history, fast.loss_history);
    EXPECT_EQ(slow.survivor_param_crcs, fast.survivor_param_crcs);
  }
}

// --------------------------------------------------------- chaos soak --
//
// Deterministic seeded schedule (DESIGN §13):
//   * rank 4 dies at its step-3 entry        -> generation 0 -> 1
//   * rank 1 dies mid-exchange at step 4     -> generation 1 -> 2
// Training continues on the shrunk world; survivors finish all 7 steps.

constexpr char kChaosSchedule[] =
    "elastic.kill.4:1:7:1:0:3,elastic.exchange.kill.1:1:9:1:0:4";

TrainRunResult RunChaosSoak(const ClimateDataset& dataset) {
  return RunDistributedTraining(TinyElasticTrainer(), dataset, /*ranks=*/6,
                                /*steps=*/7, /*images_per_rank=*/8);
}

void CheckChaosOutcome(const TrainRunResult& result) {
  EXPECT_EQ(result.survived,
            (std::vector<char>{1, 0, 1, 1, 0, 1}));
  EXPECT_EQ(result.final_world_size, 4);
  EXPECT_EQ(result.final_generation, 2);
  EXPECT_EQ(result.recoveries, 2);

  // Post-resync replicas are bit-identical across every survivor.
  const std::uint32_t crc = result.survivor_param_crcs[0];
  EXPECT_NE(crc, 0u);
  for (const int rank : {2, 3, 5}) {
    EXPECT_EQ(result.survivor_param_crcs[static_cast<std::size_t>(rank)],
              crc)
        << "rank " << rank << " diverged";
  }
  EXPECT_EQ(result.survivor_param_crcs[1], 0u);
  EXPECT_EQ(result.survivor_param_crcs[4], 0u);

  // Two recoveries re-broadcast the full parameter blob each time.
  RankTrainer probe(TinyElasticTrainer(),
                    std::vector<float>(
                        static_cast<std::size_t>(kNumClimateClasses), 1.0f),
                    0);
  EXPECT_EQ(result.resync_bytes,
            2 * probe.ParameterCount() *
                static_cast<std::int64_t>(sizeof(float)));

  // Every step index was filled in by the lowest live rank.
  ASSERT_EQ(result.loss_history.size(), 7u);
  for (const double loss : result.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, 0.0);
  }
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

TEST(ChaosSmoke, TrainingSurvivesTwoMidRunKills) {
  FaultScope scope;
  FaultInjector& injector = FaultInjector::Global();
  // tools/ci.sh chaos-smoke drives this test through EXACLIM_FAULTS to
  // exercise the env-driven arming path; standalone runs arm the same
  // schedule programmatically.
  if (injector.ArmFromEnv() == 0) {
    injector.ArmFromString(kChaosSchedule);
  }
  obs::Enable();
  ClimateDataset dataset(TinyData());
  const TrainRunResult result = RunChaosSoak(dataset);
  CheckChaosOutcome(result);

  if (auto* g = obs::GaugeOrNull("elastic.generation")) {
    EXPECT_EQ(g->value(), 2.0);
  }
  // 5 survivors recover from the first death, 4 from the second.
  if (auto* c = obs::CounterOrNull("elastic.recoveries")) {
    EXPECT_EQ(c->value(), 9);
  }
  if (auto* c = obs::CounterOrNull("elastic.resync_bytes")) {
    EXPECT_GT(c->value(), 0);
  }
  obs::Disable();

  // Bounded loss regression: losing a third of the world mid-run must
  // not blow the loss up relative to an unfaulted reference run.
  FaultInjector::Global().Reset();
  const TrainRunResult reference = RunChaosSoak(dataset);
  EXPECT_EQ(reference.recoveries, 0);
  EXPECT_TRUE(std::isfinite(reference.final_loss));
  EXPECT_LT(result.final_loss, reference.final_loss * 1.5 + 0.5);
}

}  // namespace
}  // namespace exaclim
