// Fault-injection and fault-tolerance layer tests (DESIGN §8): the
// injector and retry policy themselves, comm timeouts and rank death,
// staging owner-failure degradation, pipeline producer recovery, and
// checksummed atomic checkpoints with epoch resume.
//
// Every test that arms the global injector wraps itself in FaultScope so
// state can never leak between tests (the injector is process-global).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/world.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "io/ncf.hpp"
#include "io/pipeline.hpp"
#include "io/staging.hpp"
#include "models/tiramisu.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

namespace fs = std::filesystem;

struct FaultScope {
  FaultScope() { FaultInjector::Global().Reset(); }
  ~FaultScope() { FaultInjector::Global().Reset(); }
};

FaultSpec Spec(std::string site, double probability = 1.0,
               std::uint64_t seed = 0, int max_triggers = -1) {
  FaultSpec s;
  s.site = std::move(site);
  s.probability = probability;
  s.seed = seed;
  s.max_triggers = max_triggers;
  return s;
}

// ------------------------------------------------------- FaultInjector --

TEST(FaultInjector, UnarmedSiteNeverFires) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  EXPECT_EQ(inj.ArmedSiteCount(), 0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.ShouldInject("nope"));
  EXPECT_EQ(inj.TotalInjections(), 0);
}

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  const auto draw = [&](std::uint64_t seed) {
    inj.Reset();
    inj.Arm(Spec("x", 0.5, seed));
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) decisions.push_back(inj.ShouldInject("x"));
    return decisions;
  };
  const auto a = draw(42);
  const auto b = draw(42);
  const auto c = draw(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // A p=0.5 stream over 200 draws fires a sane number of times.
  const auto fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 150);
}

TEST(FaultInjector, MaxTriggersBoundsInjections) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  inj.Arm(Spec("x", 1.0, 0, 3));
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += inj.ShouldInject("x") ? 1 : 0;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.InjectionCount("x"), 3);
  EXPECT_EQ(inj.TotalInjections(), 3);
}

TEST(FaultInjector, SkipFirstPinsTheFault) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  FaultSpec spec = Spec("x", 1.0, 0, 1);
  spec.skip_first = 5;
  inj.Arm(spec);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(inj.ShouldInject("x")) << i;
  EXPECT_TRUE(inj.ShouldInject("x"));
  EXPECT_FALSE(inj.ShouldInject("x"));  // budget spent
}

TEST(FaultInjector, DisarmAndReset) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  inj.Arm(Spec("a"));
  inj.Arm(Spec("b"));
  EXPECT_EQ(inj.ArmedSiteCount(), 2);
  inj.Disarm("a");
  EXPECT_FALSE(inj.IsArmed("a"));
  EXPECT_TRUE(inj.IsArmed("b"));
  inj.Reset();
  EXPECT_EQ(inj.ArmedSiteCount(), 0);
}

TEST(FaultInjector, ArmFromStringParsesTheGrammar) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  EXPECT_EQ(inj.ArmFromString("comm.delay:0.5:7:3:0.25:2,comm.kill.1:1"), 2);
  EXPECT_TRUE(inj.IsArmed("comm.delay"));
  EXPECT_TRUE(inj.IsArmed("comm.kill.1"));
  EXPECT_DOUBLE_EQ(inj.DelaySeconds("comm.delay"), 0.25);
  EXPECT_DOUBLE_EQ(inj.DelaySeconds("comm.kill.1"), 0.0);
}

TEST(FaultInjector, ArmFromStringRejectsMalformedSpecs) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  EXPECT_THROW(inj.ArmFromString("siteonly"), Error);
  EXPECT_THROW(inj.ArmFromString("fs.read:notanumber"), Error);
  EXPECT_THROW(inj.ArmFromString("fs.read:2.0"), Error);  // probability > 1
}

TEST(FaultInjector, ArmFromStringRejectsNonFiniteOrNegativeDelays) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  for (const char* site : {"comm.delay", "step.backward.delay"}) {
    for (const char* delay : {"nan", "inf", "-5"}) {
      const std::string spec = std::string(site) + ":1:1:1:" + delay;
      try {
        inj.ArmFromString(spec);
        FAIL() << spec << " armed";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("EXACLIM_FAULTS"), std::string::npos) << what;
        EXPECT_NE(what.find("delay_s"), std::string::npos) << what;
      }
      EXPECT_FALSE(inj.IsArmed(site)) << spec;
    }
    // Zero and positive finite delays still arm.
    EXPECT_EQ(inj.ArmFromString(std::string(site) + ":1:1:1:0"), 1);
    EXPECT_EQ(inj.ArmFromString(std::string(site) + ":1:1:1:0.01"), 1);
    EXPECT_DOUBLE_EQ(inj.DelaySeconds(site), 0.01);
  }
}

TEST(FaultInjector, ArmFromStringRejectsUnknownSitesListingValidOnes) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  // A typo'd site would arm silently and never fire — the parse layer
  // fails fast and names the whole vocabulary instead.
  try {
    inj.ArmFromString("comm.kil.1:1");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("comm.kil.1"), std::string::npos);
    EXPECT_NE(what.find("comm.kill.<rank>"), std::string::npos);
    EXPECT_NE(what.find("elastic.exchange.kill.<rank>"), std::string::npos);
    EXPECT_NE(what.find("pipeline.produce"), std::string::npos);
  }
  EXPECT_EQ(inj.ArmedSiteCount(), 0);
  // Parameterized kill sites take a rank number, nothing else.
  EXPECT_THROW(inj.ArmFromString("elastic.kill.x:1"), Error);
  EXPECT_THROW(inj.ArmFromString("elastic.kill.:1"), Error);
  // Programmatic Arm stays free-form (tests use synthetic sites), and
  // RegisterFaultSite extends the env vocabulary.
  inj.Arm(Spec("synthetic.site"));
  EXPECT_TRUE(inj.IsArmed("synthetic.site"));
  RegisterFaultSite("test.registered");
  EXPECT_EQ(inj.ArmFromString("test.registered:1"), 1);
  EXPECT_TRUE(inj.IsArmed("test.registered"));
}

// -------------------------------------------------------- RetryPolicy --

TEST(RetryPolicy, ScheduleIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_s = 0.01;
  policy.multiplier = 2.0;
  policy.max_backoff_s = 0.05;
  policy.jitter = 0.1;
  const auto a = policy.Schedule();
  const auto b = policy.Schedule();
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a, b);
  // Jitter keeps each entry within ±10% of the un-jittered exponential.
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double base = std::min(0.01 * std::pow(2.0, double(i)), 0.05);
    EXPECT_GE(a[i], base * 0.9 - 1e-12) << i;
    EXPECT_LE(a[i], base * 1.1 + 1e-12) << i;
  }
}

TEST(RetryPolicy, NoJitterScheduleIsMonotoneAndCapped) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_s = 1e-3;
  policy.max_backoff_s = 8e-3;
  policy.jitter = 0.0;
  const auto schedule = policy.Schedule();
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i], schedule[i - 1]);
  }
  EXPECT_DOUBLE_EQ(schedule.back(), 8e-3);
}

TEST(RetryPolicy, RunWithRetrySucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_s = 1e-4;
  policy.max_backoff_s = 1e-3;
  int calls = 0;
  const auto outcome = RunWithRetry(policy, "test", [&] {
    return ++calls >= 3;
  });
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(calls, 3);
  EXPECT_GT(outcome.slept_seconds, 0.0);
}

TEST(RetryPolicy, RunWithRetryGivesUpAtMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_s = 1e-4;
  policy.max_backoff_s = 1e-4;
  int calls = 0;
  const auto outcome = RunWithRetry(policy, "test", [&] {
    ++calls;
    return false;
  });
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicy, DeadlineStopsRetrying) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_s = 0.05;
  policy.max_backoff_s = 0.05;
  policy.deadline_s = 0.12;
  int calls = 0;
  const auto outcome = RunWithRetry(policy, "test", [&] {
    ++calls;
    return false;
  });
  EXPECT_FALSE(outcome.success);
  EXPECT_LT(calls, 10);  // nowhere near 100 attempts
}

// ---------------------------------------------------------- comm layer --

TEST(CommFault, RecvTimeoutExpiresWithNoSender) {
  SimWorld world(2);
  world.Run([&](Communicator& comm) {
    if (comm.rank() != 0) return;
    const auto start = std::chrono::steady_clock::now();
    const RecvResult r = comm.RecvTimeout(1, 5, 0.05);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_EQ(r.status, RecvStatus::kTimeout);
    EXPECT_GE(waited, 0.04);
  });
}

TEST(CommFault, TryRecvIsNonBlocking) {
  SimWorld world(1);
  world.Run([&](Communicator& comm) {
    EXPECT_EQ(comm.TryRecv(0, 5).status, RecvStatus::kTimeout);
    comm.SendValue(0, 5, 17);
    const RecvResult r = comm.TryRecv(0, 5);
    ASSERT_TRUE(r.ok());
    int v = 0;
    ASSERT_EQ(r.payload.size(), sizeof(int));
    std::memcpy(&v, r.payload.data(), sizeof(int));
    EXPECT_EQ(v, 17);
  });
}

TEST(CommFault, DelayedMessageArrivesAfterHold) {
  FaultScope scope;
  FaultSpec delay = Spec("comm.delay", 1.0, 0, 1);
  delay.delay_seconds = 0.05;
  FaultInjector::Global().Arm(delay);
  SimWorld world(2);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == 1) {
      comm.SendValue(0, 5, 99);
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    int v = 0;
    const RecvStatus status = comm.RecvValueTimeout(1, 5, 2.0, &v);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_EQ(status, RecvStatus::kOk);
    EXPECT_EQ(v, 99);
    EXPECT_GE(waited, 0.04);
  });
  EXPECT_EQ(FaultInjector::Global().InjectionCount("comm.delay"), 1);
}

TEST(CommFault, DroppedMessageNeverArrives) {
  FaultScope scope;
  FaultInjector::Global().Arm(Spec("comm.drop", 1.0, 0, 1));
  SimWorld world(2);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == 1) {
      comm.SendValue(0, 5, 1);  // dropped (the single trigger)
      comm.SendValue(0, 5, 2);  // delivered
      return;
    }
    int v = 0;
    ASSERT_EQ(comm.RecvValueTimeout(1, 5, 2.0, &v), RecvStatus::kOk);
    EXPECT_EQ(v, 2);
    EXPECT_EQ(comm.RecvTimeout(1, 5, 0.05).status, RecvStatus::kTimeout);
  });
  EXPECT_EQ(FaultInjector::Global().InjectionCount("comm.drop"), 1);
}

TEST(CommFault, KilledPeerReportsPeerDead) {
  SimWorld world(2);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == 1) {
      world.KillRank(1);
      return;
    }
    // Generous deadline: kPeerDead must arrive well before it.
    const auto start = std::chrono::steady_clock::now();
    const RecvResult r = comm.RecvTimeout(1, 5, 10.0);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_EQ(r.status, RecvStatus::kPeerDead);
    EXPECT_LT(waited, 5.0);
    EXPECT_TRUE(comm.PeerDead(1));
    // A blocking receive from a dead rank can never complete: loud error
    // instead of a silent hang.
    EXPECT_THROW((void)comm.RecvValue<int>(1, 5), Error);
  });
}

TEST(CommFault, ArmedKillSiteKillsRankAtRunEntry) {
  FaultScope scope;
  FaultInjector::Global().Arm(Spec("comm.kill.2", 1.0, 7));
  std::atomic<int> ran{0};
  SimWorld world(4);
  world.Run([&](Communicator& comm) {
    ran.fetch_add(1);
    if (comm.rank() == 0) {
      // The killed rank is observably dead to survivors.
      const RecvResult r = comm.RecvTimeout(2, 5, 5.0);
      EXPECT_EQ(r.status, RecvStatus::kPeerDead);
    }
  });
  EXPECT_EQ(ran.load(), 3);  // rank 2's function never ran
  EXPECT_EQ(FaultInjector::Global().InjectionCount("comm.kill.2"), 1);
}

TEST(CommFault, SendToDeadRankIsDropped) {
  SimWorld world(2);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == 1) {
      world.KillRank(1);
      return;
    }
    while (!comm.PeerDead(1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    comm.SendValue(1, 5, 3);  // silently dropped, no crash
  });
}

// ------------------------------------------------------- staging layer --

void FillFs(MockGlobalFs& store, int num_files) {
  for (int f = 0; f < num_files; ++f) {
    std::vector<std::byte> contents(16 + static_cast<std::size_t>(f));
    for (std::size_t i = 0; i < contents.size(); ++i) {
      contents[i] =
          static_cast<std::byte>((f * 7 + static_cast<int>(i)) % 251);
    }
    store.Put(f, std::move(contents));
  }
}

bool ContentsCorrect(int f, const std::vector<std::byte>& contents) {
  if (contents.size() != 16 + static_cast<std::size_t>(f)) return false;
  for (std::size_t i = 0; i < contents.size(); ++i) {
    if (contents[i] !=
        static_cast<std::byte>((f * 7 + static_cast<int>(i)) % 251)) {
      return false;
    }
  }
  return true;
}

StagingFtOptions TightFt() {
  StagingFtOptions ft;
  ft.count_timeout_s = 0.05;
  ft.serve_timeout_s = 0.05;
  ft.file_timeout_s = 0.05;
  ft.retry.max_attempts = 2;
  ft.retry.initial_backoff_s = 1e-3;
  ft.retry.max_backoff_s = 5e-3;
  return ft;
}

TEST(StagingFt, OneKilledOwnerDegradesOnlyItsShard) {
  FaultScope scope;
  FaultInjector::Global().Arm(Spec("comm.kill.1", 1.0, 7));
  const int p = 4;
  const int num_files = 8;
  MockGlobalFs store;
  FillFs(store, num_files);
  // Every rank needs every file, so rank 1's shard {1, 5} is on every
  // survivor's critical path.
  std::set<int> needs;
  for (int f = 0; f < num_files; ++f) needs.insert(f);

  std::atomic<int> wrong{0};
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    const auto staged = StageDataset(comm, store, needs, num_files, TightFt());
    EXPECT_EQ(staged.size(), needs.size());
    for (const auto& [f, contents] : staged) {
      if (!ContentsCorrect(f, contents)) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  // Dead owner's files: one degraded read per survivor. Everything else:
  // exactly once (the exactly-once property is confined to live shards).
  for (const int f : needs) {
    if (f % p == 1) {
      EXPECT_EQ(store.reads(f), p - 1) << "file " << f;
    } else {
      EXPECT_EQ(store.reads(f), 1) << "file " << f;
    }
  }
}

TEST(StagingFt, TwoKilledOwnersStillComplete) {
  FaultScope scope;
  FaultInjector::Global().ArmFromString("comm.kill.1:1:7,comm.kill.4:1:9");
  const int p = 6;
  const int num_files = 12;
  MockGlobalFs store;
  FillFs(store, num_files);
  std::set<int> needs;
  for (int f = 0; f < num_files; ++f) needs.insert(f);

  std::atomic<int> wrong{0};
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    const auto staged = StageDataset(comm, store, needs, num_files, TightFt());
    EXPECT_EQ(staged.size(), needs.size());
    for (const auto& [f, contents] : staged) {
      if (!ContentsCorrect(f, contents)) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  for (const int f : needs) {
    const int owner = f % p;
    if (owner == 1 || owner == 4) {
      EXPECT_EQ(store.reads(f), p - 2) << "file " << f;
    } else {
      EXPECT_EQ(store.reads(f), 1) << "file " << f;
    }
  }
}

TEST(StagingFt, UnresponsiveOwnerIsDegradedByTimeout) {
  // Rank 2 is alive but never enters the staging protocol — the
  // worst case for deadlock: no dead flag, just silence.
  const int p = 3;
  const int num_files = 6;
  MockGlobalFs store;
  FillFs(store, num_files);
  std::set<int> needs;
  for (int f = 0; f < num_files; ++f) needs.insert(f);

  std::atomic<int> wrong{0};
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == 2) return;  // silent, not dead
    const auto staged = StageDataset(comm, store, needs, num_files, TightFt());
    EXPECT_EQ(staged.size(), needs.size());
    for (const auto& [f, contents] : staged) {
      if (!ContentsCorrect(f, contents)) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  for (const int f : needs) {
    if (f % p == 2) {
      EXPECT_EQ(store.reads(f), 2) << "file " << f;  // both survivors
    } else {
      EXPECT_EQ(store.reads(f), 1) << "file " << f;
    }
  }
}

TEST(StagingFt, DegradedModeOffMakesOwnerDeathFatal) {
  FaultScope scope;
  FaultInjector::Global().Arm(Spec("comm.kill.1", 1.0, 7));
  const int p = 2;
  MockGlobalFs store;
  FillFs(store, 4);
  std::set<int> needs{0, 1};  // file 1 is owned by the dead rank

  std::atomic<int> threw{0};
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    StagingFtOptions ft = TightFt();
    ft.allow_degraded = false;
    try {
      (void)StageDataset(comm, store, needs, 4, ft);
    } catch (const Error&) {
      threw.fetch_add(1);
    }
  });
  EXPECT_EQ(threw.load(), 1);
}

TEST(StagingFt, TransientFsReadFaultsAreRetried) {
  FaultScope scope;
  // Two injected read failures, then the fs recovers: the serve-side
  // RunWithRetry absorbs them without degrading anything.
  FaultInjector::Global().Arm(Spec("fs.read", 1.0, 3, 2));
  const int p = 2;
  const int num_files = 4;
  MockGlobalFs store;
  FillFs(store, num_files);
  std::set<int> needs;
  for (int f = 0; f < num_files; ++f) needs.insert(f);

  std::atomic<int> wrong{0};
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    StagingFtOptions ft = TightFt();
    ft.retry.max_attempts = 4;
    const auto staged = StageDataset(comm, store, needs, num_files, ft);
    EXPECT_EQ(staged.size(), needs.size());
    for (const auto& [f, contents] : staged) {
      if (!ContentsCorrect(f, contents)) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(FaultInjector::Global().InjectionCount("fs.read"), 2);
}

TEST(StagingFt, HealthyPathKeepsExactlyOnceWithDefaults) {
  // No faults armed, default (generous) ft options: behaviour must be
  // byte-identical to the original non-FT stager.
  const int p = 4;
  const int num_files = 10;
  MockGlobalFs store;
  FillFs(store, num_files);
  std::vector<std::set<int>> needs(p);
  for (int r = 0; r < p; ++r) {
    Rng rng(50 + r);
    for (int k = 0; k < 6; ++k) {
      needs[static_cast<std::size_t>(r)].insert(
          static_cast<int>(rng.Int(0, num_files - 1)));
    }
  }
  std::set<int> union_needs;
  for (const auto& s : needs) union_needs.insert(s.begin(), s.end());

  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    const auto staged = StageDataset(
        comm, store, needs[static_cast<std::size_t>(comm.rank())], num_files);
    EXPECT_EQ(staged.size(),
              needs[static_cast<std::size_t>(comm.rank())].size());
  });
  EXPECT_EQ(store.total_reads(),
            static_cast<std::int64_t>(union_needs.size()));
  for (const int f : union_needs) EXPECT_EQ(store.reads(f), 1);
}

// ------------------------------------------------------ pipeline layer --

Batch MakeBatch(std::int64_t index) {
  Batch b;
  b.fields = Tensor(TensorShape::NCHW(1, 1, 2, 2));
  b.fields.Data()[0] = static_cast<float>(index);
  return b;
}

TEST(PipelineFault, PermanentProducerFailureIsSurfacedNotFatal) {
  // Satellite regression: a producer that always throws for one index
  // must neither terminate the process nor strand Next() callers.
  InputPipeline::Options opts;
  opts.workers = 2;
  opts.prefetch_depth = 2;
  opts.producer_retries = 1;
  InputPipeline pipeline(
      [](std::int64_t index) {
        if (index == 3) throw Error("producer exploded on 3");
        return MakeBatch(index);
      },
      8, opts);

  int batches = 0;
  int errors = 0;
  for (;;) {
    try {
      const auto batch = pipeline.Next();
      if (!batch.has_value()) break;
      ++batches;
    } catch (const Error&) {
      ++errors;
    }
  }
  EXPECT_EQ(batches, 7);
  EXPECT_EQ(errors, 1);
  const PipelineStats stats = pipeline.Stats();
  EXPECT_EQ(stats.skipped, 1);
  EXPECT_EQ(stats.producer_failures, 1);
  EXPECT_EQ(stats.producer_retries, 1);  // one failed retry of index 3
  EXPECT_EQ(stats.consumed, 7);
}

TEST(PipelineFault, TransientProducerFailureIsRetriedToSuccess) {
  std::atomic<bool> failed_once{false};
  InputPipeline::Options opts;
  opts.workers = 2;
  opts.producer_retries = 2;
  InputPipeline pipeline(
      [&](std::int64_t index) {
        if (index == 2 && !failed_once.exchange(true)) {
          throw Error("transient");
        }
        return MakeBatch(index);
      },
      6, opts);
  int batches = 0;
  while (pipeline.Next().has_value()) ++batches;
  EXPECT_EQ(batches, 6);
  const PipelineStats stats = pipeline.Stats();
  EXPECT_EQ(stats.skipped, 0);
  EXPECT_EQ(stats.producer_failures, 0);
  EXPECT_EQ(stats.producer_retries, 1);
}

TEST(PipelineFault, InjectedProducerFaultsAreDeterministic) {
  FaultScope scope;
  // 4 guaranteed fires, single worker, 2 retries per batch: batch 0
  // burns 3 attempts and is skipped; batch 1 burns the 4th fire and
  // succeeds on its first retry.
  FaultInjector::Global().Arm(Spec("pipeline.produce", 1.0, 11, 4));
  InputPipeline::Options opts;
  opts.workers = 1;
  opts.producer_retries = 2;
  InputPipeline pipeline(MakeBatch, 6, opts);
  int batches = 0;
  int errors = 0;
  for (;;) {
    try {
      if (!pipeline.Next().has_value()) break;
      ++batches;
    } catch (const Error&) {
      ++errors;
    }
  }
  EXPECT_EQ(batches, 5);
  EXPECT_EQ(errors, 1);
  const PipelineStats stats = pipeline.Stats();
  EXPECT_EQ(stats.skipped, 1);
  EXPECT_EQ(stats.producer_failures, 1);
  EXPECT_EQ(stats.producer_retries, 3);
  EXPECT_EQ(FaultInjector::Global().InjectionCount("pipeline.produce"), 4);
}

TEST(PipelineFault, MultipleConsumersDrainDespiteFailures) {
  InputPipeline::Options opts;
  opts.workers = 3;
  opts.prefetch_depth = 4;
  opts.producer_retries = 1;
  InputPipeline pipeline(
      [](std::int64_t index) {
        if (index == 5 || index == 11) throw Error("permanent");
        return MakeBatch(index);
      },
      16, opts);

  std::atomic<int> batches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 3; ++t) {
    consumers.emplace_back([&] {
      for (;;) {
        try {
          if (!pipeline.Next().has_value()) return;
          batches.fetch_add(1);
        } catch (const Error&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : consumers) c.join();
  EXPECT_EQ(batches.load(), 14);
  EXPECT_EQ(errors.load(), 2);
  EXPECT_EQ(pipeline.Stats().skipped, 2);
}

// ---------------------------------------------------- checkpoint layer --

class CheckpointFault : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    dir_ = fs::temp_directory_path() /
           ("exaclim_fault_ckpt_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

TEST_F(CheckpointFault, RoundTripWithMetaAndChecksums) {
  Rng rng(1);
  Tiramisu model(Tiramisu::Config::Downscaled(4), rng);
  const auto path = dir_ / "model.ncf";
  SaveCheckpoint(path, model.Params(), {{"epoch", 7.0}, {"step", 140.0}});
  EXPECT_FALSE(fs::exists(dir_ / "model.ncf.tmp"));  // renamed away

  Rng rng2(999);
  Tiramisu restored(Tiramisu::Config::Downscaled(4), rng2);
  std::map<std::string, double> meta;
  LoadCheckpoint(path, restored.Params(), &meta);
  EXPECT_DOUBLE_EQ(meta.at("epoch"), 7.0);
  EXPECT_DOUBLE_EQ(meta.at("step"), 140.0);

  const auto a = model.Params();
  const auto b = restored.Params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto av = a[i]->value.Data();
    const auto bv = b[i]->value.Data();
    ASSERT_EQ(av.size(), bv.size());
    for (std::size_t j = 0; j < av.size(); ++j) {
      ASSERT_EQ(av[j], bv[j]) << a[i]->name << "[" << j << "]";
    }
  }
}

TEST_F(CheckpointFault, CorruptByteIsRejected) {
  Rng rng(1);
  Tiramisu model(Tiramisu::Config::Downscaled(4), rng);
  const auto path = dir_ / "model.ncf";
  SaveCheckpoint(path, model.Params(), {{"epoch", 1.0}});

  // Flip one byte in the middle of the file (parameter payload).
  const auto size = fs::file_size(path);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(size / 2));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.write(&c, 1);
  f.close();

  std::map<std::string, double> meta;
  EXPECT_THROW(LoadCheckpoint(path, model.Params(), &meta), Error);
}

TEST_F(CheckpointFault, TruncatedFileIsRejected) {
  Rng rng(1);
  Tiramisu model(Tiramisu::Config::Downscaled(4), rng);
  const auto path = dir_ / "model.ncf";
  SaveCheckpoint(path, model.Params());
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_THROW(LoadCheckpoint(path, model.Params()), Error);
}

TEST_F(CheckpointFault, LegacyFooterlessFileStillLoads) {
  // Backward compatibility: a checkpoint written before the CRC footer
  // existed is a bare NCF container. It loads, unverified.
  Rng rng(1);
  Tiramisu model(Tiramisu::Config::Downscaled(4), rng);
  const auto path = dir_ / "legacy.ncf";
  {
    NcfWriter writer(path);
    for (const Param* p : model.Params()) {
      writer.AddFloat(p->name, p->value.Data());
    }
    writer.Finish();
  }
  Rng rng2(999);
  Tiramisu restored(Tiramisu::Config::Downscaled(4), rng2);
  LoadCheckpoint(path, restored.Params());
  const auto a = model.Params();
  const auto b = restored.Params();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto av = a[i]->value.Data();
    const auto bv = b[i]->value.Data();
    for (std::size_t j = 0; j < av.size(); ++j) {
      ASSERT_EQ(av[j], bv[j]);
    }
  }
}

TEST_F(CheckpointFault, InjectedWriteFaultPreservesLastGoodCheckpoint) {
  Rng rng(1);
  Tiramisu model(Tiramisu::Config::Downscaled(4), rng);
  const auto path = dir_ / "model.ncf";
  SaveCheckpoint(path, model.Params(), {{"epoch", 1.0}});

  FaultInjector::Global().Arm(Spec("checkpoint.write", 1.0, 5, 1));
  model.Params()[0]->value.Data()[0] += 1.0f;  // new state, never saved
  EXPECT_THROW(SaveCheckpoint(path, model.Params(), {{"epoch", 2.0}}),
               Error);

  // The published checkpoint is the old, intact one.
  Rng rng2(999);
  Tiramisu restored(Tiramisu::Config::Downscaled(4), rng2);
  std::map<std::string, double> meta;
  LoadCheckpoint(path, restored.Params(), &meta);
  EXPECT_DOUBLE_EQ(meta.at("epoch"), 1.0);
}

TEST_F(CheckpointFault, MissingDatasetErrorListsWhatIsPresent) {
  // Satellite: the NCF lookup failure is a recoverable Error naming the
  // datasets that ARE in the file.
  const auto path = dir_ / "two.ncf";
  {
    NcfWriter writer(path);
    const float v[2] = {1.0f, 2.0f};
    writer.AddFloat("alpha", std::span<const float>(v, 2));
    writer.AddFloat("beta", std::span<const float>(v, 2));
    writer.Finish();
  }
  NcfReader reader(path);
  try {
    (void)reader.Count("gamma");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gamma"), std::string::npos);
    EXPECT_NE(what.find("alpha"), std::string::npos);
    EXPECT_NE(what.find("beta"), std::string::npos);
  }
  EXPECT_THROW((void)reader.ReadFloat("gamma"), Error);
}

// --------------------------------------------------------- epoch layer --

// Checkpoint/restart of the training driver (DESIGN §8): 4 epochs of 4
// steps, validated after each epoch.
class EpochFault : public ::testing::Test {
 protected:
  static constexpr int kSteps = 16;

  void SetUp() override {
    FaultInjector::Global().Reset();
    dir_ = fs::temp_directory_path() /
           ("exaclim_fault_epoch_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    fs::remove_all(dir_);
  }

  static ClimateDataset::Options SmallData() {
    ClimateDataset::Options d;
    d.num_samples = 24;
    d.generator.height = 32;
    d.generator.width = 32;
    d.channels = {kTMQ, kU850, kV850, kPSL};
    return d;
  }

  // Stateless optimizer (plain SGD, no momentum/LARC/lag): resuming from
  // a params-only checkpoint retraces the uninterrupted trajectory
  // bit-for-bit.
  static TrainerOptions StatelessTrainer() {
    TrainerOptions o;
    o.arch = TrainerOptions::Arch::kTiramisu;
    o.tiramisu = Tiramisu::Config::Downscaled(4);
    o.optimizer = TrainerOptions::Opt::kSGD;
    o.momentum = 0.0f;
    o.use_larc = false;
    o.lag = 0;
    o.learning_rate = 2e-3f;
    o.local_batch = 2;
    o.exchanger.transport = ReduceTransport::kMpiRing;
    return o;
  }

  static TrainRunOptions BaseOpts() {
    TrainRunOptions opts;
    opts.steps_per_epoch = 4;
    opts.validation_samples = 2;
    return opts;
  }

  static TrainRunResult Train(const ClimateDataset& dataset, int ranks,
                              const TrainRunOptions& opts, int steps = kSteps,
                              const TrainerOptions& t = StatelessTrainer()) {
    return RunDistributedTraining(t, dataset, ranks, steps,
                                  /*images_per_rank=*/8, opts);
  }

  fs::path dir_;
};

std::vector<std::uint64_t> Bits(std::span<const double> values) {
  std::vector<std::uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

TEST_F(EpochFault, PeriodicCheckpointsAreWritten) {
  const ClimateDataset dataset(SmallData());
  TrainRunOptions opts = BaseOpts();
  opts.checkpoint_path = dir_ / "ckpt.ncf";
  const auto result = Train(dataset, 1, opts);
  EXPECT_EQ(result.checkpoints_written, 4);  // one per epoch
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.validation.size(), 4u);

  std::map<std::string, double> meta;
  Rng rng(StatelessTrainer().seed);
  Tiramisu probe(Tiramisu::Config::Downscaled(4), rng);
  LoadCheckpoint(opts.checkpoint_path, probe.Params(), &meta);
  EXPECT_DOUBLE_EQ(meta.at("epoch"), 4.0);
}

TEST_F(EpochFault, MidRunKillThenResumeMatchesUninterruptedRun) {
  const ClimateDataset dataset(SmallData());
  // One writer, every rank reads. The readiness shuffle stays on (the
  // default): it moves only control messages, never the fused layout,
  // so a seed fixes every bit at any world size.
  for (const int ranks : {1, 2, 4}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    const TrainerOptions trainer = StatelessTrainer();
    ASSERT_TRUE(trainer.exchanger.shuffle_ready_order);
    // Augmented, so the resume must replay the batch stream only.
    TrainRunOptions base = BaseOpts();
    base.augment = AugmentOptions{.meridional_channels = {2}};
    // Reference: the uninterrupted 4-epoch trajectory.
    const auto reference = Train(dataset, ranks, base, kSteps, trainer);
    ASSERT_EQ(reference.loss_history.size(), std::size_t{kSteps});
    ASSERT_EQ(reference.validation.size(), 4u);

    // Interrupted run: checkpoint every epoch, the job dies at epoch 2
    // step 0 (the writer has consulted the site for 2 epochs * 4 steps).
    TrainRunOptions opts = base;
    opts.checkpoint_path = dir_ / ("ckpt_" + std::to_string(ranks) + ".ncf");
    FaultSpec kill = Spec("epoch.step", 1.0, 0, 1);
    kill.skip_first = 2 * opts.steps_per_epoch;
    FaultInjector::Global().Arm(kill);
    EXPECT_THROW(Train(dataset, ranks, opts, kSteps, trainer), Error);
    FaultInjector::Global().Reset();

    // Resume: picks up after the last completed epoch and retraces the
    // reference trajectory exactly.
    opts.resume = true;
    const auto resumed = Train(dataset, ranks, opts, kSteps, trainer);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.start_epoch, 2);
    const std::span<const double> tail(reference.loss_history);
    EXPECT_EQ(Bits(resumed.loss_history), Bits(tail.subspan(8)));
    // Batch-norm running statistics are checkpointed alongside the
    // params (Layer::StateTensors), so validation metrics are bit-exact
    // too.
    ASSERT_EQ(resumed.validation.size(), 2u);
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed.validation[e].MeanIoU()),
                std::bit_cast<std::uint64_t>(
                    reference.validation[e + 2].MeanIoU()));
    }
    EXPECT_EQ(resumed.survivor_param_crcs, reference.survivor_param_crcs);
  }
}

TEST_F(EpochFault, CorruptCheckpointFallsBackToFreshStart) {
  const ClimateDataset dataset(SmallData());
  TrainRunOptions opts = BaseOpts();
  opts.steps_per_epoch = 2;
  opts.checkpoint_path = dir_ / "ckpt.ncf";
  opts.resume = true;
  {
    std::ofstream garbage(opts.checkpoint_path, std::ios::binary);
    garbage << "this is not an NCF container";
  }
  const auto result = Train(dataset, 1, opts, /*steps=*/2);
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.start_epoch, 0);
  EXPECT_EQ(result.loss_history.size(), 2u);
}

TEST_F(EpochFault, ResumeWithoutCheckpointFileStartsFresh) {
  // The first launch of a resumable job: no file yet is not a rejection.
  // The run trains from step 0 like a plain one and writes its epochs.
  const ClimateDataset dataset(SmallData());
  const auto plain = Train(dataset, 2, BaseOpts());

  TrainRunOptions opts = BaseOpts();
  opts.checkpoint_path = dir_ / "not_yet_written.ncf";
  opts.resume = true;
  obs::Enable();
  const auto rejected = [] {
    obs::Counter* c = obs::CounterOrNull("fault.checkpoint.rejected");
    return c == nullptr ? std::int64_t{0} : c->value();
  };
  const std::int64_t before = rejected();
  const auto result = Train(dataset, 2, opts);
  EXPECT_EQ(rejected(), before);
  obs::Disable();
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.start_epoch, 0);
  EXPECT_EQ(result.checkpoints_written, 4);
  EXPECT_TRUE(fs::exists(opts.checkpoint_path));
  EXPECT_EQ(Bits(result.loss_history), Bits(plain.loss_history));
  EXPECT_EQ(result.survivor_param_crcs, plain.survivor_param_crcs);
}

TEST_F(EpochFault, OutOfRangeEpochIndexIsRejected) {
  // The epoch index comes from a file: anything but an integer in
  // [0, epochs] is handled like a corrupt checkpoint — rejected, and the
  // run starts fresh from the seed's replica, not from the file's
  // params (saved here from a differently seeded model, so a half-done
  // load would show).
  const ClimateDataset dataset(SmallData());
  TrainRunOptions opts = BaseOpts();
  opts.steps_per_epoch = 1;
  opts.validation_samples = 0;
  const auto fresh = Train(dataset, 2, opts, /*steps=*/2);

  opts.checkpoint_path = dir_ / "ckpt.ncf";
  opts.resume = true;
  Rng rng(StatelessTrainer().seed + 1);
  Tiramisu other(Tiramisu::Config::Downscaled(4), rng);
  obs::Enable();
  const auto rejected = [] {
    obs::Counter* c = obs::CounterOrNull("fault.checkpoint.rejected");
    return c == nullptr ? std::int64_t{0} : c->value();
  };
  for (const double epoch :
       {-3.0, std::numeric_limits<double>::quiet_NaN(), 3.0, 0.5}) {
    SCOPED_TRACE("epoch=" + std::to_string(epoch));
    SaveCheckpoint(opts.checkpoint_path, other.Params(), {{"epoch", epoch}});
    const std::int64_t before = rejected();
    const auto result = Train(dataset, 2, opts, /*steps=*/2);
    EXPECT_EQ(rejected(), before + 1);
    EXPECT_FALSE(result.resumed);
    EXPECT_EQ(result.start_epoch, 0);
    EXPECT_EQ(Bits(result.loss_history), Bits(fresh.loss_history));
    EXPECT_EQ(result.survivor_param_crcs, fresh.survivor_param_crcs);
  }
  obs::Disable();

  // The upper bound itself is a finished run: resumed, nothing to train.
  SaveCheckpoint(opts.checkpoint_path, other.Params(), {{"epoch", 2.0}});
  const auto done = Train(dataset, 2, opts, /*steps=*/2);
  EXPECT_TRUE(done.resumed);
  EXPECT_EQ(done.start_epoch, 2);
  EXPECT_TRUE(done.loss_history.empty());
}

// -------------------------------------------------------- smoke + e2e --

// FaultSmoke runs under two regimes: plain ctest (arms its spec
// programmatically) and tools/ci.sh stage 6, which sets
// EXACLIM_FAULTS="comm.kill.1:1:7,pipeline.produce:1:11:4" to exercise
// the env-driven path. The assertions hold under exactly that spec.
TEST(FaultSmoke, EndToEndStagingAndPipelineWithInjectedFaults) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  if (inj.ArmFromEnv() == 0) {
    inj.ArmFromString("comm.kill.1:1:7,pipeline.produce:1:11:4");
  }
  ASSERT_TRUE(inj.IsArmed("comm.kill.1"));
  ASSERT_TRUE(inj.IsArmed("pipeline.produce"));
  obs::Enable();

  // Stage with rank 1 dead: survivors degrade around its shard.
  const int p = 4;
  const int num_files = 8;
  MockGlobalFs store;
  FillFs(store, num_files);
  std::set<int> needs;
  for (int f = 0; f < num_files; ++f) needs.insert(f);
  std::atomic<int> wrong{0};
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    const auto staged = StageDataset(comm, store, needs, num_files, TightFt());
    EXPECT_EQ(staged.size(), needs.size());
    for (const auto& [f, contents] : staged) {
      if (!ContentsCorrect(f, contents)) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(inj.InjectionCount("comm.kill.1"), 1);

  // Train-side input pipeline with deterministic producer faults
  // (single worker: batch 0 skipped, batch 1 recovered by retry).
  InputPipeline::Options opts;
  opts.workers = 1;
  opts.producer_retries = 2;
  InputPipeline pipeline(MakeBatch, 8, opts);
  int batches = 0;
  int errors = 0;
  for (;;) {
    try {
      if (!pipeline.Next().has_value()) break;
      ++batches;
    } catch (const Error&) {
      ++errors;
    }
  }
  EXPECT_EQ(batches, 7);
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(inj.InjectionCount("pipeline.produce"), 4);

  // The whole episode is visible in the metrics registry.
  const auto counter = [](const char* name) {
    obs::Counter* c = obs::CounterOrNull(name);
    return c == nullptr ? std::int64_t{0} : c->value();
  };
  EXPECT_GT(counter("fault.injected.comm.kill.1"), 0);
  EXPECT_GT(counter("fault.comm.rank_kills"), 0);
  EXPECT_GT(counter("fault.staging.degraded_files"), 0);
  EXPECT_GT(counter("fault.injected.pipeline.produce"), 0);
  EXPECT_GT(counter("fault.pipeline.producer_failures"), 0);
  EXPECT_GT(counter("fault.pipeline.producer_retries"), 0);
  obs::Disable();
}

// ------------------------------------------------------------- stress --

TEST(FaultStress, ConcurrentShouldInjectIsRaceFree) {
  FaultScope scope;
  auto& inj = FaultInjector::Global();
  inj.Arm(Spec("s0", 0.5, 1));
  inj.Arm(Spec("s1", 0.25, 2));
  inj.Arm(Spec("s2", 1.0, 3, 500));
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> fired{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const char* sites[] = {"s0", "s1", "s2"};
      for (int i = 0; i < 1500; ++i) {
        if (inj.ShouldInject(sites[(t + i) % 3])) fired.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(inj.TotalInjections(), fired.load());
  EXPECT_GT(fired.load(), 0);
  EXPECT_EQ(inj.InjectionCount("s2"), 500);  // budget exactly respected
}

TEST(FaultStress, PipelineProducerFaultsUnderConcurrentLoad) {
  InputPipeline::Options opts;
  opts.workers = 4;
  opts.prefetch_depth = 4;
  opts.producer_retries = 1;
  const std::int64_t total = 120;
  InputPipeline pipeline(
      [](std::int64_t index) {
        if (index % 17 == 0) throw Error("permanent");
        return MakeBatch(index);
      },
      total, opts);
  std::atomic<int> batches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 4; ++t) {
    consumers.emplace_back([&] {
      for (;;) {
        try {
          if (!pipeline.Next().has_value()) return;
          batches.fetch_add(1);
        } catch (const Error&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : consumers) c.join();
  const int failing = 8;  // indices 0, 17, ..., 119
  EXPECT_EQ(errors.load(), failing);
  EXPECT_EQ(batches.load(), static_cast<int>(total) - failing);
  const PipelineStats stats = pipeline.Stats();
  EXPECT_EQ(stats.skipped, failing);
  EXPECT_EQ(stats.consumed + stats.skipped, total);
}

TEST(FaultStress, StagingSurvivesDropsAndAKilledOwner) {
  FaultScope scope;
  FaultInjector::Global().ArmFromString(
      "comm.kill.3:1:7,comm.drop:0.05:21");
  const int p = 4;
  const int num_files = 16;
  MockGlobalFs store;
  FillFs(store, num_files);
  std::set<int> needs;
  for (int f = 0; f < num_files; ++f) needs.insert(f);

  std::atomic<int> wrong{0};
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    StagingFtOptions ft = TightFt();
    ft.retry.max_attempts = 3;
    const auto staged = StageDataset(comm, store, needs, num_files, ft);
    EXPECT_EQ(staged.size(), needs.size());
    for (const auto& [f, contents] : staged) {
      if (!ContentsCorrect(f, contents)) wrong.fetch_add(1);
    }
  });
  // Whatever was dropped got degraded around: every rank has every file,
  // bytes intact.
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace exaclim
