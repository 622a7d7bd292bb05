#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace exaclim {

/// One armed fault point. Sites are free-form dotted strings agreed on
/// between the injector and the instrumented code; the ones the library
/// itself consults are listed in DESIGN §8 ("Fault model"):
///
///   comm.drop                     drop a delivered message
///   comm.delay                    delay a delivered message by delay_seconds
///   comm.kill.<rank>              kill rank <rank> at SimWorld::Run entry
///   fs.read                       MockGlobalFs::Read throws (transient I/O)
///   pipeline.produce              InputPipeline producer attempt throws
///   checkpoint.write              SaveCheckpoint fails before the rename
///   epoch.step                    RunDistributedTraining's writer rank
///                                 throws at step entry (job kill)
///   elastic.kill.<rank>           kill rank <rank> at training-step entry
///   elastic.exchange.kill.<rank>  kill rank <rank> mid-exchange, after the
///                                 tensor order was negotiated (peers starve
///                                 inside the allreduce rounds)
///   step.backward.delay           lengthen a training step's backward pass
///                                 by delay_seconds (a slow rank)
struct FaultSpec {
  std::string site;
  /// Chance each evaluation fires, drawn from the site's own seeded
  /// stream — deterministic given (site, seed) and the call sequence.
  double probability = 1.0;
  std::uint64_t seed = 0;
  /// Total number of times the site may fire; < 0 means unlimited.
  int max_triggers = -1;
  /// For delay-type sites (comm.delay, step.backward.delay): how long
  /// to hold the message or stall the backward pass.
  double delay_seconds = 0.0;
  /// Number of initial evaluations that can never fire — lets tests pin
  /// a fault to "the Nth call" (e.g. a specific epoch/step).
  std::int64_t skip_first = 0;
};

/// Deterministic, seedable, thread-safe fault-point registry. Library
/// code asks `ShouldInject(site)` at each fault point; the injector
/// answers false in O(one relaxed atomic load) while nothing is armed,
/// so instrumented hot paths cost nothing in production runs.
///
/// Sites are armed programmatically (Arm) or from the environment:
///
///   EXACLIM_FAULTS=site:prob[:seed[:max[:delay_s[:skip]]]],site:...
///
/// e.g. EXACLIM_FAULTS="comm.kill.1:1:7,pipeline.produce:0.3:99:6"
class FaultInjector {
 public:
  /// Process-wide instance used by all built-in fault points.
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Arm(const FaultSpec& spec) EXACLIM_EXCLUDES(mutex_);
  /// Parses the EXACLIM_FAULTS grammar; throws exaclim::Error on a
  /// malformed spec (a bad fault config should be loud, not silent) or
  /// on a site the library does not consult — a typo'd site would arm
  /// silently and never fire, so the error lists every valid site.
  /// Programmatic Arm() stays free-form for tests with synthetic sites.
  /// Returns the number of sites armed.
  int ArmFromString(std::string_view specs) EXACLIM_EXCLUDES(mutex_);
  /// Reads EXACLIM_FAULTS; no-op (returns 0) when unset or empty.
  int ArmFromEnv() EXACLIM_EXCLUDES(mutex_);
  void Disarm(std::string_view site) EXACLIM_EXCLUDES(mutex_);
  /// Clears every armed site and all counters.
  void Reset() EXACLIM_EXCLUDES(mutex_);

  /// Evaluates the fault point: true when the site is armed, past its
  /// skip_first window, under its trigger budget, and its stream draws
  /// under `probability`. Each fire bumps the "fault.injected.<site>"
  /// counter through the metric sink (below).
  bool ShouldInject(std::string_view site) EXACLIM_EXCLUDES(mutex_);

  /// delay_seconds of the armed spec, or 0 when the site is not armed.
  double DelaySeconds(std::string_view site) const EXACLIM_EXCLUDES(mutex_);
  bool IsArmed(std::string_view site) const EXACLIM_EXCLUDES(mutex_);

  std::int64_t InjectionCount(std::string_view site) const
      EXACLIM_EXCLUDES(mutex_);
  std::int64_t TotalInjections() const EXACLIM_EXCLUDES(mutex_);
  int ArmedSiteCount() const;

 private:
  struct Site {
    FaultSpec spec;
    Rng rng;
    std::int64_t evaluated = 0;
    std::int64_t fired = 0;
    explicit Site(const FaultSpec& s)
        : spec(s), rng(Rng(s.seed ^ 0xfa017ed5ull).Fork(s.site.size())) {}
  };

  mutable Mutex mutex_;
  std::map<std::string, Site, std::less<>> sites_ EXACLIM_GUARDED_BY(mutex_);
  std::int64_t total_fired_ EXACLIM_GUARDED_BY(mutex_) = 0;
  // Fast path: number of armed sites, readable without the mutex.
  std::atomic<int> armed_count_{0};
};

/// Bounded-retry schedule: exponential backoff with a deterministic
/// jitter stream and an overall wall-clock deadline. Pure data + pure
/// BackoffSeconds so schedules are unit-testable without sleeping.
struct RetryPolicy {
  int max_attempts = 4;
  double initial_backoff_s = 1e-3;
  double multiplier = 2.0;
  double max_backoff_s = 0.25;
  /// Fractional jitter: each backoff is scaled by a factor drawn
  /// deterministically from `seed` in [1 - jitter, 1 + jitter].
  double jitter = 0.1;
  double deadline_s = std::numeric_limits<double>::infinity();
  std::uint64_t seed = 0x5eedu;

  /// Backoff slept after failed attempt `attempt` (0-based). Monotone
  /// non-decreasing up to max_backoff_s before jitter; deterministic.
  double BackoffSeconds(int attempt) const;
  /// The full sleep schedule (max_attempts - 1 entries), for tests.
  std::vector<double> Schedule() const;
};

struct RetryOutcome {
  bool success = false;
  int attempts = 0;
  double slept_seconds = 0.0;
};

/// Runs `op` until it returns true, retrying per `policy` (sleeping the
/// backoff between attempts, stopping at max_attempts or the deadline).
/// Exceptions from `op` propagate — wrap them into a false return to
/// retry on them. Publishes "fault.retry.attempts" / "fault.retry.giveups".
RetryOutcome RunWithRetry(const RetryPolicy& policy, std::string_view what,
                          const std::function<bool()>& op);

/// The EXACLIM_FAULTS site vocabulary. Entries ending in '.' are
/// parameterized prefixes that take a nonnegative rank number
/// ("comm.kill." accepts "comm.kill.3"). RegisterFaultSite lets code
/// outside the core library (tests, new subsystems) extend the
/// vocabulary; registration is process-global and append-only.
void RegisterFaultSite(std::string_view site_or_prefix);
bool IsKnownFaultSite(std::string_view site);
std::vector<std::string> KnownFaultSites();

/// Counter bridge out of the base layer: common/ cannot depend on obs/,
/// so obs::Enable installs a sink that forwards these bumps into the
/// global MetricsRegistry. With no sink installed the bump is a no-op.
/// All fault-layer counters ("fault.*", "checkpoint.saved", ...) flow
/// through here so they appear in traces and bench JSON like any metric.
using FaultMetricSink = void (*)(std::string_view name, std::int64_t delta);
void SetFaultMetricSink(FaultMetricSink sink);
void FaultCounterBump(std::string_view name, std::int64_t delta = 1);

}  // namespace exaclim
