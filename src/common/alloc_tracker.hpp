#pragma once

#include <cstddef>
#include <cstdint>

// Heap-allocation discipline analysis (DESIGN §11).
//
// alloc_tracker.cpp interposes the global operator new/delete family (all
// array / aligned / nothrow forms). With tracking off — the default — every
// interposed operator is one relaxed atomic load and a branch away from
// plain malloc/free; with EXACLIM_ALLOC_TRACK=1 (or SetAllocTracking(true))
// each allocation bumps lock-free per-thread counters, so hot paths can be
// audited for steady-state heap traffic without a profiler.
//
// Two RAII region guards build on the counters:
//
//   EXACLIM_ALLOC_CENSUS(site)        measure: how many allocations/bytes
//                                     happened while this scope was live
//                                     (process-wide; spans pool workers).
//   EXACLIM_ALLOC_CENSUS_THREAD(site) same, but only this thread's allocs.
//   EXACLIM_ASSERT_NO_ALLOC(site)     enforce: this thread must not touch
//                                     the heap inside the scope. Violations
//                                     are counted per registered site and
//                                     reported (file:line, no symbolization)
//                                     when the scope closes; with
//                                     EXACLIM_ALLOC_TRACK=strict the report
//                                     is fatal.
//
// Each macro registers its call site once in a fixed-capacity site registry
// (name + __FILE__:__LINE__), which accumulates cumulative count/bytes/
// violations per site — the raw material of the per-phase allocation census
// (bench_alloc_census, the ci.sh alloc-smoke ratchet).

namespace exaclim {

// ------------------------------------------------------------- toggles --

/// Whether the interposed operators are counting. Seeded from
/// EXACLIM_ALLOC_TRACK on first allocation: unset or off|0|false off,
/// on|1|true on, strict on with fatal no-alloc violations; any other
/// value aborts the process (the read happens inside operator new, so it
/// cannot throw).
bool AllocTrackingEnabled();

/// True only under EXACLIM_ALLOC_TRACK=strict: a no-alloc region that saw
/// an allocation aborts the process when it closes (abort, not throw —
/// the report fires from a destructor).
bool AllocTrackingStrict();

/// Programmatic override of the env default (tests, benches). Phase-
/// boundary operation: flipping it mid-region makes that region's deltas
/// meaningless, nothing worse.
void SetAllocTracking(bool enabled);

// ------------------------------------------------------------ counters --

/// Snapshot of allocation activity. `count`/`bytes` are allocation-side
/// totals (bytes are usable heap bytes where the platform exposes them,
/// requested bytes otherwise). `free_count`/`freed_bytes` are attributed
/// to the *freeing* thread, so per-thread live/peak figures are
/// best-effort for memory that migrates between threads; the global
/// aggregate is exact in count and monotone in bytes.
struct AllocCounters {
  std::int64_t count = 0;
  std::int64_t bytes = 0;
  std::int64_t free_count = 0;
  std::int64_t freed_bytes = 0;
  std::int64_t peak_live_bytes = 0;
};

/// This thread's counters since process start (zero before its first
/// tracked allocation).
AllocCounters ThreadAllocCounters();

/// Sum over every thread that ever allocated while tracking was on.
/// Records outlive their threads, so the aggregate never loses history.
AllocCounters GlobalAllocCounters();

// ------------------------------------------------------- site registry --

/// Compact handle for an annotated region call site. Site 0..capacity-1;
/// registration past the fixed capacity collapses onto a shared overflow
/// slot rather than failing.
using AllocSiteId = int;

/// Registers (name, file, line) once and returns its id. Idempotent per
/// call site via the static local inside EXACLIM_ALLOC_SITE; safe during
/// static initialization (no heap use).
AllocSiteId RegisterAllocSite(const char* name, const char* file, int line);

/// Cumulative per-site census, summed over every region instance that ran
/// at that site. Nested sites both see an allocation (regions are
/// inclusive phases, like trace spans).
struct AllocSiteInfo {
  const char* name = nullptr;
  const char* file = nullptr;
  int line = 0;
  std::int64_t count = 0;
  std::int64_t bytes = 0;
  std::int64_t violations = 0;
};

/// Number of registered sites so far.
int AllocSiteCount();

/// Snapshot of one site; id must be < AllocSiteCount().
AllocSiteInfo GetAllocSite(AllocSiteId id);

/// Id of the first site registered under `name`, or -1. Census readers
/// (bench_alloc_census) key off the site name.
AllocSiteId FindAllocSite(const char* name);

/// Zeroes every site's cumulative count/bytes/violations (names and ids
/// survive). Called between warmup and the measured window of a census.
void ResetAllocSiteStats();

// ------------------------------------------------------ region guards --

/// The metric bridge to obs (common cannot link obs): census regions
/// publish "alloc.count.<site>" / "alloc.bytes.<site>" gauge updates
/// through this pointer when installed. obs::Enable installs a sink that
/// forwards to the MetricsRegistry; null means no publication.
using AllocMetricSink = void (*)(const char* name, double value);
void SetAllocMetricSink(AllocMetricSink sink);

/// RAII allocation-census / no-alloc region. Prefer the macros below;
/// they handle site registration.
class ScopedAllocCheck {
 public:
  enum class Mode {
    kCensus,         // count, publish, never complain
    kAssertNoAlloc,  // any allocation on this thread is a violation
  };
  enum class Scope {
    kThread,  // deltas of the constructing thread only
    kGlobal,  // process-wide deltas (phases that fan out to pool workers)
  };

  ScopedAllocCheck(AllocSiteId site, Mode mode, Scope scope = Scope::kThread);
  ~ScopedAllocCheck();

  ScopedAllocCheck(const ScopedAllocCheck&) = delete;
  ScopedAllocCheck& operator=(const ScopedAllocCheck&) = delete;

  /// Allocations / bytes since the region opened (0 while tracking is
  /// off — the zero-overhead path).
  std::int64_t count() const;
  std::int64_t bytes() const;

  /// Allocations that violated a kAssertNoAlloc region so far.
  std::int64_t violations() const { return violations_; }

  /// True when tracking was on at construction (deltas are meaningful).
  bool active() const { return active_; }

 private:
  friend void NoteTrackedAllocation(std::size_t bytes);

  AllocSiteId site_;
  Mode mode_;
  Scope scope_;
  bool active_ = false;
  ScopedAllocCheck* parent_ = nullptr;  // enclosing region on this thread
  std::int64_t entry_count_ = 0;
  std::int64_t entry_bytes_ = 0;
  std::int64_t violations_ = 0;
  std::int64_t first_violation_bytes_ = -1;
};

}  // namespace exaclim

#define EXACLIM_ALLOC_CONCAT_INNER(a, b) a##b
#define EXACLIM_ALLOC_CONCAT(a, b) EXACLIM_ALLOC_CONCAT_INNER(a, b)

/// Registers this call site once and yields its AllocSiteId.
#define EXACLIM_ALLOC_SITE(name)                                          \
  ([]() -> ::exaclim::AllocSiteId {                                       \
    static const ::exaclim::AllocSiteId exaclim_alloc_site_id =           \
        ::exaclim::RegisterAllocSite(name, __FILE__, __LINE__);           \
    return exaclim_alloc_site_id;                                         \
  }())

/// Process-wide allocation census over the enclosing scope (use for
/// phases that fan work out to pool threads, e.g. a training-step phase).
#define EXACLIM_ALLOC_CENSUS(name)                                        \
  ::exaclim::ScopedAllocCheck EXACLIM_ALLOC_CONCAT(exaclim_alloc_census_, \
                                                   __COUNTER__)(          \
      EXACLIM_ALLOC_SITE(name),                                           \
      ::exaclim::ScopedAllocCheck::Mode::kCensus,                         \
      ::exaclim::ScopedAllocCheck::Scope::kGlobal)

/// Calling-thread-only allocation census (producer loops, pack paths).
#define EXACLIM_ALLOC_CENSUS_THREAD(name)                                 \
  ::exaclim::ScopedAllocCheck EXACLIM_ALLOC_CONCAT(exaclim_alloc_census_, \
                                                   __COUNTER__)(          \
      EXACLIM_ALLOC_SITE(name),                                           \
      ::exaclim::ScopedAllocCheck::Mode::kCensus,                         \
      ::exaclim::ScopedAllocCheck::Scope::kThread)

/// Declares the enclosing scope heap-free for the calling thread. Any
/// allocation is recorded against this site and reported when the scope
/// closes (fatal under EXACLIM_ALLOC_TRACK=strict).
#define EXACLIM_ASSERT_NO_ALLOC(name)                                     \
  ::exaclim::ScopedAllocCheck EXACLIM_ALLOC_CONCAT(exaclim_alloc_guard_,  \
                                                   __COUNTER__)(          \
      EXACLIM_ALLOC_SITE(name),                                           \
      ::exaclim::ScopedAllocCheck::Mode::kAssertNoAlloc,                  \
      ::exaclim::ScopedAllocCheck::Scope::kThread)
