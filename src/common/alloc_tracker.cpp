#include "common/alloc_tracker.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/error.hpp"
#include "common/logging.hpp"

#if __has_include(<malloc.h>)
#include <malloc.h>
#define EXACLIM_HAVE_MALLOC_USABLE_SIZE 1
#endif

// The interposed operators run before main, during static init/teardown
// and inside arbitrary library code, so everything here obeys three
// rules: (1) only constant-initialized globals (no dynamic initializers
// racing with early allocations), (2) the tracker never allocates through
// the interposed operators itself (raw std::malloc + a thread-local
// bypass flag for the few places that must touch the heap), and (3) the
// per-allocation fast path is wait-free: bump relaxed atomics on a
// record only this thread writes.

namespace exaclim {
namespace {

constexpr int kMaxThreadRecords = 512;

// Tracking mode; -1 = not yet read from the environment.
enum : int { kModeUninit = -1, kModeOff = 0, kModeOn = 1, kModeStrict = 2 };
std::atomic<int> g_mode{kModeUninit};

std::atomic<AllocMetricSink> g_metric_sink{nullptr};

// Per-thread allocation record. Single writer (the owning thread), many
// readers (census aggregation) — hence relaxed atomics rather than plain
// fields. Records are malloc'd once per thread and intentionally leaked:
// GlobalAllocCounters must keep seeing a thread's history after it
// exits, and a pool worker's record must never dangle mid-sum.
struct ThreadRecord {
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> bytes{0};
  std::atomic<std::int64_t> free_count{0};
  std::atomic<std::int64_t> freed_bytes{0};
  std::atomic<std::int64_t> peak_live_bytes{0};
};

std::atomic<ThreadRecord*> g_thread_records[kMaxThreadRecords];
std::atomic<int> g_thread_record_count{0};
// Threads past the fixed capacity share this record (multi-writer, still
// correct — just contended).
ThreadRecord g_overflow_record;

thread_local ThreadRecord* t_record = nullptr;
// Re-entrancy / noise gate: allocations made while the tracker itself
// (registration, violation reports, metric publication) touches the heap
// bypass counting entirely.
thread_local bool t_bypass = false;
// Innermost open region on this thread; regions chain via parent_.
thread_local ScopedAllocCheck* t_region_head = nullptr;
// Number of open kAssertNoAlloc regions: lets the allocation fast path
// skip the region-chain walk entirely in the common census-only case.
thread_local int t_assert_depth = 0;

bool EnvIs(const char* env, const char* a, const char* b, const char* c) {
  return std::strcmp(env, a) == 0 || std::strcmp(env, b) == 0 ||
         std::strcmp(env, c) == 0;
}

// ParseEnvSwitch's spellings plus "strict". Runs inside operator new, so
// it cannot throw or allocate: a bad value is reported with fputs and
// aborts, like a strict-mode violation.
int InitModeFromEnv() {
  int mode = kModeOff;
  if (const char* env = std::getenv("EXACLIM_ALLOC_TRACK")) {
    if (std::strcmp(env, "strict") == 0) {
      mode = kModeStrict;
    } else if (EnvIs(env, "on", "1", "true")) {
      mode = kModeOn;
    } else if (!EnvIs(env, "off", "0", "false")) {
      std::fputs("EXACLIM_ALLOC_TRACK='", stderr);
      std::fputs(env, stderr);
      std::fputs("': expected on|off|1|0|true|false|strict; aborting\n",
                 stderr);
      std::abort();
    }
  }
  int expected = kModeUninit;
  g_mode.compare_exchange_strong(expected, mode, std::memory_order_relaxed);
  return g_mode.load(std::memory_order_relaxed);
}

inline int Mode() {
  const int mode = g_mode.load(std::memory_order_relaxed);
  return mode == kModeUninit ? InitModeFromEnv() : mode;
}

ThreadRecord* Record() {
  if (t_record != nullptr) return t_record;
  t_bypass = true;
  void* raw = std::malloc(sizeof(ThreadRecord));
  ThreadRecord* record =  // placement new into raw malloc; intentionally
      raw != nullptr ? new (raw) ThreadRecord()  // lint:allow(naked-new)
                     : &g_overflow_record;       // leaked (see above).
  if (record != &g_overflow_record) {
    const int slot =
        g_thread_record_count.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxThreadRecords) {
      g_thread_records[slot].store(record, std::memory_order_release);
    } else {
      // Registry full: fold this thread into the shared overflow record
      // (also registered below on first use) so no allocation is lost.
      record->~ThreadRecord();
      std::free(raw);
      record = &g_overflow_record;
    }
  }
  t_bypass = false;
  t_record = record;
  return record;
}

inline std::int64_t UsableBytes(void* ptr, std::size_t requested) {
#if defined(EXACLIM_HAVE_MALLOC_USABLE_SIZE)
  const std::size_t usable = malloc_usable_size(ptr);
  return static_cast<std::int64_t>(usable != 0 ? usable : requested);
#else
  (void)ptr;
  return static_cast<std::int64_t>(requested);
#endif
}

AllocCounters SnapshotRecord(const ThreadRecord& r) {
  AllocCounters c;
  c.count = r.count.load(std::memory_order_relaxed);
  c.bytes = r.bytes.load(std::memory_order_relaxed);
  c.free_count = r.free_count.load(std::memory_order_relaxed);
  c.freed_bytes = r.freed_bytes.load(std::memory_order_relaxed);
  c.peak_live_bytes = r.peak_live_bytes.load(std::memory_order_relaxed);
  return c;
}

// ------------------------------------------------------- site registry --

constexpr int kMaxAllocSites = 256;

struct SiteSlot {
  std::atomic<const char*> name{nullptr};
  const char* file = nullptr;
  int line = 0;
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> bytes{0};
  std::atomic<std::int64_t> violations{0};
};

SiteSlot g_sites[kMaxAllocSites];
std::atomic<int> g_site_count{0};

SiteSlot& Site(AllocSiteId id) {
  return g_sites[id >= 0 && id < kMaxAllocSites ? id : kMaxAllocSites - 1];
}

}  // namespace

// Counting hook shared by every interposed allocation path. Must not
// allocate.
void NoteTrackedAllocation(std::size_t bytes) {
  ThreadRecord* r = Record();
  const auto delta = static_cast<std::int64_t>(bytes);
  r->count.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t total =
      r->bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  const std::int64_t live =
      total - r->freed_bytes.load(std::memory_order_relaxed);
  if (live > r->peak_live_bytes.load(std::memory_order_relaxed)) {
    r->peak_live_bytes.store(live, std::memory_order_relaxed);
  }
  if (t_assert_depth > 0) {
    for (ScopedAllocCheck* region = t_region_head; region != nullptr;
         region = region->parent_) {
      if (region->mode_ != ScopedAllocCheck::Mode::kAssertNoAlloc) continue;
      ++region->violations_;
      if (region->first_violation_bytes_ < 0) {
        region->first_violation_bytes_ = delta;
      }
      Site(region->site_).violations.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

namespace {

inline void NoteTrackedFree(std::int64_t bytes) {
  ThreadRecord* r = Record();
  r->free_count.fetch_add(1, std::memory_order_relaxed);
  r->freed_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

inline bool ShouldTrack() { return Mode() != kModeOff && !t_bypass; }

void* TrackedAlloc(std::size_t size) {
  void* ptr = std::malloc(size != 0 ? size : 1);
  if (ptr != nullptr && ShouldTrack()) {
    NoteTrackedAllocation(static_cast<std::size_t>(UsableBytes(ptr, size)));
  }
  return ptr;
}

void* TrackedAllocAligned(std::size_t size, std::size_t alignment) {
  void* ptr = nullptr;
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  if (posix_memalign(&ptr, alignment, size != 0 ? size : alignment) != 0) {
    return nullptr;
  }
  if (ShouldTrack()) {
    NoteTrackedAllocation(static_cast<std::size_t>(UsableBytes(ptr, size)));
  }
  return ptr;
}

void TrackedFree(void* ptr, std::size_t size_hint) {
  if (ptr == nullptr) return;
  if (ShouldTrack()) {
    NoteTrackedFree(size_hint != 0 ? static_cast<std::int64_t>(size_hint)
                                   : UsableBytes(ptr, 0));
  }
  std::free(ptr);
}

}  // namespace

// ------------------------------------------------------------- toggles --

bool AllocTrackingEnabled() { return Mode() != kModeOff; }

bool AllocTrackingStrict() { return Mode() == kModeStrict; }

void SetAllocTracking(bool enabled) {
  Mode();  // settle the env default first so strict can't resurrect later
  g_mode.store(enabled ? kModeOn : kModeOff, std::memory_order_relaxed);
}

// ------------------------------------------------------------ counters --

AllocCounters ThreadAllocCounters() { return SnapshotRecord(*Record()); }

AllocCounters GlobalAllocCounters() {
  AllocCounters total;
  const int n = g_thread_record_count.load(std::memory_order_relaxed);
  const int limit = n < kMaxThreadRecords ? n : kMaxThreadRecords;
  for (int i = 0; i < limit; ++i) {
    const ThreadRecord* r =
        g_thread_records[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;  // registration in flight
    const AllocCounters c = SnapshotRecord(*r);
    total.count += c.count;
    total.bytes += c.bytes;
    total.free_count += c.free_count;
    total.freed_bytes += c.freed_bytes;
    total.peak_live_bytes += c.peak_live_bytes;
  }
  const AllocCounters overflow = SnapshotRecord(g_overflow_record);
  total.count += overflow.count;
  total.bytes += overflow.bytes;
  total.free_count += overflow.free_count;
  total.freed_bytes += overflow.freed_bytes;
  total.peak_live_bytes += overflow.peak_live_bytes;
  return total;
}

// ------------------------------------------------------- site registry --

AllocSiteId RegisterAllocSite(const char* name, const char* file, int line) {
  const int slot = g_site_count.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxAllocSites - 1) {
    // Shared overflow slot: census data for it is meaningless but nothing
    // crashes, and AllocSiteCount stays clamped to the capacity.
    g_site_count.store(kMaxAllocSites, std::memory_order_relaxed);
    SiteSlot& overflow = g_sites[kMaxAllocSites - 1];
    overflow.name.store("<overflow>", std::memory_order_release);
    return kMaxAllocSites - 1;
  }
  SiteSlot& site = g_sites[slot];
  site.file = file;
  site.line = line;
  site.name.store(name, std::memory_order_release);  // publishes file/line
  return slot;
}

int AllocSiteCount() {
  const int n = g_site_count.load(std::memory_order_relaxed);
  return n < kMaxAllocSites ? n : kMaxAllocSites;
}

AllocSiteInfo GetAllocSite(AllocSiteId id) {
  AllocSiteInfo info;
  if (id < 0 || id >= AllocSiteCount()) return info;
  const SiteSlot& site = g_sites[id];
  info.name = site.name.load(std::memory_order_acquire);
  info.file = site.file;
  info.line = site.line;
  info.count = site.count.load(std::memory_order_relaxed);
  info.bytes = site.bytes.load(std::memory_order_relaxed);
  info.violations = site.violations.load(std::memory_order_relaxed);
  return info;
}

AllocSiteId FindAllocSite(const char* name) {
  const int n = AllocSiteCount();
  for (int id = 0; id < n; ++id) {
    const char* candidate = g_sites[id].name.load(std::memory_order_acquire);
    if (candidate != nullptr && std::strcmp(candidate, name) == 0) return id;
  }
  return -1;
}

void ResetAllocSiteStats() {
  const int n = AllocSiteCount();
  for (int id = 0; id < n; ++id) {
    g_sites[id].count.store(0, std::memory_order_relaxed);
    g_sites[id].bytes.store(0, std::memory_order_relaxed);
    g_sites[id].violations.store(0, std::memory_order_relaxed);
  }
}

// ------------------------------------------------------ region guards --

void SetAllocMetricSink(AllocMetricSink sink) {
  g_metric_sink.store(sink, std::memory_order_release);
}

namespace {

void PublishCensus(const char* site_name, std::int64_t count,
                   std::int64_t bytes) {
  AllocMetricSink sink = g_metric_sink.load(std::memory_order_acquire);
  if (sink == nullptr || site_name == nullptr) return;
  // The sink (obs registry) allocates on first use of a gauge name; keep
  // that out of the census.
  t_bypass = true;
  char name[128];
  std::snprintf(name, sizeof(name), "alloc.count.%s", site_name);
  sink(name, static_cast<double>(count));
  std::snprintf(name, sizeof(name), "alloc.bytes.%s", site_name);
  sink(name, static_cast<double>(bytes));
  t_bypass = false;
}

}  // namespace

ScopedAllocCheck::ScopedAllocCheck(AllocSiteId site, Mode mode, Scope scope)
    : site_(site), mode_(mode), scope_(scope) {
  if (!AllocTrackingEnabled()) return;
  EXACLIM_CHECK(mode_ != Mode::kAssertNoAlloc || scope_ == Scope::kThread,
                "EXACLIM_ASSERT_NO_ALLOC attributes allocations to the "
                "calling thread; a global-scope assert region is meaningless");
  active_ = true;
  parent_ = t_region_head;
  t_region_head = this;
  if (mode_ == Mode::kAssertNoAlloc) ++t_assert_depth;
  const AllocCounters entry = scope_ == Scope::kThread
                                  ? ThreadAllocCounters()
                                  : GlobalAllocCounters();
  entry_count_ = entry.count;
  entry_bytes_ = entry.bytes;
}

std::int64_t ScopedAllocCheck::count() const {
  if (!active_) return 0;
  const AllocCounters now = scope_ == Scope::kThread ? ThreadAllocCounters()
                                                     : GlobalAllocCounters();
  return now.count - entry_count_;
}

std::int64_t ScopedAllocCheck::bytes() const {
  if (!active_) return 0;
  const AllocCounters now = scope_ == Scope::kThread ? ThreadAllocCounters()
                                                     : GlobalAllocCounters();
  return now.bytes - entry_bytes_;
}

ScopedAllocCheck::~ScopedAllocCheck() {
  if (!active_) return;
  const std::int64_t region_count = count();
  const std::int64_t region_bytes = bytes();
  t_region_head = parent_;
  if (mode_ == Mode::kAssertNoAlloc) --t_assert_depth;

  SiteSlot& site = Site(site_);
  site.count.fetch_add(region_count, std::memory_order_relaxed);
  site.bytes.fetch_add(region_bytes, std::memory_order_relaxed);
  const char* site_name = site.name.load(std::memory_order_acquire);

  if (mode_ == Mode::kCensus) {
    PublishCensus(site_name, region_count, region_bytes);
    return;
  }
  if (violations_ == 0) return;
  t_bypass = true;
  {
    EXACLIM_LOG(kError) << "no-alloc region '"
                        << (site_name != nullptr ? site_name : "?") << "' ("
                        << (site.file != nullptr ? site.file : "?") << ":"
                        << site.line << ") saw " << violations_
                        << " heap allocation(s), first of "
                        << first_violation_bytes_ << " bytes";
  }
  t_bypass = false;
  if (AllocTrackingStrict()) {
    // A throw would escape a destructor; strict mode is a CI gate, so
    // fail hard and loud instead.
    std::fputs("EXACLIM_ALLOC_TRACK=strict: allocation inside no-alloc "
               "region; aborting\n",
               stderr);
    std::abort();
  }
}

}  // namespace exaclim

// ---------------------------------------------------------- interposer --
// Global replacements for the allocation functions ([new.delete] — the
// program-wide definitions every TU in the binary uses once this object
// file is linked). All forms funnel into TrackedAlloc/TrackedFree above.

void* operator new(std::size_t size) {
  void* ptr = exaclim::TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = exaclim::TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return exaclim::TrackedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return exaclim::TrackedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = exaclim::TrackedAllocAligned(
      size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = exaclim::TrackedAllocAligned(
      size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return exaclim::TrackedAllocAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return exaclim::TrackedAllocAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept { exaclim::TrackedFree(ptr, 0); }

void operator delete[](void* ptr) noexcept { exaclim::TrackedFree(ptr, 0); }

void operator delete(void* ptr, std::size_t) noexcept {
  // Ignore the compiler's size hint: bytes freed are measured the same
  // way bytes allocated were (usable size), keeping live-byte math
  // internally consistent.
  exaclim::TrackedFree(ptr, 0);
}

void operator delete[](void* ptr, std::size_t) noexcept {
  exaclim::TrackedFree(ptr, 0);
}

void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  exaclim::TrackedFree(ptr, 0);
}

void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  exaclim::TrackedFree(ptr, 0);
}

void operator delete(void* ptr, std::align_val_t) noexcept {
  exaclim::TrackedFree(ptr, 0);
}

void operator delete[](void* ptr, std::align_val_t) noexcept {
  exaclim::TrackedFree(ptr, 0);
}

void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  exaclim::TrackedFree(ptr, 0);
}

void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  exaclim::TrackedFree(ptr, 0);
}
