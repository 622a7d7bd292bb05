#include "common/pool.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace exaclim {
namespace {

// ------------------------------------------------------- block layout --

// Every pooled block is one ::operator new allocation: a 64-byte header
// followed by the 64-byte-aligned float payload. The header doubles as
// the registry entry (magic + bucket) and as the intrusive free-list
// link, so pushing/popping free blocks never allocates.
constexpr std::size_t kHeaderBytes = 64;
constexpr std::uint64_t kLiveMagic = 0xec11a110c0ffee01ull;
constexpr std::uint64_t kFreeMagic = 0xec11f4ee0ddba115ull;

struct BlockHeader {
  std::uint64_t magic = 0;
  std::int32_t bucket = 0;
  std::uint32_t pad = 0;
  BlockHeader* next = nullptr;  // free-list link while free
};
static_assert(sizeof(BlockHeader) <= kHeaderBytes,
              "header must fit its reserved slot");

float* PayloadOf(BlockHeader* h) {
  return reinterpret_cast<float*>(reinterpret_cast<char*>(h) +
                                  kHeaderBytes);
}

BlockHeader* HeaderOf(float* payload) {
  return reinterpret_cast<BlockHeader*>(reinterpret_cast<char*>(payload) -
                                        kHeaderBytes);
}

// Size classes: the largest holds kMinBucketElems << 25 floats (8 GiB).
constexpr std::int32_t kBucketCount = 26;

// ------------------------------------------------------------- knobs --

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag([] {
    const char* env = std::getenv("EXACLIM_POOL");
    return env == nullptr || ParseEnvSwitch("EXACLIM_POOL", env);
  }());
  return flag;
}

// -------------------------------------------------------- central pool --

// Global free-lists plus the pointer registry. Intentionally immortal
// (function-local static pointer, never deleted): worker threads flush
// their caches here at exit, and a static Tensor destroyed after main
// may still release into it. All blocks stay reachable through the
// registry, so leak checkers classify them as still-reachable, not
// leaked.
struct CentralPool {
  Mutex mutex;
  std::array<BlockHeader*, kBucketCount> free_lists
      EXACLIM_GUARDED_BY(mutex){};
  std::vector<const float*> registry EXACLIM_GUARDED_BY(mutex);
};

CentralPool& Central() {
  // Immortal singleton, reachable via the static (LSan-clean).
  static CentralPool* central = new CentralPool;  // lint:allow(naked-new)
  return *central;
}

// -------------------------------------------------------------- stats --

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};
std::atomic<std::int64_t> g_hit_count{0};
std::atomic<std::int64_t> g_miss_count{0};
std::atomic<std::int64_t> g_outstanding{0};

void NoteLiveDelta(std::int64_t delta) {
  const std::int64_t live =
      g_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

// -------------------------------------------------------- thread cache --

// Per-thread intrusive free-lists, capped per bucket; overflow and
// thread exit spill into the central lists. No heap use on any path.
constexpr std::int32_t kMaxCachedPerBucket = 8;

// Set when this thread's cache is destroyed at thread exit. Thread-locals
// die in reverse construction order, so on a thread whose first pool use
// was AcquireScratch (the exchange thread's fusion buffer) the scratch
// slots die *after* the cache; their releases must reach the central
// lists, or the blocks sit in the dead cache where no thread finds them
// again and every later thread allocates fresh ones.
thread_local bool t_cache_destroyed = false;

struct ThreadCache {
  std::array<BlockHeader*, kBucketCount> free_lists{};
  std::array<std::int32_t, kBucketCount> counts{};

  ~ThreadCache() {
    Flush();
    t_cache_destroyed = true;
  }

  void Flush() {
    CentralPool& central = Central();
    MutexLock lock(central.mutex);
    for (std::int32_t b = 0; b < kBucketCount; ++b) {
      while (free_lists[static_cast<std::size_t>(b)] != nullptr) {
        BlockHeader* h = free_lists[static_cast<std::size_t>(b)];
        free_lists[static_cast<std::size_t>(b)] = h->next;
        h->next = central.free_lists[static_cast<std::size_t>(b)];
        central.free_lists[static_cast<std::size_t>(b)] = h;
      }
      counts[static_cast<std::size_t>(b)] = 0;
    }
  }
};

ThreadCache& Cache() {
  thread_local ThreadCache cache;
  return cache;
}

/// This thread's cache, or nullptr once it was destroyed at thread exit.
ThreadCache* LiveCache() { return t_cache_destroyed ? nullptr : &Cache(); }

BlockHeader* PopBlock(std::int32_t bucket) {
  const auto b = static_cast<std::size_t>(bucket);
  ThreadCache* cache = LiveCache();
  if (cache != nullptr && cache->free_lists[b] != nullptr) {
    BlockHeader* h = cache->free_lists[b];
    cache->free_lists[b] = h->next;
    --cache->counts[b];
    return h;
  }
  CentralPool& central = Central();
  MutexLock lock(central.mutex);
  BlockHeader* h = central.free_lists[b];
  if (h != nullptr) central.free_lists[b] = h->next;
  return h;
}

void PushBlock(BlockHeader* h) {
  const auto b = static_cast<std::size_t>(h->bucket);
  ThreadCache* cache = LiveCache();
  if (cache != nullptr && cache->counts[b] < kMaxCachedPerBucket) {
    h->next = cache->free_lists[b];
    cache->free_lists[b] = h;
    ++cache->counts[b];
    return;
  }
  CentralPool& central = Central();
  MutexLock lock(central.mutex);
  h->next = central.free_lists[b];
  central.free_lists[b] = h;
}

BlockHeader* NewBlock(std::int32_t bucket) {
  const std::size_t bytes =
      kHeaderBytes + PoolBucketElems(bucket) * sizeof(float);
  // Deliberately ::operator new, not malloc: a pool MISS must stay
  // visible to the alloc_tracker interposer, so the zero-alloc gate
  // cannot be cheated by routing tensor traffic around the counters.
  // lint:allow(naked-new) — the arena is the owner; blocks are immortal.
  auto* h = static_cast<BlockHeader*>(
      ::operator new(bytes, std::align_val_t{kHeaderBytes}));
  h->bucket = bucket;
  h->pad = 0;
  h->next = nullptr;
  CentralPool& central = Central();
  MutexLock lock(central.mutex);
  central.registry.push_back(PayloadOf(h));
  return h;
}

std::atomic<PoolMetricSink> g_pool_sink{nullptr};

}  // namespace

// -------------------------------------------------------------- public --

bool PoolEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetPoolEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

std::int32_t PoolBucketCount() { return kBucketCount; }

std::int32_t PoolBucketIndex(std::size_t elems) {
  std::size_t cap = kMinBucketElems;
  std::int32_t bucket = 0;
  while (cap < elems) {
    cap <<= 1;
    ++bucket;
  }
  return bucket < kBucketCount ? bucket : kPoolBucketHeap;
}

std::size_t PoolBucketElems(std::int32_t bucket) {
  EXACLIM_CHECK(bucket >= 0 && bucket < kBucketCount,
                "bucket " << bucket << " out of range");
  return kMinBucketElems << bucket;
}

void PoolBuffer::Release() {
  if (data_ == nullptr) return;
  if (bucket_ == kPoolBucketHeap) {
    delete[] data_;  // lint:allow(naked-new) heap escape hatch
  } else {
    BlockHeader* h = HeaderOf(data_);
    EXACLIM_DCHECK(h->magic == kLiveMagic,
                   "pool release of corrupt or double-released block");
    h->magic = kFreeMagic;
    NoteLiveDelta(-static_cast<std::int64_t>(capacity_ * sizeof(float)));
    g_outstanding.fetch_sub(1, std::memory_order_relaxed);
    PushBlock(h);
  }
  data_ = nullptr;
  capacity_ = 0;
  bucket_ = kPoolBucketHeap;
}

PoolBuffer AcquirePoolBuffer(std::size_t elems) {
  PoolBuffer buf;
  if (elems == 0) return buf;
  const std::int32_t bucket =
      PoolEnabled() ? PoolBucketIndex(elems) : kPoolBucketHeap;
  if (bucket == kPoolBucketHeap) {
    // Escape hatch (EXACLIM_POOL=off) or over-bucket request: exact-size
    // heap allocation, tracked like any other operator new[].
    buf.data_ = new float[elems];  // lint:allow(naked-new)
    buf.capacity_ = elems;
    buf.bucket_ = kPoolBucketHeap;
    return buf;
  }
  BlockHeader* h = PopBlock(bucket);
  if (h != nullptr) {
    EXACLIM_DCHECK(h->magic == kFreeMagic && h->bucket == bucket,
                   "pool free-list block corrupt");
    g_hit_count.fetch_add(1, std::memory_order_relaxed);
  } else {
    h = NewBlock(bucket);
    g_miss_count.fetch_add(1, std::memory_order_relaxed);
  }
  h->magic = kLiveMagic;
  buf.data_ = PayloadOf(h);
  buf.capacity_ = PoolBucketElems(bucket);
  buf.bucket_ = bucket;
  NoteLiveDelta(static_cast<std::int64_t>(buf.capacity_ * sizeof(float)));
  g_outstanding.fetch_add(1, std::memory_order_relaxed);
  return buf;
}

PoolStats GetPoolStats() {
  PoolStats stats;
  stats.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  stats.peak_live_bytes = g_peak_live_bytes.load(std::memory_order_relaxed);
  stats.hit_count = g_hit_count.load(std::memory_order_relaxed);
  stats.miss_count = g_miss_count.load(std::memory_order_relaxed);
  stats.outstanding_buffers =
      g_outstanding.load(std::memory_order_relaxed);
  CentralPool& central = Central();
  MutexLock lock(central.mutex);
  stats.block_count = static_cast<std::int64_t>(central.registry.size());
  return stats;
}

void ResetPoolCounters() {
  g_hit_count.store(0, std::memory_order_relaxed);
  g_miss_count.store(0, std::memory_order_relaxed);
  g_peak_live_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

bool PoolOwnsPointer(const float* p) {
  if (p == nullptr) return false;
  CentralPool& central = Central();
  MutexLock lock(central.mutex);
  for (const float* payload : central.registry) {
    if (payload == p) return true;
  }
  return false;
}

void FlushThreadPoolCache() { Cache().Flush(); }

void SetPoolMetricSink(PoolMetricSink sink) {
  g_pool_sink.store(sink, std::memory_order_release);
}

void PublishPoolMetrics() {
  const PoolMetricSink sink = g_pool_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  const PoolStats stats = GetPoolStats();
  sink("pool.live_bytes", static_cast<double>(stats.live_bytes));
  sink("pool.peak_live_bytes",
       static_cast<double>(stats.peak_live_bytes));
  sink("pool.hit_count", static_cast<double>(stats.hit_count));
  sink("pool.miss_count", static_cast<double>(stats.miss_count));
}

}  // namespace exaclim
