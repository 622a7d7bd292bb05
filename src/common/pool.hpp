#pragma once

#include <cstddef>
#include <cstdint>

// Pooled tensor memory (DESIGN §12).
//
// A size-bucketed arena allocator with a pointer registry and per-thread
// free-lists, sitting underneath Tensor storage and the workspace scratch
// streams. Buffers are handed out as RAII PoolBuffer handles (pointer +
// capacity + bucket id); releasing a handle pushes the block onto the
// releasing thread's free-list (overflowing to the central list), so a
// warmed-up training step recycles every tensor temporary without
// touching the heap — the zero-steady-state-allocation invariant the
// ci.sh alloc-smoke budget enforces.
//
// Bucket policy: capacities are kMinBucketElems << bucket (64 floats,
// 128, 256, ... — power-of-two rounding). Requests above the largest
// bucket (26 size classes -> 8 GiB) and all requests with
// EXACLIM_POOL=off bypass the pool entirely and use plain
// operator new[], preserving pre-pool behaviour for bisection.
//
// Registry contract: every pooled block is created by ::operator new (so
// pool *misses* stay visible to the alloc_tracker interposer), carries a
// magic+bucket header, and is recorded in a central registry for the
// lifetime of the process. Blocks are never returned to the OS; free
// blocks wait on free-lists. PoolOwnsPointer() consults the registry,
// double-release trips the header magic check.

namespace exaclim {

// ------------------------------------------------------------- toggles --

/// Whether AcquirePoolBuffer serves from the arena. Seeded from
/// EXACLIM_POOL on first use: unset or on|1|true enable it, off|0|false
/// disable it, anything else fails (common/env.hpp). The flag is
/// consulted at acquire time only: a buffer always releases to wherever
/// it came from (its bucket id), so the switch may flip between phases
/// without corrupting outstanding handles.
bool PoolEnabled();

/// Programmatic override of the env default (tests, benches).
void SetPoolEnabled(bool enabled);

// ------------------------------------------------------ bucket policy --

/// Smallest bucket capacity in floats (256 bytes).
inline constexpr std::size_t kMinBucketElems = 64;

/// Bucket id of a direct-heap (non-pooled) buffer.
inline constexpr std::int32_t kPoolBucketHeap = -1;

/// Number of size classes: 26 (the largest holds 8 GiB).
std::int32_t PoolBucketCount();

/// Size class serving a request of `elems` floats, or kPoolBucketHeap
/// when the request exceeds the largest bucket. elems == 0 maps to
/// bucket 0.
std::int32_t PoolBucketIndex(std::size_t elems);

/// Capacity in floats of bucket `bucket` (kMinBucketElems << bucket).
std::size_t PoolBucketElems(std::int32_t bucket);

// ------------------------------------------------------------- handle --

/// RAII handle to one pool block (or one heap fallback allocation).
/// Move-only; destruction returns the block to the pool. Contents are
/// unspecified on acquire — owners that need zeros clear explicitly
/// (Tensor does).
class PoolBuffer {
 public:
  PoolBuffer() = default;
  ~PoolBuffer() { Release(); }

  PoolBuffer(PoolBuffer&& other) noexcept
      : data_(other.data_), capacity_(other.capacity_),
        bucket_(other.bucket_) {
    other.data_ = nullptr;
    other.capacity_ = 0;
    other.bucket_ = kPoolBucketHeap;
  }
  PoolBuffer& operator=(PoolBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      capacity_ = other.capacity_;
      bucket_ = other.bucket_;
      other.data_ = nullptr;
      other.capacity_ = 0;
      other.bucket_ = kPoolBucketHeap;
    }
    return *this;
  }

  PoolBuffer(const PoolBuffer&) = delete;
  PoolBuffer& operator=(const PoolBuffer&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  /// Usable capacity in floats (the bucket capacity for pooled blocks,
  /// the exact request for heap fallbacks).
  std::size_t capacity() const { return capacity_; }
  std::int32_t bucket() const { return bucket_; }
  bool null() const { return data_ == nullptr; }

  /// Returns the block to the pool now (idempotent).
  void Release();

 private:
  friend PoolBuffer AcquirePoolBuffer(std::size_t elems);

  float* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::int32_t bucket_ = kPoolBucketHeap;
};

/// Acquires a buffer of at least `elems` floats: this thread's free-list
/// first, then the central list, then a fresh ::operator new block (a
/// miss). elems == 0 returns a null handle with capacity 0. With the
/// pool disabled or the request over-bucket, falls back to operator
/// new[] with exact capacity.
PoolBuffer AcquirePoolBuffer(std::size_t elems);

// -------------------------------------------------- stats & registry --

/// Snapshot of the arena. live/peak count pooled bucket bytes handed to
/// outstanding handles; hits/misses count free-list serves vs fresh
/// block creations; outstanding_buffers counts live pooled handles;
/// block_count is the registry size (blocks ever created).
struct PoolStats {
  std::int64_t live_bytes = 0;
  std::int64_t peak_live_bytes = 0;
  std::int64_t hit_count = 0;
  std::int64_t miss_count = 0;
  std::int64_t outstanding_buffers = 0;
  std::int64_t block_count = 0;
};
PoolStats GetPoolStats();

/// Zeroes hit/miss counters and resets peak to the current live bytes
/// (phase boundary between warmup and a measured window).
void ResetPoolCounters();

/// True when `p` is the payload of a block the arena created (live or
/// free). Heap-fallback pointers are not registered.
bool PoolOwnsPointer(const float* p);

/// Flushes the calling thread's free-lists into the central pool (also
/// runs automatically at thread exit).
void FlushThreadPoolCache();

// ------------------------------------------------------ metric bridge --

/// The metric bridge to obs (common cannot link obs): PublishPoolMetrics
/// pushes "pool.live_bytes", "pool.peak_live_bytes", "pool.hit_count"
/// and "pool.miss_count" gauge updates through this pointer when
/// installed. obs::Enable installs a sink that forwards to the
/// MetricsRegistry; null means no publication.
using PoolMetricSink = void (*)(const char* name, double value);
void SetPoolMetricSink(PoolMetricSink sink);

/// Publishes the current PoolStats through the sink (no-op without one).
/// RankTrainer::Step calls this once per step.
void PublishPoolMetrics();

}  // namespace exaclim
