#include "nn/conv_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/alloc_tracker.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace exaclim {
namespace {

// Upper bound on the shards a batch is split into. It fixes the weight-
// gradient reduction tree, so changing it changes FP rounding.
constexpr std::int64_t kMaxConvShards = 16;

std::atomic<bool> g_batch_parallel{true};
std::atomic<bool> g_fusion{true};

}  // namespace

bool ConvBatchParallelEnabled() {
  return g_batch_parallel.load(std::memory_order_relaxed);
}

void SetConvBatchParallel(bool enabled) {
  g_batch_parallel.store(enabled, std::memory_order_relaxed);
}

bool ConvFusionEnabled() {
  return g_fusion.load(std::memory_order_relaxed);
}

void SetConvFusion(bool enabled) {
  g_fusion.store(enabled, std::memory_order_relaxed);
}

std::int64_t ConvGradShards(std::int64_t n) {
  return std::max<std::int64_t>(1, std::min(n, kMaxConvShards));
}

ConvShardRange ShardImageRange(std::int64_t n, std::int64_t shards,
                               std::int64_t shard) {
  const std::int64_t chunk = (n + shards - 1) / shards;
  ConvShardRange r;
  r.lo = std::min(n, shard * chunk);
  r.hi = std::min(n, r.lo + chunk);
  return r;
}

void RunConvShards(std::int64_t shards,
                   FunctionRef<void(std::int64_t)> fn) {
  // Census over the whole shard run (workers included): in a warmed-up
  // step this should be near zero — the workspace and pack scratch are
  // grow-only — so conv.shards is the first place arena regressions show.
  EXACLIM_ALLOC_CENSUS("conv.shards");
  if (!ConvBatchParallelEnabled() || shards <= 1 ||
      ThreadPool::InParallelRegion()) {
    for (std::int64_t s = 0; s < shards; ++s) fn(s);
    return;
  }
  const auto run_range = [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      fn(static_cast<std::int64_t>(s));
    }
  };
  ParallelFor(0, static_cast<std::size_t>(shards), run_range, /*grain=*/1);
}

void ConvWorkspace::Configure(std::int64_t shards, std::int64_t scratch_elems,
                              std::int64_t weight_elems,
                              std::int64_t bias_elems) {
  EXACLIM_CHECK(shards >= 1, "workspace needs at least one shard");
  if (shards == shards_ && scratch_elems == scratch_elems_ &&
      weight_elems == weight_elems_ && bias_elems == bias_elems_) {
    return;
  }
  shards_ = shards;
  scratch_elems_ = scratch_elems;
  weight_elems_ = weight_elems;
  bias_elems_ = bias_elems;
  // Re-acquire only families that no longer fit: the old block returns
  // to the arena free-lists and a same-bucket layer elsewhere reuses it.
  const auto fit = [](PoolBuffer& buf, std::int64_t elems) {
    if (static_cast<std::size_t>(elems) > buf.capacity()) {
      buf = AcquirePoolBuffer(static_cast<std::size_t>(elems));
    }
  };
  fit(scratch_, shards * scratch_elems);
  fit(weight_grad_, shards * weight_elems);
  fit(bias_grad_, shards * bias_elems);
}

float* ConvWorkspace::Scratch(std::int64_t shard) {
  return scratch_.data() + shard * scratch_elems_;
}

float* ConvWorkspace::WeightGrad(std::int64_t shard) {
  return weight_grad_.data() + shard * weight_elems_;
}

float* ConvWorkspace::BiasGrad(std::int64_t shard) {
  return bias_grad_.data() + shard * bias_elems_;
}

void ConvWorkspace::ZeroGradAccumulators() {
  const std::size_t weight_bytes =
      static_cast<std::size_t>(shards_ * weight_elems_) * sizeof(float);
  if (weight_bytes > 0) std::memset(weight_grad_.data(), 0, weight_bytes);
  const std::size_t bias_bytes =
      static_cast<std::size_t>(shards_ * bias_elems_) * sizeof(float);
  if (bias_bytes > 0) std::memset(bias_grad_.data(), 0, bias_bytes);
}

namespace {

// In-place pairwise tree over `shards` buffers of `size` floats, then
// dst += root. The per-element addition order is a pure function of the
// shard count.
void TreeReduceInto(float* dst, float* buffers, std::int64_t shards,
                    std::int64_t size) {
  if (size == 0) return;
  // hot-path: begin
  for (std::int64_t stride = 1; stride < shards; stride *= 2) {
    for (std::int64_t s = 0; s + stride < shards; s += 2 * stride) {
      float* a = buffers + s * size;
      const float* b = buffers + (s + stride) * size;
      for (std::int64_t i = 0; i < size; ++i) a[i] += b[i];
    }
  }
  for (std::int64_t i = 0; i < size; ++i) dst[i] += buffers[i];
  // hot-path: end
}

}  // namespace

void ConvWorkspace::ReduceWeightGradInto(float* dst) {
  TreeReduceInto(dst, weight_grad_.data(), shards_, weight_elems_);
}

void ConvWorkspace::ReduceBiasGradInto(float* dst) {
  TreeReduceInto(dst, bias_grad_.data(), shards_, bias_elems_);
}

namespace {

// Views `buf` as an array of `count` plain-old-data records, growing it
// first when it is too small. PoolBuffer payloads are at least 16-byte
// aligned, which covers the int64 members of the overlaid tables.
template <typename T>
T* Overlay(PoolBuffer& buf, std::int64_t count) {
  const std::size_t floats =
      (static_cast<std::size_t>(count) * sizeof(T) + sizeof(float) - 1) /
      sizeof(float);
  if (buf.null() || buf.capacity() < floats) {
    buf = AcquirePoolBuffer(floats > 0 ? floats : 1);
  }
  return reinterpret_cast<T*>(buf.data());
}

}  // namespace

const GemmImplicitRow* ConvWorkspace::ImplicitRows(const ConvGeometry& g) {
  if (!(g == rows_geometry_) || rows_.null()) {
    BuildImplicitRows(g, Overlay<GemmImplicitRow>(rows_, g.PatchSize()));
    rows_geometry_ = g;
  }
  return reinterpret_cast<const GemmImplicitRow*>(rows_.data());
}

ConvGradPlan ConvWorkspace::GradPlan(const ConvGeometry& g,
                                     std::int64_t out_c) {
  const std::int64_t phases = g.stride * g.stride;
  if (!(g == grad_geometry_) || out_c != grad_out_c_ || grad_rows_.null()) {
    BuildGradRows(g, out_c, Overlay<ConvGradPhase>(grad_phases_, phases),
                  Overlay<GemmImplicitRow>(grad_rows_, g.Taps() * out_c));
    grad_geometry_ = g;
    grad_out_c_ = out_c;
  }
  ConvGradPlan plan;
  plan.phases = {reinterpret_cast<const ConvGradPhase*>(grad_phases_.data()),
                 static_cast<std::size_t>(phases)};
  plan.rows = reinterpret_cast<const GemmImplicitRow*>(grad_rows_.data());
  return plan;
}

}  // namespace exaclim
