#pragma once

// Batch-parallel convolution execution engine (DESIGN §9).
//
// The conv/deconv/pool layers decompose each batch into contiguous image
// shards and run the shards through ThreadPool::Global(). The shard
// partition and the weight-gradient reduction tree depend only on the
// batch size — never on the thread count or on scheduling — so the
// batch-parallel backward pass produces bit-identical gradients to the
// serial batch walk. Nested GEMMs issued from inside a shard run inline
// via the pool's nesting policy.

#include <cstdint>
#include <span>

#include "common/function_ref.hpp"
#include "common/pool.hpp"
#include "nn/conv_geometry.hpp"

namespace exaclim {

/// Whether conv-family layers run their batch shards on the global pool.
/// Defaults to on. Either mode computes the exact same floating-point
/// operation sequence per gradient element.
bool ConvBatchParallelEnabled();

/// Switches to the serial batch walk and back (benches and the
/// serial-vs-parallel bit-exactness tests use the serial walk as the
/// reference).
void SetConvBatchParallel(bool enabled);

/// Whether Sequential fuses Conv2d→BatchNorm2d→ReLU chains and the conv
/// layers fold their bias into the packed GEMM epilogue (DESIGN §15).
/// Defaults to on. Fused and unfused execution are bit-identical.
bool ConvFusionEnabled();

/// Switches fusion off and back (benches and the fused-vs-unfused
/// bit-exactness tests use the unfused walk as the reference).
void SetConvFusion(bool enabled);

/// Number of shards a batch of `n` images is decomposed into:
/// min(n, 16). Fixed for a given batch size, so the gradient reduction
/// tree is reproducible across machines with different core counts.
std::int64_t ConvGradShards(std::int64_t n);

/// Contiguous image range [lo, hi) owned by `shard` under the
/// deterministic ceil(n/shards) split ParallelFor also uses.
struct ConvShardRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
ConvShardRange ShardImageRange(std::int64_t n, std::int64_t shards,
                               std::int64_t shard);

/// Runs fn(shard) for every shard in [0, shards): on the global pool when
/// ConvBatchParallelEnabled(), serially in shard order otherwise. Each
/// shard touches only its own workspace slot, so the modes differ only in
/// scheduling.
void RunConvShards(std::int64_t shards,
                   FunctionRef<void(std::int64_t)> fn);

/// A cached data-gradient plan (BuildGradRows): stride*stride phases
/// and the Taps()*out_c row table their `row0` indexes.
struct ConvGradPlan {
  std::span<const ConvGradPhase> phases;
  const GemmImplicitRow* rows = nullptr;
};

/// Reusable per-layer workspace of the implicit-GEMM conv layers:
/// per-shard stride-phase scratch plus per-shard weight/bias gradient
/// accumulators, and the per-geometry row tables. Buffers are pooled
/// blocks (common/pool.hpp), sized once per (geometry, shard-count) and
/// reused across Forward/Backward calls; a geometry change recycles the
/// old blocks through the arena free-lists instead of the heap. No
/// buffer here ever holds a patch matrix (DESIGN §15).
class ConvWorkspace {
 public:
  /// (Re)sizes the buffers; cheap no-op when nothing changed. Element
  /// counts of zero skip the corresponding buffer family.
  void Configure(std::int64_t shards, std::int64_t scratch_elems,
                 std::int64_t weight_elems, std::int64_t bias_elems);

  /// The shard's stride-phase scratch: one phase of a data gradient is
  /// computed here, then copied into its strided sub-grid.
  float* Scratch(std::int64_t shard);
  float* WeightGrad(std::int64_t shard);
  float* BiasGrad(std::int64_t shard);

  /// Zeroes the gradient accumulators ahead of a Backward pass.
  void ZeroGradAccumulators();

  /// Merges the per-shard accumulators by a fixed-order pairwise tree
  /// (shard 0 += shard 1, shard 2 += shard 3, ...; doubling strides) and
  /// accumulates the root into dst. The tree shape depends only on the
  /// shard count, pinning the reduction order.
  void ReduceWeightGradInto(float* dst);
  void ReduceBiasGradInto(float* dst);

  /// The implicit-GEMM row-descriptor table for `g` (DESIGN §15), built
  /// on first use and rebuilt only when the geometry changes — repeat
  /// calls with the layer's steady-state geometry touch neither the heap
  /// nor the arena. The table is shared read-only by every batch shard
  /// (and by the forward/backward passes, whose geometries coincide).
  const GemmImplicitRow* ImplicitRows(const ConvGeometry& g);

  /// The data-gradient plan of `g` with `out_c` output channels, cached
  /// like ImplicitRows (keyed by geometry and out_c).
  ConvGradPlan GradPlan(const ConvGeometry& g, std::int64_t out_c);

 private:
  std::int64_t shards_ = 0;
  std::int64_t scratch_elems_ = 0;
  std::int64_t weight_elems_ = 0;
  std::int64_t bias_elems_ = 0;
  PoolBuffer scratch_;
  PoolBuffer weight_grad_;
  PoolBuffer bias_grad_;
  ConvGeometry rows_geometry_;  // geometry rows_ was built for
  PoolBuffer rows_;             // GemmImplicitRow[PatchSize()] overlay
  ConvGeometry grad_geometry_;  // geometry + out_c the grad plan is for
  std::int64_t grad_out_c_ = 0;
  PoolBuffer grad_phases_;  // ConvGradPhase[stride^2] overlay
  PoolBuffer grad_rows_;    // GemmImplicitRow[Taps()*out_c] overlay
};

}  // namespace exaclim
