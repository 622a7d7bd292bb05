#pragma once

#include <span>

#include "comm/collectives.hpp"
#include "comm/world.hpp"

namespace exaclim {

/// The paper's hybrid NCCL+MPI all-reduce (Sec V-A3).
///
/// Three phases, run over a flat communicator with a node topology:
///  1. intra-node ring all-reduce over the node's GPUs (the NCCL/NVLink
///     phase) — afterwards all local ranks hold the node-local sum;
///  2. `mpi_ranks_per_node` of the local ranks each take one shard
///     (a "quarter" with the paper's 4-of-6 split) and all-reduce it with
///     the same-indexed rank on every other node (the MPI/InfiniBand
///     phase, one shard per virtual IB device);
///  3. each shard owner broadcasts its fully reduced shard within the
///     node (the NCCL broadcast phase), leaving every rank with the
///     complete result.
///
/// Ranks whose world size is a single node degenerate to phase 1 only
/// (Piz Daint's 1 GPU/node instead skips phase 1 and 3).
struct HybridAllreduceOptions {
  Topology topology{.ranks_per_node = 6};
  int mpi_ranks_per_node = 4;
  /// Inter-node shard all-reduce algorithm (tree matches MPI's scale
  /// behaviour; ring is bandwidth-optimal).
  bool inter_node_tree = true;
};

/// In-place sum across all ranks. World size must be a whole number of
/// nodes. All ranks must call collectively. `wire` selects the message
/// encoding (packed binary16 halves every phase's traffic; each phase
/// quantises kept data exactly where it quantises sent data, so all
/// ranks still finish bit-identical — see comm/collectives.hpp).
void HybridAllreduce(Communicator& comm, std::span<float> data,
                     const HybridAllreduceOptions& opts, int tag = 9500,
                     WireFormat wire = WireFormat::kFP32);

/// Deadline-aware variant: returns instead of hanging when a rank dies
/// in any of the three phases. The blocking form delegates here with
/// kNoTimeout (identical message pattern and combining order).
CollectiveResult TryHybridAllreduce(Communicator& comm, std::span<float> data,
                                    const HybridAllreduceOptions& opts,
                                    const Deadline& deadline, int tag = 9500,
                                    WireFormat wire = WireFormat::kFP32);

}  // namespace exaclim
