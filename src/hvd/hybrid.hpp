#pragma once

#include <span>

#include "comm/collectives.hpp"
#include "comm/world.hpp"

namespace exaclim {

/// The paper's hybrid NCCL+MPI all-reduce (Sec V-A3).
///
/// Three phases over the members of a RankGroup, where member r sits on
/// node r / ranks_per_node (nodes may be partial; empty ones are skipped):
///  1. intra-node ring all-reduce over the node's members (the
///     NCCL/NVLink phase) — afterwards they hold the node-local sum;
///  2. on a node of m members, member k mod m owns shard k of
///     min(mpi_ranks_per_node, ranks_per_node) (a "quarter" with the
///     paper's 4-of-6 split) and all-reduces it with shard k's owner on
///     every other node by a binomial tree, as MPI does at scale (the
///     MPI/InfiniBand phase, one shard per virtual IB device); every
///     rank runs its shards in increasing k;
///  3. each shard owner broadcasts its fully reduced shard within the
///     node (the NCCL broadcast phase), leaving every rank with the
///     complete result. Every member first broadcasts the shards it
///     owns, then receives (or forwards) the others in increasing k:
///     roots never wait, so all of a node's broadcasts overlap in one
///     hop, and a forwarder's wait on shard k depends only on shards
///     below k — deadlock-free on ragged nodes and for members owning
///     several shards. Only the message timing moves, never the data.
///
/// Members on a single node degenerate to phase 1 only (Piz Daint's 1
/// GPU/node instead skips phase 1 and 3).
struct HybridAllreduceOptions {
  Topology topology{.ranks_per_node = 6};
  int mpi_ranks_per_node = 4;
};

/// Throws unless ranks_per_node and mpi_ranks_per_node are both >= 1.
void CheckHybridOptions(const HybridAllreduceOptions& opts);

/// In-place sum across all ranks of the world. All ranks must call
/// collectively. `wire` selects the message encoding (packed binary16
/// halves every phase's traffic; each phase quantises kept data exactly
/// where it quantises sent data, so all ranks still finish bit-identical
/// — see comm/collectives.hpp).
void HybridAllreduce(Communicator& comm, std::span<float> data,
                     const HybridAllreduceOptions& opts, int tag = 9500,
                     WireFormat wire = WireFormat::kFP32);

/// Deadline-aware form over `group` (e.g. a shrunk elastic view): returns
/// instead of hanging when a rank in `group`'s scope dies. The blocking
/// form delegates here over RankGroup::World with kNoTimeout.
CollectiveResult TryHybridAllreduce(Communicator& comm, const RankGroup& group,
                                    std::span<float> data,
                                    const HybridAllreduceOptions& opts,
                                    const Deadline& deadline, int tag = 9500,
                                    WireFormat wire = WireFormat::kFP32);

}  // namespace exaclim
