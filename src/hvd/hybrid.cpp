#include "hvd/hybrid.hpp"

#include <numeric>

#include "comm/collectives.hpp"
#include "common/error.hpp"

namespace exaclim {

CollectiveResult TryHybridAllreduce(Communicator& comm, std::span<float> data,
                                    const HybridAllreduceOptions& opts,
                                    const Deadline& deadline, int tag,
                                    WireFormat wire) {
  const int p = comm.size();
  const Topology& topo = opts.topology;
  const int rpn = topo.ranks_per_node;
  EXACLIM_CHECK(p % rpn == 0,
                "hybrid allreduce: world size " << p
                                                << " not a multiple of "
                                                << rpn);
  const int nodes = p / rpn;
  const int mpi_ranks = std::min<int>(opts.mpi_ranks_per_node, rpn);
  const int rank = comm.rank();
  const int node = topo.NodeOf(rank);
  const int local = topo.LocalRank(rank);

  // Group of this node's local ranks.
  std::vector<int> node_ranks(static_cast<std::size_t>(rpn));
  std::iota(node_ranks.begin(), node_ranks.end(), node * rpn);
  const RankGroup node_group(node_ranks, rank);

  // Phase 1 (NCCL): intra-node ring all-reduce. All phases scan the
  // whole world for deaths: the hybrid scheme only runs over the full
  // generation-0 world, so a death anywhere dooms it — waiting out the
  // deadline inside an unaffected subgroup would just delay recovery.
  if (rpn > 1) {
    CollectiveResult r = TryGroupAllreduceRing(comm, node_group, data,
                                               deadline, tag,
                                               DeadScan::kWorld, wire);
    if (!r.ok()) return r;
  }
  if (nodes == 1) return {};

  // Phase 2 (MPI): the first `mpi_ranks` local ranks each all-reduce one
  // shard with their same-indexed peers across nodes.
  const auto shards = ComputeShards(data.size(), mpi_ranks);
  if (local < mpi_ranks) {
    std::vector<int> peer_ranks(static_cast<std::size_t>(nodes));
    for (int nd = 0; nd < nodes; ++nd) {
      peer_ranks[static_cast<std::size_t>(nd)] = topo.GlobalRank(nd, local);
    }
    const RankGroup peers(peer_ranks, rank);
    const auto& s = shards[static_cast<std::size_t>(local)];
    std::span<float> shard(data.data() + s.offset, s.count);
    if (!shard.empty()) {
      const int shard_tag = tag + 100 + local;
      CollectiveResult r =
          opts.inter_node_tree
              ? TryGroupAllreduceTree(comm, peers, shard, deadline,
                                      shard_tag, DeadScan::kWorld, wire)
              : TryGroupAllreduceRing(comm, peers, shard, deadline,
                                      shard_tag, DeadScan::kWorld, wire);
      if (!r.ok()) return r;
    }
  }

  // Phase 3 (NCCL): each shard owner broadcasts its shard node-locally.
  if (rpn > 1) {
    for (int owner = 0; owner < mpi_ranks; ++owner) {
      const auto& s = shards[static_cast<std::size_t>(owner)];
      if (s.count == 0) continue;
      CollectiveResult r = TryGroupBroadcast(
          comm, node_group, owner,
          std::span<float>(data.data() + s.offset, s.count), deadline,
          tag + 500 + owner, DeadScan::kWorld, wire);
      if (!r.ok()) return r;
    }
  }
  return {};
}

void HybridAllreduce(Communicator& comm, std::span<float> data,
                     const HybridAllreduceOptions& opts, int tag,
                     WireFormat wire) {
  RequireCollective(
      comm, "HybridAllreduce",
      TryHybridAllreduce(comm, data, opts, Deadline(kNoTimeout), tag, wire));
}

}  // namespace exaclim
