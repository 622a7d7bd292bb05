#include "hvd/hybrid.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "common/error.hpp"

namespace exaclim {

void CheckHybridOptions(const HybridAllreduceOptions& opts) {
  EXACLIM_CHECK(opts.topology.ranks_per_node >= 1 &&
                    opts.mpi_ranks_per_node >= 1,
                "hybrid allreduce: topology.ranks_per_node = "
                    << opts.topology.ranks_per_node
                    << " and mpi_ranks_per_node = " << opts.mpi_ranks_per_node
                    << " must both be >= 1");
}

CollectiveResult TryHybridAllreduce(Communicator& comm, const RankGroup& group,
                                    std::span<float> data,
                                    const HybridAllreduceOptions& opts,
                                    const Deadline& deadline, int tag,
                                    WireFormat wire) {
  CheckHybridOptions(opts);
  const int n = group.size();
  const auto node_of = [&](int i) {
    return opts.topology.NodeOf(group.WorldRank(i));
  };
  // The members `keep(i)` selects. Every phase runs over such a subgroup,
  // so it scans `group`'s scope: a death anywhere in the group dooms the
  // result, and waiting out the deadline inside an unaffected node would
  // just delay recovery.
  const auto select = [&](auto keep) {
    std::vector<int> ranks;
    ranks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (keep(i)) ranks.push_back(group.WorldRank(i));
    }
    return group.Subgroup(std::move(ranks));
  };
  const RankGroup node = select(
      [&](int i) { return node_of(i) == node_of(group.my_index()); });

  // Phase 1 (NCCL): intra-node ring all-reduce.
  CollectiveResult r =
      TryGroupAllreduceRing(comm, node, data, deadline, tag, wire);
  if (!r.ok() || node.size() == n) return r;

  // Phase 2 (MPI): on a node of m members, member k mod m owns shard k
  // and all-reduces it with shard k's owner on every other node.
  const int m = node.size();
  const int shard_count =
      std::min(opts.mpi_ranks_per_node, opts.topology.ranks_per_node);
  const auto shards = ComputeShards(data.size(), shard_count);
  for (int k = 0; k < shard_count; ++k) {
    const auto& s = shards[static_cast<std::size_t>(k)];
    if (k % m != node.my_index() || s.count == 0) continue;
    const RankGroup peers = select([&](int i) {
      int local = 0;  // i's index among its node's members
      int members = 0;
      for (int j = 0; j < n; ++j) {
        if (node_of(j) != node_of(i)) continue;
        local += j < i ? 1 : 0;
        ++members;
      }
      return local == k % members;
    });
    const std::span<float> shard(data.data() + s.offset, s.count);
    r = TryGroupAllreduceTree(comm, peers, shard, deadline, tag + 100 + k,
                              wire);
    if (!r.ok()) return r;
  }

  // Phase 3 (NCCL): each shard owner broadcasts its shard node-locally.
  // A member first sends the shards it owns (a root only sends), then
  // receives or forwards the others in increasing k, so every member's
  // broadcasts leave at once instead of waiting behind lower shards.
  for (const bool owned : {true, false}) {
    for (int k = 0; k < shard_count; ++k) {
      const auto& s = shards[static_cast<std::size_t>(k)];
      if ((k % m == node.my_index()) != owned || s.count == 0) continue;
      r = TryGroupBroadcast(comm, node, k % m,
                            std::span<float>(data.data() + s.offset, s.count),
                            deadline, tag + 500 + k, wire);
      if (!r.ok()) return r;
    }
  }
  return {};
}

void HybridAllreduce(Communicator& comm, std::span<float> data,
                     const HybridAllreduceOptions& opts, int tag,
                     WireFormat wire) {
  const RankGroup world = RankGroup::World(comm);
  RequireCollective(comm, "HybridAllreduce",
                    TryHybridAllreduce(comm, world, data, opts,
                                       Deadline(kNoTimeout), tag, wire));
}

}  // namespace exaclim
