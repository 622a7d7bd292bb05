#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/world.hpp"

namespace exaclim {

/// Collective algorithms implemented over point-to-point messaging —
/// the building blocks the paper's hybrid all-reduce composes (Sec
/// V-A3), where different operations run over "the 6 GPUs of a node"
/// (NCCL scope) and "rank k of every node" (MPI scope). Every algorithm
/// therefore runs over a RankGroup, an arbitrary subset of world ranks;
/// the whole world is one group among others (RankGroup::World). All
/// reductions are float sums with deterministic combining order
/// (independent of thread timing), so data-parallel replicas stay
/// bit-identical.
///
/// Each call takes a `tag` namespace; sequential collectives on the same
/// communicator may reuse a tag, concurrent ones must not.
///
/// Every collective has a deadline-aware Try* variant returning a
/// CollectiveResult instead of hanging or throwing when a peer dies
/// mid-operation — the substrate of elastic training (DESIGN §13). The
/// blocking functions are thin wrappers that delegate with kNoTimeout,
/// so both paths execute the identical message pattern and combining
/// order (bit-identical results).

/// Outcome of a deadline-aware collective.
enum class CollectiveStatus {
  kOk,        // completed on every participating edge of this rank
  kPeerDead,  // a participant died; suspect_rank names it
  kTimeout,   // deadline expired with no dead rank detected
};

const char* ToString(CollectiveStatus status);

struct CollectiveResult {
  CollectiveStatus status = CollectiveStatus::kOk;
  /// The dead rank (kPeerDead) or the rank whose message never arrived
  /// (kTimeout). -1 on kOk.
  int suspect_rank = -1;

  bool ok() const { return status == CollectiveStatus::kOk; }
};

/// Throws exaclim::Error naming the culprit when the blocking operation
/// `what` failed — the pre-elastic contract (an unbounded receive from
/// a dead peer threw).
void RequireCollective(const Communicator& comm, const char* what,
                       const CollectiveResult& result);

/// The participating world ranks of a collective; the calling rank must
/// be a member. All members must call with an identical group and tag.
/// A waiting member scans the group's scope for dead ranks: its own
/// members, so elastic generations ignore dead ex-members; a Subgroup
/// keeps its parent's scope, so a phase over a few members still fails
/// fast on any death in the enclosing collective (the hybrid's phases).
class RankGroup {
 public:
  RankGroup(std::vector<int> ranks, int my_world_rank);

  /// Every world rank in order: member i is world rank i.
  static RankGroup World(const Communicator& comm);

  /// The group of `world_ranks` (the calling rank among them), scanning
  /// this group's scope.
  RankGroup Subgroup(std::vector<int> world_ranks) const;

  int size() const { return static_cast<int>(ranks_.size()); }
  int my_index() const { return my_index_; }
  int WorldRank(int index) const { return ranks_.at(static_cast<std::size_t>(index)); }
  /// World ranks whose death fails a wait inside this group.
  std::span<const int> scope() const {
    return scope_.empty() ? std::span<const int>(ranks_) : scope_;
  }

 private:
  std::vector<int> ranks_;
  std::vector<int> scope_;  // empty: the members themselves
  int my_index_;
};

/// Receives from `src` (a world rank, or kAnySource) in short slices,
/// scanning `group`'s scope for dead ranks in between, so a death fails
/// the wait within one slice even when this rank's wait edge is with a
/// live peer that is itself stuck on the dead one. On the healthy path
/// this consumes exactly the same messages as one long wait. On failure
/// `src` of the result names the dead rank (kPeerDead) or echoes the
/// waited-on source (kTimeout).
RecvResult RecvScanningForDead(Communicator& comm, const RankGroup& group,
                               int src, int tag, const Deadline& deadline);

/// Failure result for a receive from `waited` that ended with `status`.
/// A kTimeout while a rank in `group`'s scope is dead names that rank:
/// the timeout is its cascade. Otherwise the timeout names `waited`.
CollectiveResult FailedRecv(const Communicator& comm, const RankGroup& group,
                            int waited, RecvStatus status);

/// Even partition of [0, n) into `parts` contiguous shards — the ring's
/// reduce-scatter layout and the hybrid's per-MPI-rank split.
struct ShardExtent {
  std::size_t offset;
  std::size_t count;
};
std::vector<ShardExtent> ComputeShards(std::size_t n, int parts);

/// On-the-wire encoding of a float payload. kFP32 sends raw floats;
/// kFP16 packs each element through IEEE binary16 (PackHalf), halving
/// the bytes every message moves. Reductions still accumulate in FP32 —
/// the wire format only controls what crosses rank boundaries, so a
/// packed send quantises exactly like RoundTripHalf on the sender.
/// Values already representable in binary16 survive a pack/unpack hop
/// bit-exactly, which is what keeps forwarded (already-quantised)
/// payloads identical along broadcast and allgather paths.
enum class WireFormat { kFP32, kFP16 };

const char* ToString(WireFormat wire);

/// Bytes a `count`-element float span occupies under `wire`.
inline std::size_t WireBytes(std::size_t count, WireFormat wire) {
  return count * (wire == WireFormat::kFP32 ? sizeof(float)
                                            : sizeof(std::uint16_t));
}

/// Sends `data` to `dst` encoded per `wire`. The kFP16 path packs into a
/// pooled thread-local scratch buffer (no heap traffic on the exchange
/// hot path) before the buffered send copies it out.
void SendFloats(Communicator& comm, int dst, int tag,
                std::span<const float> data, WireFormat wire);

/// Decodes a received payload (previously produced by SendFloats with
/// the same `wire`) into `out`. The payload size must equal
/// WireBytes(out.size(), wire) — callers check before decoding.
void DecodeFloats(std::span<const std::byte> payload, std::span<float> out,
                  WireFormat wire);

/// `wire` selects the on-the-wire encoding: under WireFormat::kFP16
/// every message moves packed binary16 words (half the bytes) while
/// accumulation stays FP32. The algorithms quantise *kept* data at the
/// same points the wire quantises *sent* data — the ring quantises each
/// owner's fully reduced shard before the allgather, the tree's root
/// quantises before broadcasting — so every member still finishes with
/// bit-identical buffers. kFP32 (the default) sends raw floats.

/// Binomial-tree broadcast from the member at `root_index`.
CollectiveResult TryGroupBroadcast(Communicator& comm, const RankGroup& group,
                                   int root_index, std::span<float> data,
                                   const Deadline& deadline, int tag,
                                   WireFormat wire = WireFormat::kFP32);

/// Binomial-tree sum-reduction to the member at `root_index` (other
/// members' buffers hold partial sums afterwards).
CollectiveResult TryGroupReduce(Communicator& comm, const RankGroup& group,
                                int root_index, std::span<float> data,
                                const Deadline& deadline, int tag,
                                WireFormat wire = WireFormat::kFP32);

/// Ring reduce-scatter + allgather within the group (in-place sum; the
/// NCCL pattern of Sec V-A3). Uses tags [tag, tag + 2·size). After the
/// reduce-scatter member i owns the fully reduced shard (i+1) mod size
/// of ComputeShards(data.size(), size).
void GroupAllreduceRing(Communicator& comm, const RankGroup& group,
                        std::span<float> data, int tag);
CollectiveResult TryGroupAllreduceRing(Communicator& comm,
                                       const RankGroup& group,
                                       std::span<float> data,
                                       const Deadline& deadline, int tag,
                                       WireFormat wire = WireFormat::kFP32);

/// Tree (reduce to member 0 at `tag` + broadcast at `tag + 1`)
/// all-reduce within the group.
void GroupAllreduceTree(Communicator& comm, const RankGroup& group,
                        std::span<float> data, int tag);
CollectiveResult TryGroupAllreduceTree(Communicator& comm,
                                       const RankGroup& group,
                                       std::span<float> data,
                                       const Deadline& deadline, int tag,
                                       WireFormat wire = WireFormat::kFP32);

}  // namespace exaclim
