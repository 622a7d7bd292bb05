#include "comm/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/workspace.hpp"
#include "tensor/cast.hpp"

namespace exaclim {
namespace {

void AddInto(std::span<float> acc, std::span<const float> other) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += other[i];
}

/// How often a waiting rank re-checks liveness: a death fails a bounded
/// collective within one slice instead of after the whole deadline.
constexpr double kLivenessScanSlice = 0.025;

/// First dead rank in `group`'s scope, or -1.
int FirstDead(const Communicator& comm, const RankGroup& group) {
  for (const int rank : group.scope()) {
    if (comm.PeerDead(rank)) return rank;
  }
  return -1;
}

/// Receive of exactly data.size() floats encoded per `wire` from the
/// world rank `src`. kOk fills `data`; anything else leaves it untouched
/// and reports the suspect.
CollectiveResult TimedRecvFloats(Communicator& comm, const RankGroup& group,
                                 int src, int tag, std::span<float> data,
                                 const Deadline& deadline, WireFormat wire) {
  const RecvResult r = RecvScanningForDead(comm, group, src, tag, deadline);
  if (!r.ok()) return FailedRecv(comm, group, r.src, r.status);
  EXACLIM_CHECK(r.payload.size() == WireBytes(data.size(), wire),
                "collective recv size mismatch: got "
                    << r.payload.size() << " expected "
                    << WireBytes(data.size(), wire) << " (tag " << tag
                    << ", wire " << ToString(wire) << ")");
  DecodeFloats(r.payload, data, wire);
  return {};
}

}  // namespace

const char* ToString(CollectiveStatus status) {
  switch (status) {
    case CollectiveStatus::kOk: return "ok";
    case CollectiveStatus::kPeerDead: return "peer-dead";
    case CollectiveStatus::kTimeout: return "timeout";
  }
  return "?";
}

void RequireCollective(const Communicator& comm, const char* what,
                       const CollectiveResult& result) {
  EXACLIM_CHECK(result.ok(),
                "rank " << comm.rank() << ": blocking " << what
                        << " cannot complete: rank " << result.suspect_rank
                        << (result.status == CollectiveStatus::kPeerDead
                                ? " is dead"
                                : " is unresponsive"));
}

RankGroup::RankGroup(std::vector<int> ranks, int my_world_rank)
    : ranks_(std::move(ranks)), my_index_(-1) {
  EXACLIM_CHECK(!ranks_.empty(), "empty rank group");
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    if (ranks_[i] == my_world_rank) {
      my_index_ = static_cast<int>(i);
    }
  }
  EXACLIM_CHECK(my_index_ >= 0,
                "rank " << my_world_rank << " not a member of the group");
}

RankGroup RankGroup::World(const Communicator& comm) {
  std::vector<int> ranks(static_cast<std::size_t>(comm.size()));
  std::iota(ranks.begin(), ranks.end(), 0);
  return RankGroup(std::move(ranks), comm.rank());
}

RankGroup RankGroup::Subgroup(std::vector<int> world_ranks) const {
  RankGroup sub(std::move(world_ranks), WorldRank(my_index_));
  const std::span<const int> parent_scope = scope();
  sub.scope_.assign(parent_scope.begin(), parent_scope.end());
  return sub;
}

RecvResult RecvScanningForDead(Communicator& comm, const RankGroup& group,
                               int src, int tag, const Deadline& deadline) {
  for (;;) {
    const double remaining = deadline.Remaining();
    const double slice = remaining == kNoTimeout
                             ? kLivenessScanSlice
                             : std::min(kLivenessScanSlice, remaining);
    RecvResult r = comm.RecvTimeout(src, tag, slice);
    if (r.ok()) return r;
    if (r.status == RecvStatus::kPeerDead) {
      r.src = src;
      return r;
    }
    const int dead = FirstDead(comm, group);
    if (dead >= 0) {
      r.status = RecvStatus::kPeerDead;
      r.src = dead;
      return r;
    }
    if (deadline.Expired()) {
      r.src = src;
      return r;
    }
  }
}

CollectiveResult FailedRecv(const Communicator& comm, const RankGroup& group,
                            int waited, RecvStatus status) {
  CollectiveResult result;
  result.suspect_rank = waited;
  result.status = status == RecvStatus::kPeerDead
                      ? CollectiveStatus::kPeerDead
                      : CollectiveStatus::kTimeout;
  if (result.status == CollectiveStatus::kTimeout) {
    const int dead = FirstDead(comm, group);
    if (dead >= 0) {
      result.status = CollectiveStatus::kPeerDead;
      result.suspect_rank = dead;
    }
  }
  return result;
}

std::vector<ShardExtent> ComputeShards(std::size_t n, int parts) {
  EXACLIM_CHECK(parts >= 1, "shard parts must be >= 1");
  std::vector<ShardExtent> shards(static_cast<std::size_t>(parts));
  const std::size_t base = n / static_cast<std::size_t>(parts);
  const std::size_t extra = n % static_cast<std::size_t>(parts);
  std::size_t offset = 0;
  for (int i = 0; i < parts; ++i) {
    const std::size_t count =
        base + (static_cast<std::size_t>(i) < extra ? 1 : 0);
    shards[static_cast<std::size_t>(i)] = {offset, count};
    offset += count;
  }
  return shards;
}

const char* ToString(WireFormat wire) {
  switch (wire) {
    case WireFormat::kFP32: return "fp32";
    case WireFormat::kFP16: return "fp16";
  }
  return "?";
}

void SendFloats(Communicator& comm, int dst, int tag,
                std::span<const float> data, WireFormat wire) {
  if (wire == WireFormat::kFP32) {
    comm.SendT(dst, tag, data);
    return;
  }
  // Pack into the thread-local wire scratch; Send buffers (copies) the
  // payload before returning, so the scratch is immediately reusable.
  std::uint16_t* packed = AcquireScratchU16(ScratchSlot::kWirePack,
                                            data.size());
  PackHalf(data, std::span<std::uint16_t>(packed, data.size()));
  comm.Send(dst, tag,
            std::as_bytes(std::span<const std::uint16_t>(packed,
                                                         data.size())));
}

void DecodeFloats(std::span<const std::byte> payload, std::span<float> out,
                  WireFormat wire) {
  EXACLIM_CHECK(payload.size() == WireBytes(out.size(), wire),
                "wire payload size mismatch: got "
                    << payload.size() << " expected "
                    << WireBytes(out.size(), wire) << " ("
                    << ToString(wire) << ")");
  if (out.empty()) return;
  if (wire == WireFormat::kFP32) {
    std::memcpy(out.data(), payload.data(), payload.size());
    return;
  }
  UnpackHalf(std::span<const std::uint16_t>(
                 reinterpret_cast<const std::uint16_t*>(payload.data()),
                 out.size()),
             out);
}

CollectiveResult TryGroupBroadcast(Communicator& comm, const RankGroup& group,
                                   int root_index, std::span<float> data,
                                   const Deadline& deadline, int tag,
                                   WireFormat wire) {
  const int n = group.size();
  if (n == 1) return {};
  const int vrank = (group.my_index() - root_index + n) % n;
  if (vrank != 0) {
    int mask = 1;
    while (mask <= vrank) mask <<= 1;
    mask >>= 1;
    const int parent = group.WorldRank(((vrank - mask) + root_index) % n);
    CollectiveResult r =
        TimedRecvFloats(comm, group, parent, tag, data, deadline, wire);
    if (!r.ok()) return r;
  } else if (wire == WireFormat::kFP16) {
    // Quantise what the root keeps to match what everyone receives off
    // the packed wire (receivers forward already-quantised data, a
    // bit-exact pack/unpack round trip).
    RoundTripHalf(data);
  }
  int mask = 1;
  while (mask <= vrank) mask <<= 1;
  for (; mask < n; mask <<= 1) {
    const int vchild = vrank + mask;
    if (vchild >= n) break;
    SendFloats(comm, group.WorldRank((vchild + root_index) % n), tag,
               std::span<const float>(data.data(), data.size()), wire);
  }
  return {};
}

CollectiveResult TryGroupReduce(Communicator& comm, const RankGroup& group,
                                int root_index, std::span<float> data,
                                const Deadline& deadline, int tag,
                                WireFormat wire) {
  const int n = group.size();
  if (n == 1) return {};
  const int vrank = (group.my_index() - root_index + n) % n;
  // Pooled per-thread receive buffer: the binomial rounds run strictly
  // sequentially on this thread, so one slot serves every round without
  // a heap allocation per call (DESIGN §12).
  std::span<float> incoming(
      AcquireScratch(ScratchSlot::kGroupIncoming, data.size()), data.size());
  for (int mask = 1; mask < n; mask <<= 1) {
    if (vrank & mask) {
      const int dst = group.WorldRank(((vrank - mask) + root_index) % n);
      SendFloats(comm, dst, tag,
                 std::span<const float>(data.data(), data.size()), wire);
      return {};
    }
    const int vsrc = vrank + mask;
    if (vsrc < n) {
      CollectiveResult r = TimedRecvFloats(
          comm, group, group.WorldRank((vsrc + root_index) % n), tag,
          incoming, deadline, wire);
      if (!r.ok()) return r;
      AddInto(data, incoming);
    }
  }
  return {};
}

CollectiveResult TryGroupAllreduceRing(Communicator& comm,
                                       const RankGroup& group,
                                       std::span<float> data,
                                       const Deadline& deadline, int tag,
                                       WireFormat wire) {
  const int n = group.size();
  if (n == 1) return {};
  const auto shards = ComputeShards(data.size(), n);
  const int idx = group.my_index();
  const int next = group.WorldRank((idx + 1) % n);
  const int prev = group.WorldRank((idx - 1 + n) % n);
  // Pooled per-thread receive buffer (see TryGroupReduce).
  float* incoming = AcquireScratch(ScratchSlot::kGroupIncoming, data.size());

  for (int k = 0; k < n - 1; ++k) {
    const int send_shard = ((idx - k) % n + n) % n;
    const int recv_shard = ((idx - k - 1) % n + n) % n;
    const auto& s = shards[static_cast<std::size_t>(send_shard)];
    const auto& r = shards[static_cast<std::size_t>(recv_shard)];
    SendFloats(comm, next, tag + k,
               std::span<const float>(data.data() + s.offset, s.count),
               wire);
    CollectiveResult recv = TimedRecvFloats(
        comm, group, prev, tag + k, std::span<float>(incoming, r.count),
        deadline, wire);
    if (!recv.ok()) return recv;
    AddInto(std::span<float>(data.data() + r.offset, r.count),
            std::span<const float>(incoming, r.count));
  }
  if (wire == WireFormat::kFP16) {
    // After the reduce-scatter this rank owns the fully reduced shard
    // (idx+1) mod n. Quantise it before the allgather so the copy this
    // rank keeps matches the packed copy every peer receives; forwarded
    // shards are already quantised, so their pack hop is bit-exact.
    const auto& own = shards[static_cast<std::size_t>((idx + 1) % n)];
    RoundTripHalf(std::span<float>(data.data() + own.offset, own.count));
  }
  for (int k = 0; k < n - 1; ++k) {
    const int send_shard = ((idx + 1 - k) % n + n) % n;
    const int recv_shard = ((idx - k) % n + n) % n;
    const auto& s = shards[static_cast<std::size_t>(send_shard)];
    const auto& r = shards[static_cast<std::size_t>(recv_shard)];
    SendFloats(comm, next, tag + n + k,
               std::span<const float>(data.data() + s.offset, s.count),
               wire);
    CollectiveResult recv = TimedRecvFloats(
        comm, group, prev, tag + n + k,
        std::span<float>(data.data() + r.offset, r.count), deadline, wire);
    if (!recv.ok()) return recv;
  }
  return {};
}

void GroupAllreduceRing(Communicator& comm, const RankGroup& group,
                        std::span<float> data, int tag) {
  RequireCollective(comm, "GroupAllreduceRing",
                    TryGroupAllreduceRing(comm, group, data,
                                          Deadline(kNoTimeout), tag));
}

CollectiveResult TryGroupAllreduceTree(Communicator& comm,
                                       const RankGroup& group,
                                       std::span<float> data,
                                       const Deadline& deadline, int tag,
                                       WireFormat wire) {
  CollectiveResult r =
      TryGroupReduce(comm, group, 0, data, deadline, tag, wire);
  if (!r.ok()) return r;
  return TryGroupBroadcast(comm, group, 0, data, deadline, tag + 1, wire);
}

void GroupAllreduceTree(Communicator& comm, const RankGroup& group,
                        std::span<float> data, int tag) {
  RequireCollective(comm, "GroupAllreduceTree",
                    TryGroupAllreduceTree(comm, group, data,
                                          Deadline(kNoTimeout), tag));
}

}  // namespace exaclim
