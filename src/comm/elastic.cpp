#include "comm/elastic.hpp"

#include <algorithm>
#include <cstring>

#include "common/fault.hpp"
#include "common/logging.hpp"

namespace exaclim {
namespace {

// Consensus tags, salted into the current generation's namespace.
constexpr int kTagSuspect = 9200;
constexpr int kTagView = 9210;

// Consensus attempts per Rebuild() before it gives up.
constexpr int kMaxRebuildAttempts = 3;

struct MsgHeader {
  std::int32_t generation;
  std::int32_t attempt;
};

void PutHeader(std::vector<std::byte>* buf, MsgHeader header) {
  buf->resize(sizeof(MsgHeader));
  std::memcpy(buf->data(), &header, sizeof(MsgHeader));
}

MsgHeader GetHeader(const std::vector<std::byte>& buf) {
  EXACLIM_CHECK(buf.size() >= sizeof(MsgHeader),
                "elastic message shorter than its header");
  MsgHeader header;
  std::memcpy(&header, buf.data(), sizeof(MsgHeader));
  return header;
}

}  // namespace

ElasticView MakeInitialView(int world_size, int my_rank) {
  ElasticView view;
  view.generation = 0;
  view.members.resize(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    view.members[static_cast<std::size_t>(r)] = r;
  }
  view.my_index = my_rank;
  return view;
}

ElasticWorld::ElasticWorld(Communicator& comm, ElasticOptions options)
    : comm_(&comm),
      options_(options),
      view_(MakeInitialView(comm.size(), comm.rank())) {
  // NaN fails both comparisons.
  EXACLIM_CHECK(options_.collective_timeout_s > 0.0,
                "ElasticOptions::collective_timeout_s = "
                    << options_.collective_timeout_s
                    << " must be > 0 (kNoTimeout for none)");
  EXACLIM_CHECK(options_.rebuild_timeout_s > 0.0,
                "ElasticOptions::rebuild_timeout_s = "
                    << options_.rebuild_timeout_s
                    << " must be > 0 (kNoTimeout for none)");
}

CollectiveResult ElasticWorld::Attempt(int attempt, ElasticView* next) {
  const std::vector<int>& members = view_.members;
  const int n = view_.size();
  const int gen = view_.generation;

  // Freeze the dead set for this attempt: monotone liveness means every
  // survivor that scans after the same deaths freezes the same set, and
  // with an identical frozen set the tree routing below is agreed upon
  // without further negotiation. A death after the freeze shows up as a
  // kPeerDead / kTimeout mid-attempt and forces a re-freeze.
  std::vector<std::uint8_t> suspect(static_cast<std::size_t>(n), 0);
  std::vector<int> live;  // positions -> member indices
  for (int i = 0; i < n; ++i) {
    if (comm_->PeerDead(members[static_cast<std::size_t>(i)])) {
      suspect[static_cast<std::size_t>(i)] = 1;
    } else {
      live.push_back(i);
    }
  }
  const int live_count = static_cast<int>(live.size());
  const auto my_pos_it = std::find(live.begin(), live.end(), view_.my_index);
  EXACLIM_CHECK(my_pos_it != live.end(),
                "rank " << comm_->rank()
                        << " running Rebuild but marked dead");
  const int my_pos = static_cast<int>(my_pos_it - live.begin());
  const auto world_rank_of_pos = [&](int pos) {
    return members[static_cast<std::size_t>(
        live[static_cast<std::size_t>(pos)])];
  };

  const RankGroup group(members, comm_->rank());
  const Deadline deadline(options_.rebuild_timeout_s);
  const std::vector<int> child_positions =
      TreeChildren(my_pos, kControlRadix, live_count);

  // Receives a consensus message from `src`, rejecting stale
  // (generation, attempt) stamps — a retried attempt's leftovers or a
  // pre-rebuild straggler must not steer this round. A timeout names a
  // dead member of this view, never a long-dead ex-member.
  const auto recv_checked =
      [&](int src, int tag,
          std::vector<std::byte>* payload) -> CollectiveResult {
    for (;;) {
      RecvResult r = comm_->RecvTimeout(src, tag, deadline.Remaining());
      if (!r.ok()) return FailedRecv(*comm_, group, src, r.status);
      const MsgHeader header = GetHeader(r.payload);
      if (header.generation != gen || header.attempt != attempt) {
        ++stale_rejected_;
        FaultCounterBump("fault.elastic.stale_rejected");
        continue;
      }
      *payload = std::move(r.payload);
      return {};
    }
  };

  // Phase 1 — suspect gather: OR children's masks into mine, report up.
  // The masks are PeerDead-confirmed at their source, so the root never
  // excludes a live rank on hearsay.
  for (const int child : child_positions) {
    std::vector<std::byte> payload;
    CollectiveResult r =
        recv_checked(world_rank_of_pos(child), GenTag(kTagSuspect), &payload);
    if (!r.ok()) return r;
    EXACLIM_CHECK(payload.size() == sizeof(MsgHeader) +
                                        static_cast<std::size_t>(n),
                  "suspect mask size mismatch");
    for (int i = 0; i < n; ++i) {
      suspect[static_cast<std::size_t>(i)] |= static_cast<std::uint8_t>(
          payload[sizeof(MsgHeader) + static_cast<std::size_t>(i)]);
    }
  }
  if (my_pos != 0) {
    std::vector<std::byte> report;
    PutHeader(&report, {gen, attempt});
    report.insert(report.end(),
                  reinterpret_cast<const std::byte*>(suspect.data()),
                  reinterpret_cast<const std::byte*>(suspect.data() + n));
    comm_->Send(world_rank_of_pos(TreeParent(my_pos, kControlRadix)),
                GenTag(kTagSuspect), report);
  }

  // Phase 2 — view broadcast: the effective root (lowest live member)
  // fixes the generation-N+1 member list and pushes it down the tree.
  std::vector<std::int32_t> survivors;
  if (my_pos == 0) {
    for (int i = 0; i < n; ++i) {
      if (!suspect[static_cast<std::size_t>(i)]) {
        survivors.push_back(members[static_cast<std::size_t>(i)]);
      }
    }
  } else {
    std::vector<std::byte> payload;
    CollectiveResult r =
        recv_checked(world_rank_of_pos(TreeParent(my_pos, kControlRadix)),
                     GenTag(kTagView), &payload);
    if (!r.ok()) return r;
    const std::size_t count =
        (payload.size() - sizeof(MsgHeader)) / sizeof(std::int32_t);
    survivors.resize(count);
    std::memcpy(survivors.data(), payload.data() + sizeof(MsgHeader),
                count * sizeof(std::int32_t));
  }
  std::vector<std::byte> view_msg;
  PutHeader(&view_msg, {gen, attempt});
  view_msg.insert(view_msg.end(),
                  reinterpret_cast<const std::byte*>(survivors.data()),
                  reinterpret_cast<const std::byte*>(survivors.data() +
                                                     survivors.size()));
  for (const int child : child_positions) {
    comm_->Send(world_rank_of_pos(child), GenTag(kTagView), view_msg);
  }

  next->generation = gen + 1;
  next->members.assign(survivors.begin(), survivors.end());
  next->my_index = next->IndexOf(comm_->rank());
  EXACLIM_CHECK(next->my_index >= 0,
                "rank " << comm_->rank()
                        << " excluded from the survivor view it helped "
                           "build (gen "
                        << next->generation << ")");
  return {};
}

CollectiveResult ElasticWorld::Rebuild() {
  CollectiveResult last;
  for (int attempt = 0; attempt < kMaxRebuildAttempts; ++attempt) {
    ElasticView next;
    last = Attempt(attempt, &next);
    if (last.ok()) {
      EXACLIM_LOG(kWarn) << "elastic: rank " << comm_->rank()
                         << " adopted generation " << next.generation
                         << " with " << next.size() << "/" << comm_->size()
                         << " members (index " << next.my_index << ")";
      view_ = std::move(next);
      ++rebuilds_;
      FaultCounterBump("fault.elastic.rebuilds");
      return last;
    }
  }
  return last;
}

}  // namespace exaclim
