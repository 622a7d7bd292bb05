#pragma once

#include <cstdint>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "common/error.hpp"

namespace exaclim {

/// Elastic membership layer (DESIGN §13): when a rank dies mid-step the
/// survivors agree on a new, dense, generation-stamped view of the world
/// and training continues on it — no job restart, no disk checkpoint.
///
/// The protocol leans on two SimWorld properties that real elastic
/// runtimes approximate with leases and heartbeats:
///   * liveness is monotone — a dead rank never comes back within a Run;
///   * an allreduce is collective — if any member is dead, *every*
///     survivor's bounded exchange fails, so all survivors enter
///     Rebuild() for the same step.

/// Radix of the control trees: the hvd exchanger's hierarchical control
/// plane (Sec V-A3) and the survivor consensus both use it.
inline constexpr int kControlRadix = 4;

/// Heap-shaped radix tree over dense indices — the same topology the
/// hierarchical hvd control plane uses (hvd/control_plane.*, which
/// delegates here). Index 0 is the root.
inline int TreeParent(int index, int radix) {
  return index <= 0 ? -1 : (index - 1) / radix;
}
inline std::vector<int> TreeChildren(int index, int radix, int n) {
  std::vector<int> children;
  for (int c = index * radix + 1; c <= index * radix + radix && c < n; ++c) {
    children.push_back(c);
  }
  return children;
}

/// Tag-namespace stride between generations: collectives on generation g
/// run at `tag + g * kGenTagStride`, so a straggler message from an
/// aborted pre-failure step can never match a post-rebuild receive.
inline constexpr int kGenTagStride = 1'000'000;

/// Thrown by the chaos schedule inside a victim rank after KillSelf();
/// the training loop catches it and unwinds the rank's thread cleanly
/// (throwing out of SimWorld::Run would poison every mailbox).
struct RankKilledError : Error {
  using Error::Error;
};

/// Both timeouts must be > 0 (kNoTimeout for none); ElasticWorld's
/// constructor rejects anything else, NaN included.
struct ElasticOptions {
  bool enabled = false;
  /// Deadline for one bounded collective on the exchange path.
  double collective_timeout_s = 5.0;
  /// Deadline per survivor-consensus attempt.
  double rebuild_timeout_s = 10.0;
};

/// A generation's membership: the ascending world ranks still alive, and
/// this rank's dense index among them. Generation 0 is the identity view
/// (member i == world rank i), so elastic-on with no failures runs the
/// exact same algorithms over the exact same rank sets as elastic-off.
struct ElasticView {
  int generation = 0;
  std::vector<int> members;
  int my_index = -1;

  int size() const { return static_cast<int>(members.size()); }
  int WorldRank(int index) const {
    return members[static_cast<std::size_t>(index)];
  }
  int IndexOf(int world_rank) const {
    for (int i = 0; i < size(); ++i) {
      if (members[static_cast<std::size_t>(i)] == world_rank) return i;
    }
    return -1;
  }
  bool IsMember(int world_rank) const { return IndexOf(world_rank) >= 0; }
};

ElasticView MakeInitialView(int world_size, int my_rank);

/// Per-rank handle owning the current view and the rebuild protocol.
/// Rebuild() runs the survivor consensus:
///   1. freeze the dead set (PeerDead scan over current members);
///   2. gather per-rank suspect masks up a radix-kControlRadix tree over
///      the *live* members (root = lowest live rank) — structurally the
///      hierarchical control plane's topology, routed around the dead;
///   3. the root broadcasts the generation-N+1 member list down the same
///      tree; everyone adopts it and re-ranks densely.
/// Messages carry (generation, attempt) stamps; stale ones are rejected
/// and counted ("fault.elastic.stale_rejected"). A member death *during*
/// an attempt surfaces as kPeerDead/kTimeout and the attempt is retried
/// with a fresh dead-set freeze, up to three attempts.
class ElasticWorld {
 public:
  /// Throws unless both timeouts in `options` are > 0.
  ElasticWorld(Communicator& comm, ElasticOptions options);

  const ElasticView& view() const { return view_; }
  int generation() const { return view_.generation; }
  const ElasticOptions& options() const { return options_; }

  /// Current generation's tag namespace.
  int GenTag(int tag) const { return tag + view_.generation * kGenTagStride; }

  /// Survivor consensus; on kOk the view has advanced one generation.
  /// kPeerDead/kTimeout means every attempt failed (suspect_rank names
  /// the last offender) and the view is unchanged.
  CollectiveResult Rebuild();

  std::int64_t rebuilds() const { return rebuilds_; }
  std::int64_t stale_rejected() const { return stale_rejected_; }

 private:
  CollectiveResult Attempt(int attempt, ElasticView* next);

  Communicator* comm_;
  ElasticOptions options_;
  ElasticView view_;
  std::int64_t rebuilds_ = 0;
  std::int64_t stale_rejected_ = 0;
};

}  // namespace exaclim
