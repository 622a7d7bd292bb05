#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/elastic.hpp"
#include "comm/world.hpp"

namespace exaclim {

/// Horovod-style collective scheduling (Sec V-A3).
///
/// Each TensorFlow process schedules its graph independently, so ranks
/// announce readiness of their gradient tensors in different orders; to
/// avoid deadlock all ranks must agree on one total order of collective
/// operations. NegotiateOrder submits this rank's tensor ids in its local
/// readiness order and returns the globally agreed execution order
/// (identical on every rank).
/// Both planes also expose a deadline-aware, group-scoped negotiation
/// (TryNegotiateOrder) for the elastic path: the coordinator is the
/// group's index-0 member instead of world rank 0, tags are salted into
/// the current generation's namespace, and a dead member surfaces as a
/// CollectiveResult instead of a hang. The blocking NegotiateOrder
/// delegates over the full world with no deadline — identical messages.
///
/// Sequential reuse: the exchange engine (DESIGN §14) negotiates a fused
/// bucket only while its bucket plan is stale (first step, new elastic
/// generation or view, failed step, changed emission slice), each time
/// with the *same* tag salt. That is safe without extra tag space
/// because negotiations are strictly serialized — a rank only starts
/// bucket k+1's negotiation after receiving bucket k's order, which the
/// coordinator sent only after collecting every rank's bucket-k
/// readiness — so at most one negotiation is ever in flight, and the
/// mailbox's per-(src, tag) FIFO matching keeps the reused tags
/// unambiguous. Every rank skips or runs the same negotiations, because
/// every rank emits the same bucket slices.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;
  /// Blocking negotiation over the full world (throws on a dead peer).
  std::vector<int> NegotiateOrder(Communicator& comm,
                                  std::span<const int> ready_ids);
  /// Bounded negotiation over `group`; on kOk `*order` holds the agreed
  /// execution order. `tag_salt` shifts the control tags into a
  /// generation's namespace (ElasticWorld::GenTag(0)).
  virtual CollectiveResult TryNegotiateOrder(Communicator& comm,
                                             const RankGroup& group,
                                             std::span<const int> ready_ids,
                                             const Deadline& deadline,
                                             int tag_salt,
                                             std::vector<int>* order) = 0;
  virtual const char* Name() const = 0;
};

/// Stock Horovod: every rank streams per-tensor readiness messages to the
/// rank-0 controller, which replies with the execution order once all
/// ranks are ready — the controller handles O(P·N) messages per step, the
/// bottleneck the paper hit beyond ~1024 GPUs.
class FlatControlPlane : public ControlPlane {
 public:
  CollectiveResult TryNegotiateOrder(Communicator& comm,
                                     const RankGroup& group,
                                     std::span<const int> ready_ids,
                                     const Deadline& deadline, int tag_salt,
                                     std::vector<int>* order) override;
  const char* Name() const override { return "flat"; }
};

/// The paper's fix: ranks form a radix-r tree. Each tree node forwards a
/// readiness message for tensor t only after all of its children (and
/// itself) are ready, so no rank sends or receives more than r+1 messages
/// per tensor; the decided order is relayed back down the tree
/// (recursive broadcast). Rank 0 still decides the order, but now
/// coordinates only its direct children.
class HierarchicalControlPlane : public ControlPlane {
 public:
  explicit HierarchicalControlPlane(int radix);

  CollectiveResult TryNegotiateOrder(Communicator& comm,
                                     const RankGroup& group,
                                     std::span<const int> ready_ids,
                                     const Deadline& deadline, int tag_salt,
                                     std::vector<int>* order) override;
  const char* Name() const override { return "hierarchical"; }
  int radix() const { return radix_; }

  /// Tree helpers (world rank <-> radix-r heap layout), exposed for the
  /// message-count analysis in netsim. The topology is the shared radix
  /// heap of comm/elastic.hpp — the same tree the elastic survivor
  /// consensus reuses.
  static int Parent(int rank, int radix) { return TreeParent(rank, radix); }
  static std::vector<int> Children(int rank, int radix, int world_size) {
    return TreeChildren(rank, radix, world_size);
  }

 private:
  int radix_;
};

/// Analytic per-step message counts at the busiest rank (used to
/// extrapolate the control-plane benchmark to full-machine scale, and
/// validated against measured counts at thread scale in the tests).
struct ControlPlaneLoad {
  std::int64_t controller_recv;  // messages into the busiest coordinator
  std::int64_t controller_send;
};
ControlPlaneLoad FlatControlLoad(int world_size, int num_tensors);
ControlPlaneLoad HierarchicalControlLoad(int world_size, int radix,
                                         int num_tensors);

std::unique_ptr<ControlPlane> MakeControlPlane(bool hierarchical, int radix);

}  // namespace exaclim
