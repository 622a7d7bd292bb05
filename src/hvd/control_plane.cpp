#include "hvd/control_plane.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace exaclim {
namespace {

constexpr int kTagReady = 9100;
constexpr int kTagOrder = 9101;

// Debug-build postcondition shared by both control planes: the agreed
// order must be a permutation of this rank's ready set, otherwise ranks
// would launch collectives for mismatched tensors and deadlock.
void DCheckIsPermutation([[maybe_unused]] std::span<const int> ready_ids,
                         [[maybe_unused]] std::span<const int> order) {
#if EXACLIM_DCHECK_ENABLED
  std::vector<int> a(ready_ids.begin(), ready_ids.end());
  std::vector<int> b(order.begin(), order.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXACLIM_DCHECK(a == b,
                 "negotiated order is not a permutation of the ready set");
#endif
}

}  // namespace

std::vector<int> ControlPlane::NegotiateOrder(Communicator& comm,
                                              std::span<const int> ready_ids) {
  std::vector<int> order;
  RequireCollective(comm, "NegotiateOrder",
                    TryNegotiateOrder(comm, RankGroup::World(comm), ready_ids,
                                      Deadline(kNoTimeout), /*tag_salt=*/0,
                                      &order));
  return order;
}

// ---------------------------------------------------- FlatControlPlane --

CollectiveResult FlatControlPlane::TryNegotiateOrder(
    Communicator& comm, const RankGroup& group,
    std::span<const int> ready_ids, const Deadline& deadline, int tag_salt,
    std::vector<int>* order) {
  const int p = group.size();
  const auto n = static_cast<std::int64_t>(ready_ids.size());
  order->assign(ready_ids.begin(), ready_ids.end());
  if (p == 1) return {};
  // Readiness latency: how long this rank spends agreeing on the global
  // collective order — the Sec V-A3 bottleneck metric.
  obs::ScopedTimer timer("control.negotiate", "hvd", nullptr,
                         obs::HistogramOrNull("control.negotiate_s"));
  const int tag_ready = kTagReady + tag_salt;
  const int tag_order = kTagOrder + tag_salt;
  const int controller = group.WorldRank(0);

  if (group.my_index() != 0) {
    // Stream one readiness message per tensor to the controller, in this
    // rank's local scheduling order.
    for (const int id : ready_ids) comm.SendValue(controller, tag_ready, id);
    RecvResult r =
        RecvScanningForDead(comm, group, controller, tag_order, deadline);
    if (!r.ok()) return FailedRecv(comm, group, r.src, r.status);
    EXACLIM_CHECK(r.payload.size() ==
                      static_cast<std::size_t>(n) * sizeof(int),
                  "negotiated order has wrong wire size");
    order->resize(static_cast<std::size_t>(n));
    std::memcpy(order->data(), r.payload.data(), r.payload.size());
    DCheckIsPermutation(ready_ids, *order);
    return {};
  }

  // Controller: a tensor enters the order once every member reported it.
  std::unordered_map<int, int> counts;
  order->clear();
  order->reserve(static_cast<std::size_t>(n));
  for (const int id : ready_ids) counts[id] = 1;  // own readiness
  std::int64_t expected = static_cast<std::int64_t>(p - 1) * n;
  while (expected-- > 0) {
    const RecvResult r =
        RecvScanningForDead(comm, group, kAnySource, tag_ready, deadline);
    if (!r.ok()) return FailedRecv(comm, group, r.src, r.status);
    EXACLIM_CHECK(r.payload.size() == sizeof(int),
                  "readiness report has wrong wire size");
    int id = 0;
    std::memcpy(&id, r.payload.data(), sizeof(int));
    if (++counts[id] == p) order->push_back(id);
  }
  EXACLIM_CHECK(static_cast<std::int64_t>(order->size()) == n,
                "controller: not all tensors reached full readiness");
  for (int i = 1; i < p; ++i) {
    comm.SendT(group.WorldRank(i), tag_order, std::span<const int>(*order));
  }
  DCheckIsPermutation(ready_ids, *order);
  return {};
}

// -------------------------------------------- HierarchicalControlPlane --

HierarchicalControlPlane::HierarchicalControlPlane(int radix)
    : radix_(radix) {
  EXACLIM_CHECK(radix_ >= 1, "radix must be >= 1");
}

CollectiveResult HierarchicalControlPlane::TryNegotiateOrder(
    Communicator& comm, const RankGroup& group,
    std::span<const int> ready_ids, const Deadline& deadline, int tag_salt,
    std::vector<int>* order) {
  const int p = group.size();
  const auto n = static_cast<std::int64_t>(ready_ids.size());
  order->assign(ready_ids.begin(), ready_ids.end());
  if (p == 1) return {};
  obs::ScopedTimer timer("control.negotiate", "hvd", nullptr,
                         obs::HistogramOrNull("control.negotiate_s"));
  const int tag_ready = kTagReady + tag_salt;
  const int tag_order = kTagOrder + tag_salt;

  const int index = group.my_index();
  const auto children = TreeChildren(index, radix_, p);
  const int needed = static_cast<int>(children.size()) + 1;

  // Upward aggregation: report a tensor to the parent only once the whole
  // subtree is ready for it. The root appends completed tensors to the
  // order instead.
  std::unordered_map<int, int> counts;
  order->clear();
  auto on_complete = [&](int id) {
    if (index == 0) {
      order->push_back(id);
    } else {
      comm.SendValue(group.WorldRank(TreeParent(index, radix_)), tag_ready,
                     id);
    }
  };
  for (const int id : ready_ids) {
    if (++counts[id] == needed) on_complete(id);
  }
  std::int64_t expected = static_cast<std::int64_t>(children.size()) * n;
  while (expected-- > 0) {
    const RecvResult r =
        RecvScanningForDead(comm, group, kAnySource, tag_ready, deadline);
    if (!r.ok()) return FailedRecv(comm, group, r.src, r.status);
    EXACLIM_CHECK(r.payload.size() == sizeof(int),
                  "readiness report has wrong wire size");
    int id = 0;
    std::memcpy(&id, r.payload.data(), sizeof(int));
    if (++counts[id] == needed) on_complete(id);
  }

  // Downward recursive broadcast of the agreed order.
  if (index == 0) {
    EXACLIM_CHECK(static_cast<std::int64_t>(order->size()) == n,
                  "root: incomplete readiness aggregation");
  } else {
    const int parent = group.WorldRank(TreeParent(index, radix_));
    RecvResult r =
        RecvScanningForDead(comm, group, parent, tag_order, deadline);
    if (!r.ok()) return FailedRecv(comm, group, r.src, r.status);
    EXACLIM_CHECK(r.payload.size() ==
                      static_cast<std::size_t>(n) * sizeof(int),
                  "negotiated order has wrong wire size");
    order->resize(static_cast<std::size_t>(n));
    std::memcpy(order->data(), r.payload.data(), r.payload.size());
  }
  for (const int child : children) {
    comm.SendT(group.WorldRank(child), tag_order,
               std::span<const int>(*order));
  }
  DCheckIsPermutation(ready_ids, *order);
  return {};
}

// ---------------------------------------------------------------- Load --

ControlPlaneLoad FlatControlLoad(int world_size, int num_tensors) {
  return {.controller_recv = static_cast<std::int64_t>(world_size - 1) *
                             num_tensors,
          .controller_send = world_size - 1};
}

ControlPlaneLoad HierarchicalControlLoad(int world_size, int radix,
                                         int num_tensors) {
  const auto children = static_cast<std::int64_t>(
      HierarchicalControlPlane::Children(0, radix, world_size).size());
  return {.controller_recv = children * num_tensors,
          .controller_send = children};
}

std::unique_ptr<ControlPlane> MakeControlPlane(bool hierarchical, int radix) {
  if (hierarchical) {
    return std::make_unique<HierarchicalControlPlane>(radix);
  }
  return std::make_unique<FlatControlPlane>();
}

}  // namespace exaclim
