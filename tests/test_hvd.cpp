#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "hvd/control_plane.hpp"
#include "hvd/exchanger.hpp"
#include "hvd/hybrid.hpp"

namespace exaclim {
namespace {

std::vector<float> RankPayload(int rank, std::size_t n) {
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(rank + 1) + static_cast<float>(i) * 0.125f;
  }
  return data;
}

std::vector<float> ExpectedSum(int world, std::size_t n) {
  std::vector<float> sum(n, 0.0f);
  for (int r = 0; r < world; ++r) {
    const auto p = RankPayload(r, n);
    for (std::size_t i = 0; i < n; ++i) sum[i] += p[i];
  }
  return sum;
}

// ----------------------------------------------------------- RankGroup --

TEST(RankGroup, MembershipAndIndexing) {
  const std::vector<int> ranks{3, 7, 11};
  RankGroup g(ranks, 7);
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.my_index(), 1);
  EXPECT_EQ(g.WorldRank(2), 11);
  EXPECT_THROW(RankGroup(ranks, 5), Error);
}

TEST(RankGroup, WorldListsEveryRankInOrder) {
  SimWorld world(4);
  world.Run([](Communicator& comm) {
    const RankGroup g = RankGroup::World(comm);
    EXPECT_EQ(g.size(), 4);
    EXPECT_EQ(g.my_index(), comm.rank());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(g.WorldRank(i), i);
  });
}

TEST(RankGroup, SubgroupScansTheParentScope) {
  const std::vector<int> view{1, 2, 4, 5};
  const RankGroup group(view, 4);
  EXPECT_TRUE(std::ranges::equal(group.scope(), view));
  const RankGroup node = group.Subgroup({4, 5});
  EXPECT_EQ(node.size(), 2);
  EXPECT_EQ(node.my_index(), 0);
  EXPECT_EQ(node.WorldRank(1), 5);
  EXPECT_TRUE(std::ranges::equal(node.scope(), view));
  EXPECT_TRUE(std::ranges::equal(node.Subgroup({4}).scope(), view));
  EXPECT_THROW(group.Subgroup({1, 5}), Error);  // rank 4 not a member
}

TEST(GroupCollectives, SubsetAllreduceLeavesOthersUntouched) {
  SimWorld world(6);
  world.Run([](Communicator& comm) {
    auto data = RankPayload(comm.rank(), 13);
    const std::vector<int> members{1, 3, 4};
    const bool in_group =
        std::find(members.begin(), members.end(), comm.rank()) !=
        members.end();
    if (in_group) {
      RankGroup g(members, comm.rank());
      GroupAllreduceRing(comm, g, data, 100);
      float expected0 = 0.0f;
      for (int r : members) expected0 += RankPayload(r, 13)[0];
      EXPECT_NEAR(data[0], expected0, 1e-4f);
    } else {
      EXPECT_FLOAT_EQ(data[0], RankPayload(comm.rank(), 13)[0]);
    }
  });
}

TEST(GroupCollectives, TreeAndRingAgree) {
  SimWorld world(5);
  world.Run([](Communicator& comm) {
    const std::vector<int> members{0, 1, 2, 3, 4};
    RankGroup g(members, comm.rank());
    auto ring = RankPayload(comm.rank(), 31);
    auto tree = RankPayload(comm.rank(), 31);
    GroupAllreduceRing(comm, g, ring, 200);
    GroupAllreduceTree(comm, g, tree, 300);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      EXPECT_NEAR(ring[i], tree[i], 1e-4f);
    }
  });
}

TEST(GroupCollectives, BroadcastFromNonzeroRoot) {
  SimWorld world(4);
  world.Run([](Communicator& comm) {
    const std::vector<int> members{0, 1, 2, 3};
    RankGroup g(members, comm.rank());
    std::vector<float> data(5, comm.rank() == 2 ? 9.0f : 0.0f);
    RequireCollective(comm, "GroupBroadcast",
                      TryGroupBroadcast(comm, g, /*root_index=*/2, data,
                                        Deadline(kNoTimeout), 400));
    for (float v : data) EXPECT_FLOAT_EQ(v, 9.0f);
  });
}

// -------------------------------------------------------- ControlPlane --

class ControlPlaneKinds : public ::testing::TestWithParam<bool> {};

TEST_P(ControlPlaneKinds, AllRanksAgreeOnOrderDespiteShuffles) {
  const bool hierarchical = GetParam();
  const int p = 7;
  const int n_tensors = 12;
  SimWorld world(p);
  std::vector<std::vector<int>> orders(p);
  world.Run([&](Communicator& comm) {
    auto plane = MakeControlPlane(hierarchical, 2);
    std::vector<int> ready(n_tensors);
    std::iota(ready.begin(), ready.end(), 0);
    // Different shuffle per rank.
    Rng rng(1234 + comm.rank());
    std::shuffle(ready.begin(), ready.end(), rng.engine());
    orders[static_cast<std::size_t>(comm.rank())] =
        plane->NegotiateOrder(comm, ready);
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(orders[static_cast<std::size_t>(r)], orders[0]) << "rank " << r;
  }
  // The order is a permutation of all tensor ids.
  auto sorted = orders[0];
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < n_tensors; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(FlatAndHierarchical, ControlPlaneKinds,
                         ::testing::Bool());

TEST(ControlPlane, HierarchicalRadixSweepAgrees) {
  for (int radix : {1, 2, 3, 4, 8}) {
    const int p = 9;
    SimWorld world(p);
    std::vector<std::vector<int>> orders(p);
    world.Run([&](Communicator& comm) {
      HierarchicalControlPlane plane(radix);
      std::vector<int> ready{4, 0, 3, 1, 2};
      Rng rng(99 + comm.rank());
      std::shuffle(ready.begin(), ready.end(), rng.engine());
      orders[static_cast<std::size_t>(comm.rank())] =
          plane.NegotiateOrder(comm, ready);
    });
    for (int r = 1; r < p; ++r) {
      EXPECT_EQ(orders[static_cast<std::size_t>(r)], orders[0])
          << "radix " << radix;
    }
  }
}

TEST(ControlPlane, TreeStructure) {
  EXPECT_EQ(HierarchicalControlPlane::Parent(1, 4), 0);
  EXPECT_EQ(HierarchicalControlPlane::Parent(4, 4), 0);
  EXPECT_EQ(HierarchicalControlPlane::Parent(5, 4), 1);
  const auto c0 = HierarchicalControlPlane::Children(0, 4, 10);
  EXPECT_EQ(c0, (std::vector<int>{1, 2, 3, 4}));
  const auto c2 = HierarchicalControlPlane::Children(2, 4, 10);
  EXPECT_EQ(c2, (std::vector<int>{9}));
}

TEST(ControlPlane, MeasuredControllerLoadMatchesAnalyticModel) {
  // The Sec V-A3 claim quantified: the controller's message load is
  // (P-1)*N flat vs radix*N hierarchical. Validate the analytic formulas
  // against the real protocol's counters at thread scale.
  const int p = 16;
  const int n_tensors = 20;
  for (const bool hierarchical : {false, true}) {
    SimWorld world(p);
    std::int64_t controller_recv = 0;
    world.Run([&](Communicator& comm) {
      auto plane = MakeControlPlane(hierarchical, 4);
      std::vector<int> ready(n_tensors);
      std::iota(ready.begin(), ready.end(), 0);
      comm.ResetCounters();
      (void)plane->NegotiateOrder(comm, ready);
      if (comm.rank() == 0) controller_recv = comm.messages_received();
    });
    const auto load = hierarchical
                          ? HierarchicalControlLoad(p, 4, n_tensors)
                          : FlatControlLoad(p, n_tensors);
    EXPECT_EQ(controller_recv, load.controller_recv)
        << (hierarchical ? "hierarchical" : "flat");
  }
}

TEST(ControlPlane, HierarchicalBoundsPerRankMessages) {
  // No rank sends or receives more than (radix+1) messages per tensor.
  const int p = 27;
  const int radix = 3;
  const int n_tensors = 8;
  SimWorld world(p);
  std::vector<std::int64_t> sent(p), received(p);
  world.Run([&](Communicator& comm) {
    HierarchicalControlPlane plane(radix);
    std::vector<int> ready(n_tensors);
    std::iota(ready.begin(), ready.end(), 0);
    comm.ResetCounters();
    (void)plane.NegotiateOrder(comm, ready);
    sent[static_cast<std::size_t>(comm.rank())] = comm.messages_sent();
    received[static_cast<std::size_t>(comm.rank())] =
        comm.messages_received();
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_LE(sent[static_cast<std::size_t>(r)],
              static_cast<std::int64_t>(radix + 1) * n_tensors + radix + 1)
        << "rank " << r;
    EXPECT_LE(received[static_cast<std::size_t>(r)],
              static_cast<std::int64_t>(radix + 1) * n_tensors + radix + 1)
        << "rank " << r;
  }
}

// ------------------------------------------------------ HybridAllreduce --

TEST(HybridAllreduce, MatchesFlatAllreduce) {
  // 2 "nodes" x 6 "GPUs", 4 MPI ranks per node — the Summit layout.
  const int p = 12;
  const std::size_t len = 101;
  const auto expected = ExpectedSum(p, len);
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    auto data = RankPayload(comm.rank(), len);
    HybridAllreduce(comm, data, {});
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_NEAR(data[i], expected[i], 1e-3f) << "i=" << i;
    }
  });
}

TEST(HybridAllreduce, NodeBroadcastTakesOneHop) {
  // Under a 100 ms per-message latency a 2x2 hybrid all-reduce is five
  // hops deep on its slower node: two for the node ring, two for the
  // inter-node tree and one for the node broadcast, whose members each
  // send the shard they own before waiting for the other (walking the
  // shards in increasing order instead serializes the two broadcasts:
  // six hops). The tree roots' node finishes a hop earlier.
  constexpr double kDelay = 0.1;
  const std::size_t len = 64;
  const auto expected = ExpectedSum(4, len);
  FaultInjector::Global().Reset();
  FaultSpec delay;
  delay.site = "comm.delay";
  delay.delay_seconds = kDelay;
  FaultInjector::Global().Arm(delay);
  std::vector<double> seconds(4, 0.0);
  SimWorld world(4);
  world.Run([&](Communicator& comm) {
    auto data = RankPayload(comm.rank(), len);
    HybridAllreduceOptions opts;
    opts.topology.ranks_per_node = 2;
    opts.mpi_ranks_per_node = 2;
    const auto start = std::chrono::steady_clock::now();
    HybridAllreduce(comm, data, opts);
    seconds[static_cast<std::size_t>(comm.rank())] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_EQ(data, expected) << "rank " << comm.rank();
  });
  FaultInjector::Global().Reset();
  for (int r = 0; r < 4; ++r) {
    EXPECT_LT(seconds[static_cast<std::size_t>(r)], 5.5 * kDelay)
        << "rank " << r;
  }
  // The delay held every hop of the critical path.
  EXPECT_GT(*std::max_element(seconds.begin(), seconds.end()), 4.5 * kDelay);
}

TEST(HybridAllreduce, SingleNodeDegeneratesToNccl) {
  const int p = 6;
  const std::size_t len = 17;
  const auto expected = ExpectedSum(p, len);
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    auto data = RankPayload(comm.rank(), len);
    HybridAllreduce(comm, data, {});
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_NEAR(data[i], expected[i], 1e-4f);
    }
  });
}

TEST(HybridAllreduce, PizDaintLayoutOneRankPerNode) {
  const int p = 8;
  const std::size_t len = 33;
  const auto expected = ExpectedSum(p, len);
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    auto data = RankPayload(comm.rank(), len);
    HybridAllreduceOptions opts;
    opts.topology.ranks_per_node = 1;
    opts.mpi_ranks_per_node = 1;
    HybridAllreduce(comm, data, opts);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_NEAR(data[i], expected[i], 1e-4f);
    }
  });
}

TEST(HybridAllreduce, TinyPayloadFewerElementsThanShards) {
  const int p = 12;
  const std::size_t len = 2;  // fewer elements than 4 MPI shards
  const auto expected = ExpectedSum(p, len);
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    auto data = RankPayload(comm.rank(), len);
    HybridAllreduce(comm, data, {});
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_NEAR(data[i], expected[i], 1e-4f);
    }
  });
}

TEST(HybridAllreduce, RejectsNonPositiveRankCounts) {
  // Both counts size the node and shard layout; ranks_per_node = 0 used
  // to divide by zero before anything was checked. The exchanger checks
  // its hybrid options at construction, before the first step.
  for (const int bad : {0, -1}) {
    for (const bool per_node : {true, false}) {
      SCOPED_TRACE((per_node ? "ranks_per_node = " : "mpi_ranks_per_node = ") +
                   std::to_string(bad));
      HybridAllreduceOptions opts;
      (per_node ? opts.topology.ranks_per_node : opts.mpi_ranks_per_node) =
          bad;
      EXPECT_THROW(CheckHybridOptions(opts), Error);
      SimWorld world(2);
      EXPECT_THROW(world.Run([&](Communicator& comm) {
                     std::vector<float> data(4, 1.0f);
                     HybridAllreduce(comm, data, opts);
                   }),
                   Error);
      ExchangerOptions exchanger;
      exchanger.hybrid = opts;
      EXPECT_THROW({ GradientExchanger e(exchanger, 1); }, Error);
      exchanger.transport = ReduceTransport::kMpiRing;
      EXPECT_NO_THROW({ GradientExchanger e(exchanger, 1); });
    }
  }
}

// --------------------------------------------------- GradientExchanger --

std::vector<std::unique_ptr<Param>> MakeParams(int rank, std::int64_t count,
                                               std::int64_t elems) {
  std::vector<std::unique_ptr<Param>> params;
  for (std::int64_t i = 0; i < count; ++i) {
    auto p = std::make_unique<Param>("p" + std::to_string(i),
                                     Tensor::Zeros(TensorShape{elems + i}));
    for (std::int64_t j = 0; j < p->grad.NumElements(); ++j) {
      p->grad[static_cast<std::size_t>(j)] =
          static_cast<float>(rank + 1) * 0.5f + static_cast<float>(i + j);
    }
    params.push_back(std::move(p));
  }
  return params;
}

TEST(GradientExchanger, AveragesAcrossRanksBitIdentically) {
  const int p = 6;
  SimWorld world(p);
  std::vector<std::vector<float>> results(p);
  world.Run([&](Communicator& comm) {
    auto owned = MakeParams(comm.rank(), 5, 7);
    std::vector<Param*> params;
    for (auto& q : owned) params.push_back(q.get());
    ExchangerOptions opts;
    opts.hybrid.topology.ranks_per_node = 3;
    opts.hybrid.mpi_ranks_per_node = 2;
    GradientExchanger exchanger(opts, 42);
    exchanger.Exchange(comm, params);
    std::vector<float>& flat = results[static_cast<std::size_t>(comm.rank())];
    for (Param* q : params) {
      flat.insert(flat.end(), q->grad.Data().begin(), q->grad.Data().end());
    }
  });
  // Every rank holds exactly the same averaged gradients.
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
  }
  // And the average is correct: mean over ranks of (rank+1)*0.5 + (i+j).
  float mean_rank_term = 0.0f;
  for (int r = 0; r < p; ++r) mean_rank_term += (r + 1) * 0.5f;
  mean_rank_term /= p;
  EXPECT_NEAR(results[0][0], mean_rank_term + 0.0f, 1e-4f);
}

TEST(GradientExchanger, TransportsAgree) {
  const int p = 6;
  std::vector<std::vector<float>> per_transport;
  for (const auto transport :
       {ReduceTransport::kMpiRing, ReduceTransport::kMpiTree,
        ReduceTransport::kHybrid}) {
    SimWorld world(p);
    std::vector<float> rank0;
    world.Run([&](Communicator& comm) {
      auto owned = MakeParams(comm.rank(), 4, 9);
      std::vector<Param*> params;
      for (auto& q : owned) params.push_back(q.get());
      ExchangerOptions opts;
      opts.transport = transport;
      opts.hybrid.topology.ranks_per_node = 3;
      opts.hybrid.mpi_ranks_per_node = 2;
      GradientExchanger exchanger(opts, 7);
      exchanger.Exchange(comm, params);
      if (comm.rank() == 0) {
        for (Param* q : params) {
          rank0.insert(rank0.end(), q->grad.Data().begin(),
                       q->grad.Data().end());
        }
      }
    });
    per_transport.push_back(std::move(rank0));
  }
  for (std::size_t t = 1; t < per_transport.size(); ++t) {
    ASSERT_EQ(per_transport[t].size(), per_transport[0].size());
    for (std::size_t i = 0; i < per_transport[0].size(); ++i) {
      EXPECT_NEAR(per_transport[t][i], per_transport[0][i], 1e-4f)
          << "transport " << t << " i=" << i;
    }
  }
}

TEST(GradientExchanger, FusionThresholdControlsBufferCount) {
  const int p = 2;
  for (const auto& [threshold, expected_buffers] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {1, 6},          // every tensor alone
           {1 << 20, 1}}) {  // all fused into one buffer
    SimWorld world(p);
    std::int64_t buffers = 0;
    world.Run([&, threshold = threshold](Communicator& comm) {
      auto owned = MakeParams(comm.rank(), 6, 8);
      std::vector<Param*> params;
      for (auto& q : owned) params.push_back(q.get());
      ExchangerOptions opts;
      opts.transport = ReduceTransport::kMpiRing;
      opts.fusion_threshold_bytes = threshold;
      GradientExchanger exchanger(opts, 3);
      exchanger.Exchange(comm, params);
      if (comm.rank() == 0) buffers = exchanger.last_fused_buffers();
    });
    EXPECT_EQ(buffers, expected_buffers) << "threshold " << threshold;
  }
}

TEST(GradientExchanger, FP16WirePrecisionQuantises) {
  const int p = 2;
  SimWorld world(p);
  world.Run([&](Communicator& comm) {
    Param param("p", Tensor::Zeros(TensorShape{3}));
    param.grad[0] = 1.0f + 1e-4f;  // not representable in binary16
    param.grad[1] = 2.0f;
    param.grad[2] = 0.5f;
    ExchangerOptions opts;
    opts.transport = ReduceTransport::kMpiRing;
    opts.wire_precision = Precision::kFP16;
    GradientExchanger exchanger(opts, 5);
    std::vector<Param*> params{&param};
    exchanger.Exchange(comm, params);
    EXPECT_FLOAT_EQ(param.grad[0], 1.0f);  // quantised on the wire
    EXPECT_FLOAT_EQ(param.grad[1], 2.0f);
  });
}

TEST(GradientExchanger, SingleRankIsIdentityAverage) {
  SimWorld world(1);
  world.Run([](Communicator& comm) {
    Param param("p", Tensor::Zeros(TensorShape{4}));
    param.grad.Fill(3.0f);
    GradientExchanger exchanger(
        {.transport = ReduceTransport::kMpiRing}, 1);
    std::vector<Param*> params{&param};
    exchanger.Exchange(comm, params);
    EXPECT_FLOAT_EQ(param.grad[0], 3.0f);
  });
}

}  // namespace
}  // namespace exaclim
