// Microbenchmarks of the in-process message-passing substrate and the
// collective algorithms built on it.

#include <benchmark/benchmark.h>

#include <vector>

#include "comm/collectives.hpp"
#include "hvd/control_plane.hpp"
#include "hvd/hybrid.hpp"

namespace exaclim {
namespace {

void BM_PingPong(benchmark::State& state) {
  SimWorld world(2);
  for (auto _ : state) {
    world.Run([](Communicator& comm) {
      for (int i = 0; i < 100; ++i) {
        if (comm.rank() == 0) {
          comm.SendValue(1, 1, i);
          (void)comm.RecvValue<int>(1, 2);
        } else {
          (void)comm.RecvValue<int>(0, 1);
          comm.SendValue(0, 2, i);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_PingPong)->Iterations(50);

void BM_AllreduceRing(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  SimWorld world(ranks);
  for (auto _ : state) {
    world.Run([](Communicator& comm) {
      std::vector<float> data(1 << 16, 1.0f);
      GroupAllreduceRing(comm, RankGroup::World(comm), data, 1500);
    });
  }
  state.SetBytesProcessed(state.iterations() * ranks *
                          static_cast<std::int64_t>(sizeof(float) << 16));
}
BENCHMARK(BM_AllreduceRing)->Arg(4)->Arg(8)->Iterations(40);

void BM_HybridAllreduce(benchmark::State& state) {
  SimWorld world(12);
  for (auto _ : state) {
    world.Run([](Communicator& comm) {
      std::vector<float> data(1 << 16, 1.0f);
      HybridAllreduce(comm, data, {});
    });
  }
}
BENCHMARK(BM_HybridAllreduce)->Iterations(40);

void BM_ControlPlaneNegotiation(benchmark::State& state) {
  const bool hierarchical = state.range(0) != 0;
  SimWorld world(16);
  for (auto _ : state) {
    world.Run([&](Communicator& comm) {
      auto plane = MakeControlPlane(hierarchical, 4);
      std::vector<int> ready(128);
      for (int i = 0; i < 128; ++i) ready[static_cast<std::size_t>(i)] = i;
      (void)plane->NegotiateOrder(comm, ready);
    });
  }
  state.SetLabel(hierarchical ? "hierarchical-r4" : "flat");
}
BENCHMARK(BM_ControlPlaneNegotiation)->Arg(0)->Arg(1)->Iterations(40);

}  // namespace
}  // namespace exaclim
