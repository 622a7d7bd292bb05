// Microbenchmarks of the tensor substrate: elementwise kernels,
// reductions and the binary16 emulation (the per-element cost the FP16
// training mode pays on this CPU substrate).

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "tensor/cast.hpp"
#include "tensor/tensor.hpp"

namespace exaclim {
namespace {

Tensor Big(std::uint64_t seed = 1) {
  Rng rng(seed);
  return Tensor::Uniform(TensorShape{1 << 20}, rng, -10.0f, 10.0f);
}

void BM_TensorAxpy(benchmark::State& state) {
  Tensor a = Big(1);
  const Tensor b = Big(2);
  for (auto _ : state) {
    a.Axpy(0.001f, b);
    benchmark::DoNotOptimize(a.Raw());
  }
  state.SetBytesProcessed(state.iterations() * a.NumElements() * 8);
}
BENCHMARK(BM_TensorAxpy);

void BM_TensorNorm(benchmark::State& state) {
  const Tensor a = Big(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Norm());
  }
  state.SetBytesProcessed(state.iterations() * a.NumElements() * 4);
}
BENCHMARK(BM_TensorNorm);

void BM_RoundTripHalf(benchmark::State& state) {
  Tensor a = Big(4);
  for (auto _ : state) {
    RoundTripHalf(a);
    benchmark::DoNotOptimize(a.Raw());
  }
  state.SetItemsProcessed(state.iterations() * a.NumElements());
}
BENCHMARK(BM_RoundTripHalf);

void BM_PackUnpackHalf(benchmark::State& state) {
  const Tensor a = Big(5);
  std::vector<float> out(static_cast<std::size_t>(a.NumElements()));
  for (auto _ : state) {
    const auto packed = PackHalf(a.Data());
    UnpackHalf(packed, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.NumElements());
}
BENCHMARK(BM_PackUnpackHalf);

void BM_RoundTripHalfReluOutput(benchmark::State& state) {
  // ReLU output: about half the values are +0, the rest normal. A
  // conversion that branches on the magnitude mispredicts here.
  Tensor a = Big(6);
  for (float& v : a.Data()) v = v > 0.0f ? v : 0.0f;
  for (auto _ : state) {
    RoundTripHalf(a);
    benchmark::DoNotOptimize(a.Raw());
  }
  state.SetItemsProcessed(state.iterations() * a.NumElements());
}
BENCHMARK(BM_RoundTripHalfReluOutput);

}  // namespace
}  // namespace exaclim
