// Microbenchmarks of the GEMM kernel that backs im2col convolution —
// the CPU stand-in for the cuDNN implicit-GEMM kernels — plus a
// per-shape throughput table that records the packed engine's median
// GFLOP/s through BenchReport (BENCH_micro_gemm.json) next to the name
// of the microkernel it dispatched to.
//
// Custom main: google-benchmark cases run first (skip them with
// --benchmark_filter='-.*'), then the throughput table.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/bench_report.hpp"
#include "stats/stats.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {
namespace {

void BM_GemmSquare(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = rng.Uniform(-1, 1);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  for (auto _ : state) {
    Gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmConvShaped(benchmark::State& state) {
  // The im2col shape of a 3x3 conv, 64->64 channels on a 48x48 image:
  // C[64, 2304] = W[64, 576] * col[576, 2304].
  const std::int64_t m = 64, k = 576, n = 2304;
  Rng rng(2);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = rng.Uniform(-1, 1);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  for (auto _ : state) {
    Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * m * n * k * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmConvShaped);

void BM_GemmTransposed(benchmark::State& state) {
  // Weight-gradient shape: gW[m,k] = gy[m,n] * col[k,n]^T.
  const std::int64_t m = 64, n = 2304, k = 576;
  Rng rng(3);
  std::vector<float> a(static_cast<std::size_t>(m * n));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * k));
  for (auto& v : a) v = rng.Uniform(-1, 1);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  for (auto _ : state) {
    Gemm(false, true, m, k, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTransposed);

// ------------------------------------------------ throughput table -----

using Clock = std::chrono::steady_clock;

struct GemmCase {
  const char* key;  // metric suffix
  bool trans_b;
  std::int64_t m, n, k;
};

// The three shapes the perf trajectory tracks: a square GEMM, the
// forward im2col shape of a 3x3 64->64 conv on 48x48 (the acceptance
// shape), and the transposed right-operand variant of the same.
constexpr GemmCase kCases[] = {
    {"square256", false, 256, 256, 256},
    {"conv", false, 64, 2304, 576},
    {"conv_tb", true, 64, 576, 2304},
};

double TimeGemmMs(const GemmCase& cs, const float* a, const float* b,
                  float* c) {
  const auto start = Clock::now();
  Gemm(false, cs.trans_b, cs.m, cs.n, cs.k, 1.0f, a, b, 0.0f, c);
  benchmark::DoNotOptimize(c);
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Times each shape, reporting a GFLOP/s series per shape.
void RunThroughputTable() {
  obs::BenchReport report("micro_gemm");
  report.AddScalar("threads",
                   static_cast<double>(ThreadPool::Global().size() + 1));

  constexpr int kRounds = 7;
  std::printf(
      "\nGEMM engine (microkernel: %s, median GFLOP/s of %d):\n"
      "  %10s %10s\n",
      GemmMicroKernelName(), kRounds, "shape", "GFLOP/s");
  for (const GemmCase& cs : kCases) {
    Rng rng(7);
    std::vector<float> a(static_cast<std::size_t>(cs.m * cs.k));
    std::vector<float> b(static_cast<std::size_t>(cs.k * cs.n));
    std::vector<float> c(static_cast<std::size_t>(cs.m * cs.n));
    for (auto& v : a) v = rng.Uniform(-1, 1);
    for (auto& v : b) v = rng.Uniform(-1, 1);
    const double gflop = 2.0 * cs.m * cs.n * cs.k / 1e9;

    (void)TimeGemmMs(cs, a.data(), b.data(), c.data());  // warm-up
    std::vector<double> rates;
    rates.reserve(kRounds);
    for (int r = 0; r < kRounds; ++r) {
      rates.push_back(gflop /
                      (TimeGemmMs(cs, a.data(), b.data(), c.data()) / 1e3));
    }
    report.AddSeries(std::string("gflops_") + cs.key, rates);
    std::printf("  %10s %10.2f\n", cs.key, Summarize(rates).median);
  }
  const auto path = report.WriteJsonFile();
  if (!path.empty()) std::printf("  wrote %s\n", path.string().c_str());
}

}  // namespace
}  // namespace exaclim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  exaclim::RunThroughputTable();
  return 0;
}
