// Microbenchmarks of the convolution layer variants (plain, strided,
// atrous, transposed) and the FP16 emulation overhead — plus the
// batch-parallel engine comparison, which times forward+backward in both
// engine modes and records them through BenchReport
// (BENCH_micro_conv.json, the repo's conv perf-trajectory datapoint;
// the ci.sh perf-smoke stage asserts parallel <= serial), the implicit
// vs im2col and fused vs unfused comparisons, and the pointwise kernels
// of a Tiramisu unit.
//
// Custom main: google-benchmark cases run first (skip them with
// --benchmark_filter='-.*'), then the engine comparison.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "im2col_oracle.hpp"
#include "nn/conv_engine.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "obs/bench_report.hpp"
#include "stats/stats.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {
namespace {

Tensor Input(std::int64_t c, std::int64_t h, std::int64_t w) {
  Rng rng(1);
  return Tensor::Uniform(TensorShape::NCHW(1, c, h, w), rng, -1, 1);
}

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  Conv2d conv("c", {.in_c = 32, .out_c = 32}, rng);
  const Tensor x = Input(32, 48, 48);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.Raw());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(3);
  Conv2d conv("c", {.in_c = 32, .out_c = 32}, rng);
  const Tensor x = Input(32, 48, 48);
  const Tensor y = conv.Forward(x, true);
  Rng grng(4);
  const Tensor g = Tensor::Uniform(y.shape(), grng, -1, 1);
  for (auto _ : state) {
    (void)conv.Forward(x, true);
    Tensor gx = conv.Backward(g);
    benchmark::DoNotOptimize(gx.Raw());
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_Conv2dAtrous(benchmark::State& state) {
  const auto d = static_cast<std::int64_t>(state.range(0));
  Rng rng(5);
  Conv2d conv("c",
              {.in_c = 32, .out_c = 32, .kernel = 3, .pad = d, .dilation = d},
              rng);
  const Tensor x = Input(32, 48, 48);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.Raw());
  }
}
BENCHMARK(BM_Conv2dAtrous)->Arg(1)->Arg(4)->Arg(12);

void BM_ConvTranspose2d(benchmark::State& state) {
  Rng rng(6);
  ConvTranspose2d deconv(
      "d", {.in_c = 32, .out_c = 32, .kernel = 3, .stride = 2, .pad = 1,
            .out_pad = 1},
      rng);
  const Tensor x = Input(32, 24, 24);
  for (auto _ : state) {
    Tensor y = deconv.Forward(x, false);
    benchmark::DoNotOptimize(y.Raw());
  }
}
BENCHMARK(BM_ConvTranspose2d);

void BM_Conv2dForwardFP16Emulation(benchmark::State& state) {
  Rng rng(7);
  Conv2d conv("c", {.in_c = 32, .out_c = 32}, rng);
  conv.SetPrecision(Precision::kFP16);
  const Tensor x = Input(32, 48, 48);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.Raw());
  }
}
BENCHMARK(BM_Conv2dForwardFP16Emulation);

// ------------------------------------------ engine mode comparison -----

using Clock = std::chrono::steady_clock;

double TimeStepMs(Conv2d& conv, const Tensor& x, const Tensor& g) {
  for (Param* p : conv.Params()) p->grad.SetZero();
  const auto start = Clock::now();
  (void)conv.Forward(x, true);
  Tensor gx = conv.Backward(g);
  benchmark::DoNotOptimize(gx.Raw());
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Times forward+backward of a Tiramisu-growth-scale 3x3 conv at several
// batch sizes, serial batch walk vs batch-parallel engine.
void RunEngineComparison(obs::BenchReport& report) {
  constexpr int kRounds = 5;
  std::printf(
      "\nbatch-parallel conv engine (3x3 32->32 on 48x48, fwd+bwd, "
      "median of %d):\n  %5s %12s %14s %9s\n",
      kRounds, "batch", "serial [ms]", "parallel [ms]", "speedup");
  for (const std::int64_t batch : {1, 4, 8}) {
    Rng rng(2);
    Conv2d conv("c", {.in_c = 32, .out_c = 32}, rng);
    Rng xrng(3);
    const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 32, 48, 48),
                                     xrng, -1, 1);
    Rng grng(4);
    const Tensor g =
        Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1, 1);

    double medians[2] = {0, 0};
    for (const bool parallel : {false, true}) {
      SetConvBatchParallel(parallel);
      (void)TimeStepMs(conv, x, g);  // warm-up (sizes the workspace)
      std::vector<double> times;
      times.reserve(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        times.push_back(TimeStepMs(conv, x, g));
      }
      const std::string metric =
          std::string("fwd_bwd_") + (parallel ? "parallel" : "serial") +
          "_b" + std::to_string(batch) + "_ms";
      report.AddSeries(metric, times);
      medians[parallel ? 1 : 0] = Summarize(times).median;
    }
    SetConvBatchParallel(true);
    const double speedup = medians[1] > 0 ? medians[0] / medians[1] : 0;
    std::printf("  %5lld %12.3f %14.3f %8.2fx\n",
                static_cast<long long>(batch), medians[0], medians[1],
                speedup);
    if (batch > 1) {
      report.AddScalar("speedup_parallel_b" + std::to_string(batch),
                       speedup);
    }
  }
}

template <typename Forward>
double TimeMs(Forward&& forward) {
  const auto start = Clock::now();
  Tensor y = forward();
  benchmark::DoNotOptimize(y.Raw());
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// -------------------------------------- implicit GEMM vs im2col --------

// Median of kRounds timed calls of `pass` after one warm-up call
// (workspace + row tables), recorded as a series under `metric`.
template <typename Pass>
double TimeSeries(obs::BenchReport& report, const std::string& metric,
                  int rounds, Pass&& pass) {
  (void)TimeMs(pass);
  std::vector<double> times;
  times.reserve(rounds);
  for (int r = 0; r < rounds; ++r) times.push_back(TimeMs(pass));
  report.AddSeries(metric, times);
  return Summarize(times).median;
}

// Forward and backward timing of the implicit-GEMM conv passes against
// the materialized im2col lowering (tests/im2col_oracle.*: the same
// shards, packing, epilogue and reduction tree, bit-identical results),
// so each A/B isolates where the GEMM operands come from. Also records
// the patch-matrix bytes each image no longer materializes: one col
// buffer forward, col + grad_col backward.
void RunImplicitComparison(obs::BenchReport& report) {
  constexpr int kRounds = 7;
  struct Shape {
    const char* name;
    Conv2d::Options opts;
    std::int64_t h, w, batch;
  };
  const Shape shapes[] = {
      {"b4", {.in_c = 32, .out_c = 32}, 48, 48, 4},  // the conv-tile shape
      {"atrous",
       {.in_c = 32, .out_c = 32, .kernel = 3, .pad = 4, .dilation = 4},
       48, 48, 2},
      {"stride2",
       {.in_c = 16, .out_c = 32, .kernel = 3, .stride = 2, .pad = 1},
       96, 96, 2},
  };
  std::printf(
      "\nimplicit GEMM vs im2col (median of %d):\n"
      "  %8s %5s %12s %14s %9s %14s\n",
      kRounds, "shape", "pass", "im2col [ms]", "implicit [ms]", "speedup",
      "col bytes/img");
  for (const Shape& s : shapes) {
    Rng xrng(3);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(s.batch, s.opts.in_c, s.h, s.w), xrng, -1, 1);
    Rng rng(2);
    Conv2d conv("c", s.opts, rng);
    MaterialisedConv2d im2col(conv);
    const TensorShape out = conv.OutputShape(x.shape());
    Rng grng(4);
    const Tensor g = Tensor::Uniform(out, grng, -1, 1);
    const std::int64_t col_bytes =
        s.opts.in_c * s.opts.kernel * s.opts.kernel * out.h() * out.w() *
        static_cast<std::int64_t>(sizeof(float));
    const std::string name = s.name;

    const double fwd_im2col = TimeSeries(
        report, "conv_im2col_" + name + "_ms", kRounds,
        [&] { return im2col.Forward(x, /*fold_bias=*/true); });
    const double fwd_implicit =
        TimeSeries(report, "conv_implicit_" + name + "_ms", kRounds,
                   [&] { return conv.Forward(x, false); });
    (void)conv.Forward(x, true);  // caches x for the timed backward
    const double bwd_im2col =
        TimeSeries(report, "conv_bwd_im2col_" + name + "_ms", kRounds,
                   [&] { return im2col.Backward(x, g).grad_input; });
    const double bwd_implicit =
        TimeSeries(report, "conv_bwd_implicit_" + name + "_ms", kRounds,
                   [&] { return conv.Backward(g); });

    const auto speedup = [](double base, double t) {
      return t > 0 ? base / t : 0.0;
    };
    report.AddScalar("implicit_speedup_" + name,
                     speedup(fwd_im2col, fwd_implicit));
    report.AddScalar("implicit_bwd_speedup_" + name,
                     speedup(bwd_im2col, bwd_implicit));
    report.AddScalar("col_bytes_eliminated_" + name,
                     static_cast<double>(col_bytes));
    report.AddScalar("col_bytes_eliminated_bwd_" + name,
                     static_cast<double>(2 * col_bytes));
    std::printf("  %8s %5s %12.3f %14.3f %8.2fx %14lld\n", s.name, "fwd",
                fwd_im2col, fwd_implicit, speedup(fwd_im2col, fwd_implicit),
                static_cast<long long>(col_bytes));
    std::printf("  %8s %5s %12.3f %14.3f %8.2fx %14lld\n", s.name, "bwd",
                bwd_im2col, bwd_implicit, speedup(bwd_im2col, bwd_implicit),
                static_cast<long long>(2 * col_bytes));
  }
}

// ---------------------------------------- fused epilogue chains --------

// Eval-mode Conv2d→BatchNorm2d→ReLU: unfused layer walk vs the fused
// GEMM-epilogue fold (bias + BN scale/shift + ReLU in the C writeback).
void RunFusionComparison(obs::BenchReport& report) {
  constexpr int kRounds = 7;
  struct Shape {
    const char* name;
    Conv2d::Options opts;
    std::int64_t h, w, batch;
  };
  const Shape shapes[] = {
      {"tile", {.in_c = 32, .out_c = 32}, 48, 48, 4},  // conv-tile 3x3
      {"pointwise", {.in_c = 32, .out_c = 48, .kernel = 1, .pad = 0},
       64, 64, 4},
  };
  const bool saved_fuse = ConvFusionEnabled();
  std::printf(
      "\nfused conv->BN->ReLU epilogue (eval forward, median of %d):\n"
      "  %10s %13s %11s %9s\n",
      kRounds, "shape", "unfused [ms]", "fused [ms]", "speedup");
  for (const Shape& s : shapes) {
    Rng xrng(3);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(s.batch, s.opts.in_c, s.h, s.w), xrng, -1, 1);
    double medians[2] = {0, 0};
    for (const bool fuse : {false, true}) {
      SetConvFusion(fuse);
      Rng rng(2);
      Sequential seq("chain");
      seq.Emplace<Conv2d>("c", s.opts, rng);
      seq.Emplace<BatchNorm2d>("bn", s.opts.out_c);
      seq.Emplace<ReLU>("r");
      (void)seq.Forward(x, true);   // warm running stats + buffers
      const auto forward = [&] { return seq.Forward(x, false); };
      (void)TimeMs(forward);  // warm the eval path
      std::vector<double> times;
      times.reserve(kRounds);
      for (int r = 0; r < kRounds; ++r) times.push_back(TimeMs(forward));
      const std::string metric = std::string("conv_") +
                                 (fuse ? "fused_" : "unfused_") + s.name +
                                 "_eval_ms";
      report.AddSeries(metric, times);
      medians[fuse ? 1 : 0] = Summarize(times).median;
    }
    const double speedup = medians[1] > 0 ? medians[0] / medians[1] : 0;
    report.AddScalar(std::string("fused_speedup_") + s.name, speedup);
    std::printf("  %10s %13.3f %11.3f %8.2fx\n", s.name, medians[0],
                medians[1], speedup);
  }
  SetConvFusion(saved_fuse);
}

// ---------------------------------------------- pointwise kernels ------

// The pre-activation path of a Tiramisu unit (DESIGN §15), on the first
// dense unit's input of the downscaled Tiramisu (batch 2, 8 x 128 x 128):
//   - ReLU forward+backward on random-sign vs all-positive input. A
//     branch on the sign mispredicts on the first and never on the
//     second, so the ratio is ~1.0 for branchless kernels and 2.5-6x for
//     branchy ones on any host (ci.sh gates it at 1.5);
//   - the BatchNorm2d→ReLU pair as one fused sweep vs two layer passes
//     (train forward), in FP32 and under FP16 emulation;
//   - the binary16 round trip (RoundTripHalf) on ReLU output, about half
//     +0, vs all-normal input. A conversion that branches on the
//     magnitude mispredicts on the first; the branch-free one reads ~1.0
//     (ci.sh gates it at 1.5);
//   - MaxPool2d 2x2/2 forward on random vs ascending input, where a
//     branchy max-select shows the same gap as a branchy ReLU.
void RunPointwiseComparison(obs::BenchReport& report) {
  constexpr int kRounds = 21;
  const TensorShape shape = TensorShape::NCHW(2, 8, 128, 128);
  Rng xrng(3);
  const Tensor random = Tensor::Uniform(shape, xrng, -1, 1);
  const Tensor positive = Tensor::Uniform(shape, xrng, 0.001f, 1);
  Tensor ascending(shape);
  for (std::size_t i = 0; i < ascending.Data().size(); ++i) {
    ascending[i] = static_cast<float>(i);
  }
  Rng grng(4);
  const Tensor g = Tensor::Uniform(shape, grng, -1, 1);
  std::printf("\npointwise kernels (%s, median of %d):\n",
              shape.ToString().c_str(), kRounds);

  // Each pair of passes is timed alternately, so load that drifts during
  // the run hits both sides of a gated ratio alike.
  const auto time_pair = [&](const char* label, const char* metric_a,
                             auto&& pass_a, const char* metric_b,
                             auto&& pass_b) {
    (void)TimeMs(pass_a);
    (void)TimeMs(pass_b);
    std::vector<double> a, b;
    for (int r = 0; r < kRounds; ++r) {
      a.push_back(TimeMs(pass_a));
      b.push_back(TimeMs(pass_b));
    }
    report.AddSeries(metric_a, a);
    report.AddSeries(metric_b, b);
    std::printf("  %-14s %-22s %8.3f ms   %-22s %8.3f ms\n", label,
                metric_a, Summarize(a).median, metric_b,
                Summarize(b).median);
  };

  ReLU relu("r");
  const auto relu_pass = [&](const Tensor& x) {
    return [&relu, &g, &x] {
      (void)relu.Forward(x, true);
      return relu.Backward(g);
    };
  };
  time_pair("relu fwd+bwd", "relu_random_sign_ms", relu_pass(random),
            "relu_all_positive_ms", relu_pass(positive));

  const bool saved_fuse = ConvFusionEnabled();
  Sequential unit("unit");
  unit.Emplace<BatchNorm2d>("bn", shape.c());
  unit.Emplace<ReLU>("r");
  const auto unit_pass = [&](bool fuse) {
    return [&unit, &random, fuse] {
      SetConvFusion(fuse);
      return unit.Forward(random, true);
    };
  };
  time_pair("bn->relu fwd", "bn_relu_unfused_ms", unit_pass(false),
            "bn_relu_fused_ms", unit_pass(true));
  Sequential unit16("unit16");
  unit16.Emplace<BatchNorm2d>("bn", shape.c());
  unit16.Emplace<ReLU>("r");
  unit16.SetPrecision(Precision::kFP16);
  const auto unit16_pass = [&](bool fuse) {
    return [&unit16, &random, fuse] {
      SetConvFusion(fuse);
      return unit16.Forward(random, true);
    };
  };
  time_pair("bn->relu fp16", "bn_relu_fp16_unfused_ms", unit16_pass(false),
            "bn_relu_fp16_fused_ms", unit16_pass(true));
  SetConvFusion(saved_fuse);

  // Quantising an already-quantised tensor changes no value, so each
  // pass round-trips the same data again.
  Tensor relu_output = relu.Forward(random, true);
  Tensor normal = positive;
  const auto round_trip_pass = [](Tensor& x) {
    return [&x] {
      RoundTripHalf(x);
      return Tensor();
    };
  };
  time_pair("fp16 round trip", "half_roundtrip_relu_output_ms",
            round_trip_pass(relu_output), "half_roundtrip_normal_ms",
            round_trip_pass(normal));

  MaxPool2d pool("p", 2, 2, 0);
  const auto pool_pass = [&](const Tensor& x) {
    return [&pool, &x] { return pool.Forward(x, true); };
  };
  time_pair("maxpool fwd", "maxpool_random_ms", pool_pass(random),
            "maxpool_ascending_ms", pool_pass(ascending));
}

void RunComparisons() {
  obs::BenchReport report("micro_conv");
  report.AddScalar("threads",
                   static_cast<double>(ThreadPool::Global().size() + 1));
  RunEngineComparison(report);
  RunImplicitComparison(report);
  RunFusionComparison(report);
  RunPointwiseComparison(report);
  const auto path = report.WriteJsonFile();
  if (!path.empty()) std::printf("  wrote %s\n", path.string().c_str());
}

}  // namespace
}  // namespace exaclim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  exaclim::RunComparisons();
  return 0;
}
