// Microbenchmarks of the convolution layer variants (plain, strided,
// atrous, transposed) and the FP16 emulation overhead — plus the
// batch-parallel engine comparison, which times forward+backward in both
// engine modes and records them through BenchReport
// (BENCH_micro_conv.json, the repo's conv perf-trajectory datapoint;
// the ci.sh perf-smoke stage asserts parallel <= serial).
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
#include "nn/conv_engine.hpp"
#include "nn/im2col.hpp"
#include "nn/norm.hpp"
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

// The materialized im2col lowering that the implicit B-panel gather
// replaced, composed from the pieces conv backward still uses: per image,
// Im2ColFromRows into the shard's col buffer, then out = W @ col on the
// prepacked weight panels with the bias folded into the epilogue. Same
// shards, packing and epilogue as Conv2d's forward (bit-identical
// output), so the A/B isolates where the B panels come from.
class Im2ColForward {
 public:
  explicit Im2ColForward(Conv2d& conv) : conv_(conv) {}

  Tensor Run(const Tensor& x) {
    const Conv2d::Options& o = conv_.options();
    ConvGeometry g;
    g.in_c = o.in_c;
    g.in_h = x.shape().h();
    g.in_w = x.shape().w();
    g.k_h = g.k_w = o.kernel;
    g.stride = o.stride;
    g.pad = o.pad;
    g.dilation = o.dilation;
    Tensor output(conv_.OutputShape(x.shape()));
    const std::int64_t batch = x.shape().n();
    const std::int64_t shards = ConvGradShards(batch);
    workspace_.Configure(shards, g.PatchSize() * g.OutPixels(),
                         /*grad_col_elems=*/0, /*weight_elems=*/0,
                         /*bias_elems=*/0);
    const GemmImplicitRow* rows = workspace_.ImplicitRows(g);
    packed_.Pack(false, o.out_c, g.PatchSize(), 1.0f,
                 conv_.weight().value.Raw());
    GemmEpilogue epi;
    if (o.bias) epi.bias = conv_.Params().at(1)->value.Raw();
    const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
    const std::int64_t out_stride = o.out_c * g.OutPixels();
    RunConvShards(shards, [&](std::int64_t s) {
      const ConvShardRange images = ShardImageRange(batch, shards, s);
      float* col = workspace_.Col(s);
      for (std::int64_t n = images.lo; n < images.hi; ++n) {
        Im2ColFromRows(g, rows, x.Raw() + n * in_stride, col);
        GemmPackedWithA(packed_, false, g.OutPixels(), col, 0.0f,
                        output.Raw() + n * out_stride,
                        o.bias ? &epi : nullptr);
      }
    });
    return output;
  }

 private:
  Conv2d& conv_;
  ConvWorkspace workspace_;
  PackedGemmA packed_;
};

// Forward timing of the implicit B-panel gather (Conv2d's forward)
// against the composed im2col lowering (bit-identical outputs, so this is
// a pure perf A/B), plus the col-buffer footprint the implicit path
// eliminates per image.
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
      "\nimplicit GEMM vs im2col (forward, median of %d):\n"
      "  %8s %12s %14s %9s %14s\n",
      kRounds, "shape", "im2col [ms]", "implicit [ms]", "speedup",
      "col bytes/img");
  for (const Shape& s : shapes) {
    Rng xrng(3);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(s.batch, s.opts.in_c, s.h, s.w), xrng, -1, 1);
    Rng rng(2);
    Conv2d conv("c", s.opts, rng);
    Im2ColForward im2col(conv);
    const TensorShape out = conv.OutputShape(x.shape());
    const std::int64_t col_bytes =
        s.opts.in_c * s.opts.kernel * s.opts.kernel * out.h() * out.w() *
        static_cast<std::int64_t>(sizeof(float));
    double medians[2] = {0, 0};
    for (const bool implicit : {false, true}) {
      const auto forward = [&] {
        return implicit ? conv.Forward(x, false) : im2col.Run(x);
      };
      (void)TimeMs(forward);  // warm-up (workspace + row tables)
      std::vector<double> times;
      times.reserve(kRounds);
      for (int r = 0; r < kRounds; ++r) times.push_back(TimeMs(forward));
      const std::string metric = std::string("conv_") +
                                 (implicit ? "implicit_" : "im2col_") +
                                 s.name + "_ms";
      report.AddSeries(metric, times);
      medians[implicit ? 1 : 0] = Summarize(times).median;
    }
    const double speedup = medians[1] > 0 ? medians[0] / medians[1] : 0;
    report.AddScalar(std::string("implicit_speedup_") + s.name, speedup);
    report.AddScalar(std::string("col_bytes_eliminated_") + s.name,
                     static_cast<double>(col_bytes));
    std::printf("  %8s %12.3f %14.3f %8.2fx %14lld\n", s.name, medians[0],
                medians[1], speedup, static_cast<long long>(col_bytes));
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

void RunComparisons() {
  obs::BenchReport report("micro_conv");
  report.AddScalar("threads",
                   static_cast<double>(ThreadPool::Global().size() + 1));
  RunEngineComparison(report);
  RunImplicitComparison(report);
  RunFusionComparison(report);
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
