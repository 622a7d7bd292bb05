#include "step_bench/probes.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "flops/cost.hpp"
#include "nn/activation.hpp"
#include "nn/combine.hpp"
#include "nn/conv.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "stats/stats.hpp"
#include "tensor/gemm.hpp"

namespace perfbench {
namespace {

using exaclim::Layer;
using exaclim::OpSpec;
using exaclim::Tensor;
using exaclim::TensorShape;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int KindIndex(OpSpec::Kind kind) {
  switch (kind) {
    case OpSpec::Kind::kConv: return 0;
    case OpSpec::Kind::kDeconv: return 1;
    case OpSpec::Kind::kNorm: return 2;
    case OpSpec::Kind::kActivation: return 3;
    case OpSpec::Kind::kPool: return 4;
    case OpSpec::Kind::kConcat: return 5;
    case OpSpec::Kind::kUpsample: return 6;
    case OpSpec::Kind::kBias: return -1;
  }
  return -1;
}

/// Pooling padding that reproduces the spec's output size.
std::int64_t PoolPad(const OpSpec& op) {
  for (std::int64_t pad = 0; pad <= op.kernel / 2; ++pad) {
    if ((op.in_h + 2 * pad - op.kernel) / op.stride + 1 == op.out_h) {
      return pad;
    }
  }
  EXACLIM_CHECK(false, "no pool padding reproduces " << op.name);
  return 0;
}

/// Transposed-conv padding/output padding that reproduce the spec's size.
std::pair<std::int64_t, std::int64_t> DeconvPads(const OpSpec& op) {
  for (std::int64_t pad = 0; pad < op.kernel; ++pad) {
    const std::int64_t out_pad =
        op.out_h - ((op.in_h - 1) * op.stride - 2 * pad + op.kernel);
    if (out_pad >= 0 && out_pad < op.stride) return {pad, out_pad};
  }
  EXACLIM_CHECK(false, "no deconv padding reproduces " << op.name);
  return {0, 0};
}

std::unique_ptr<Layer> BuildLayer(const OpSpec& op, bool bias,
                                  exaclim::Precision precision,
                                  exaclim::Rng& rng) {
  std::unique_ptr<Layer> layer;
  switch (op.kind) {
    case OpSpec::Kind::kConv:
      layer = std::make_unique<exaclim::Conv2d>(
          op.name,
          exaclim::Conv2d::Options{.in_c = op.in_c,
                                   .out_c = op.out_c,
                                   .kernel = op.kernel,
                                   .stride = op.stride,
                                   .pad = op.dilation * (op.kernel / 2),
                                   .dilation = op.dilation,
                                   .bias = bias},
          rng);
      break;
    case OpSpec::Kind::kDeconv: {
      const auto [pad, out_pad] = DeconvPads(op);
      layer = std::make_unique<exaclim::ConvTranspose2d>(
          op.name,
          exaclim::ConvTranspose2d::Options{.in_c = op.in_c,
                                            .out_c = op.out_c,
                                            .kernel = op.kernel,
                                            .stride = op.stride,
                                            .pad = pad,
                                            .out_pad = out_pad,
                                            .bias = bias},
          rng);
      break;
    }
    case OpSpec::Kind::kNorm:
      layer = std::make_unique<exaclim::BatchNorm2d>(op.name, op.in_c);
      break;
    case OpSpec::Kind::kActivation:
      // The downscaled models have no dropout: every activation is a ReLU.
      layer = std::make_unique<exaclim::ReLU>(op.name);
      break;
    case OpSpec::Kind::kPool:
      layer = std::make_unique<exaclim::MaxPool2d>(op.name, op.kernel,
                                                   op.stride, PoolPad(op));
      break;
    case OpSpec::Kind::kUpsample:
      layer = std::make_unique<exaclim::BilinearUpsample2d>(
          op.name, op.out_h / op.in_h);
      break;
    case OpSpec::Kind::kConcat:
    case OpSpec::Kind::kBias:
      break;
  }
  if (layer) layer->SetPrecision(precision);
  return layer;
}

/// Times `reps` forward/backward pairs after one untimed pair (workspace
/// sizing, weight packing) and adds the medians to *fwd / *bwd.
template <typename Fwd, typename Bwd>
void TimeOp(int reps, Fwd&& fwd, Bwd&& bwd, double* fwd_s, double* bwd_s) {
  fwd();
  bwd();
  std::vector<double> tf, tb;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fwd();
    const auto t1 = Clock::now();
    bwd();
    const auto t2 = Clock::now();
    tf.push_back(Seconds(t0, t1));
    tb.push_back(Seconds(t1, t2));
  }
  *fwd_s += exaclim::Percentile(tf, 0.5);
  *bwd_s += exaclim::Percentile(tb, 0.5);
}

}  // namespace

ReplayTimes ReplaySpec(const exaclim::ArchSpec& spec, std::int64_t batch,
                       exaclim::Precision precision, int reps,
                       std::uint64_t seed) {
  ReplayTimes out;
  exaclim::Rng rng(seed);
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const OpSpec& op = spec.ops[i];
    const int kind = KindIndex(op.kind);
    if (kind < 0) continue;
    const auto ks = static_cast<std::size_t>(kind);
    const TensorShape in_shape{batch, op.in_c, op.in_h, op.in_w};
    const TensorShape out_shape{batch, op.out_c, op.out_h, op.out_w};
    const Tensor grad = Tensor::Randn(out_shape, rng);

    if (op.kind == OpSpec::Kind::kConcat) {
      // The spec's concat appends (out_c - in_c) channels to an in_c input.
      const std::int64_t added = op.out_c - op.in_c;
      const Tensor a = Tensor::Randn(in_shape, rng);
      const Tensor b =
          Tensor::Randn(TensorShape{batch, added, op.in_h, op.in_w}, rng);
      const std::int64_t channels[] = {op.in_c, added};
      std::vector<Tensor> parts(2);
      Tensor joined;
      TimeOp(
          reps, [&] { joined = exaclim::ConcatChannels(a, b); },
          [&] { exaclim::SplitChannelsInto(grad, channels, parts); },
          &out.fwd_s[ks], &out.bwd_s[ks]);
      continue;
    }

    const bool bias = i + 1 < spec.ops.size() &&
                      spec.ops[i + 1].kind == OpSpec::Kind::kBias &&
                      spec.ops[i + 1].name == op.name + ".bias";
    auto layer = BuildLayer(op, bias, precision, rng);
    const TensorShape produced = layer->OutputShape(in_shape);
    EXACLIM_CHECK(produced.dims().size() == 4 && produced.c() == op.out_c &&
                      produced.h() == op.out_h && produced.w() == op.out_w,
                  "replay layer " << op.name << " does not match its spec");
    const Tensor x = Tensor::Randn(in_shape, rng);
    Tensor y;
    TimeOp(
        reps, [&] { y = layer->Forward(x, /*train=*/true); },
        [&] { (void)layer->Backward(grad); }, &out.fwd_s[ks],
        &out.bwd_s[ks]);
    if (op.kind == OpSpec::Kind::kConv) {
      out.conv_fwd_flops += exaclim::ConvFlops(op.kernel, op.out_h, op.out_w,
                                               op.in_c, op.out_c, batch);
    }
  }
  return out;
}

double MeasureGemmPeakGflops(int reps) {
  constexpr std::int64_t kN = 768;
  exaclim::Rng rng(7);
  const Tensor a = Tensor::Randn(TensorShape{kN, kN}, rng);
  const Tensor b = Tensor::Randn(TensorShape{kN, kN}, rng);
  Tensor c(TensorShape{kN, kN});
  exaclim::Gemm(false, false, kN, kN, kN, 1.0f, a.Raw(), b.Raw(), 0.0f,
                c.Raw());
  std::vector<double> gflops;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    exaclim::Gemm(false, false, kN, kN, kN, 1.0f, a.Raw(), b.Raw(), 0.0f,
                  c.Raw());
    const double s = Seconds(t0, Clock::now());
    gflops.push_back(2.0 * kN * kN * kN / s * 1e-9);
  }
  return exaclim::Percentile(gflops, 0.5);
}

}  // namespace perfbench
