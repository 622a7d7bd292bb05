#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/workspace.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {
namespace {

// "Same" padding must grow with the dilated (effective) kernel, or an
// ASPP-style dilated conv with the default pad silently shrinks its
// spatial map.
std::int64_t SamePad(std::int64_t kernel, std::int64_t dilation) {
  return dilation * (kernel / 2);
}

// Per-image bias gradient contribution for one channel plane, as a float
// (the canonical per-image rounding the shard accumulators chain).
float PlaneSum(const float* plane, std::int64_t count) {
  double acc = 0.0;
  for (std::int64_t p = 0; p < count; ++p) acc += plane[p];
  return static_cast<float>(acc);
}

// One image viewed as g's implicit patch matrix (DESIGN §15).
GemmImplicitB PatchOperand(const ConvGeometry& g, const GemmImplicitRow* rows,
                           const float* image) {
  return {image, rows, g.OutH(), g.OutW(), g.in_w, g.stride};
}

// Floats of per-shard scratch the data gradient needs: one stride phase
// of the input (the largest is phase (0, 0)); stride 1 writes straight
// into the gradient.
std::int64_t PhaseScratchElems(const ConvGeometry& g) {
  if (g.stride == 1) return 0;
  const std::int64_t s = g.stride;
  return g.in_c * ((g.in_h + s - 1) / s) * ((g.in_w + s - 1) / s);
}

// Packs the data-gradient operand of every stride phase of `plan`:
// A_f[ci, (t, co)] = w[co, ci*Taps + tap_t] over the phase's taps in
// (kh, kw) order, one panel per tap (depth co_n, capped at kGemmKC).
// `w` is [co_n, g.PatchSize()] — Conv2d's weight, or ConvTranspose2d's
// with its channel roles swapped.
void PackGradWeights(const ConvGeometry& g, std::int64_t co_n,
                     const float* w, const ConvGradPlan& plan,
                     std::vector<PackedGemmA>& packed) {
  const std::int64_t taps = g.Taps();
  packed.resize(plan.phases.size());
  for (std::size_t f = 0; f < plan.phases.size(); ++f) {
    const ConvGradPhase& ph = plan.phases[f];
    if (ph.taps == 0) continue;
    const std::int64_t k = ph.taps * co_n;
    float* regroup = AcquireScratch(ScratchSlot::kConvGradWeights,
                                    static_cast<std::size_t>(g.in_c * k));
    std::int64_t t = 0;
    for (std::int64_t tap = 0; tap < taps; ++tap) {
      if (!TapFeedsPhase(g, tap / g.k_w, tap % g.k_w, ph.py, ph.px)) continue;
      for (std::int64_t ci = 0; ci < g.in_c; ++ci) {
        float* dst = regroup + ci * k + t * co_n;
        const float* src = w + ci * taps + tap;
        for (std::int64_t co = 0; co < co_n; ++co) {
          dst[co] = src[co * g.PatchSize()];
        }
      }
      ++t;
    }
    packed[f].Pack(false, g.in_c, k, 1.0f, regroup,
                   std::min(co_n, kGemmKC));
  }
}

// Data gradient of one image (DESIGN §15): grad_x[in_c, in_h, in_w] from
// grad_y[co_n, OutH, OutW], one implicit GEMM per stride phase whose
// panels are the phase's taps. Taps merge into C in (kh, kw) order, the
// first with beta 0, so the result is bit-identical to the materialised
// W^T @ grad_y GEMM followed by the patch-matrix scatter. Stride > 1
// computes each phase into `scratch` and copies it into its strided
// sub-grid.
void DataGradImage(const ConvGeometry& g, const ConvGradPlan& plan,
                   const std::vector<PackedGemmA>& packed,
                   const float* grad_y, float* scratch, float* grad_x) {
  const std::int64_t s = g.stride;
  for (std::size_t f = 0; f < plan.phases.size(); ++f) {
    const ConvGradPhase& ph = plan.phases[f];
    if (ph.h == 0 || ph.w == 0) continue;
    float* c = s == 1 ? grad_x : scratch;
    if (ph.taps == 0) {
      std::fill(c, c + g.in_c * ph.h * ph.w, 0.0f);
    } else {
      const GemmImplicitB b{grad_y, plan.rows + ph.row0, ph.h, ph.w,
                            g.OutW(), /*stride=*/1};
      GemmPackedImplicit(packed[f], b, 0.0f, c);
    }
    if (s == 1) continue;
    for (std::int64_t ci = 0; ci < g.in_c; ++ci) {
      for (std::int64_t qy = 0; qy < ph.h; ++qy) {
        const float* src = scratch + (ci * ph.h + qy) * ph.w;
        float* dst = grad_x + (ci * g.in_h + ph.py + s * qy) * g.in_w + ph.px;
        for (std::int64_t qx = 0; qx < ph.w; ++qx) dst[s * qx] = src[qx];
      }
    }
  }
}

}  // namespace

const char* ToString(ConvAlgorithm algo) {
  switch (algo) {
    case ConvAlgorithm::kAuto: return "auto";
    case ConvAlgorithm::kImplicitGemm: return "implicit-gemm";
    case ConvAlgorithm::kDirect: return "direct";
  }
  return "?";
}

ConvAlgorithm DefaultConvAlgorithm() { return ConvAlgorithm::kAuto; }

// ----------------------------------------------------------- Conv2d -----

Conv2d::Conv2d(std::string name, const Options& opts, Rng& rng)
    : Layer(std::move(name)),
      opts_([&] {
        Options o = opts;
        if (o.pad < 0) o.pad = SamePad(o.kernel, o.dilation);
        return o;
      }()),
      weight_(this->name() + ".weight",
              Tensor::Randn(
                  TensorShape{opts_.out_c,
                              opts_.in_c * opts_.kernel * opts_.kernel},
                  rng, 0.0f,
                  // He initialisation for ReLU networks.
                  std::sqrt(2.0f / static_cast<float>(
                                       opts_.in_c * opts_.kernel *
                                       opts_.kernel)))) {
  EXACLIM_CHECK(opts_.in_c > 0 && opts_.out_c > 0, "conv needs channels");
  EXACLIM_CHECK(opts_.stride >= 1 && opts_.dilation >= 1,
                "invalid stride/dilation");
  if (opts_.bias) {
    bias_.emplace(this->name() + ".bias", Tensor::Zeros(TensorShape{opts_.out_c}));
  }
}

ConvGeometry Conv2d::Geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g;
  g.in_c = opts_.in_c;
  g.in_h = h;
  g.in_w = w;
  g.k_h = g.k_w = opts_.kernel;
  g.stride = opts_.stride;
  g.pad = opts_.pad;
  g.dilation = opts_.dilation;
  return g;
}

bool Conv2d::UsePointwiseFastPath() const {
  return opts_.kernel == 1 && opts_.stride == 1 && opts_.pad == 0 &&
         opts_.dilation == 1;
}

ConvAlgorithm Conv2d::chosen_algorithm() const {
  // Direct is strictly better for pointwise convolutions (no patch
  // expansion); implicit GEMM wins elsewhere on this substrate.
  return UsePointwiseFastPath() ? ConvAlgorithm::kDirect
                                : ConvAlgorithm::kImplicitGemm;
}

TensorShape Conv2d::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 && input.c() == opts_.in_c,
                name() << ": bad input " << input.ToString() << ", expected C="
                       << opts_.in_c);
  const ConvGeometry g = Geometry(input.h(), input.w());
  return TensorShape::NCHW(input.n(), opts_.out_c, g.OutH(), g.OutW());
}

const Tensor& Conv2d::ComputeWeight() {
  if (precision() != Precision::kFP16) return weight_.value;
  quantised_weight_ = weight_.value;
  RoundTripHalf(quantised_weight_);
  return quantised_weight_;
}

Tensor Conv2d::Forward(const Tensor& input, bool train) {
  return ForwardFused(input, train, ConvFusedOps{});
}

Tensor Conv2d::ForwardFused(const Tensor& input, bool /*train*/,
                            const ConvFusedOps& ops) {
  const TensorShape out_shape = OutputShape(input.shape());
  const ConvGeometry g = Geometry(input.shape().h(), input.shape().w());
  cached_input_ = input;

  // Every element is written: the GEMM below runs with beta 0.
  Tensor output = Tensor::Uninitialized(out_shape);
  const Tensor& w = ComputeWeight();
  const bool pointwise = UsePointwiseFastPath();
  const bool fp16 = precision() == Precision::kFP16;
  // Fold the conv's own bias, and under FP16 emulation the quantisation
  // of its output, into the GEMM epilogue whenever fusion is on: the
  // per-element add and rounding are the exact FP ops of the separate
  // bias pass and RoundTripHalf sweep below, so SetConvFusion never
  // changes bits — it only changes how often C is touched.
  const bool use_epilogue =
      !ops.Empty() || ((bias_.has_value() || fp16) && ConvFusionEnabled());
  GemmEpilogue epi;
  if (use_epilogue) {
    if (bias_) epi.bias = bias_->value.Raw();
    epi.half = fp16;
    epi.bn_mean = ops.bn_mean;
    epi.bn_inv_std = ops.bn_inv_std;
    epi.bn_gamma = ops.bn_gamma;
    epi.bn_beta = ops.bn_beta;
    epi.relu = ops.relu;
    epi.mask_ld = g.OutPixels();
    EXACLIM_CHECK(ops.bn_norm == nullptr || ops.bn_mean != nullptr,
                  name() << ": x_hat writeback without BN vectors");
  }
  const std::int64_t batch = input.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  // Pointwise reads the activation map directly, everything else
  // gathers implicitly.
  const GemmImplicitRow* rows =
      pointwise ? nullptr : workspace_.ImplicitRows(g);
  const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_stride = opts_.out_c * g.OutPixels();
  // Pack the weight into the GEMM engine's A-panel layout once; every
  // shard then reuses the panels read-only instead of re-packing W per
  // image inside the per-image GEMMs (DESIGN §10).
  packed_weight_.Pack(false, opts_.out_c, g.PatchSize(), 1.0f, w.Raw());
  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      // Per-image epilogue view: only the mask/x_hat pointers move with n.
      GemmEpilogue epi_n = epi;
      if (ops.relu_mask != nullptr) {
        epi_n.relu_mask = ops.relu_mask + n * out_stride;
      }
      if (ops.bn_norm != nullptr) {
        epi_n.bn_norm = ops.bn_norm + n * out_stride;
      }
      const GemmEpilogue* epi_ptr = use_epilogue ? &epi_n : nullptr;
      float* out_n = output.Raw() + n * out_stride;
      if (pointwise) {
        // 1x1/stride-1: the activation map already IS the patch matrix.
        GemmPackedWithA(packed_weight_, false, g.OutPixels(),
                        input.Raw() + n * in_stride, 0.0f, out_n, epi_ptr);
      } else {
        // out[out_c, P] = W[out_c, patch] @ implicit-im2col(x) — the
        // B-panel packer gathers straight from the image (DESIGN §15).
        GemmPackedImplicit(packed_weight_,
                           PatchOperand(g, rows, input.Raw() + n * in_stride),
                           0.0f, out_n, epi_ptr);
      }
      if (bias_ && !use_epilogue) {
        for (std::int64_t c = 0; c < opts_.out_c; ++c) {
          const float b = bias_->value[static_cast<std::size_t>(c)];
          float* plane = out_n + c * g.OutPixels();
          for (std::int64_t p = 0; p < g.OutPixels(); ++p) plane[p] += b;
        }
      }
    }
  });
  if (!use_epilogue) MaybeQuantise(output);
  return output;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(!cached_input_.Empty(), name() << ": Backward before Forward");
  const TensorShape& in_shape = cached_input_.shape();
  const ConvGeometry g = Geometry(in_shape.h(), in_shape.w());
  EXACLIM_CHECK(grad_output.shape() == OutputShape(in_shape),
                name() << ": grad shape mismatch");

  // Every element is written by DataGradImage (see ConvTranspose2d).
  Tensor grad_input = Tensor::Uninitialized(in_shape);
  const Tensor& w = ComputeWeight();
  // Both gradients run on the packed engine with implicit operands and
  // never materialise a patch matrix (DESIGN §15): the weight gradient
  // gathers the input's patch panels through the forward row table, the
  // data gradient gathers grad_output through the per-phase tap tables.
  //
  // Weight/bias gradients go through per-shard accumulators merged by a
  // fixed-order tree so the batch-parallel result is bit-identical to the
  // serial walk (DESIGN §9).
  const std::int64_t batch = in_shape.n();
  const std::int64_t shards = ConvGradShards(batch);
  workspace_.Configure(shards, PhaseScratchElems(g),
                       weight_.grad.NumElements(),
                       bias_ ? opts_.out_c : 0);
  workspace_.ZeroGradAccumulators();
  // Geometry-dependent setup hoisted out of the n-loop: the tables are
  // shared read-only by all shards (the forward table is already warm
  // whenever the forward pass ran on the same geometry).
  const GemmImplicitRow* rows = workspace_.ImplicitRows(g);
  const ConvGradPlan plan = workspace_.GradPlan(g, opts_.out_c);
  const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_stride = opts_.out_c * g.OutPixels();
  // The data gradient multiplies by the regrouped W for every image;
  // pack it once and share the panels across shards.
  PackGradWeights(g, opts_.out_c, w.Raw(), plan, packed_grad_);

  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* wgrad = workspace_.WeightGrad(s);
    float* bgrad = bias_ ? workspace_.BiasGrad(s) : nullptr;
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      const float* gout = grad_output.Raw() + n * out_stride;
      // Weight gradient: gW[out_c, patch] += gout[out_c, P] @ im2col(x)^T.
      GemmImplicitTransB(
          opts_.out_c, gout,
          PatchOperand(g, rows, cached_input_.Raw() + n * in_stride),
          g.PatchSize(), 1.0f, wgrad);
      DataGradImage(g, plan, packed_grad_, gout, workspace_.Scratch(s),
                    grad_input.Raw() + n * in_stride);
      if (bgrad != nullptr) {
        for (std::int64_t c = 0; c < opts_.out_c; ++c) {
          bgrad[c] += PlaneSum(gout + c * g.OutPixels(), g.OutPixels());
        }
      }
    }
  });
  workspace_.ReduceWeightGradInto(weight_.grad.Raw());
  if (bias_) workspace_.ReduceBiasGradInto(bias_->grad.Raw());
  MaybeQuantise(grad_input);
  return grad_input;
}

std::vector<Param*> Conv2d::Params() {
  std::vector<Param*> params{&weight_};
  if (bias_) params.push_back(&*bias_);
  return params;
}

// -------------------------------------------------- ConvTranspose2d -----

ConvTranspose2d::ConvTranspose2d(std::string name, const Options& opts,
                                 Rng& rng)
    : Layer(std::move(name)),
      opts_([&] {
        Options o = opts;
        if (o.pad < 0) o.pad = (o.kernel - o.stride + 1) / 2;
        return o;
      }()),
      weight_(this->name() + ".weight",
              Tensor::Randn(
                  TensorShape{opts_.in_c,
                              opts_.out_c * opts_.kernel * opts_.kernel},
                  rng, 0.0f,
                  std::sqrt(2.0f / static_cast<float>(
                                       opts_.in_c * opts_.kernel *
                                       opts_.kernel)))) {
  EXACLIM_CHECK(opts_.in_c > 0 && opts_.out_c > 0, "deconv needs channels");
  EXACLIM_CHECK(opts_.pad >= 0, "deconv pad must resolve non-negative");
  EXACLIM_CHECK(opts_.out_pad >= 0 && opts_.out_pad < opts_.stride,
                "out_pad must be in [0, stride)");
  if (opts_.bias) {
    bias_.emplace(this->name() + ".bias",
                  Tensor::Zeros(TensorShape{opts_.out_c}));
  }
}

ConvGeometry ConvTranspose2d::Geometry(std::int64_t out_h,
                                       std::int64_t out_w) const {
  // The underlying convolution runs output -> input, so its "input" is the
  // deconv output plane.
  ConvGeometry g;
  g.in_c = opts_.out_c;
  g.in_h = out_h;
  g.in_w = out_w;
  g.k_h = g.k_w = opts_.kernel;
  g.stride = opts_.stride;
  g.pad = opts_.pad;
  g.dilation = 1;
  return g;
}

TensorShape ConvTranspose2d::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 && input.c() == opts_.in_c,
                name() << ": bad input " << input.ToString());
  const std::int64_t out_h = (input.h() - 1) * opts_.stride - 2 * opts_.pad +
                             opts_.kernel + opts_.out_pad;
  const std::int64_t out_w = (input.w() - 1) * opts_.stride - 2 * opts_.pad +
                             opts_.kernel + opts_.out_pad;
  const ConvGeometry g = Geometry(out_h, out_w);
  EXACLIM_CHECK(g.OutH() == input.h() && g.OutW() == input.w(),
                name() << ": inconsistent deconv geometry");
  return TensorShape::NCHW(input.n(), opts_.out_c, out_h, out_w);
}

const Tensor& ConvTranspose2d::ComputeWeight() {
  if (precision() != Precision::kFP16) return weight_.value;
  quantised_weight_ = weight_.value;
  RoundTripHalf(quantised_weight_);
  return quantised_weight_;
}

Tensor ConvTranspose2d::Forward(const Tensor& input, bool /*train*/) {
  const TensorShape out_shape = OutputShape(input.shape());
  const ConvGeometry g = Geometry(out_shape.h(), out_shape.w());
  cached_input_ = input;

  // Every element is written: DataGradImage covers every stride phase's
  // sub-grid (a beta-0 GEMM, or a zero-fill for a phase with no tap).
  Tensor output = Tensor::Uninitialized(out_shape);
  const Tensor& w = ComputeWeight();
  const std::int64_t pixels = input.shape().h() * input.shape().w();
  const std::int64_t batch = input.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  workspace_.Configure(shards, PhaseScratchElems(g), /*weight_elems=*/0,
                       /*bias_elems=*/0);
  const ConvGradPlan plan = workspace_.GradPlan(g, opts_.in_c);
  const std::int64_t in_stride = opts_.in_c * pixels;
  const std::int64_t out_stride = opts_.out_c * out_shape.h() * out_shape.w();

  PackGradWeights(g, opts_.in_c, w.Raw(), plan, packed_weight_);
  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      // The underlying conv's data gradient with x as its grad_output.
      DataGradImage(g, plan, packed_weight_, input.Raw() + n * in_stride,
                    workspace_.Scratch(s), output.Raw() + n * out_stride);
      if (bias_) {
        float* out_n = output.Raw() + n * out_stride;
        const std::int64_t plane = out_shape.h() * out_shape.w();
        for (std::int64_t c = 0; c < opts_.out_c; ++c) {
          const float b = bias_->value[static_cast<std::size_t>(c)];
          for (std::int64_t p = 0; p < plane; ++p) {
            out_n[c * plane + p] += b;
          }
        }
      }
    }
  });
  MaybeQuantise(output);
  return output;
}

Tensor ConvTranspose2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(!cached_input_.Empty(), name() << ": Backward before Forward");
  const TensorShape& in_shape = cached_input_.shape();
  const TensorShape out_shape = OutputShape(in_shape);
  EXACLIM_CHECK(grad_output.shape() == out_shape,
                name() << ": grad shape mismatch");
  const ConvGeometry g = Geometry(out_shape.h(), out_shape.w());

  Tensor grad_input(in_shape);
  const Tensor& w = ComputeWeight();
  const std::int64_t pixels = in_shape.h() * in_shape.w();
  const std::int64_t batch = in_shape.n();
  const std::int64_t shards = ConvGradShards(batch);
  workspace_.Configure(shards, /*scratch_elems=*/0,
                       weight_.grad.NumElements(),
                       bias_ ? opts_.out_c : 0);
  workspace_.ZeroGradAccumulators();
  const std::int64_t in_stride = opts_.in_c * pixels;
  const std::int64_t out_stride = opts_.out_c * out_shape.h() * out_shape.w();
  packed_weight_bwd_.Pack(false, opts_.in_c, g.PatchSize(), 1.0f, w.Raw());
  // Both gradients gather grad_output's patch panels through one row
  // table, computed once per geometry (DESIGN §15).
  const GemmImplicitRow* rows = workspace_.ImplicitRows(g);

  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* wgrad = workspace_.WeightGrad(s);
    float* bgrad = bias_ ? workspace_.BiasGrad(s) : nullptr;
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      const float* gout = grad_output.Raw() + n * out_stride;
      const GemmImplicitB gcol = PatchOperand(g, rows, gout);
      // Data gradient: gx[in_c, P] = W[in_c, patch] @ im2col(gout)
      GemmPackedImplicit(packed_weight_bwd_, gcol, 0.0f,
                         grad_input.Raw() + n * in_stride);
      // Weight gradient: gW[in_c, patch] += x[in_c, P] @ im2col(gout)^T
      GemmImplicitTransB(opts_.in_c, cached_input_.Raw() + n * in_stride,
                         gcol, g.PatchSize(), 1.0f, wgrad);
      if (bgrad != nullptr) {
        const std::int64_t plane = out_shape.h() * out_shape.w();
        for (std::int64_t c = 0; c < opts_.out_c; ++c) {
          bgrad[c] += PlaneSum(gout + c * plane, plane);
        }
      }
    }
  });
  workspace_.ReduceWeightGradInto(weight_.grad.Raw());
  if (bias_) workspace_.ReduceBiasGradInto(bias_->grad.Raw());
  MaybeQuantise(grad_input);
  return grad_input;
}

std::vector<Param*> ConvTranspose2d::Params() {
  std::vector<Param*> params{&weight_};
  if (bias_) params.push_back(&*bias_);
  return params;
}

}  // namespace exaclim
