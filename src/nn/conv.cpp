#include "nn/conv.hpp"

#include <cmath>
#include <vector>

#include "tensor/gemm.hpp"
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

  Tensor output(out_shape);
  const Tensor& w = ComputeWeight();
  const bool pointwise = UsePointwiseFastPath();
  const bool fp32 = precision() == Precision::kFP32;
  EXACLIM_CHECK(ops.Empty() || fp32,
                name() << ": epilogue ops on a non-FP32 conv");
  // Fold the conv's own bias into the GEMM epilogue whenever fusion is
  // on: the per-element add is the exact same FP op as the separate bias
  // pass below, so SetConvFusion never changes bits — it only changes
  // how often C is touched.
  const bool use_epilogue =
      !ops.Empty() || (bias_.has_value() && ConvFusionEnabled() && fp32);
  GemmEpilogue epi;
  if (use_epilogue) {
    if (bias_) epi.bias = bias_->value.Raw();
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
  // No col buffer at all on the forward path: pointwise reads the
  // activation map directly, everything else gathers implicitly.
  workspace_.Configure(shards, /*col_elems=*/0, /*grad_col_elems=*/0,
                       /*weight_elems=*/0, /*bias_elems=*/0);
  const GemmImplicitRow* rows =
      pointwise ? nullptr : workspace_.ImplicitRows(g);
  const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_stride = opts_.out_c * g.OutPixels();
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
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
        GemmImplicitB bsrc;
        bsrc.image = input.Raw() + n * in_stride;
        bsrc.rows = rows;
        bsrc.out_h = out_h;
        bsrc.out_w = out_w;
        bsrc.in_row_stride = g.in_w;
        bsrc.stride = g.stride;
        GemmPackedImplicit(packed_weight_, bsrc, 0.0f, out_n, epi_ptr);
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
  MaybeQuantise(output);
  return output;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(!cached_input_.Empty(), name() << ": Backward before Forward");
  const TensorShape& in_shape = cached_input_.shape();
  const ConvGeometry g = Geometry(in_shape.h(), in_shape.w());
  EXACLIM_CHECK(grad_output.shape() == OutputShape(in_shape),
                name() << ": grad shape mismatch");

  Tensor grad_input(in_shape);
  const Tensor& w = ComputeWeight();
  // Backward always uses the GEMM formulation (cuDNN similarly selects
  // backward algorithms independently of the forward choice); the
  // pointwise fast path just skips the patch buffers.
  //
  // Weight/bias gradients go through per-shard accumulators merged by a
  // fixed-order tree so the batch-parallel result is bit-identical to the
  // serial walk (DESIGN §9).
  const bool pointwise = UsePointwiseFastPath();
  const std::int64_t batch = in_shape.n();
  const std::int64_t shards = ConvGradShards(batch);
  const std::int64_t col_elems =
      pointwise ? 0 : g.PatchSize() * g.OutPixels();
  workspace_.Configure(shards, col_elems, col_elems,
                       weight_.grad.NumElements(),
                       bias_ ? opts_.out_c : 0);
  workspace_.ZeroGradAccumulators();
  // Geometry-dependent im2col setup hoisted out of the n-loop: the table
  // is shared read-only by all shards (and is already warm whenever the
  // forward pass ran the implicit path on the same geometry).
  const GemmImplicitRow* rows =
      pointwise ? nullptr : workspace_.ImplicitRows(g);
  const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_stride = opts_.out_c * g.OutPixels();
  // The data gradient multiplies by W^T for every image; prepack the
  // transposed panels once and share across shards. Weight-gradient GEMMs
  // keep the plain entry point (their left operand changes per image).
  packed_weight_bwd_.Pack(true, g.PatchSize(), opts_.out_c, 1.0f, w.Raw());

  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* wgrad = workspace_.WeightGrad(s);
    float* bgrad = bias_ ? workspace_.BiasGrad(s) : nullptr;
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      const float* gout = grad_output.Raw() + n * out_stride;
      if (pointwise) {
        Gemm(false, true, opts_.out_c, g.in_c, g.OutPixels(), 1.0f, gout,
             cached_input_.Raw() + n * in_stride, 1.0f, wgrad);
        GemmPackedWithA(packed_weight_bwd_, false, g.OutPixels(), gout, 0.0f,
                        grad_input.Raw() + n * in_stride);
      } else {
        // Weight gradient: gW[out_c, patch] += gout[out_c, P] @ col^T.
        float* col = workspace_.Col(s);
        float* grad_col = workspace_.GradCol(s);
        Im2ColFromRows(g, rows, cached_input_.Raw() + n * in_stride, col);
        Gemm(false, true, opts_.out_c, g.PatchSize(), g.OutPixels(), 1.0f,
             gout, col, 1.0f, wgrad);
        // Data gradient: gcol[patch, P] = W^T @ gout; scatter back.
        GemmPackedWithA(packed_weight_bwd_, false, g.OutPixels(), gout, 0.0f,
                        grad_col);
        Col2Im(g, grad_col, grad_input.Raw() + n * in_stride);
      }
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

  Tensor output(out_shape);
  const Tensor& w = ComputeWeight();
  const std::int64_t pixels = input.shape().h() * input.shape().w();
  const std::int64_t batch = input.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  workspace_.Configure(shards, g.PatchSize() * pixels, /*grad_col_elems=*/0,
                       /*weight_elems=*/0, /*bias_elems=*/0);
  const std::int64_t in_stride = opts_.in_c * pixels;
  const std::int64_t out_stride = opts_.out_c * out_shape.h() * out_shape.w();

  packed_weight_.Pack(true, g.PatchSize(), opts_.in_c, 1.0f, w.Raw());
  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* col = workspace_.Col(s);
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      // col[out_c*k*k, P] = W^T[out_c*k*k, in_c] @ x[in_c, P]
      GemmPackedWithA(packed_weight_, false, pixels,
                      input.Raw() + n * in_stride, 0.0f, col);
      Col2Im(g, col, output.Raw() + n * out_stride);
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
  workspace_.Configure(shards, g.PatchSize() * pixels, /*grad_col_elems=*/0,
                       weight_.grad.NumElements(),
                       bias_ ? opts_.out_c : 0);
  workspace_.ZeroGradAccumulators();
  const std::int64_t in_stride = opts_.in_c * pixels;
  const std::int64_t out_stride = opts_.out_c * out_shape.h() * out_shape.w();
  packed_weight_bwd_.Pack(false, opts_.in_c, g.PatchSize(), 1.0f, w.Raw());
  // The fix for the per-batch-element Im2Col: all geometry-dependent
  // setup (bounds, offsets) is computed once per geometry here; the
  // n-loop below does pure data movement through the row table.
  const GemmImplicitRow* rows = workspace_.ImplicitRows(g);

  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* col = workspace_.Col(s);
    float* wgrad = workspace_.WeightGrad(s);
    float* bgrad = bias_ ? workspace_.BiasGrad(s) : nullptr;
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      const float* gout = grad_output.Raw() + n * out_stride;
      Im2ColFromRows(g, rows, gout, col);
      // Data gradient: gx[in_c, P] = W[in_c, patch] @ col[patch, P]
      GemmPackedWithA(packed_weight_bwd_, false, pixels, col, 0.0f,
                      grad_input.Raw() + n * in_stride);
      // Weight gradient: gW[in_c, patch] += x[in_c, P] @ col[patch, P]^T
      Gemm(false, true, opts_.in_c, g.PatchSize(), pixels, 1.0f,
           cached_input_.Raw() + n * in_stride, col, 1.0f, wgrad);
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
