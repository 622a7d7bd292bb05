#include "nn/norm.hpp"

#include <cmath>

#include "common/thread_pool.hpp"
#include "nn/activation.hpp"
#include "tensor/epilogue.hpp"

namespace exaclim {
namespace {

// One plane of the forward write pass: x_hat to its cache, y (ReLU'd,
// with its mask, when `mask` is set) to `out`. Under FP16 emulation
// (kHalf) y is quantised as it is written, and before the fused ReLU
// takes its mask: a tiny positive y that rounds to +0 must get mask 0,
// as in the unfused chain, where ReLU sees BN's quantised output. ReLU
// of a quantised value is already a binary16 value, so the ReLU's own
// quantisation needs no step here (DESIGN §17). `out` may alias `in`
// (ForwardFusedInPlace), so only the other outputs are __restrict;
// PointwiseMap reads each block before writing it. The plane kernels stay
// out of line: inlined into the channel closure, their block loops stop
// vectorizing.
template <bool kHalf>
[[gnu::noinline]] void NormalisePlane(const float* in, float* out,
                                      float* __restrict norm,
                                      unsigned char* __restrict mask,
                                      std::int64_t hw, float mean,
                                      float inv_std, float gamma,
                                      float beta) {
  const auto n = static_cast<std::size_t>(hw);
  if (mask == nullptr) {
    PointwiseMap(in, n, [=](std::size_t i, float v) {
      const float x_hat = BnNormalise(v, mean, inv_std);
      norm[i] = x_hat;
      out[i] = Quantised<kHalf>(BnAffine(x_hat, gamma, beta));
    });
    return;
  }
  // The fused ReLU, branchless like ReLU::Forward (epilogue.hpp).
  PointwiseMap(in, n, [=](std::size_t i, float v) {
    const float x_hat = BnNormalise(v, mean, inv_std);
    norm[i] = x_hat;
    const float y = Quantised<kHalf>(BnAffine(x_hat, gamma, beta));
    mask[i] = static_cast<unsigned char>(ReluActive(y));
    out[i] = ReluValueBits(y);
  });
}

// One plane of the backward write pass,
// dx = gamma * inv_std * (dy - mean(dy) - x_hat * mean(dy * x_hat)),
// quantised as it is written under FP16 emulation.
template <bool kHalf>
[[gnu::noinline]] void NormaliseGradPlane(const float* gout,
                                          const float* __restrict x_hat,
                                          float* __restrict gin,
                                          std::int64_t hw, float gamma,
                                          float inv_std, float mean_g,
                                          float mean_gx) {
  const auto n = static_cast<std::size_t>(hw);
  PointwiseMap(gout, n, [=](std::size_t i, float dy) {
    gin[i] = Quantised<kHalf>(gamma * inv_std *
                              (dy - mean_g - x_hat[i] * mean_gx));
  });
}

/// Channel-parallel dispatch: batch-norm statistics, running-stat updates
/// and plane writes are all per-channel, so channels are independent
/// tasks and each channel's reduction order is unchanged from the serial
/// loop — results are scheduling-invariant.
void ForEachChannel(std::int64_t channels,
                    FunctionRef<void(std::int64_t)> fn) {
  ParallelFor(
      0, static_cast<std::size_t>(channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          fn(static_cast<std::int64_t>(c));
        }
      },
      /*grain=*/1);
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::string name, std::int64_t channels,
                         float momentum, float epsilon)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(this->name() + ".gamma",
             Tensor::Full(TensorShape{channels}, 1.0f)),
      beta_(this->name() + ".beta", Tensor::Zeros(TensorShape{channels})),
      running_mean_(TensorShape{channels}),
      running_var_(Tensor::Full(TensorShape{channels}, 1.0f)) {
  EXACLIM_CHECK(channels_ > 0, "batchnorm needs channels");
}

TensorShape BatchNorm2d::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 && input.c() == channels_,
                name() << ": bad input " << input.ToString());
  return input;
}

void BatchNorm2d::RunForwardInto(const Tensor& input, Tensor& output,
                                 bool train, ReLU* relu) {
  (void)OutputShape(input.shape());
  input_shape_ = input.shape();
  last_was_train_ = train;
  const std::int64_t n = input.shape().n();
  const std::int64_t hw = input.shape().h() * input.shape().w();
  const std::int64_t count = n * hw;
  const std::int64_t chw = channels_ * hw;

  cached_norm_ = Tensor::Uninitialized(input.shape());
  batch_inv_std_ = Tensor(TensorShape{channels_});
  unsigned char* mask =
      relu != nullptr ? relu->BeginFusedForward(input.shape()) : nullptr;
  const auto plane = precision() == Precision::kFP16 ? &NormalisePlane<true>
                                                     : &NormalisePlane<false>;

  ForEachChannel(channels_, [&](std::int64_t c) {
    float mean, var;
    if (train) {
      double sum = 0.0, sumsq = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* plane = input.Raw() + b * chw + c * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          sum += plane[i];
          sumsq += static_cast<double>(plane[i]) * plane[i];
        }
      }
      mean = static_cast<float>(sum / count);
      var = static_cast<float>(sumsq / count - static_cast<double>(mean) * mean);
      if (var < 0.0f) var = 0.0f;  // numerical guard
      running_mean_[static_cast<std::size_t>(c)] =
          momentum_ * running_mean_[static_cast<std::size_t>(c)] +
          (1.0f - momentum_) * mean;
      running_var_[static_cast<std::size_t>(c)] =
          momentum_ * running_var_[static_cast<std::size_t>(c)] +
          (1.0f - momentum_) * var;
    } else {
      mean = running_mean_[static_cast<std::size_t>(c)];
      var = running_var_[static_cast<std::size_t>(c)];
    }
    const float inv_std = 1.0f / std::sqrt(var + epsilon_);
    batch_inv_std_[static_cast<std::size_t>(c)] = inv_std;
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float bta = beta_.value[static_cast<std::size_t>(c)];
    for (std::int64_t b = 0; b < n; ++b) {
      // The stats pass above read the whole channel before any write, so
      // `output` may alias `input`; x_hat goes to the separate cache.
      const std::int64_t off = b * chw + c * hw;
      plane(input.Raw() + off, output.Raw() + off, cached_norm_.Raw() + off,
            mask != nullptr ? mask + off : nullptr, hw, mean, inv_std, g,
            bta);
    }
  });
}

Tensor BatchNorm2d::Forward(const Tensor& input, bool train) {
  Tensor output = Tensor::Uninitialized(input.shape());
  RunForwardInto(input, output, train, /*relu=*/nullptr);
  return output;
}

Tensor BatchNorm2d::ForwardFused(const Tensor& input, bool train,
                                 ReLU& relu) {
  Tensor output = Tensor::Uninitialized(input.shape());
  RunForwardInto(input, output, train, &relu);
  return output;
}

void BatchNorm2d::ForwardFusedInPlace(Tensor& x, bool train, ReLU* relu) {
  RunForwardInto(x, x, train, relu);
}

BatchNorm2d::FoldedAffine BatchNorm2d::FoldInferenceParams(
    const TensorShape& out_shape) {
  (void)OutputShape(out_shape);
  batch_inv_std_ = Tensor(TensorShape{channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    // Exactly the eval-mode forward's per-channel scale.
    batch_inv_std_[static_cast<std::size_t>(c)] =
        1.0f / std::sqrt(running_var_[static_cast<std::size_t>(c)] + epsilon_);
  }
  // The GEMM epilogue fills cached_norm_ through norm_out, leaving the
  // layer exactly as an unfused eval Forward would.
  cached_norm_ = Tensor::Uninitialized(out_shape);
  input_shape_ = out_shape;
  last_was_train_ = false;
  return {running_mean_.Raw(), batch_inv_std_.Raw(), gamma_.value.Raw(),
          beta_.value.Raw(), cached_norm_.Raw()};
}

Tensor BatchNorm2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(!cached_norm_.Empty(), name() << ": Backward before Forward");
  EXACLIM_CHECK(grad_output.shape() == input_shape_,
                name() << ": grad shape mismatch");
  const std::int64_t n = input_shape_.n();
  const std::int64_t hw = input_shape_.h() * input_shape_.w();
  const std::int64_t count = n * hw;
  const std::int64_t chw = channels_ * hw;

  Tensor grad_input = Tensor::Uninitialized(input_shape_);
  const auto grad_plane = precision() == Precision::kFP16
                              ? &NormaliseGradPlane<true>
                              : &NormaliseGradPlane<false>;
  ForEachChannel(channels_, [&](std::int64_t c) {
    // Accumulate dL/dgamma, dL/dbeta and the two reduction terms of the
    // batch-norm backward formula.
    double sum_g = 0.0, sum_gx = 0.0;
    for (std::int64_t b = 0; b < n; ++b) {
      const float* gout = grad_output.Raw() + b * chw + c * hw;
      const float* x_hat = cached_norm_.Raw() + b * chw + c * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum_g += gout[i];
        sum_gx += static_cast<double>(gout[i]) * x_hat[i];
      }
    }
    gamma_.grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_gx);
    beta_.grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_g);

    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float inv_std = batch_inv_std_[static_cast<std::size_t>(c)];
    // Train mode: the batch statistics depend on the input, adding the two
    // mean-correction terms. Eval mode: stats are constants, so the layer
    // is affine and dx = gamma * inv_std * dy.
    const float mean_g =
        last_was_train_ ? static_cast<float>(sum_g / count) : 0.0f;
    const float mean_gx =
        last_was_train_ ? static_cast<float>(sum_gx / count) : 0.0f;
    for (std::int64_t b = 0; b < n; ++b) {
      const std::int64_t off = b * chw + c * hw;
      grad_plane(grad_output.Raw() + off, cached_norm_.Raw() + off,
                 grad_input.Raw() + off, hw, g, inv_std, mean_g, mean_gx);
    }
  });
  return grad_input;
}

std::vector<Param*> BatchNorm2d::Params() { return {&gamma_, &beta_}; }

std::vector<Layer::StateTensor> BatchNorm2d::StateTensors() {
  return {{name() + ".running_mean", &running_mean_},
          {name() + ".running_var", &running_var_}};
}

}  // namespace exaclim
