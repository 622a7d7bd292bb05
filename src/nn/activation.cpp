#include "nn/activation.hpp"

#include "common/thread_pool.hpp"
#include "tensor/epilogue.hpp"

namespace exaclim {
namespace {

// Pointwise kernels are memory-bound; blocks must be big enough that the
// fork/join cost stays negligible.
constexpr std::size_t kPointwiseGrain = 16384;

// The ReLU kernels are branchless (a branch on the sign mispredicts about
// half the time) and vectorized through PointwiseMap (epilogue.hpp).
// Under FP16 emulation (kHalf) they store the quantised value in the
// same pass (DESIGN §17). They stay out of line: inlined into the
// ParallelFor closure, their block loops can stop vectorizing.
template <bool kHalf>
[[gnu::noinline]] void ReluForwardKernel(const float* in,
                                         float* __restrict out,
                                         unsigned char* __restrict mask,
                                         std::size_t n) {
  PointwiseMap(in, n, [=](std::size_t i, float v) {
    mask[i] = static_cast<unsigned char>(ReluActive(v));
    out[i] = Quantised<kHalf>(ReluValueBits(v));
  });
}

template <bool kHalf>
[[gnu::noinline]] void ReluBackwardKernel(
    const float* grad_output, const unsigned char* __restrict mask,
    float* __restrict grad_input, std::size_t n) {
  PointwiseMap(grad_output, n, [=](std::size_t i, float g) {
    grad_input[i] = Quantised<kHalf>(ReluMaskSelect(g, mask[i]));
  });
}

}  // namespace

// --------------------------------------------------------------- ReLU ---

Tensor ReLU::Forward(const Tensor& input, bool /*train*/) {
  input_shape_ = input.shape();
  Tensor output = Tensor::Uninitialized(input.shape());
  const std::size_t size = static_cast<std::size_t>(input.NumElements());
  mask_.resize(size);
  const auto kernel = precision() == Precision::kFP16
                          ? &ReluForwardKernel<true>
                          : &ReluForwardKernel<false>;
  ParallelFor(
      0, size,
      [&](std::size_t lo, std::size_t hi) {
        // hot-path: begin
        kernel(input.Raw() + lo, output.Raw() + lo, mask_.data() + lo,
               hi - lo);
        // hot-path: end
      },
      kPointwiseGrain);
  return output;
}

unsigned char* ReLU::BeginFusedForward(const TensorShape& shape) {
  input_shape_ = shape;
  mask_.resize(static_cast<std::size_t>(shape.NumElements()));
  return mask_.data();
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(grad_output.shape() == input_shape_,
                name() << ": grad shape mismatch");
  Tensor grad_input = Tensor::Uninitialized(input_shape_);
  const auto kernel = precision() == Precision::kFP16
                          ? &ReluBackwardKernel<true>
                          : &ReluBackwardKernel<false>;
  ParallelFor(
      0, mask_.size(),
      [&](std::size_t lo, std::size_t hi) {
        // hot-path: begin
        kernel(grad_output.Raw() + lo, mask_.data() + lo,
               grad_input.Raw() + lo, hi - lo);
        // hot-path: end
      },
      kPointwiseGrain);
  return grad_input;
}

// ------------------------------------------------------------ Dropout ---

Dropout::Dropout(std::string name, float p, Rng& rng)
    : Layer(std::move(name)), p_(p), rng_(rng.Fork(0x9d0u)) {
  EXACLIM_CHECK(p >= 0.0f && p < 1.0f, "dropout rate must be in [0,1)");
}

Tensor Dropout::Forward(const Tensor& input, bool train) {
  input_shape_ = input.shape();
  last_was_train_ = train;
  if (!train || p_ == 0.0f) {
    mask_.clear();
    return input;
  }
  const std::size_t size = static_cast<std::size_t>(input.NumElements());
  mask_.resize(size);
  const float keep_scale = 1.0f / (1.0f - p_);
  Tensor output(input.shape());
  for (std::size_t i = 0; i < size; ++i) {
    const float m = rng_.Bernoulli(p_) ? 0.0f : keep_scale;
    mask_[i] = m;
    output[i] = input[i] * m;
  }
  MaybeQuantise(output);
  return output;
}

Tensor Dropout::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(grad_output.shape() == input_shape_,
                name() << ": grad shape mismatch");
  if (!last_was_train_ || p_ == 0.0f) return grad_output;
  Tensor grad_input(input_shape_);
  // (Forward stays serial: the mask is a sequential draw from rng_.)
  ParallelFor(
      0, mask_.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          grad_input[i] = grad_output[i] * mask_[i];
        }
      },
      kPointwiseGrain);
  MaybeQuantise(grad_input);
  return grad_input;
}

}  // namespace exaclim
