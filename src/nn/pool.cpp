#include "nn/pool.hpp"

#include <limits>

#include "common/thread_pool.hpp"

namespace exaclim {
namespace {

/// Plane-parallel dispatch for the pooling loops: every (image, channel)
/// plane is independent, writes are disjoint and each plane's reduction
/// stays within one task, so results are scheduling-invariant.
void ForEachPlane(std::int64_t planes,
                  FunctionRef<void(std::int64_t)> fn) {
  ParallelFor(
      0, static_cast<std::size_t>(planes),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          fn(static_cast<std::int64_t>(p));
        }
      },
      /*grain=*/1);
}

/// Under FP16 emulation, quantises a finished output or gradient plane
/// while it is still in cache (DESIGN §17): the pooling loops write
/// each plane in one task, and a backward scatter-add's elements are
/// final only once all of the plane's windows are done.
void QuantisePlane(Precision p, float* plane, std::int64_t count) {
  if (p == Precision::kFP16) {
    RoundTripHalf(std::span<float>(plane, static_cast<std::size_t>(count)));
  }
}

}  // namespace

// ---------------------------------------------------------- MaxPool2d ---

MaxPool2d::MaxPool2d(std::string name, std::int64_t kernel,
                     std::int64_t stride, std::int64_t pad)
    : Layer(std::move(name)),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? kernel / 2 : pad) {
  EXACLIM_CHECK(kernel_ >= 1 && stride_ >= 1, "invalid pool geometry");
}

TensorShape MaxPool2d::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4, name() << ": rank-4 input required");
  const std::int64_t oh = (input.h() + 2 * pad_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (input.w() + 2 * pad_ - kernel_) / stride_ + 1;
  return TensorShape::NCHW(input.n(), input.c(), oh, ow);
}

Tensor MaxPool2d::Forward(const Tensor& input, bool /*train*/) {
  const TensorShape out_shape = OutputShape(input.shape());
  input_shape_ = input.shape();
  Tensor output(out_shape);
  argmax_.assign(static_cast<std::size_t>(out_shape.NumElements()), -1);

  const std::int64_t planes = input.shape().n() * input.shape().c();
  const std::int64_t ih = input.shape().h(), iw = input.shape().w();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  ForEachPlane(planes, [&](std::int64_t p) {
    const float* in = input.Raw() + p * ih * iw;
    float* out = output.Raw() + p * oh * ow;
    std::int64_t* arg = argmax_.data() + p * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = -1;
        for (std::int64_t ky = 0; ky < kernel_; ++ky) {
          const std::int64_t iy = oy * stride_ + ky - pad_;
          if (iy < 0 || iy >= ih) continue;
          for (std::int64_t kx = 0; kx < kernel_; ++kx) {
            const std::int64_t ix = ox * stride_ + kx - pad_;
            if (ix < 0 || ix >= iw) continue;
            const float v = in[iy * iw + ix];
            if (v > best) {
              best = v;
              best_idx = iy * iw + ix;
            }
          }
        }
        // Fully-padded window (possible at edges): acts as zero.
        out[oy * ow + ox] = best_idx >= 0 ? best : 0.0f;
        arg[oy * ow + ox] = best_idx;
      }
    }
    QuantisePlane(precision(), out, oh * ow);
  });
  return output;
}

Tensor MaxPool2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(!argmax_.empty(), name() << ": Backward before Forward");
  const TensorShape out_shape = OutputShape(input_shape_);
  EXACLIM_CHECK(grad_output.shape() == out_shape,
                name() << ": grad shape mismatch");
  Tensor grad_input(input_shape_);
  const std::int64_t planes = input_shape_.n() * input_shape_.c();
  const std::int64_t ihw = input_shape_.h() * input_shape_.w();
  const std::int64_t ohw = out_shape.h() * out_shape.w();
  ForEachPlane(planes, [&](std::int64_t p) {
    const float* gout = grad_output.Raw() + p * ohw;
    const std::int64_t* arg = argmax_.data() + p * ohw;
    float* gin = grad_input.Raw() + p * ihw;
    for (std::int64_t i = 0; i < ohw; ++i) {
      if (arg[i] >= 0) gin[arg[i]] += gout[i];
    }
    QuantisePlane(precision(), gin, ihw);
  });
  return grad_input;
}

// ---------------------------------------------------------- AvgPool2d ---

AvgPool2d::AvgPool2d(std::string name, std::int64_t kernel,
                     std::int64_t stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  EXACLIM_CHECK(kernel_ >= 0 && stride_ >= 1, "invalid pool geometry");
}

TensorShape AvgPool2d::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4, name() << ": rank-4 input required");
  if (kernel_ == 0) {
    return TensorShape::NCHW(input.n(), input.c(), 1, 1);
  }
  const std::int64_t oh = (input.h() - kernel_) / stride_ + 1;
  const std::int64_t ow = (input.w() - kernel_) / stride_ + 1;
  return TensorShape::NCHW(input.n(), input.c(), oh, ow);
}

Tensor AvgPool2d::Forward(const Tensor& input, bool /*train*/) {
  const TensorShape out_shape = OutputShape(input.shape());
  input_shape_ = input.shape();
  Tensor output(out_shape);
  const std::int64_t planes = input.shape().n() * input.shape().c();
  const std::int64_t ih = input.shape().h(), iw = input.shape().w();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  const std::int64_t k = kernel_ == 0 ? ih : kernel_;  // square assumption
  const std::int64_t kw = kernel_ == 0 ? iw : kernel_;
  const std::int64_t stride_h = kernel_ == 0 ? ih : stride_;
  const std::int64_t stride_w = kernel_ == 0 ? iw : stride_;
  ForEachPlane(planes, [&](std::int64_t p) {
    const float* in = input.Raw() + p * ih * iw;
    float* out = output.Raw() + p * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            acc += in[(oy * stride_h + ky) * iw + ox * stride_w + kx];
          }
        }
        out[oy * ow + ox] = static_cast<float>(acc / (k * kw));
      }
    }
    QuantisePlane(precision(), out, oh * ow);
  });
  return output;
}

Tensor AvgPool2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(input_shape_.rank() == 4,
                name() << ": Backward before Forward");
  const TensorShape out_shape = OutputShape(input_shape_);
  EXACLIM_CHECK(grad_output.shape() == out_shape,
                name() << ": grad shape mismatch");
  Tensor grad_input(input_shape_);
  const std::int64_t planes = input_shape_.n() * input_shape_.c();
  const std::int64_t ih = input_shape_.h(), iw = input_shape_.w();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  const std::int64_t k = kernel_ == 0 ? ih : kernel_;
  const std::int64_t kw = kernel_ == 0 ? iw : kernel_;
  const std::int64_t stride_h = kernel_ == 0 ? ih : stride_;
  const std::int64_t stride_w = kernel_ == 0 ? iw : stride_;
  const float inv = 1.0f / static_cast<float>(k * kw);
  ForEachPlane(planes, [&](std::int64_t p) {
    const float* gout = grad_output.Raw() + p * oh * ow;
    float* gin = grad_input.Raw() + p * ih * iw;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float g = gout[oy * ow + ox] * inv;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            gin[(oy * stride_h + ky) * iw + ox * stride_w + kx] += g;
          }
        }
      }
    }
    QuantisePlane(precision(), gin, ih * iw);
  });
  return grad_input;
}

}  // namespace exaclim
