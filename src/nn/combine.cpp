#include "nn/combine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

namespace exaclim {

Tensor ConcatChannels(std::span<const Tensor* const> inputs) {
  EXACLIM_CHECK(!inputs.empty(), "concat of zero tensors");
  const TensorShape& first = inputs[0]->shape();
  EXACLIM_CHECK(first.rank() == 4, "concat requires rank-4 tensors");
  std::int64_t total_c = 0;
  for (const Tensor* t : inputs) {
    const TensorShape& s = t->shape();
    EXACLIM_CHECK(s.rank() == 4 && s.n() == first.n() && s.h() == first.h() &&
                      s.w() == first.w(),
                  "concat spatial/batch mismatch: " << s.ToString() << " vs "
                                                    << first.ToString());
    total_c += s.c();
  }
  // Every (image, input) slab is copied below, covering all total_c
  // channels, so the output needs no zero-fill.
  Tensor out = Tensor::Uninitialized(
      TensorShape::NCHW(first.n(), total_c, first.h(), first.w()));
  const std::int64_t hw = first.h() * first.w();
  for (std::int64_t n = 0; n < first.n(); ++n) {
    std::int64_t c_off = 0;
    for (const Tensor* t : inputs) {
      const std::int64_t c = t->shape().c();
      std::memcpy(out.Raw() + (n * total_c + c_off) * hw,
                  t->Raw() + n * c * hw,
                  sizeof(float) * static_cast<std::size_t>(c * hw));
      c_off += c;
    }
  }
  return out;
}

Tensor ConcatChannels(const Tensor& a, const Tensor& b) {
  const std::array<const Tensor*, 2> inputs{&a, &b};
  return ConcatChannels(std::span<const Tensor* const>(inputs));
}

void SplitChannelsInto(const Tensor& grad,
                       std::span<const std::int64_t> channels,
                       std::span<Tensor> out) {
  const TensorShape& s = grad.shape();
  EXACLIM_CHECK(s.rank() == 4, "split requires rank-4");
  EXACLIM_CHECK(out.size() == channels.size(),
                "split output count " << out.size() << " != channel count "
                                      << channels.size());
  std::int64_t total = 0;
  for (auto c : channels) total += c;
  EXACLIM_CHECK(total == s.c(), "split channels " << total
                                                  << " != tensor C " << s.c());
  const std::int64_t hw = s.h() * s.w();
  std::int64_t c_off = 0;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const std::int64_t c = channels[i];
    const TensorShape part_shape = TensorShape::NCHW(s.n(), c, s.h(), s.w());
    // Reuse the destination's buffer when the shape already matches —
    // every element is overwritten below, so skipping the reconstruction
    // (and its zero-fill) changes nothing.
    if (out[i].shape() != part_shape) out[i] = Tensor(part_shape);
    for (std::int64_t n = 0; n < s.n(); ++n) {
      std::memcpy(out[i].Raw() + n * c * hw,
                  grad.Raw() + (n * s.c() + c_off) * hw,
                  sizeof(float) * static_cast<std::size_t>(c * hw));
    }
    c_off += c;
  }
}

Tensor SliceChannels(const Tensor& input, std::int64_t begin,
                     std::int64_t count) {
  const TensorShape& s = input.shape();
  EXACLIM_CHECK(s.rank() == 4 && begin >= 0 && begin + count <= s.c(),
                "bad channel slice [" << begin << "," << begin + count
                                      << ") of " << s.ToString());
  Tensor out(TensorShape::NCHW(s.n(), count, s.h(), s.w()));
  const std::int64_t hw = s.h() * s.w();
  for (std::int64_t n = 0; n < s.n(); ++n) {
    std::memcpy(out.Raw() + n * count * hw,
                input.Raw() + (n * s.c() + begin) * hw,
                sizeof(float) * static_cast<std::size_t>(count * hw));
  }
  return out;
}

// -------------------------------------------------- BilinearUpsample ----

BilinearUpsample2d::BilinearUpsample2d(std::string name, std::int64_t factor)
    : Layer(std::move(name)), factor_(factor) {
  EXACLIM_CHECK(factor_ >= 1, "upsample factor must be >= 1");
}

TensorShape BilinearUpsample2d::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4, name() << ": rank-4 input required");
  return TensorShape::NCHW(input.n(), input.c(), input.h() * factor_,
                           input.w() * factor_);
}

namespace {

// Source coordinate and lerp weights for one output index
// (align_corners=false convention, clamped at borders).
struct LerpCoord {
  std::int64_t lo;
  std::int64_t hi;
  float w_hi;
};

LerpCoord MakeCoord(std::int64_t out_idx, std::int64_t factor,
                    std::int64_t in_size) {
  const float src =
      (static_cast<float>(out_idx) + 0.5f) / static_cast<float>(factor) -
      0.5f;
  const float clamped = std::max(0.0f, src);
  const auto lo = static_cast<std::int64_t>(clamped);
  LerpCoord c;
  c.lo = std::min(lo, in_size - 1);
  c.hi = std::min(c.lo + 1, in_size - 1);
  c.w_hi = std::clamp(src - static_cast<float>(c.lo), 0.0f, 1.0f);
  return c;
}

}  // namespace

Tensor BilinearUpsample2d::Forward(const Tensor& input, bool /*train*/) {
  input_shape_ = input.shape();
  const TensorShape out_shape = OutputShape(input.shape());
  Tensor output(out_shape);
  const std::int64_t planes = input.shape().n() * input.shape().c();
  const std::int64_t ih = input.shape().h(), iw = input.shape().w();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* in = input.Raw() + p * ih * iw;
    float* out = output.Raw() + p * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      const LerpCoord y = MakeCoord(oy, factor_, ih);
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const LerpCoord x = MakeCoord(ox, factor_, iw);
        const float v00 = in[y.lo * iw + x.lo];
        const float v01 = in[y.lo * iw + x.hi];
        const float v10 = in[y.hi * iw + x.lo];
        const float v11 = in[y.hi * iw + x.hi];
        const float top = v00 + (v01 - v00) * x.w_hi;
        const float bot = v10 + (v11 - v10) * x.w_hi;
        out[oy * ow + ox] = top + (bot - top) * y.w_hi;
      }
    }
  }
  MaybeQuantise(output);
  return output;
}

Tensor BilinearUpsample2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(input_shape_.rank() == 4,
                name() << ": Backward before Forward");
  const TensorShape out_shape = OutputShape(input_shape_);
  EXACLIM_CHECK(grad_output.shape() == out_shape,
                name() << ": grad shape mismatch");
  Tensor grad_input(input_shape_);
  const std::int64_t planes = input_shape_.n() * input_shape_.c();
  const std::int64_t ih = input_shape_.h(), iw = input_shape_.w();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* gout = grad_output.Raw() + p * oh * ow;
    float* gin = grad_input.Raw() + p * ih * iw;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      const LerpCoord y = MakeCoord(oy, factor_, ih);
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const LerpCoord x = MakeCoord(ox, factor_, iw);
        const float g = gout[oy * ow + ox];
        gin[y.lo * iw + x.lo] += g * (1 - y.w_hi) * (1 - x.w_hi);
        gin[y.lo * iw + x.hi] += g * (1 - y.w_hi) * x.w_hi;
        gin[y.hi * iw + x.lo] += g * y.w_hi * (1 - x.w_hi);
        gin[y.hi * iw + x.hi] += g * y.w_hi * x.w_hi;
      }
    }
  }
  MaybeQuantise(grad_input);
  return grad_input;
}

}  // namespace exaclim
