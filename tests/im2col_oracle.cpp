#include "im2col_oracle.hpp"

#include <algorithm>
#include <cstring>

#include "nn/conv_engine.hpp"
#include "tensor/gemm.hpp"

namespace exaclim {
namespace {

// Conv2d's per-image bias-gradient rounding (double sum, one float per
// image and channel).
float PlaneSum(const float* plane, std::int64_t count) {
  double acc = 0.0;
  for (std::int64_t p = 0; p < count; ++p) acc += plane[p];
  return static_cast<float>(acc);
}

}  // namespace

void Im2Col(const ConvGeometry& g, const float* image, float* col) {
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  const std::int64_t hw = g.in_h * g.in_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = image + c * hw;
    for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.k_w; ++kw, ++row) {
        float* dst = col + row * (out_h * out_w);
        const std::int64_t dy = kh * g.dilation - g.pad;
        const std::int64_t dx = kw * g.dilation - g.pad;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * g.stride + dy;
          float* dst_row = dst + oy * out_w;
          if (iy < 0 || iy >= g.in_h) {
            std::memset(dst_row, 0, sizeof(float) * out_w);
            continue;
          }
          const float* src_row = plane + iy * g.in_w;
          if (g.stride == 1) {
            // Contiguous inner copy with explicit edge handling.
            std::int64_t ox = 0;
            for (; ox < out_w && ox + dx < 0; ++ox) dst_row[ox] = 0.0f;
            std::int64_t ox_end = out_w;
            while (ox_end > ox && ox_end - 1 + dx >= g.in_w) --ox_end;
            if (ox_end > ox) {
              std::memcpy(dst_row + ox, src_row + ox + dx,
                          sizeof(float) * (ox_end - ox));
            }
            for (ox = ox_end; ox < out_w; ++ox) dst_row[ox] = 0.0f;
          } else {
            for (std::int64_t ox = 0; ox < out_w; ++ox) {
              const std::int64_t ix = ox * g.stride + dx;
              dst_row[ox] =
                  (ix >= 0 && ix < g.in_w) ? src_row[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void Im2ColFromRows(const ConvGeometry& g, const GemmImplicitRow* rows,
                    const float* image, float* col) {
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  const std::int64_t patch = g.PatchSize();
  for (std::int64_t r = 0; r < patch; ++r) {
    const GemmImplicitRow& rd = rows[r];
    float* dst = col + r * out_h * out_w;
    for (std::int64_t oy = 0; oy < out_h; ++oy, dst += out_w) {
      if (oy < rd.oy_lo || oy >= rd.oy_hi) {
        std::memset(dst, 0, sizeof(float) * out_w);
        continue;
      }
      // Full int64 element index before pointer arithmetic — rd.offset
      // alone may be negative (padding), but base + ox*stride is in
      // bounds for every ox in [ox_lo, ox_hi).
      const std::int64_t base = rd.offset + oy * g.stride * g.in_w;
      std::int64_t ox = 0;
      for (; ox < rd.ox_lo; ++ox) dst[ox] = 0.0f;
      if (g.stride == 1) {
        if (rd.ox_hi > ox) {
          std::memcpy(dst + ox, image + (base + ox),
                      sizeof(float) * (rd.ox_hi - ox));
        }
        ox = std::max(ox, rd.ox_hi);
      } else {
        for (; ox < rd.ox_hi; ++ox) dst[ox] = image[base + ox * g.stride];
      }
      for (; ox < out_w; ++ox) dst[ox] = 0.0f;
    }
  }
}

void Col2Im(const ConvGeometry& g, const float* col, float* image) {
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  const std::int64_t hw = g.in_h * g.in_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* plane = image + c * hw;
    for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.k_w; ++kw, ++row) {
        const float* src = col + row * (out_h * out_w);
        const std::int64_t dy = kh * g.dilation - g.pad;
        const std::int64_t dx = kw * g.dilation - g.pad;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * g.stride + dy;
          if (iy < 0 || iy >= g.in_h) continue;
          const float* src_row = src + oy * out_w;
          float* dst_row = plane + iy * g.in_w;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * g.stride + dx;
            if (ix >= 0 && ix < g.in_w) dst_row[ix] += src_row[ox];
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ Conv2d ----

ConvGeometry MaterialisedConv2d::Geometry(const Tensor& x) const {
  const Conv2d::Options& o = conv_.options();
  ConvGeometry g;
  g.in_c = o.in_c;
  g.in_h = x.shape().h();
  g.in_w = x.shape().w();
  g.k_h = g.k_w = o.kernel;
  g.stride = o.stride;
  g.pad = o.pad;
  g.dilation = o.dilation;
  return g;
}

Tensor MaterialisedConv2d::Forward(const Tensor& x, bool fold_bias) {
  const Conv2d::Options& o = conv_.options();
  const ConvGeometry g = Geometry(x);
  const std::int64_t batch = x.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  const std::int64_t col_elems = g.PatchSize() * g.OutPixels();
  col_.resize(static_cast<std::size_t>(shards * col_elems));
  std::vector<GemmImplicitRow> rows(static_cast<std::size_t>(g.PatchSize()));
  BuildImplicitRows(g, rows.data());
  packed_.Pack(false, o.out_c, g.PatchSize(), 1.0f,
               conv_.weight().value.Raw());
  const float* bias = o.bias ? conv_.Params().at(1)->value.Raw() : nullptr;
  GemmEpilogue epi;
  epi.bias = bias;
  const bool epilogue = fold_bias && bias != nullptr;
  Tensor out(conv_.OutputShape(x.shape()));
  const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_stride = o.out_c * g.OutPixels();
  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* col = col_.data() + s * col_elems;
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      float* out_n = out.Raw() + n * out_stride;
      Im2ColFromRows(g, rows.data(), x.Raw() + n * in_stride, col);
      GemmPackedWithA(packed_, false, g.OutPixels(), col, 0.0f, out_n,
                      epilogue ? &epi : nullptr);
      if (bias == nullptr || epilogue) continue;
      for (std::int64_t c = 0; c < o.out_c; ++c) {
        for (std::int64_t p = 0; p < g.OutPixels(); ++p) {
          out_n[c * g.OutPixels() + p] += bias[c];
        }
      }
    }
  });
  return out;
}

ConvGrads MaterialisedConv2d::Backward(const Tensor& x,
                                       const Tensor& grad_y) {
  const Conv2d::Options& o = conv_.options();
  const ConvGeometry g = Geometry(x);
  const std::int64_t batch = x.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  const std::int64_t col_elems = g.PatchSize() * g.OutPixels();
  col_.resize(static_cast<std::size_t>(shards * col_elems));
  grad_col_.resize(col_.size());
  const Tensor& w = conv_.weight().value;
  workspace_.Configure(shards, 0, w.NumElements(), o.bias ? o.out_c : 0);
  workspace_.ZeroGradAccumulators();
  std::vector<GemmImplicitRow> rows(static_cast<std::size_t>(g.PatchSize()));
  BuildImplicitRows(g, rows.data());
  packed_.Pack(true, g.PatchSize(), o.out_c, 1.0f, w.Raw());
  ConvGrads grads{Tensor(x.shape()), {}, {}};
  const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_stride = o.out_c * g.OutPixels();
  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* col = col_.data() + s * col_elems;
    float* grad_col = grad_col_.data() + s * col_elems;
    float* wgrad = workspace_.WeightGrad(s);
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      const float* gout = grad_y.Raw() + n * out_stride;
      Im2ColFromRows(g, rows.data(), x.Raw() + n * in_stride, col);
      Gemm(false, true, o.out_c, g.PatchSize(), g.OutPixels(), 1.0f, gout,
           col, 1.0f, wgrad);
      GemmPackedWithA(packed_, false, g.OutPixels(), gout, 0.0f, grad_col);
      Col2Im(g, grad_col, grads.grad_input.Raw() + n * in_stride);
      if (!o.bias) continue;
      float* bgrad = workspace_.BiasGrad(s);
      for (std::int64_t c = 0; c < o.out_c; ++c) {
        bgrad[c] += PlaneSum(gout + c * g.OutPixels(), g.OutPixels());
      }
    }
  });
  grads.weight.assign(static_cast<std::size_t>(w.NumElements()), 0.0f);
  workspace_.ReduceWeightGradInto(grads.weight.data());
  if (o.bias) {
    grads.bias.assign(static_cast<std::size_t>(o.out_c), 0.0f);
    workspace_.ReduceBiasGradInto(grads.bias.data());
  }
  return grads;
}

// --------------------------------------------------- ConvTranspose2d ----

ConvGeometry MaterialisedConvTranspose2d::Geometry(
    const TensorShape& out) const {
  const ConvTranspose2d::Options& o = deconv_.options();
  ConvGeometry g;
  g.in_c = o.out_c;
  g.in_h = out.h();
  g.in_w = out.w();
  g.k_h = g.k_w = o.kernel;
  g.stride = o.stride;
  g.pad = o.pad;
  return g;
}

Tensor MaterialisedConvTranspose2d::Forward(const Tensor& x) {
  const ConvTranspose2d::Options& o = deconv_.options();
  Tensor out(deconv_.OutputShape(x.shape()));
  const ConvGeometry g = Geometry(out.shape());
  const std::int64_t batch = x.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  const std::int64_t pixels = x.shape().h() * x.shape().w();
  const std::int64_t col_elems = g.PatchSize() * pixels;
  col_.resize(static_cast<std::size_t>(shards * col_elems));
  packed_.Pack(true, g.PatchSize(), o.in_c, 1.0f,
               deconv_.Params().at(0)->value.Raw());
  const float* bias = o.bias ? deconv_.Params().at(1)->value.Raw() : nullptr;
  const std::int64_t plane = out.shape().h() * out.shape().w();
  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* col = col_.data() + s * col_elems;
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      float* out_n = out.Raw() + n * o.out_c * plane;
      GemmPackedWithA(packed_, false, pixels, x.Raw() + n * o.in_c * pixels,
                      0.0f, col);
      Col2Im(g, col, out_n);
      if (bias == nullptr) continue;
      for (std::int64_t c = 0; c < o.out_c; ++c) {
        for (std::int64_t p = 0; p < plane; ++p) out_n[c * plane + p] += bias[c];
      }
    }
  });
  return out;
}

ConvGrads MaterialisedConvTranspose2d::Backward(const Tensor& x,
                                                const Tensor& grad_y) {
  const ConvTranspose2d::Options& o = deconv_.options();
  const ConvGeometry g = Geometry(grad_y.shape());
  const std::int64_t batch = x.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  const std::int64_t pixels = x.shape().h() * x.shape().w();
  const std::int64_t col_elems = g.PatchSize() * pixels;
  col_.resize(static_cast<std::size_t>(shards * col_elems));
  const Tensor& w = deconv_.Params().at(0)->value;
  workspace_.Configure(shards, 0, w.NumElements(), o.bias ? o.out_c : 0);
  workspace_.ZeroGradAccumulators();
  std::vector<GemmImplicitRow> rows(static_cast<std::size_t>(g.PatchSize()));
  BuildImplicitRows(g, rows.data());
  packed_.Pack(false, o.in_c, g.PatchSize(), 1.0f, w.Raw());
  ConvGrads grads{Tensor(x.shape()), {}, {}};
  const std::int64_t plane = grad_y.shape().h() * grad_y.shape().w();
  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* col = col_.data() + s * col_elems;
    float* wgrad = workspace_.WeightGrad(s);
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      const float* gout = grad_y.Raw() + n * o.out_c * plane;
      const float* x_n = x.Raw() + n * o.in_c * pixels;
      Im2ColFromRows(g, rows.data(), gout, col);
      GemmPackedWithA(packed_, false, pixels, col, 0.0f,
                      grads.grad_input.Raw() + n * o.in_c * pixels);
      Gemm(false, true, o.in_c, g.PatchSize(), pixels, 1.0f, x_n, col, 1.0f,
           wgrad);
      if (!o.bias) continue;
      float* bgrad = workspace_.BiasGrad(s);
      for (std::int64_t c = 0; c < o.out_c; ++c) {
        bgrad[c] += PlaneSum(gout + c * plane, plane);
      }
    }
  });
  grads.weight.assign(static_cast<std::size_t>(w.NumElements()), 0.0f);
  workspace_.ReduceWeightGradInto(grads.weight.data());
  if (o.bias) {
    grads.bias.assign(static_cast<std::size_t>(o.out_c), 0.0f);
    workspace_.ReduceBiasGradInto(grads.bias.data());
  }
  return grads;
}

}  // namespace exaclim
