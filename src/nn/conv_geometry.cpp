#include "nn/conv_geometry.hpp"

#include <algorithm>

namespace exaclim {
namespace {

// Valid output coordinates along one axis for an input displacement `d`
// (= k*dilation - pad): the o with 0 <= o*stride + d < in_sz, clamped to
// [0, out_sz].
void ValidOutRange(std::int64_t d, std::int64_t stride, std::int64_t in_sz,
                   std::int64_t out_sz, std::int64_t* lo, std::int64_t* hi) {
  *lo = d >= 0 ? 0 : (-d + stride - 1) / stride;
  *hi = in_sz > d ? (in_sz - d - 1) / stride + 1 : 0;
  *lo = std::min(*lo, out_sz);
  *hi = std::min(*hi, out_sz);
  if (*hi < *lo) *hi = *lo;
}

// Whether s divides v (v may be negative).
bool Divides(std::int64_t s, std::int64_t v) { return v % s == 0; }

// Extent of the phase grid starting at `p` along an axis of `size`.
std::int64_t PhaseExtent(std::int64_t p, std::int64_t s, std::int64_t size) {
  return p < size ? (size - p + s - 1) / s : 0;
}

}  // namespace

void BuildImplicitRows(const ConvGeometry& g, GemmImplicitRow* rows) {
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  std::int64_t r = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.k_w; ++kw, ++r) {
        const std::int64_t dy = kh * g.dilation - g.pad;
        const std::int64_t dx = kw * g.dilation - g.pad;
        GemmImplicitRow& rd = rows[r];
        rd.offset = c * g.in_h * g.in_w + dy * g.in_w + dx;
        ValidOutRange(dy, g.stride, g.in_h, out_h, &rd.oy_lo, &rd.oy_hi);
        ValidOutRange(dx, g.stride, g.in_w, out_w, &rd.ox_lo, &rd.ox_hi);
      }
    }
  }
}

bool TapFeedsPhase(const ConvGeometry& g, std::int64_t kh, std::int64_t kw,
                   std::int64_t py, std::int64_t px) {
  return Divides(g.stride, py + g.pad - kh * g.dilation) &&
         Divides(g.stride, px + g.pad - kw * g.dilation);
}

void BuildGradRows(const ConvGeometry& g, std::int64_t out_c,
                   ConvGradPhase* phases, GemmImplicitRow* rows) {
  const std::int64_t s = g.stride;
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  std::int64_t r = 0;
  for (std::int64_t py = 0; py < s; ++py) {
    for (std::int64_t px = 0; px < s; ++px) {
      ConvGradPhase& ph = phases[py * s + px];
      ph.py = py;
      ph.px = px;
      ph.h = PhaseExtent(py, s, g.in_h);
      ph.w = PhaseExtent(px, s, g.in_w);
      ph.taps = 0;
      ph.row0 = r;
      for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
        for (std::int64_t kw = 0; kw < g.k_w; ++kw) {
          if (!TapFeedsPhase(g, kh, kw, py, px)) continue;
          // Input pixel (py + s*qy) reads output row qy + ey.
          const std::int64_t ey = (py + g.pad - kh * g.dilation) / s;
          const std::int64_t ex = (px + g.pad - kw * g.dilation) / s;
          for (std::int64_t co = 0; co < out_c; ++co, ++r) {
            GemmImplicitRow& rd = rows[r];
            rd.offset = co * out_h * out_w + ey * out_w + ex;
            ValidOutRange(ey, 1, out_h, ph.h, &rd.oy_lo, &rd.oy_hi);
            ValidOutRange(ex, 1, out_w, ph.w, &rd.ox_lo, &rd.ox_hi);
          }
          ++ph.taps;
        }
      }
    }
  }
}

}  // namespace exaclim
