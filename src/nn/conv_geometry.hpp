#pragma once

#include <cstdint>

#include "tensor/gemm_kernel.hpp"

namespace exaclim {

/// Parameters of a 2-D convolution window (square-independent: separate
/// height/width). Dilation implements atrous convolution (DeepLabv3+'s
/// ASPP); stride implements downscaling.
struct ConvGeometry {
  std::int64_t in_c = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t k_h = 1;
  std::int64_t k_w = 1;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t dilation = 1;

  std::int64_t EffectiveKh() const { return dilation * (k_h - 1) + 1; }
  std::int64_t EffectiveKw() const { return dilation * (k_w - 1) + 1; }
  std::int64_t OutH() const {
    return (in_h + 2 * pad - EffectiveKh()) / stride + 1;
  }
  std::int64_t OutW() const {
    return (in_w + 2 * pad - EffectiveKw()) / stride + 1;
  }
  /// Rows of the (implicit) patch matrix = columns of the weight matrix.
  std::int64_t PatchSize() const { return in_c * k_h * k_w; }
  std::int64_t OutPixels() const { return OutH() * OutW(); }
  std::int64_t Taps() const { return k_h * k_w; }

  /// Geometry identity keys the per-workspace row-table caches.
  bool operator==(const ConvGeometry&) const = default;
};

/// Builds the PatchSize() implicit-GEMM row descriptors for `g` into
/// `rows` (DESIGN §15): per (ci, kh, kw) the image offset plus the valid
/// output-pixel rectangle, everything the engine's B-panel gathers need
/// to view the input as the patch matrix. Geometry-dependent setup done
/// once per geometry (into pooled scratch — ConvWorkspace::ImplicitRows
/// caches it), not once per batch element.
void BuildImplicitRows(const ConvGeometry& g, GemmImplicitRow* rows);

/// One stride phase of a convolution's data gradient (DESIGN §15): the
/// input pixels (py + s*qy, px + s*qx), qy < h, qx < w, with s the
/// stride. Exactly the kernel taps (kh, kw) with s | py + pad - kh*dil
/// and s | px + pad - kw*dil reach them, `taps` of them, whose rows
/// start at `row0` of the BuildGradRows table. Stride 1 has one phase
/// covering the whole input with every tap.
struct ConvGradPhase {
  std::int64_t py = 0;
  std::int64_t px = 0;
  std::int64_t h = 0;
  std::int64_t w = 0;
  std::int64_t taps = 0;
  std::int64_t row0 = 0;
};

/// Whether kernel tap (kh, kw) of `g` reaches the stride phase whose
/// first input pixel is (py, px).
bool TapFeedsPhase(const ConvGeometry& g, std::int64_t kh, std::int64_t kw,
                   std::int64_t py, std::int64_t px);

/// Builds the data-gradient plan of `g` for `out_c` output channels:
/// stride*stride phases (row-major over (py, px)) into `phases`, and
/// Taps()*out_c row descriptors into `rows` viewing one image's output
/// gradient [out_c, OutH, OutW] as each phase's contraction operand.
/// Phase rows are ordered (tap in (kh, kw) order, co); row (tap, co) has
/// offset co*OutH*OutW + ey*OutW + ex with ey = (py + pad - kh*dil)/s,
/// ex = (px + pad - kw*dil)/s, stride 1, and the valid window clipped to
/// the output extent — the engine's GemmImplicitRow, gathered over the
/// phase's h x w grid.
void BuildGradRows(const ConvGeometry& g, std::int64_t out_c,
                   ConvGradPhase* phases, GemmImplicitRow* rows);

}  // namespace exaclim
