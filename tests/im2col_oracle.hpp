#pragma once

// The materialised im2col lowering, kept outside the library as an
// oracle. The conv layers compute every pass with implicit operands on
// the packed GEMM engine and never build a patch matrix (DESIGN §15);
// these reference versions do build it, composed from the same engine
// entry points, the same batch shards and the same gradient reduction
// tree. The implicit paths must reproduce them bit for bit (whenever a
// data-gradient tap spans at most kGemmKC channels), and bench_micro_conv
// times them as the baseline the implicit paths must not fall behind.

#include <cstdint>
#include <vector>

#include "nn/conv.hpp"
#include "nn/conv_geometry.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/tensor.hpp"

namespace exaclim {

/// Expands one image (C,H,W row-major) into the patch matrix
/// col[PatchSize(), OutPixels()]: column p holds the receptive field of
/// output pixel p, zero-padded outside the image.
void Im2Col(const ConvGeometry& g, const float* image, float* col);

/// Adjoint of Im2Col: scatters/accumulates the patch matrix back into the
/// image buffer (which the caller must zero first).
void Col2Im(const ConvGeometry& g, const float* col, float* image);

/// Table-driven Im2Col: identical output (copies and zeros only), with
/// every bounds decision read from the BuildImplicitRows table.
void Im2ColFromRows(const ConvGeometry& g, const GemmImplicitRow* rows,
                    const float* image, float* col);

/// Everything one backward pass produces.
struct ConvGrads {
  Tensor grad_input;
  std::vector<float> weight;
  std::vector<float> bias;  // empty without a bias
};

/// Conv2d's passes through a materialised patch matrix: forward is
/// W @ Im2ColFromRows(x); backward is gW += gy @ col^T and
/// gx = Col2Im(W^T @ gy). Reads the layer's FP32 weights and bias.
class MaterialisedConv2d {
 public:
  explicit MaterialisedConv2d(Conv2d& conv) : conv_(conv) {}

  /// `fold_bias` adds the bias in the GEMM epilogue (as Conv2d does with
  /// fusion on) instead of a separate pass.
  Tensor Forward(const Tensor& x, bool fold_bias);
  ConvGrads Backward(const Tensor& x, const Tensor& grad_y);

 private:
  ConvGeometry Geometry(const Tensor& x) const;

  Conv2d& conv_;
  ConvWorkspace workspace_;  // gradient accumulators + reduction tree
  std::vector<float> col_;
  std::vector<float> grad_col_;
  PackedGemmA packed_;
};

/// ConvTranspose2d's passes through a materialised patch matrix of its
/// underlying convolution (output -> input): forward is
/// Col2Im(W^T @ x); backward is gx = W @ Im2ColFromRows(gy) and
/// gW += x @ col^T.
class MaterialisedConvTranspose2d {
 public:
  explicit MaterialisedConvTranspose2d(ConvTranspose2d& deconv)
      : deconv_(deconv) {}

  Tensor Forward(const Tensor& x);
  ConvGrads Backward(const Tensor& x, const Tensor& grad_y);

 private:
  ConvGeometry Geometry(const TensorShape& out) const;

  ConvTranspose2d& deconv_;
  ConvWorkspace workspace_;
  std::vector<float> col_;
  PackedGemmA packed_;
};

}  // namespace exaclim
