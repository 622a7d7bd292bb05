#pragma once

#include <optional>
#include <string_view>

#include "nn/conv_engine.hpp"
#include "nn/im2col.hpp"
#include "nn/layer.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {

/// Convolution algorithm selection — the stand-in for cuDNN's dynamic
/// algorithm tuning that Sec VI traces ("all convolutions were performed
/// using either implicit GEMMs or direct convolutions"). kIm2Col lowers
/// through a materialized patch buffer; kImplicitGemm runs the packed
/// GEMM engine's implicit-B path, gathering panels straight from the
/// input tensor with no col buffer (DESIGN §15); kDirect computes the
/// convolution in place (for 1×1/stride-1 this is a pure GEMM on the
/// activation map — the same FLOPs, less memory traffic). kAuto picks
/// kDirect for pointwise geometries and kImplicitGemm elsewhere. All
/// algorithms produce bit-identical forward outputs (the sweep in
/// tests/test_conv_algorithms.cpp holds them to it).
enum class ConvAlgorithm { kAuto, kIm2Col, kImplicitGemm, kDirect };

const char* ToString(ConvAlgorithm algo);

/// Parses "auto" / "im2col" / "implicit" (or "implicit-gemm") / "direct";
/// nullopt on anything else.
std::optional<ConvAlgorithm> ParseConvAlgorithm(std::string_view value);

/// The process-wide default that layers constructed with kAuto resolve
/// through: EXACLIM_CONV_ALGO (parsed once, any value ParseConvAlgorithm
/// rejects fails with an EXACLIM_CHECK naming the variable) unless
/// overridden, kAuto when unset (= the pointwise→direct, else→implicit
/// policy).
ConvAlgorithm DefaultConvAlgorithm();

/// Programmatic override of the EXACLIM_CONV_ALGO default (benches and
/// the algorithm A/B tests flip this per run).
void SetDefaultConvAlgorithm(ConvAlgorithm algo);

/// Pointwise epilogue ops a fused chain folds into the convolution's
/// GEMM writeback (DESIGN §15). The conv's own bias is not listed here —
/// Conv2d folds it in by itself whenever the epilogue path is active.
/// bn_* are per-output-channel vectors (all set or all null) that must
/// stay alive across the call; relu_mask, when non-null, is the ReLU
/// layer's mask for the whole output tensor (layout == output, one byte
/// per element) and is filled from the pre-ReLU values; bn_norm, when
/// non-null, receives the normalised x_hat per element (BatchNorm2d's
/// backward cache, same layout as the output).
struct ConvFusedOps {
  const float* bn_mean = nullptr;
  const float* bn_inv_std = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  float* bn_norm = nullptr;
  bool relu = false;
  unsigned char* relu_mask = nullptr;

  bool Empty() const {
    return bn_mean == nullptr && !relu && relu_mask == nullptr;
  }
};

/// 2-D convolution (NCHW) with stride, zero padding and dilation (atrous).
/// Weights are [out_c, in_c*k_h*k_w] with He initialisation, optional
/// bias.
class Conv2d : public Layer {
 public:
  struct Options {
    std::int64_t in_c = 0;
    std::int64_t out_c = 0;
    std::int64_t kernel = 3;
    std::int64_t stride = 1;
    std::int64_t pad = -1;  // -1 = "same" for stride 1: dilation*(k/2)
    std::int64_t dilation = 1;
    bool bias = true;
    ConvAlgorithm algorithm = ConvAlgorithm::kAuto;
  };

  Conv2d(std::string name, const Options& opts, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;
  std::vector<Param*> Params() override;

  /// Forward with extra epilogue ops fused into the GEMM writeback —
  /// what Sequential's fusion pass calls for Conv2d→BN(→ReLU) chains.
  /// Requires CanFuseEpilogue() when `ops` is non-empty; Forward() is
  /// exactly ForwardFused(input, train, {}).
  Tensor ForwardFused(const Tensor& input, bool train,
                      const ConvFusedOps& ops);

  /// Whether this layer's resolved configuration can fold epilogue ops
  /// into the GEMM writeback: FP32 precision and an algorithm that writes
  /// C through the GEMM engine (implicit, im2col-GEMM, or the pointwise
  /// fast path — everything but naive direct loops).
  bool CanFuseEpilogue() const;

  const Options& options() const { return opts_; }
  Param& weight() { return weight_; }
  /// The algorithm actually used (kAuto resolved through
  /// DefaultConvAlgorithm) — the equivalent of the cuDNN API tracing of
  /// Sec VI.
  ConvAlgorithm chosen_algorithm() const;

 private:
  ConvGeometry Geometry(std::int64_t h, std::int64_t w) const;
  /// Weights as used in compute: FP32, or binary16-rounded under FP16.
  const Tensor& ComputeWeight();
  bool UsePointwiseFastPath() const;

  Options opts_;
  Param weight_;
  std::optional<Param> bias_;
  Tensor quantised_weight_;  // scratch for FP16 emulation
  Tensor cached_input_;      // saved for the backward pass
  ConvWorkspace workspace_;  // per-shard col/grad buffers (DESIGN §9)
  // Weight matrix prepacked into the GEMM engine's A-panel layout, once
  // per Forward/Backward and shared read-only across batch shards
  // (forward uses W, backward's data gradient W^T — different layouts,
  // so each direction keeps its own panel buffer).
  PackedGemmA packed_weight_;
  PackedGemmA packed_weight_bwd_;
};

/// Transposed convolution ("deconv", light-blue layers of Fig 1) used by
/// the full-resolution DeepLabv3+ decoder and the Tiramisu up path.
/// Forward is exactly the data-gradient of a Conv2d with swapped roles;
/// output size is (H-1)*stride - 2*pad + kernel.
class ConvTranspose2d : public Layer {
 public:
  struct Options {
    std::int64_t in_c = 0;
    std::int64_t out_c = 0;
    std::int64_t kernel = 3;
    std::int64_t stride = 2;
    std::int64_t pad = -1;  // -1 = (kernel - stride + 1) / 2
    /// Extra rows/cols appended to the output (TensorFlow SAME-style
    /// doubling: kernel 3, stride 2, pad 1, out_pad 1 gives exactly 2H).
    std::int64_t out_pad = 0;
    bool bias = true;
  };

  ConvTranspose2d(std::string name, const Options& opts, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;
  std::vector<Param*> Params() override;

  const Options& options() const { return opts_; }

 private:
  /// Geometry of the *underlying* convolution (output -> input direction).
  ConvGeometry Geometry(std::int64_t out_h, std::int64_t out_w) const;
  const Tensor& ComputeWeight();

  Options opts_;
  Param weight_;  // [in_c, out_c*k*k]
  std::optional<Param> bias_;
  Tensor quantised_weight_;
  Tensor cached_input_;
  ConvWorkspace workspace_;
  PackedGemmA packed_weight_;      // forward: W^T panels
  PackedGemmA packed_weight_bwd_;  // backward data gradient: W panels
};

}  // namespace exaclim
