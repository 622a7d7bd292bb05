#pragma once

#include <optional>
#include <vector>

#include "nn/conv_engine.hpp"
#include "nn/conv_geometry.hpp"
#include "nn/layer.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {

/// Convolution algorithm trace — the stand-in for the cuDNN API tracing of
/// Sec VI ("all convolutions were performed using either implicit GEMMs or
/// direct convolutions"). The choice is a function of geometry alone:
/// pointwise convolutions (1×1, stride 1, pad 0, dilation 1) run kDirect,
/// a GEMM straight on the activation map (the map already is the patch
/// matrix); every other geometry runs kImplicitGemm, the packed GEMM
/// engine's implicit-B path that gathers panels from the input with no
/// col buffer (DESIGN §15).
enum class ConvAlgorithm { kAuto, kImplicitGemm, kDirect };

const char* ToString(ConvAlgorithm algo);

/// Always kAuto (the geometry policy above). Kept only for the end-to-end
/// benchmark's info record, which prints it.
ConvAlgorithm DefaultConvAlgorithm();

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
  };

  Conv2d(std::string name, const Options& opts, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;
  std::vector<Param*> Params() override;

  /// Forward with extra epilogue ops fused into the GEMM writeback —
  /// what Sequential's fusion pass calls for Conv2d→BN(→ReLU) chains.
  /// Under FP16 the epilogue quantises the conv output, and BN's output
  /// before the ReLU mask, exactly where the unfused chain does
  /// (DESIGN §17). Forward() is exactly ForwardFused(input, train, {}).
  Tensor ForwardFused(const Tensor& input, bool train,
                      const ConvFusedOps& ops);

  const Options& options() const { return opts_; }
  Param& weight() { return weight_; }
  /// The algorithm the geometry selects (kDirect for pointwise, else
  /// kImplicitGemm) — the equivalent of the cuDNN API tracing of Sec VI.
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
  ConvWorkspace workspace_;  // per-shard scratch/grad buffers (DESIGN §9)
  // Weight matrix prepacked into the GEMM engine's A-panel layout, once
  // per Forward/Backward and shared read-only across batch shards: W for
  // the forward, and W regrouped one panel per tap for the data gradient
  // of each stride phase (DESIGN §15).
  PackedGemmA packed_weight_;
  std::vector<PackedGemmA> packed_grad_;
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
  // Forward: per stride phase, W regrouped one panel per tap (the
  // underlying conv's data gradient, DESIGN §15).
  std::vector<PackedGemmA> packed_weight_;
  PackedGemmA packed_weight_bwd_;  // backward data gradient: W panels
};

}  // namespace exaclim
