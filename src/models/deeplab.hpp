#pragma once

#include <array>
#include <memory>
#include <vector>

#include "models/resnet.hpp"
#include "nn/combine.hpp"

namespace exaclim {

/// Atrous spatial pyramid pooling (Fig 1 middle): parallel 1×1 conv and
/// three 3×3 atrous convs at the configured dilations, concatenated and
/// fused by a 1×1 projection. Each branch is Conv-BN-ReLU.
class ASPP : public Layer {
 public:
  struct Options {
    std::int64_t in_c = 0;
    std::int64_t branch_c = 256;
    std::vector<std::int64_t> rates = {12, 24, 36};
  };

  ASPP(std::string name, const Options& opts, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;

  std::int64_t out_channels() const { return opts_.branch_c; }

 private:
  Options opts_;
  std::vector<std::unique_ptr<Sequential>> branches_;
  std::unique_ptr<Sequential> project_;

  // Per-step scratch, sized in the constructor so the steady-state step
  // performs no heap allocation (see DenseBlock).
  std::vector<Tensor> branch_outs_;
  std::vector<const Tensor*> concat_ptrs_;  // -> branch_outs_
  std::vector<std::int64_t> branch_channels_;
  std::vector<Tensor> branch_grads_;
};

/// Modified DeepLabv3+ (Fig 1): ResNet encoder with atrous stages
/// (output stride 8), ASPP, and — the paper's key change (Sec V-B5) — a
/// decoder that deconvolves back to *full* input resolution instead of
/// predicting at 1/4 resolution, for precise segmentation boundaries.
/// Setting Config::full_res_decoder=false reproduces the standard
/// quarter-resolution DeepLabv3+ head (logits are bilinearly upsampled
/// to full resolution), for the ablation benchmarks.
class DeepLabV3Plus : public Layer {
 public:
  struct Config {
    ResNetEncoder::Config encoder = ResNetEncoder::Config::ResNet50();
    std::int64_t num_classes = 3;
    std::int64_t aspp_channels = 256;
    std::vector<std::int64_t> aspp_rates = {12, 24, 36};
    std::int64_t decoder_skip_channels = 48;  // 1×1-reduced low-level skip
    /// Channel widths of the three deconv upsampling steps (stride 8 ->
    /// 1). Fig 1's decoder widths are ambiguous in the schematic; these
    /// taper (256/128/64) so that the DeepLab/Tiramisu operation-count
    /// ratio matches the paper's measured 3.44x (see EXPERIMENTS.md).
    std::vector<std::int64_t> decoder_channels = {256, 128, 64};
    bool full_res_decoder = true;

    /// Paper configuration (Fig 1) for 16-channel input.
    static Config Paper(std::int64_t in_channels = 16);
    /// Small variant for CPU training experiments.
    static Config Downscaled(std::int64_t in_channels = 8);
  };

  DeepLabV3Plus(const Config& config, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;

  const Config& config() const { return config_; }
  /// Input H/W must be divisible by this.
  std::int64_t SpatialDivisor() const;

 private:
  Config config_;
  std::unique_ptr<ResNetEncoder> encoder_;
  std::unique_ptr<ASPP> aspp_;
  std::unique_ptr<Sequential> skip_reduce_;  // 1×1 conv 48 on low-level
  std::unique_ptr<ConvTranspose2d> up1_;     // stride 8 -> 4 (to skip res)
  std::unique_ptr<Sequential> refine_;       // convs after skip concat
  std::vector<std::unique_ptr<Layer>> upsample_tail_;  // to full res
  std::unique_ptr<Conv2d> classifier_;
  std::int64_t skip_concat_channels_ = 0;
  std::array<Tensor, 2> skip_split_;  // [up1 grad, skip grad] scratch
};

}  // namespace exaclim
