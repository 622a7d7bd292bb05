#pragma once

#include <memory>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"

namespace exaclim {

/// ResNet bottleneck block: 1×1 reduce, 3×3 (optionally atrous), 1×1
/// expand, plus identity or projection shortcut. The middle conv carries
/// the stride and dilation, matching the Fig 1 encoder where conv4/conv5
/// trade stride for dilation 2/4 to keep output stride 8.
class Bottleneck : public Layer {
 public:
  struct Options {
    std::int64_t in_c = 0;
    std::int64_t mid_c = 0;   // width of the 3×3 conv
    std::int64_t out_c = 0;   // expansion output (4× mid in ResNet-50)
    std::int64_t stride = 1;
    std::int64_t dilation = 1;
  };

  Bottleneck(std::string name, const Options& opts, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;

 private:
  Options opts_;
  std::unique_ptr<Sequential> main_;       // 1×1 -> 3×3 -> 1×1 (+BNs/ReLUs)
  std::unique_ptr<Sequential> shortcut_;   // null = identity
  std::unique_ptr<ReLU> out_relu_;
  Tensor cached_input_;
};

/// ResNet-50-style encoder with configurable width and per-stage
/// stride/dilation, producing both the low-level feature map (after
/// stage 1, used by the DeepLabv3+ decoder skip) and the final high-level
/// features. With the Fig 1 settings the output stride is 8.
class ResNetEncoder : public Layer {
 public:
  struct Config {
    std::int64_t in_channels = 16;
    std::int64_t stem_features = 64;
    /// Bottleneck 3×3 widths per stage; outputs are 4× these.
    std::vector<std::int64_t> stage_widths = {64, 128, 256, 512};
    std::vector<std::int64_t> stage_blocks = {3, 4, 6, 3};
    std::vector<std::int64_t> stage_strides = {1, 2, 1, 1};
    std::vector<std::int64_t> stage_dilations = {1, 1, 2, 4};

    static Config ResNet50(std::int64_t in_channels = 16);
    static Config Downscaled(std::int64_t in_channels = 8);
  };

  ResNetEncoder(const Config& config, Rng& rng);

  /// Returns the final (high-level) feature map; the stage-1 low-level
  /// features are retrievable via low_level() after Forward.
  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  /// Adds a gradient flowing into the low-level tap (from the decoder
  /// skip); must be called before Backward.
  void AddLowLevelGradient(Tensor grad);

  TensorShape OutputShape(const TensorShape& input) const override;
  TensorShape LowLevelShape(const TensorShape& input) const;

  const Tensor& low_level() const { return low_level_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t low_level_channels() const { return low_level_channels_; }
  /// Total downscale factor of the final features (output stride).
  std::int64_t output_stride() const { return output_stride_; }

  const Config& config() const { return config_; }

 private:
  Config config_;
  std::unique_ptr<Sequential> stem_;
  std::vector<std::unique_ptr<Bottleneck>> blocks_;
  std::size_t low_level_block_end_ = 0;  // blocks_[0..end) form stage 1
  std::int64_t out_channels_ = 0;
  std::int64_t low_level_channels_ = 0;
  std::int64_t output_stride_ = 0;
  Tensor low_level_;
  Tensor low_level_grad_;
};

}  // namespace exaclim
