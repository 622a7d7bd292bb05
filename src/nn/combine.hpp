#pragma once

#include <span>

#include "nn/layer.hpp"

namespace exaclim {

/// Channel-wise concatenation (the combine operation Tiramisu uses where
/// ResNet uses addition). Free functions rather than a Layer because the
/// model graphs wire skips explicitly.
Tensor ConcatChannels(std::span<const Tensor* const> inputs);
Tensor ConcatChannels(const Tensor& a, const Tensor& b);

/// Splits a concatenated gradient back into per-input gradients with the
/// given channel counts (adjoint of ConcatChannels): writes part i into
/// out[i], recycling out[i]'s pooled buffer when its shape already
/// matches (which it does from the second training step on — the models
/// keep the destination tensors as member scratch).
/// out.size() must equal channels.size().
void SplitChannelsInto(const Tensor& grad,
                       std::span<const std::int64_t> channels,
                       std::span<Tensor> out);

/// Extracts a channel range [begin, begin+count) as its own tensor.
Tensor SliceChannels(const Tensor& input, std::int64_t begin,
                     std::int64_t count);

/// Bilinear upsampling by an integer factor (align_corners=false
/// convention). Kept for decoder ablations against the deconv-based
/// full-resolution decoder of Fig 1.
class BilinearUpsample2d : public Layer {
 public:
  BilinearUpsample2d(std::string name, std::int64_t factor);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;

 private:
  std::int64_t factor_;
  TensorShape input_shape_;
};

}  // namespace exaclim
