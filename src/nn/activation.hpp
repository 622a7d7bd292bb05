#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace exaclim {

/// Rectified linear unit (pointwise; one of the "point-wise" kernel
/// categories of Figs 3/8/9).
class ReLU : public Layer {
 public:
  explicit ReLU(std::string name) : Layer(std::move(name)) {}

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override {
    return input;
  }

  /// Hands the forward mask to a fused producer (conv epilogue or
  /// BatchNorm2d's fused sweep) which fills it from the pre-ReLU
  /// values — one byte per element, layout == the tensor. After the
  /// producer returns, Backward behaves exactly as after Forward().
  unsigned char* BeginFusedForward(const TensorShape& shape);

 private:
  // One byte per element (not vector<bool>): the forward pass fills the
  // mask from parallel blocks, and bit-packing would make neighbouring
  // writes race.
  std::vector<unsigned char> mask_;
  TensorShape input_shape_;
};

/// Inverted dropout: scales kept activations by 1/(1-p) during training so
/// inference needs no rescaling. Tiramisu's dense layers use p = 0.2.
class Dropout : public Layer {
 public:
  Dropout(std::string name, float p, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override {
    return input;
  }

  float rate() const { return p_; }

 private:
  float p_;
  Rng rng_;
  std::vector<float> mask_;  // 0 or 1/(1-p)
  TensorShape input_shape_;
  bool last_was_train_ = false;
};

}  // namespace exaclim
