#include "nn/fusion.hpp"

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/norm.hpp"

namespace exaclim {

std::size_t FusableChainAt(const std::vector<LayerPtr>& layers,
                           std::size_t i) {
  Layer* next = i + 1 < layers.size() ? layers[i + 1].get() : nullptr;
  if (next == nullptr || next->precision() != layers[i]->precision()) {
    return 0;
  }
  if (dynamic_cast<BatchNorm2d*>(layers[i].get()) != nullptr) {
    // BatchNorm2d→ReLU, the pre-activation half of every Tiramisu unit.
    return dynamic_cast<ReLU*>(next) != nullptr ? 2 : 0;
  }
  auto* conv = dynamic_cast<Conv2d*>(layers[i].get());
  if (conv == nullptr) return 0;

  if (auto* bn = dynamic_cast<BatchNorm2d*>(next)) {
    if (bn->channels() != conv->options().out_c) return 0;
    Layer* third = i + 2 < layers.size() ? layers[i + 2].get() : nullptr;
    if (dynamic_cast<ReLU*>(third) != nullptr &&
        third->precision() == bn->precision()) {
      return 3;
    }
    return 2;
  }
  // Conv2d→ReLU: with no BN sweep to piggyback on, the ReLU rides the
  // conv's GEMM epilogue.
  return dynamic_cast<ReLU*>(next) != nullptr ? 2 : 0;
}

Tensor ForwardFusedChain(const std::vector<LayerPtr>& layers, std::size_t i,
                         std::size_t len, const Tensor& input, bool train) {
  if (auto* bn = dynamic_cast<BatchNorm2d*>(layers[i].get())) {
    // BatchNorm2d→ReLU: one sweep writes y, x_hat and the ReLU mask.
    return bn->ForwardFused(input, train,
                            *static_cast<ReLU*>(layers[i + 1].get()));
  }
  auto* conv = static_cast<Conv2d*>(layers[i].get());
  auto* bn = dynamic_cast<BatchNorm2d*>(layers[i + 1].get());

  if (bn == nullptr) {
    // Conv2d→ReLU: relu + mask fold straight into the GEMM writeback.
    auto* relu = static_cast<ReLU*>(layers[i + 1].get());
    ConvFusedOps ops;
    ops.relu = true;
    ops.relu_mask = relu->BeginFusedForward(conv->OutputShape(input.shape()));
    return conv->ForwardFused(input, train, ops);
  }

  auto* relu = len == 3 ? static_cast<ReLU*>(layers[i + 2].get()) : nullptr;

  if (!train) {
    // Inference: fold the BN affine (from running stats) and the ReLU
    // into the GEMM epilogue — one pass over C, no BN sweep at all. The
    // epilogue also fills both layers' backward caches (x_hat through
    // bn_norm, the ReLU mask), so a Backward after the folded eval
    // forward — the gradcheck pattern — works bit-identically.
    const TensorShape out_shape = conv->OutputShape(input.shape());
    const BatchNorm2d::FoldedAffine folded =
        bn->FoldInferenceParams(out_shape);
    ConvFusedOps ops;
    ops.bn_mean = folded.mean;
    ops.bn_inv_std = folded.inv_std;
    ops.bn_gamma = folded.gamma;
    ops.bn_beta = folded.beta;
    ops.bn_norm = folded.norm_out;
    if (relu != nullptr) {
      ops.relu = true;
      ops.relu_mask = relu->BeginFusedForward(out_shape);
    }
    return conv->ForwardFused(input, train, ops);
  }

  // Training: run the conv — ForwardFused folds its bias into the GEMM
  // writeback internally — then normalise in place over the conv output,
  // applying the trailing ReLU (and filling its mask) in the same sweep.
  Tensor y = conv->Forward(input, train);
  bn->ForwardFusedInPlace(y, train, relu);
  return y;
}

}  // namespace exaclim
