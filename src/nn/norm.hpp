#pragma once

#include "nn/layer.hpp"

namespace exaclim {

class ReLU;

/// Batch normalisation over (N, H, W) per channel with learnable scale and
/// shift, running statistics for inference, and the full analytic backward
/// pass. In the data-parallel setting each rank normalises over its local
/// batch, exactly as TensorFlow+Horovod did in the paper.
class BatchNorm2d : public Layer {
 public:
  BatchNorm2d(std::string name, std::int64_t channels, float momentum = 0.9f,
              float epsilon = 1e-5f);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;
  std::vector<Param*> Params() override;
  /// Running mean/var: inference state that checkpoint/resume must carry
  /// for bit-exact validation metrics after a restart.
  std::vector<StateTensor> StateTensors() override;

  /// Fused-chain forward (DESIGN §15): exactly Forward() but written back
  /// in place over `x` (the conv output the chain just produced), with an
  /// optional trailing ReLU applied in the same sweep (filling the ReLU
  /// layer's mask via BeginFusedForward, so its Backward works as after a
  /// plain Forward). Bit-identical to the unfused chain; all backward
  /// caches (x_hat, inv_std) are filled, in train and eval mode alike.
  void ForwardFusedInPlace(Tensor& x, bool train, ReLU* relu);

  /// Fused BatchNorm2d→ReLU chain forward (DESIGN §15): exactly Forward()
  /// then relu.Forward(), as one sweep that writes y, x_hat and relu's
  /// mask — no separate ReLU pass, no intermediate BN output tensor.
  /// Under FP16 the sweep quantises y before taking the mask (DESIGN §17).
  Tensor ForwardFused(const Tensor& input, bool train, ReLU& relu);

  /// Per-channel vectors for folding an INFERENCE BatchNorm into the conv
  /// GEMM epilogue: y = gamma * ((v - mean) * inv_std) + beta. norm_out
  /// is the layer's x_hat cache (shaped like the output) the epilogue
  /// must fill so Backward keeps working after the folded forward.
  struct FoldedAffine {
    const float* mean;
    const float* inv_std;
    const float* gamma;
    const float* beta;
    float* norm_out;
  };

  /// Computes inv_std from the running statistics (exactly as the eval
  /// forward does), sizes the backward caches for `out_shape`, and
  /// returns the epilogue vectors, valid until the next forward/fold.
  /// With the caller writing x_hat through norm_out, the layer is left in
  /// exactly the state an unfused eval Forward produces — Backward is
  /// bit-identical either way.
  FoldedAffine FoldInferenceParams(const TensorShape& out_shape);

  std::int64_t channels() const { return channels_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  /// Shared Forward/ForwardFused/ForwardFusedInPlace driver. Writes every
  /// element of `output`, the x_hat cache and the mask; `output` may
  /// alias `input` (the stats pass completes before the write pass per
  /// channel, and writes are element-wise after the read).
  void RunForwardInto(const Tensor& input, Tensor& output, bool train,
                      ReLU* relu);

  std::int64_t channels_;
  float momentum_;
  float epsilon_;
  Param gamma_;
  Param beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // Saved forward state for backward.
  Tensor cached_norm_;   // normalised input x_hat
  Tensor batch_inv_std_;  // per-channel 1/sqrt(var+eps)
  TensorShape input_shape_;
  bool last_was_train_ = false;
};

}  // namespace exaclim
