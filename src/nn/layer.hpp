#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/cast.hpp"
#include "tensor/tensor.hpp"

namespace exaclim {

/// A trainable parameter: value plus accumulated gradient. Optimizers and
/// the data-parallel aggregation layer (hvd) operate on flat lists of
/// these, mirroring how Horovod hooks TensorFlow's variable list.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  std::int64_t NumElements() const { return value.NumElements(); }
};

class Layer;

/// Observer of backward-pass progress: containers (Sequential, the model
/// backward paths) announce each child layer right after its Backward
/// returns, at which point that child's Param::grads are final for the
/// step — the hook that lets the gradient exchange overlap with the rest
/// of backprop (DESIGN §14). Announcements may repeat or cover layers
/// without params; listeners dedup.
class GradReadyListener {
 public:
  virtual ~GradReadyListener() = default;
  virtual void OnGradsReady(Layer& layer) = 0;
};

/// Base class for network layers.
///
/// Layers cache whatever forward-pass state their backward pass needs, so
/// the usage contract is: Forward, then at most one Backward for that
/// Forward. Gradients accumulate into Param::grad (callers zero them
/// between steps). SetPrecision(kFP16) makes the layer quantise its output
/// activations and use binary16-rounded weights — the emulation point for
/// the paper's mixed-precision runs (master weights stay FP32).
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output; `train` enables dropout/batch-stat updates.
  virtual Tensor Forward(const Tensor& input, bool train) = 0;

  /// Propagates the loss gradient, accumulating parameter gradients.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Output shape for a given input shape (no compute) — used by model
  /// assembly checks.
  virtual TensorShape OutputShape(const TensorShape& input) const = 0;

  /// Trainable parameters. Leaves with weights override this; for a
  /// container it concatenates its Children()'s params in order. The
  /// order is the checkpoint layout and the optimizer/exchanger param
  /// index.
  virtual std::vector<Param*> Params() {
    std::vector<Param*> params;
    for (Layer* child : children_) {
      for (Param* p : child->Params()) params.push_back(p);
    }
    return params;
  }

  /// Non-trainable state that must survive checkpoint/resume — e.g.
  /// batch-norm running statistics. Named like params but outside the
  /// optimizer and the gradient exchange; checkpoints store them as
  /// "__state__<name>" datasets. Derived from Children() like Params().
  struct StateTensor {
    std::string name;
    Tensor* tensor;
  };
  virtual std::vector<StateTensor> StateTensors() {
    std::vector<StateTensor> state;
    for (Layer* child : children_) {
      for (StateTensor& s : child->StateTensors()) state.push_back(s);
    }
    return state;
  }

  /// Total trainable elements over Params().
  std::int64_t ParameterCount() {
    std::int64_t count = 0;
    for (const Param* p : Params()) count += p->NumElements();
    return count;
  }

  /// Direct sub-layers, in the order Params()/StateTensors() walk them;
  /// empty for leaves.
  const std::vector<Layer*>& Children() const { return children_; }

  const std::string& name() const { return name_; }

  /// Sets the precision of this layer and of every layer below it.
  void SetPrecision(Precision p) {
    precision_ = p;
    for (Layer* child : children_) child->SetPrecision(p);
  }
  Precision precision() const { return precision_; }

  /// Installs the backward-progress observer on this layer (the trainer
  /// sets it on the model root only; nested containers keep nullptr and
  /// the root announces their children transitively).
  void SetGradReadyListener(GradReadyListener* listener) {
    grad_listener_ = listener;
  }

 protected:
  explicit Layer(std::string name) : name_(std::move(name)) {}

  /// Declares `child` (owned by the caller) as the next sub-layer. Each
  /// container calls this once per child in its constructor; the order
  /// fixes the Params()/StateTensors() order.
  void AddChild(Layer& child) { children_.push_back(&child); }

  /// Applies FP16 storage emulation to an activation if enabled, as a
  /// separate sweep: for the layers whose kernels do not quantise as
  /// they write (DESIGN §17).
  void MaybeQuantise(Tensor& t) const {
    if (precision_ == Precision::kFP16) RoundTripHalf(t);
  }

  /// Runs `child`'s Backward, then announces that its gradients are final
  /// for this step. The announcement is a no-op without a listener, so
  /// un-instrumented call paths cost one branch.
  Tensor BackwardChild(Layer& child, const Tensor& grad_output) const {
    Tensor grad_input = child.Backward(grad_output);
    if (grad_listener_ != nullptr) grad_listener_->OnGradsReady(child);
    return grad_input;
  }

  /// The installed listener (for containers that forward it to nested
  /// instrumented children, e.g. DeepLab handing its encoder over so the
  /// encoder announces per-block instead of as one giant layer).
  GradReadyListener* grad_ready_listener() const { return grad_listener_; }

 private:
  std::string name_;
  Precision precision_ = Precision::kFP32;
  GradReadyListener* grad_listener_ = nullptr;
  std::vector<Layer*> children_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace exaclim
