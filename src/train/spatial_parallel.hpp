#pragma once

#include <memory>

#include "comm/world.hpp"
#include "nn/conv.hpp"

namespace exaclim {

/// Spatial model parallelism (the paper's Sec VIII future-work item:
/// "Systems like Summit ... are amenable to domain decomposition
/// techniques that split layers across processors").
///
/// The image's H dimension is partitioned into equal slabs, one per
/// rank; convolution weights are replicated. Before each 3×3/5×5 conv,
/// ranks exchange `halo` boundary rows with their neighbours so each
/// local convolution sees exactly the receptive field it would see on
/// the full image — the distributed forward/backward is numerically
/// identical to the single-device computation (up to FP accumulation
/// order). Weight gradients are partial sums over each slab; summing
/// them across ranks (e.g. with GroupAllreduceRing) recovers the full
/// gradient, which is what a combined data+model-parallel training step
/// would all-reduce.

/// Exchanges `halo` rows with the ranks above/below this slab (zeros at
/// the global top/bottom) and zero-pads `halo` columns, returning a
/// [N, C, h+2*halo, w+2*halo] tensor ready for a pad-0 convolution.
Tensor ExchangeHaloAndPad(Communicator& comm, const Tensor& slab,
                          std::int64_t halo, int tag);

/// Adjoint of ExchangeHaloAndPad: accumulates the padded-input gradient
/// back onto the local slab, shipping halo-row contributions to the
/// neighbour ranks they belong to (and receiving ours from them).
Tensor ExchangeHaloAndPadBackward(Communicator& comm,
                                  const Tensor& grad_padded,
                                  std::int64_t halo, int tag);

/// A stack of same-resolution convolutions (3×3, pad "same") executed
/// under spatial decomposition. Weights are owned here and replicated
/// identically on every rank (same seed).
class SpatialConvStack {
 public:
  struct Options {
    std::int64_t in_c = 4;
    std::vector<std::int64_t> widths = {8, 8};  // output channels per conv
    std::int64_t kernel = 3;
    std::uint64_t seed = 1;
  };

  explicit SpatialConvStack(const Options& opts);

  /// Distributed forward over this rank's slab [N, C, h_local, W]. All
  /// ranks call collectively with equal slab heights.
  Tensor Forward(Communicator& comm, const Tensor& slab);
  /// Distributed backward; returns grad w.r.t. the local slab and
  /// accumulates partial weight gradients (sum over this slab's pixels).
  Tensor Backward(Communicator& comm, const Tensor& grad_out);

  /// Single-device reference path (no comm), for equivalence checks.
  Tensor ForwardLocal(const Tensor& full_image);
  Tensor BackwardLocal(const Tensor& grad_out);

  std::vector<Param*> Params();
  std::int64_t halo() const { return halo_; }

 private:
  Options opts_;
  std::int64_t halo_;
  std::vector<std::unique_ptr<Conv2d>> convs_;
};

}  // namespace exaclim
