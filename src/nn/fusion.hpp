#pragma once

// Layer-chain fusion (DESIGN §15): Conv2d→BatchNorm2d(→ReLU),
// Conv2d→ReLU and BatchNorm2d→ReLU.
//
// Sequential::Forward scans its layer list for fusable chains and routes
// them through ForwardFusedChain instead of layer-by-layer Forward calls.
// Fusion is bitwise-transparent: the fused chain produces the exact same
// output tensor AND leaves the member layers with the exact same backward
// caches (x_hat, inv_std, the ReLU mask) as the unfused walk, so Backward
// is completely unaware of it. SetConvFusion(false) restores the plain
// walk (tests/test_conv_engine.cpp holds the two modes bit-identical).

#include <cstddef>
#include <vector>

#include "nn/layer.hpp"

namespace exaclim {

/// Length of the fusable chain starting at layers[i]: 3 for
/// Conv2d→BatchNorm2d→ReLU, 2 for Conv2d→BatchNorm2d, Conv2d→ReLU or
/// BatchNorm2d→ReLU, 0 when layers[i] starts no fusable chain. All member
/// layers must share one precision. Under FP16 emulation the fused
/// kernels quantise where the unfused chain does: the conv output before
/// BN's statistics, and BN's output before the ReLU takes its mask, so a
/// tiny positive y that rounds to +0 gets mask 0 (DESIGN §17). Every conv
/// writes C through the GEMM engine, so its epilogue can always take the
/// BN affine and the ReLU.
std::size_t FusableChainAt(const std::vector<LayerPtr>& layers,
                           std::size_t i);

/// Executes the `len`-layer chain starting at layers[i] (len from
/// FusableChainAt, >= 2) as one fused pass. Eval-mode conv→BN(→ReLU)
/// chains fold the whole epilogue into the packed GEMM writeback;
/// train-mode chains run the conv (bias folded into the epilogue) and
/// then one in-place BN sweep that also fills the ReLU mask; BN→ReLU
/// runs as one BN sweep that applies the ReLU and fills its mask.
/// Bit-identical to calling each layer's Forward in turn.
Tensor ForwardFusedChain(const std::vector<LayerPtr>& layers, std::size_t i,
                         std::size_t len, const Tensor& input, bool train);

}  // namespace exaclim
