#pragma once

#include <array>
#include <cstdint>

#include "flops/opspec.hpp"
#include "tensor/cast.hpp"

namespace perfbench {

/// Op kinds the nn replay reports, in metric-name form (nn.<kind>.*).
/// Bias ops fold into their convolution.
inline constexpr std::array<const char*, 7> kReplayKinds{
    "conv", "deconv", "norm", "act", "pool", "concat", "upsample"};

struct ReplayTimes {
  /// Per kind: the sum over that kind's ops of the median Forward /
  /// Backward wall time of one call.
  std::array<double, kReplayKinds.size()> fwd_s{};
  std::array<double, kReplayKinds.size()> bwd_s{};
  /// ConvFlops of the forward pass, summed over the conv ops.
  double conv_fwd_flops = 0.0;
};

/// Rebuilds every op of `spec` as a public nn layer (or the combine free
/// functions for concat) at the given batch and precision and times its
/// Forward(train) and Backward on random data, `reps` calls each.
ReplayTimes ReplaySpec(const exaclim::ArchSpec& spec, std::int64_t batch,
                       exaclim::Precision precision, int reps,
                       std::uint64_t seed);

/// Public Gemm on a fixed square shape with the process's intra-op pool:
/// median GFLOP/s over `reps` calls.
double MeasureGemmPeakGflops(int reps);

}  // namespace perfbench
