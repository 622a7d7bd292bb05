#include "tensor/cast.hpp"

#include <cstdint>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "tensor/epilogue.hpp"
#include "tensor/tensor.hpp"

namespace exaclim {
namespace {

// The exchanger converts every fused gradient buffer per step (paper
// §4.4) and FP16 layers round-trip what they do not quantise themselves,
// so these loops run the branch-free conversion of common/half.hpp
// through PointwiseMap, which vectorises them. The kernels stay out of
// line: inlined into the ParallelFor closure, their block loops can stop
// vectorising.

// Threshold above which the elementwise loops fan out on the global pool.
constexpr std::size_t kCastGrain = 1 << 15;

[[gnu::noinline]] void RoundTripKernel(float* data, std::size_t n) {
  PointwiseMap(data, n,
               [=](std::size_t i, float v) { data[i] = RoundTripBits(v); });
}

[[gnu::noinline]] void PackKernel(const float* src,
                                  std::uint16_t* __restrict dst,
                                  std::size_t n) {
  PointwiseMap(src, n,
               [=](std::size_t i, float v) { dst[i] = FloatToHalfBits(v); });
}

[[gnu::noinline]] void UnpackKernel(const std::uint16_t* __restrict src,
                                    float* __restrict dst, std::size_t n) {
  PointwiseMap(src, n, [=](std::size_t i, std::uint16_t h) {
    dst[i] = HalfBitsToFloat(h);
  });
}

}  // namespace

const char* ToString(Precision p) {
  return p == Precision::kFP32 ? "FP32" : "FP16";
}

void RoundTripHalf(std::span<float> values) {
  float* data = values.data();
  ParallelFor(
      0, values.size(),
      [data](std::size_t lo, std::size_t hi) {
        RoundTripKernel(data + lo, hi - lo);
      },
      kCastGrain);
}

void RoundTripHalf(Tensor& tensor) { RoundTripHalf(tensor.Data()); }

void PackHalf(std::span<const float> values,
              std::span<std::uint16_t> packed) {
  EXACLIM_CHECK(packed.size() == values.size(),
                "pack size mismatch: " << packed.size() << " vs "
                                       << values.size());
  const float* src = values.data();
  std::uint16_t* dst = packed.data();
  ParallelFor(
      0, values.size(),
      [src, dst](std::size_t lo, std::size_t hi) {
        PackKernel(src + lo, dst + lo, hi - lo);
      },
      kCastGrain);
}

std::vector<std::uint16_t> PackHalf(std::span<const float> values) {
  std::vector<std::uint16_t> packed(values.size());
  PackHalf(values, packed);
  return packed;
}

void UnpackHalf(std::span<const std::uint16_t> packed,
                std::span<float> values) {
  EXACLIM_CHECK(packed.size() == values.size(),
                "pack/unpack size mismatch: " << packed.size() << " vs "
                                              << values.size());
  const std::uint16_t* src = packed.data();
  float* dst = values.data();
  ParallelFor(
      0, packed.size(),
      [src, dst](std::size_t lo, std::size_t hi) {
        UnpackKernel(src + lo, dst + lo, hi - lo);
      },
      kCastGrain);
}

}  // namespace exaclim
