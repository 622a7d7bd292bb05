#include "common/rng.hpp"

namespace exaclim {
namespace {

// The std::mt19937_64 parameters ([rand.predef]).
constexpr std::size_t kMiddle = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

std::uint64_t TwistWord(std::uint64_t hi, std::uint64_t lo,
                        std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  // Masked, not a branch: the low bit is a coin flip per word.
  return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < state_.size(); ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Refill() {
  auto& x = state_;
  constexpr std::size_t n = kStateWords, m = kMiddle;
  for (std::size_t k = 0; k < n - m; ++k) {
    x[k] = TwistWord(x[k], x[k + 1], x[k + m]);
  }
  for (std::size_t k = n - m; k < n - 1; ++k) {
    x[k] = TwistWord(x[k], x[k + 1], x[k + m - n]);
  }
  x[n - 1] = TwistWord(x[n - 1], x[0], x[m - 1]);

  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t z = x[k];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    out_[k] = z;
  }
  pos_ = 0;
}

}  // namespace exaclim
