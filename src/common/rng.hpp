#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <random>

namespace exaclim {

/// MT19937-64 producing exactly std::mt19937_64's output stream (same
/// seeding, twist and tempering constants), refilled a block at a time:
/// each refill twists all 312 state words and tempers them into an
/// output buffer, so a draw is one buffer read. Satisfies
/// UniformRandomBitGenerator, so std::shuffle and the std distributions
/// accept it and see the same numbers they would from std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateWords) Refill();
    return out_[pos_++];
  }

 private:
  static constexpr std::size_t kStateWords = 312;

  void Refill();

  std::array<result_type, kStateWords> state_{};  // untempered, for the twist
  std::array<result_type, kStateWords> out_{};    // tempered draws
  std::size_t pos_ = kStateWords;
};

/// float(u) * 2^-64, the float libstdc++'s generate_canonical makes from
/// one 64-bit draw (before its clamp below 1), without the unpredictable
/// branch the compiler emits for an unsigned-to-float conversion. A draw
/// of 2^26 or more is halved with its low bit kept as a sticky bit, which
/// leaves its round-to-nearest-even result unchanged and makes it fit a
/// signed conversion; smaller draws (probability 2^-38) convert directly.
inline float CanonicalFloat(std::uint64_t u) {
  if (u < (std::uint64_t{1} << 26)) [[unlikely]] {
    return static_cast<float>(static_cast<std::int64_t>(u)) * 0x1p-64f;
  }
  const auto halved = static_cast<std::int64_t>((u >> 1) | (u & 1));
  return static_cast<float>(halved) * 0x1p-63f;
}

/// Deterministic seeded RNG used everywhere randomness is needed (weight
/// init, data synthesis, sampling), so every experiment is reproducible
/// across runs and rank counts. The stream is std::mt19937_64's and
/// Normal() is bit-equal to a freshly built
/// std::normal_distribution<float> (libstdc++'s polar method), which
/// pins every result derived from it (DESIGN §16). Per-rank streams are
/// derived by Fork() with a distinct stream id.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Derives an independent deterministic stream (e.g. one per rank).
  Rng Fork(std::uint64_t stream) const {
    // SplitMix64-style mixing of (seed, stream) into a new seed.
    std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return Rng(z ^ (z >> 31));
  }

  float Uniform(float lo = 0.0f, float hi = 1.0f) {
    return std::uniform_real_distribution<float>(lo, hi)(engine_);
  }

  double UniformDouble(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  float Normal(float mean = 0.0f, float stddev = 1.0f) {
    PolarAttempt p = DrawPolarAttempt();
    while (!p.accepted()) p = DrawPolarAttempt();
    const float mult = std::sqrt(-2 * std::log(p.r2) / p.r2);
    return p.y * mult * stddev + mean;
  }

  /// Advances the engine exactly as `count` Normal() calls do, without
  /// computing the values: the same accept/reject draws, no log or sqrt,
  /// and no branch on the (unpredictable) rejections.
  void SkipNormal(std::int64_t count = 1) {
    while (count > 0) {
      count -= static_cast<std::int64_t>(DrawPolarAttempt().accepted());
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t Int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(Int(0, static_cast<std::int64_t>(n) - 1));
  }

  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  Mt19937_64& engine() { return engine_; }

 private:
  /// One try of the polar method: a point in the square, kept if it
  /// falls inside the unit disc (and is not the origin).
  struct PolarAttempt {
    float y, r2;
    bool accepted() const { return (r2 <= 1.0) & (r2 != 0.0); }
  };

  /// libstdc++'s generate_canonical<float> for a 64-bit engine: one draw
  /// scaled by 2^-64 in float, clamped below 1.
  float Canonical() {
    const float u = CanonicalFloat(engine_());
    return u < 1.0f ? u : 0x1.fffffep-1f;
  }

  /// As libstdc++ writes it: the `- 1.0` and the disc bounds are double,
  /// the rest float.
  PolarAttempt DrawPolarAttempt() {
    const auto x = static_cast<float>(2.0f * Canonical() - 1.0);
    const auto y = static_cast<float>(2.0f * Canonical() - 1.0);
    return {y, x * x + y * y};
  }

  Mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace exaclim
