#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "half_oracle.hpp"
#include "tensor/cast.hpp"
#include "tensor/gemm.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace exaclim {
namespace {

// Reference O(mnk) GEMM for validating the blocked kernel.
std::vector<float> NaiveGemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                             std::int64_t k, float alpha,
                             const std::vector<float>& a,
                             const std::vector<float>& b, float beta,
                             std::vector<float> c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = static_cast<float>(alpha * acc + beta * c[i * n + j]);
    }
  }
  return c;
}

// ------------------------------------------------------------- Shape ----

TEST(TensorShape, BasicProperties) {
  const TensorShape s = TensorShape::NCHW(2, 16, 768, 1152);
  EXPECT_EQ(s.rank(), 4u);
  EXPECT_EQ(s.n(), 2);
  EXPECT_EQ(s.c(), 16);
  EXPECT_EQ(s.h(), 768);
  EXPECT_EQ(s.w(), 1152);
  EXPECT_EQ(s.NumElements(), 2ll * 16 * 768 * 1152);
  EXPECT_EQ(s.ToString(), "[2,16,768,1152]");
}

TEST(TensorShape, Equality) {
  EXPECT_EQ(TensorShape({1, 2}), TensorShape({1, 2}));
  EXPECT_NE(TensorShape({1, 2}), TensorShape({2, 1}));
  EXPECT_NE(TensorShape({1, 2}), TensorShape({1, 2, 1}));
}

TEST(TensorShape, RejectsNegativeDims) {
  EXPECT_THROW(TensorShape({1, -2}), Error);
}

TEST(TensorShape, ScalarAndEmpty) {
  EXPECT_EQ(TensorShape({}).NumElements(), 1);
  EXPECT_EQ(TensorShape({0, 5}).NumElements(), 0);
}

// ------------------------------------------------------------ Tensor ----

TEST(Tensor, ZeroInitialised) {
  const Tensor t(TensorShape{3, 4});
  for (std::int64_t i = 0; i < t.NumElements(); ++i) EXPECT_EQ(t[i], 0.0f);
}

// Uninitialized skips the zero-fill. With DCHECKs armed (Debug, the
// sanitizer presets) it poisons every element with quiet NaN instead, so
// a kernel that leaves an element unwritten fails the bit-identity
// suites; a recycled pool block must be poisoned too, not just a fresh one.
TEST(Tensor, UninitializedHasShapeAndPoisonsUnderDchecks) {
  const TensorShape shape = TensorShape::NCHW(2, 3, 4, 5);
  { Tensor warm = Tensor::Full(shape, 1.0f); }  // leaves 1s in the block
  const Tensor t = Tensor::Uninitialized(shape);
  EXPECT_EQ(t.shape(), shape);
  EXPECT_EQ(t.NumElements(), shape.NumElements());
  if (EXACLIM_DCHECK_ENABLED) {
    for (const float v : t.Data()) ASSERT_TRUE(std::isnan(v));
  }
  EXPECT_TRUE(Tensor::Uninitialized(TensorShape{0}).Empty());
}

TEST(Tensor, AtRowMajorNCHWLayout) {
  Tensor t(TensorShape::NCHW(2, 3, 4, 5));
  t.At(1, 2, 3, 4) = 7.0f;
  // offset = ((1*3+2)*4+3)*5+4
  EXPECT_EQ(t[static_cast<std::size_t>(((1 * 3 + 2) * 4 + 3) * 5 + 4)], 7.0f);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t(TensorShape::NCHW(1, 1, 2, 2));
  EXPECT_THROW(t.At(0, 0, 2, 0), Error);
  EXPECT_THROW(t.At(0, 1, 0, 0), Error);
}

TEST(Tensor, FromVectorValidatesCount) {
  EXPECT_THROW(Tensor::FromVector(TensorShape{2, 2}, {1, 2, 3}), Error);
  const Tensor t = Tensor::FromVector(TensorShape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t[3], 4.0f);
}

TEST(Tensor, ReshapePreservesData) {
  const Tensor t = Tensor::FromVector(TensorShape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.Reshaped(TensorShape{3, 2});
  EXPECT_EQ(r.shape(), TensorShape({3, 2}));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(r[i], t[i]);
  EXPECT_THROW(t.Reshaped(TensorShape{4, 2}), Error);
}

TEST(Tensor, ArithmeticOps) {
  Tensor a = Tensor::FromVector(TensorShape{3}, {1, 2, 3});
  const Tensor b = Tensor::FromVector(TensorShape{3}, {10, 20, 30});
  a += b;
  EXPECT_EQ(a[2], 33.0f);
  a -= b;
  EXPECT_EQ(a[2], 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a[0], 2.0f);
  a.Axpy(0.5f, b);
  EXPECT_EQ(a[1], 4.0f + 10.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a(TensorShape{3});
  const Tensor b(TensorShape{4});
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(a.Axpy(1.0f, b), Error);
  EXPECT_THROW((void)a.Dot(b), Error);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::FromVector(TensorShape{4}, {-1, 2, -3, 4});
  EXPECT_EQ(t.Sum(), 2.0f);
  EXPECT_EQ(t.Max(), 4.0f);
  EXPECT_EQ(t.Min(), -3.0f);
  EXPECT_FLOAT_EQ(t.Norm(), std::sqrt(30.0f));
  EXPECT_EQ(t.Dot(t), 30.0f);
}

TEST(Tensor, AllFinite) {
  Tensor t = Tensor::FromVector(TensorShape{2}, {1.0f, 2.0f});
  EXPECT_TRUE(t.AllFinite());
  t[1] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.AllFinite());
  t[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(t.AllFinite());
}

TEST(Tensor, RandnMoments) {
  Rng rng(11);
  const Tensor t = Tensor::Randn(TensorShape{100000}, rng, 1.0f, 2.0f);
  const double mean = t.Sum() / t.NumElements();
  EXPECT_NEAR(mean, 1.0, 0.05);
}

// -------------------------------------------------------------- GEMM ----

class GemmVariants
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmVariants, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  Rng rng(100 + static_cast<int>(ta) * 2 + static_cast<int>(tb));
  const std::int64_t m = 37, n = 53, k = 29;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = rng.Uniform(-1, 1);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  for (auto& v : c) v = rng.Uniform(-1, 1);

  const auto expected = NaiveGemm(ta, tb, m, n, k, 0.7f, a, b, 0.3f, c);
  Gemm(ta, tb, m, n, k, 0.7f, a.data(), b.data(), 0.3f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-4f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmVariants,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Gemm, LargeBlockedPathMatchesReference) {
  Rng rng(7);
  const std::int64_t m = 130, n = 300, k = 270;  // spans multiple blocks
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  for (auto& v : a) v = rng.Uniform(-1, 1);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  const auto expected = NaiveGemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c);
  Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  double max_err = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    max_err = std::max(max_err,
                       static_cast<double>(std::fabs(c[i] - expected[i])));
  }
  EXPECT_LT(max_err, 5e-4);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  std::vector<float> a{1, 2};
  std::vector<float> b{3, 4};
  std::vector<float> c{std::numeric_limits<float>::quiet_NaN()};
  Gemm(false, false, 1, 1, 2, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_EQ(c[0], 11.0f);
}

TEST(Gemm, KZeroScalesByBeta) {
  std::vector<float> c{2.0f, 4.0f};
  Gemm(false, false, 1, 2, 0, 1.0f, nullptr, nullptr, 0.5f, c.data());
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
}

TEST(Gemm, IdentityMultiplication) {
  const std::int64_t n = 16;
  std::vector<float> eye(static_cast<std::size_t>(n * n), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) eye[i * n + i] = 1.0f;
  Rng rng(3);
  std::vector<float> b(static_cast<std::size_t>(n * n));
  for (auto& v : b) v = rng.Uniform(-1, 1);
  std::vector<float> c(b.size(), 0.0f);
  Gemm(false, false, n, n, n, 1.0f, eye.data(), b.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_FLOAT_EQ(c[i], b[i]);
}

TEST(GemmChecked, ValidatesSizes) {
  std::vector<float> a(6), b(6), c(4);
  EXPECT_NO_THROW(GemmChecked(false, false, 2, 2, 3, 1.0f, a, b, 0.0f, c));
  EXPECT_THROW(GemmChecked(false, false, 2, 2, 4, 1.0f, a, b, 0.0f, c),
               Error);
}

// -------------------------------------------------------------- Cast ----

TEST(Cast, RoundTripHalfQuantises) {
  std::vector<float> v{1.0f, 1.0f + 1e-4f, 3.14159f};
  RoundTripHalf(v);
  EXPECT_EQ(v[0], 1.0f);
  EXPECT_EQ(v[1], 1.0f);  // below half precision
  EXPECT_NEAR(v[2], 3.14159f, 3.14159f * kHalfEpsilonRel);
}

TEST(Cast, PackUnpackRoundTrip) {
  Rng rng(2);
  std::vector<float> v(1000);
  for (auto& x : v) x = rng.Uniform(-100, 100);
  auto packed = PackHalf(v);
  std::vector<float> out(v.size());
  UnpackHalf(packed, out);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(out[i], Half(v[i]).ToFloat());
  }
}

TEST(Cast, BytesPerElement) {
  EXPECT_EQ(BytesPerElement(Precision::kFP32), 4);
  EXPECT_EQ(BytesPerElement(Precision::kFP16), 2);
}

TEST(Cast, TensorRoundTrip) {
  Tensor t = Tensor::FromVector(TensorShape{2}, {65504.0f, 1e8f});
  RoundTripHalf(t);
  EXPECT_EQ(t[0], 65504.0f);
  EXPECT_TRUE(std::isinf(t[1]));
}

// The vectorized conversions in cast.cpp must be bit-identical to
// element-by-element Half construction: every rounding boundary,
// subnormal, overflow and NaN case.

TEST(Cast, PackHalfBitExactVsHalfFuzz) {
  Rng rng(11);
  std::vector<float> values;
  values.reserve(300000 + 64);
  // Random bit patterns cover every exponent regime including NaNs/infs.
  for (int i = 0; i < 300000; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.engine()());
    values.push_back(std::bit_cast<float>(bits));
  }
  // Boundary patterns of the conversion: underflow threshold, subnormal
  // range, normal/subnormal crossover, overflow-to-inf threshold.
  for (const std::uint32_t abs :
       {0x00000000u, 0x32ffffffu, 0x33000000u, 0x33000001u, 0x33800000u,
        0x387fffffu, 0x38800000u, 0x38800001u, 0x3f800000u, 0x477fefffu,
        0x477ff000u, 0x477fffffu, 0x47800000u, 0x7f7fffffu, 0x7f800000u,
        0x7f800001u, 0x7fc00000u}) {
    values.push_back(std::bit_cast<float>(abs));
    values.push_back(std::bit_cast<float>(abs | 0x80000000u));
  }
  std::vector<std::uint16_t> packed(values.size());
  PackHalf(values, packed);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(packed[i], Half(values[i]).bits())
        << "float bits 0x" << std::hex
        << std::bit_cast<std::uint32_t>(values[i]);
  }
}

TEST(Cast, UnpackHalfBitExactVsHalfExhaustive) {
  // All 65536 binary16 values through UnpackHalf and Half::ToFloat vs
  // the branchy scalar oracle (tests/half_oracle.*).
  std::vector<std::uint16_t> packed(1 << 16);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<std::uint16_t>(i);
  }
  std::vector<float> out(packed.size());
  UnpackHalf(packed, out);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const std::uint32_t expected =
        std::bit_cast<std::uint32_t>(OracleHalfBitsToFloat(packed[i]));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]), expected)
        << "half bits 0x" << std::hex << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(Half::FromBits(packed[i]).ToFloat()),
              expected)
        << "half bits 0x" << std::hex << i;
  }
}

TEST(Cast, RoundTripFixesEveryNonNanHalf) {
  // A value that already is a half survives RoundTripBits unchanged, so
  // a layer whose output is (a ReLU of) quantised input needs no second
  // pass; NaN halves collapse to the quiet NaN with their sign.
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    const float v = HalfBitsToFloat(static_cast<std::uint16_t>(h));
    const std::uint32_t expected =
        std::isnan(v) ? ((h & 0x8000u) << 16) | 0x7fc00000u
                      : std::bit_cast<std::uint32_t>(v);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(RoundTripBits(v)), expected)
        << "half bits 0x" << std::hex << h;
  }
}

TEST(Cast, NanMapsToQuietNanWithSign) {
  for (const std::uint32_t bits :
       {0x7f800001u, 0x7fc00000u, 0x7fffffffu, 0xff800001u, 0xffc00000u}) {
    const float nan = std::bit_cast<float>(bits);
    const std::uint32_t sign = bits & 0x80000000u;
    EXPECT_EQ(FloatToHalfBits(nan), (sign >> 16) | 0x7e00u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(RoundTripBits(nan)),
              sign | 0x7fc00000u);
  }
}

// Every one of the 2^32 float bit patterns through RoundTripHalf,
// PackHalf and Half against the branchy scalar oracle, bit for bit; and
// the overflow boundary: a value is non-finite after conversion if and
// only if |x| >= 65520 (bits >= 0x477ff000, which every inf and NaN
// pattern exceeds). Chunks run on the global pool; a few seconds.
TEST(Cast, ExhaustiveFloatPatternsMatchOracle) {
  constexpr std::uint64_t kChunk = 1 << 14;
  constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
  std::vector<std::uint32_t> oracle_float(1 << 16);
  for (std::uint32_t h = 0; h < oracle_float.size(); ++h) {
    oracle_float[h] = std::bit_cast<std::uint32_t>(
        OracleHalfBitsToFloat(static_cast<std::uint16_t>(h)));
  }
  // Per chunk: the oracle into one array, the library into others, then
  // branch-free compare loops; only a chunk with a mismatch is rescanned
  // for its first bad pattern.
  std::atomic<std::uint64_t> bad_chunks{0};
  std::atomic<std::uint64_t> first_bad{
      std::numeric_limits<std::uint64_t>::max()};
  ParallelFor(
      0, kChunks,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<std::uint32_t> bits(kChunk), rt(kChunk), half(kChunk),
            expected_rt(kChunk);
        std::vector<std::uint16_t> packed(kChunk), expected(kChunk);
        for (std::size_t c = lo; c < hi; ++c) {
          const auto base = static_cast<std::uint32_t>(c * kChunk);
          for (std::uint32_t i = 0; i < kChunk; ++i) bits[i] = base + i;
          const std::span<const float> in(
              reinterpret_cast<const float*>(bits.data()), kChunk);
          std::copy(bits.begin(), bits.end(), rt.begin());
          RoundTripHalf(std::span<float>(reinterpret_cast<float*>(rt.data()),
                                         kChunk));
          PackHalf(in, packed);
          for (std::uint32_t i = 0; i < kChunk; ++i) {
            expected[i] = OracleFloatToHalfBits(in[i]);
            expected_rt[i] = oracle_float[expected[i]];
            half[i] = Half(in[i]).bits();
          }
          const auto bad = [&](std::uint32_t i) {
            // Non-finite after conversion iff |x| >= 65520.
            const bool overflow = (bits[i] & 0x7fffffffu) >= 0x477ff000u;
            const bool nonfinite =
                (expected_rt[i] & 0x7f800000u) == 0x7f800000u;
            return static_cast<std::uint32_t>(packed[i] != expected[i]) |
                   static_cast<std::uint32_t>(rt[i] != expected_rt[i]) |
                   static_cast<std::uint32_t>(half[i] != expected[i]) |
                   static_cast<std::uint32_t>(overflow != nonfinite);
          };
          std::uint32_t mismatch = 0;
          for (std::uint32_t i = 0; i < kChunk; ++i) mismatch |= bad(i);
          if (mismatch == 0) continue;
          ++bad_chunks;
          for (std::uint32_t i = 0; i < kChunk; ++i) {
            if (bad(i) != 0) {
              std::uint64_t seen = first_bad.load();
              while (bits[i] < seen &&
                     !first_bad.compare_exchange_weak(seen, bits[i])) {
              }
              break;
            }
          }
        }
      },
      /*grain=*/64);
  EXPECT_EQ(bad_chunks.load(), 0u)
      << "first mismatching float bits 0x" << std::hex << first_bad.load();
  // The boundary in float terms, for the finite side.
  EXPECT_EQ(std::bit_cast<std::uint32_t>(65520.0f), 0x477ff000u);
  EXPECT_TRUE(std::isfinite(RoundTripBits(std::nextafterf(65520.0f, 0.0f))));
  EXPECT_TRUE(std::isinf(RoundTripBits(65520.0f)));
  EXPECT_TRUE(std::isinf(RoundTripBits(-65520.0f)));
}

}  // namespace
}  // namespace exaclim
