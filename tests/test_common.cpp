#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace exaclim {
namespace {

// ---------------------------------------------------------------- Half ---

TEST(Half, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    const Half h(static_cast<float>(i));
    EXPECT_EQ(h.ToFloat(), static_cast<float>(i)) << "i=" << i;
  }
}

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(Half(1.0f).bits(), 0x3c00u);
  EXPECT_EQ(Half(-1.0f).bits(), 0xbc00u);
  EXPECT_EQ(Half(0.5f).bits(), 0x3800u);
  EXPECT_EQ(Half(2.0f).bits(), 0x4000u);
  EXPECT_EQ(Half(65504.0f).bits(), 0x7bffu);  // max finite
  EXPECT_EQ(Half(0.0f).bits(), 0x0000u);
  EXPECT_EQ(Half(-0.0f).bits(), 0x8000u);
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(Half(65520.0f).IsInf());  // first value rounding to inf
  EXPECT_TRUE(Half(1e6f).IsInf());
  EXPECT_TRUE(Half(-1e6f).IsInf());
  EXPECT_FALSE(Half(65504.0f).IsInf());
  // 65519.996 rounds down to 65504 (nearest-even at the boundary).
  EXPECT_EQ(Half(65519.0f).bits(), 0x7bffu);
}

TEST(Half, SubnormalsRoundTrip) {
  const float min_sub = std::ldexp(1.0f, -24);
  EXPECT_EQ(Half(min_sub).bits(), 0x0001u);
  EXPECT_EQ(Half::MinSubnormal().ToFloat(), min_sub);
  // Below half the smallest subnormal flushes to zero.
  EXPECT_EQ(Half(min_sub / 4.0f).bits(), 0x0000u);
  // Exactly half of min subnormal: round-to-nearest-even -> zero.
  EXPECT_EQ(Half(min_sub / 2.0f).bits(), 0x0000u);
  // Slightly above half rounds up to the min subnormal.
  EXPECT_EQ(Half(min_sub * 0.51f).bits(), 0x0001u);
}

TEST(Half, NanPropagation) {
  const Half h(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(h.IsNan());
  EXPECT_FALSE(h.IsFinite());
  EXPECT_TRUE(std::isnan(h.ToFloat()));
  EXPECT_FALSE(h == h);
}

TEST(Half, InfinityRoundTrip) {
  const Half pos(std::numeric_limits<float>::infinity());
  const Half neg(-std::numeric_limits<float>::infinity());
  EXPECT_TRUE(pos.IsInf());
  EXPECT_TRUE(neg.IsInf());
  EXPECT_EQ(pos.ToFloat(), std::numeric_limits<float>::infinity());
  EXPECT_EQ(neg.ToFloat(), -std::numeric_limits<float>::infinity());
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly between 1.0 and the next half (1 + 2^-10):
  // ties to even -> 1.0.
  EXPECT_EQ(Half(1.0f + 1.0f / 2048.0f).bits(), Half(1.0f).bits());
  // 1 + 3*2^-11 ties between 1+2^-10 and 1+2^-9 -> picks even (1+2^-9).
  EXPECT_EQ(Half(1.0f + 3.0f / 2048.0f).bits(), Half(1.0f + 2.0f / 1024.0f).bits());
}

TEST(Half, AllBitPatternsRoundTripThroughFloat) {
  // Every finite binary16 value converts to float and back bit-exactly.
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const Half h = Half::FromBits(static_cast<std::uint16_t>(bits));
    if (h.IsNan()) continue;
    const Half round_trip(h.ToFloat());
    EXPECT_EQ(round_trip.bits(), h.bits()) << "bits=" << bits;
  }
}

TEST(Half, RelativeErrorBound) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.Uniform(-60000.0f, 60000.0f);
    const float q = Half(v).ToFloat();
    if (std::fabs(v) >= std::ldexp(1.0f, -14)) {  // normal range
      // Round-to-nearest guarantees error <= |v| * u, u = 2^-11.
      EXPECT_LE(std::fabs(q - v), std::fabs(v) * kHalfEpsilonRel * 1.0001f)
          << "v=" << v;
    }
  }
}

TEST(Half, Arithmetic) {
  EXPECT_EQ((Half(1.5f) + Half(2.5f)).ToFloat(), 4.0f);
  EXPECT_EQ((Half(3.0f) * Half(2.0f)).ToFloat(), 6.0f);
  EXPECT_EQ((-Half(2.0f)).ToFloat(), -2.0f);
  Half acc(0.0f);
  for (int i = 0; i < 10; ++i) acc += Half(0.25f);
  EXPECT_EQ(acc.ToFloat(), 2.5f);
}

TEST(Half, AdditionSwampingShowsPrecisionLoss) {
  // In binary16, 2048 + 1 == 2048: the core of the Sec V-B1 stability
  // problem with extreme loss weights.
  EXPECT_EQ((Half(2048.0f) + Half(1.0f)).ToFloat(), 2048.0f);
  EXPECT_EQ((Half(2048.0f) + Half(2.0f)).ToFloat(), 2050.0f);
}

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng base(7);
  Rng s0 = base.Fork(0);
  Rng s1 = base.Fork(1);
  EXPECT_NE(s0.seed(), s1.seed());
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.Uniform() == s1.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(9), b(9);
  EXPECT_EQ(a.Fork(3).seed(), b.Fork(3).seed());
}

TEST(Rng, IntBounds) {
  Rng rng(1);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.Int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0f, 3.0f);
    sum += v;
    sumsq += v * v;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

// The in-repo engine and normal are pinned to libstdc++'s stream: the
// std types below are the oracles (DESIGN §16).

TEST(Rng, EngineTenThousandthDrawIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  for (int i = 1; i < 10000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ull);
}

TEST(Rng, EngineMatchesStdMt19937_64UnderStdDistributions) {
  // 4 seeds x 2.5M raw draws, with the std distributions and std::shuffle
  // consuming both engines between them.
  for (const std::uint64_t seed :
       {0ull, 1ull, 5489ull, 0x9e3779b97f4a7c15ull}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 oracle(seed);
    std::int64_t raw_mismatches = 0;
    for (int i = 0; i < 2'500'000; ++i) {
      raw_mismatches += ours() != oracle() ? 1 : 0;
      if (i % 1009 != 0) continue;
      std::uniform_int_distribution<std::int64_t> ints(-7, 1000 + i);
      EXPECT_EQ(ints(ours), ints(oracle));
      std::uniform_real_distribution<double> reals(-2.0, 3.0);
      EXPECT_EQ(reals(ours), reals(oracle));
      std::bernoulli_distribution coin(0.3);
      EXPECT_EQ(coin(ours), coin(oracle));
      std::vector<int> a(1 + i % 37), b(a.size());
      std::iota(a.begin(), a.end(), 0);
      std::iota(b.begin(), b.end(), 0);
      std::shuffle(a.begin(), a.end(), ours);
      std::shuffle(b.begin(), b.end(), oracle);
      EXPECT_EQ(a, b);
    }
    EXPECT_EQ(raw_mismatches, 0) << "seed " << seed;
  }
}

TEST(Rng, CanonicalFloatMatchesUnsignedConversion) {
  // Every bit length, both round-to-even neighbours of the sticky-bit
  // boundary, and the extremes.
  std::vector<std::uint64_t> draws{0, 1, ~0ull, ~0ull - 1, 1ull << 63,
                                   (1ull << 63) - 1, (1ull << 63) + 1};
  std::mt19937_64 bits(17);
  for (int len = 1; len <= 64; ++len) {
    const std::uint64_t top = std::uint64_t{1} << (len - 1);
    for (const std::uint64_t delta : {0ull, 1ull, 2ull, 3ull}) {
      draws.push_back(top + delta);
      draws.push_back(top | ((top - 1) - delta % top));
    }
    for (int k = 0; k < 1000; ++k) {
      draws.push_back(top | (bits() & (top - 1)));
    }
  }
  for (const std::uint64_t u : draws) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(CanonicalFloat(u)),
              std::bit_cast<std::uint32_t>(static_cast<float>(u) * 0x1p-64f))
        << u;
  }
}

TEST(Rng, NormalIsBitEqualToStdNormalDistribution) {
  // Rng::Normal builds no distribution; the oracle is a fresh
  // std::normal_distribution<float> per draw, as Rng::Normal used to be.
  const std::pair<float, float> params[] = {
      {0.0f, 1.0f}, {0.0f, 0.35f}, {2.0f, 3.0f}, {-1.5f, 0.01f}};
  Rng ours(2018);
  std::mt19937_64 oracle(2018);
  std::int64_t mismatches = 0;
  for (int i = 0; i < 10'000'000; ++i) {
    const auto [mean, sd] = params[i % 4];
    const float a = ours.Normal(mean, sd);
    const float b = std::normal_distribution<float>(mean, sd)(oracle);
    mismatches += std::bit_cast<std::uint32_t>(a) !=
                          std::bit_cast<std::uint32_t>(b)
                      ? 1
                      : 0;
  }
  EXPECT_EQ(mismatches, 0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(ours.engine()(), oracle()) << "engine diverged at draw " << i;
  }
}

TEST(Rng, SkipNormalLeavesTheEngineWhereNormalDoes) {
  for (const std::int64_t count : {1, 2, 3, 311, 312, 313, 13824}) {
    Rng drawn(77), skipped_bulk(77), skipped_one(77);
    for (std::int64_t i = 0; i < count; ++i) {
      (void)drawn.Normal();
      skipped_one.SkipNormal();
    }
    skipped_bulk.SkipNormal(count);
    for (int i = 0; i < 700; ++i) {
      const std::uint64_t next = drawn.engine()();
      ASSERT_EQ(skipped_bulk.engine()(), next) << count << " normals";
      ASSERT_EQ(skipped_one.engine()(), next) << count << " normals";
    }
  }
}

// ---------------------------------------------------------- ThreadPool ---

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SmallRangeRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(
      0, 10,
      [&](std::size_t lo, std::size_t hi) {
        calls.fetch_add(1);
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 10u);
      },
      1024);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<double> values(50000);
  std::iota(values.begin(), values.end(), 1.0);
  std::atomic<std::int64_t> parallel_sum{0};
  pool.ParallelFor(
      0, values.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::int64_t local = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          local += static_cast<std::int64_t>(values[i]);
        }
        parallel_sum.fetch_add(local);
      },
      128);
  EXPECT_EQ(parallel_sum.load(), 50000ll * 50001ll / 2);
}

TEST(ThreadPool, ReentrantSequentialUse) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 1000,
                     [&](std::size_t lo, std::size_t hi) {
                       count.fetch_add(static_cast<int>(hi - lo));
                     },
                     8);
    EXPECT_EQ(count.load(), 1000);
  }
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // caller-only execution
  std::atomic<int> count{0};
  pool.ParallelFor(0, 100, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // Nesting policy (DESIGN §9): a ParallelFor issued from inside another
  // ParallelFor block executes its full range inline on the calling
  // thread, so batch-parallel conv shards can call Gemm (itself a
  // ParallelFor user) without deadlocking or oversubscribing.
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  std::atomic<int> outer_items{0};
  std::atomic<int> outer_blocks{0};
  std::atomic<long long> nested_sum{0};
  pool.ParallelFor(
      0, 6,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_TRUE(ThreadPool::InParallelRegion());
        int inner_calls = 0;
        long long local = 0;
        pool.ParallelFor(
            0, 500,
            [&](std::size_t b, std::size_t e) {
              ++inner_calls;
              for (std::size_t i = b; i < e; ++i) {
                local += static_cast<long long>(i);
              }
            },
            /*grain=*/1);
        EXPECT_EQ(inner_calls, 1);  // one inline block over [0, 500)
        nested_sum.fetch_add(local);
        outer_blocks.fetch_add(1);
        outer_items.fetch_add(static_cast<int>(hi - lo));
      },
      /*grain=*/1);
  EXPECT_EQ(outer_items.load(), 6);
  EXPECT_EQ(nested_sum.load(), outer_blocks.load() * (499ll * 500ll / 2));
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPool, NestedAcrossDistinctPoolsRunsInline) {
  // The depth marker is per-thread, not per-pool: work issued to a second
  // pool from inside a first pool's block still runs inline.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> inner_calls{0};
  outer.ParallelFor(
      0, 4,
      [&](std::size_t, std::size_t) {
        inner.ParallelFor(
            0, 100, [&](std::size_t, std::size_t) { inner_calls.fetch_add(1); },
            /*grain=*/1);
      },
      /*grain=*/1);
  // Each outer block triggers exactly one inline inner call, and the
  // number of outer blocks equals min(workers+1, 4) under grain 1 — just
  // assert inline behaviour per call.
  EXPECT_GE(inner_calls.load(), 1);
  EXPECT_LE(inner_calls.load(), 4);
}

// ------------------------------------------------------------- Check ----

TEST(Check, ThrowsWithContext) {
  try {
    EXACLIM_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(EXACLIM_CHECK(2 + 2 == 4, "unused"));
}

}  // namespace
}  // namespace exaclim
