// Tests for the pooled tensor-memory arena (DESIGN §12): bucket policy,
// pointer-registry ownership, cross-thread block recycling, the Tensor
// storage redesign on top of PoolBuffer handles, pool-vs-heap
// bit-exactness of a full training step and the zero-allocation
// steady-state contract. The binary is `stress`-labelled so the
// PoolStress cases also run under TSan, where the thread caches and the
// central free-lists must come up clean.

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_tracker.hpp"
#include "common/pool.hpp"
#include "common/workspace.hpp"
#include "data/dataset.hpp"
#include "nn/loss.hpp"
#include "tensor/tensor.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

// Each test restores the default-enabled arena on exit so test order
// cannot leak the escape-hatch state.
class PoolTest : public ::testing::Test {
 protected:
  void TearDown() override { SetPoolEnabled(true); }
};

// ------------------------------------------------------ bucket policy --

TEST_F(PoolTest, BucketCapacitiesDoubleFromTheMinimum) {
  ASSERT_GE(PoolBucketCount(), 1);
  for (std::int32_t b = 0; b < PoolBucketCount(); ++b) {
    EXPECT_EQ(PoolBucketElems(b), kMinBucketElems << b);
  }
}

TEST_F(PoolTest, BucketIndexRoundsUpToTheSmallestFit) {
  EXPECT_EQ(PoolBucketIndex(0), 0);
  EXPECT_EQ(PoolBucketIndex(1), 0);
  EXPECT_EQ(PoolBucketIndex(kMinBucketElems), 0);
  EXPECT_EQ(PoolBucketIndex(kMinBucketElems + 1), 1);
  EXPECT_EQ(PoolBucketIndex(2 * kMinBucketElems), 1);
  EXPECT_EQ(PoolBucketIndex(2 * kMinBucketElems + 1), 2);
  // Every bucket's capacity maps back to that bucket; capacity + 1
  // spills into the next one.
  for (std::int32_t b = 0; b + 1 < PoolBucketCount(); ++b) {
    EXPECT_EQ(PoolBucketIndex(PoolBucketElems(b)), b);
    EXPECT_EQ(PoolBucketIndex(PoolBucketElems(b) + 1), b + 1);
  }
}

TEST_F(PoolTest, OverBucketRequestsFallBackToExactHeap) {
  const std::size_t over = PoolBucketElems(PoolBucketCount() - 1) + 1;
  EXPECT_EQ(PoolBucketIndex(over), kPoolBucketHeap);
  PoolBuffer buf = AcquirePoolBuffer(over);
  EXPECT_EQ(buf.bucket(), kPoolBucketHeap);
  EXPECT_EQ(buf.capacity(), over);  // exact-size, not rounded
  EXPECT_FALSE(PoolOwnsPointer(buf.data()));
}

TEST_F(PoolTest, ZeroElementAcquireYieldsNullHandle) {
  PoolBuffer buf = AcquirePoolBuffer(0);
  EXPECT_TRUE(buf.null());
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.capacity(), 0u);
}

TEST_F(PoolTest, DisabledPoolServesExactHeapBlocks) {
  SetPoolEnabled(false);
  PoolBuffer buf = AcquirePoolBuffer(100);
  EXPECT_EQ(buf.bucket(), kPoolBucketHeap);
  EXPECT_EQ(buf.capacity(), 100u);
  EXPECT_FALSE(PoolOwnsPointer(buf.data()));
}

// ---------------------------------------------------- registry + stats --

TEST_F(PoolTest, RegistryOwnsPooledPayloadsOnly) {
  PoolBuffer buf = AcquirePoolBuffer(128);
  ASSERT_FALSE(buf.null());
  EXPECT_TRUE(PoolOwnsPointer(buf.data()));
  float stack_float = 0.0f;
  EXPECT_FALSE(PoolOwnsPointer(&stack_float));
  EXPECT_FALSE(PoolOwnsPointer(nullptr));
  // Ownership persists after release: the block goes back on a
  // free-list, it is not returned to the system allocator.
  const float* payload = buf.data();
  buf.Release();
  EXPECT_TRUE(PoolOwnsPointer(payload));
}

TEST_F(PoolTest, StatsTrackLiveBytesHitsAndOutstandingBuffers) {
  ResetPoolCounters();
  const PoolStats base = GetPoolStats();
  {
    PoolBuffer a = AcquirePoolBuffer(kMinBucketElems);
    const PoolStats live = GetPoolStats();
    EXPECT_EQ(live.outstanding_buffers, base.outstanding_buffers + 1);
    EXPECT_EQ(live.live_bytes,
              base.live_bytes +
                  std::int64_t(kMinBucketElems * sizeof(float)));
    EXPECT_GE(live.peak_live_bytes, live.live_bytes);
  }
  const PoolStats after = GetPoolStats();
  EXPECT_EQ(after.outstanding_buffers, base.outstanding_buffers);
  EXPECT_EQ(after.live_bytes, base.live_bytes);
  // Acquiring the same size again must be a free-list hit.
  const std::int64_t hits_before = GetPoolStats().hit_count;
  PoolBuffer b = AcquirePoolBuffer(kMinBucketElems);
  EXPECT_EQ(GetPoolStats().hit_count, hits_before + 1);
}

TEST_F(PoolTest, MoveTransfersOwnershipWithoutReleasing) {
  PoolBuffer a = AcquirePoolBuffer(64);
  const float* payload = a.data();
  const std::int64_t outstanding = GetPoolStats().outstanding_buffers;
  PoolBuffer b = std::move(a);
  EXPECT_TRUE(a.null());
  EXPECT_EQ(b.data(), payload);
  EXPECT_EQ(GetPoolStats().outstanding_buffers, outstanding);
}

// ------------------------------------------------- cross-thread return --

TEST_F(PoolTest, BlockReleasedOnAnotherThreadIsRecycled) {
  PoolBuffer buf = AcquirePoolBuffer(512);
  const float* payload = buf.data();
  ASSERT_TRUE(PoolOwnsPointer(payload));
  std::thread other([&] {
    buf.Release();
    // Push the block out of the releasing thread's cache so the
    // acquiring thread below can observe it on the central free-list.
    FlushThreadPoolCache();
  });
  other.join();
  EXPECT_TRUE(buf.null());
  // The same size class must now hit the recycled block (this thread's
  // cache is empty for that bucket after a flush).
  FlushThreadPoolCache();
  const std::int64_t hits_before = GetPoolStats().hit_count;
  PoolBuffer again = AcquirePoolBuffer(512);
  EXPECT_EQ(GetPoolStats().hit_count, hits_before + 1);
  EXPECT_TRUE(PoolOwnsPointer(again.data()));
}

// ------------------------------------------- Tensor storage on the pool --

TEST_F(PoolTest, TensorStorageComesFromTheArena) {
  Tensor t(TensorShape{{4, 32}});
  EXPECT_TRUE(PoolOwnsPointer(t.Raw()));
  // Construction zero-fills regardless of what the recycled block held.
  for (std::int64_t i = 0; i < t.NumElements(); ++i) {
    EXPECT_EQ(t.Raw()[i], 0.0f);
  }
}

TEST_F(PoolTest, FromVectorSpanOverloadCopiesIntoPooledStorage) {
  const std::vector<float> src = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  Tensor t = Tensor::FromVector(TensorShape{{2, 3}},
                                std::span<const float>(src));
  ASSERT_EQ(t.NumElements(), 6);
  EXPECT_TRUE(PoolOwnsPointer(t.Raw()));
  EXPECT_NE(t.Raw(), src.data());  // a copy, never a view
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(t.Raw()[i], src[std::size_t(i)]);
  }
}

TEST_F(PoolTest, ReshapedOwnsItsBufferNoAliasing) {
  Tensor src = Tensor::FromVector(TensorShape{{2, 3}},
                                  {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  Tensor flat = src.Reshaped(TensorShape{{6}});
  ASSERT_NE(flat.Raw(), src.Raw());
  flat.Raw()[0] = -100.0f;  // write through the reshape...
  EXPECT_EQ(src.Raw()[0], 1.0f);  // ...source unchanged: no shared buffer
}

// ----------------------------------------------------- scratch streams --

TEST_F(PoolTest, AcquireScratchZeroElemsReturnsValidPointer) {
  // Regression: the zero-size edge used to return nullptr; callers that
  // pass an empty extent still expect a dereferenceable sentinel.
  float* p = AcquireScratch(ScratchSlot::kLossProbs, 0);
  ASSERT_NE(p, nullptr);
  p[0] = 42.0f;  // the sentinel block is at least one element big
  EXPECT_GE(ScratchCapacity(ScratchSlot::kLossProbs), 1u);
}

TEST_F(PoolTest, ScratchSlotsDrawFromTheArena) {
  float* p = AcquireScratch(ScratchSlot::kStagingDecode, 256);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(PoolOwnsPointer(p));
  EXPECT_GE(ScratchCapacity(ScratchSlot::kStagingDecode), 256u);
  // Growing reacquires; shrinking reuses the larger block in place.
  float* big = AcquireScratch(ScratchSlot::kStagingDecode, 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(AcquireScratch(ScratchSlot::kStagingDecode, 8), big);
}

TEST_F(PoolTest, ScratchOfAnExitedThreadReturnsToThePool) {
  // A thread whose first pool use is AcquireScratch (the gradient
  // exchange thread) builds its scratch slots before its free-list
  // cache, so at thread exit the slots release after the cache is gone.
  // Those blocks must still reach the central lists: a run of such
  // threads reuses one block instead of stranding one per thread.
  const auto scratch_thread = [] {
    std::thread([] {
      AcquireScratch(ScratchSlot::kExchangeFusion, (1u << 18) + 1);
    }).join();
  };
  scratch_thread();
  const std::int64_t blocks = GetPoolStats().block_count;
  for (int i = 0; i < 12; ++i) scratch_thread();
  EXPECT_EQ(GetPoolStats().block_count, blocks);
}

// --------------------------------------- training-step level contracts --

TrainerOptions SmallTrainerOptions() {
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.local_batch = 2;
  return o;
}

ClimateDataset SmallDataset() {
  ClimateDataset::Options d;
  d.num_samples = 12;
  d.generator.height = 48;
  d.generator.width = 48;
  d.channels = {kTMQ, kU850, kV850, kPSL};
  return ClimateDataset(d);
}

// The pooled arena must be invisible to the math: the same seed and
// batches produce bit-identical losses and parameters with the pool on
// and off (buffers are zero-filled on construction either way).
TEST_F(PoolTest, PooledAndHeapTrainingStepsAreBitIdentical) {
  const ClimateDataset dataset = SmallDataset();
  const auto freq = dataset.MeasureFrequencies(8);
  const TrainerOptions opts = SmallTrainerOptions();

  std::vector<Batch> batches;
  for (std::int64_t s = 0; s < 3; ++s) {
    const std::int64_t idx[] = {s, s + 1};
    batches.push_back(dataset.MakeBatch(DatasetSplit::kTrain, idx));
  }

  const auto run = [&](bool pooled) {
    SetPoolEnabled(pooled);
    RankTrainer trainer(
        opts, MakeClassWeights(freq, WeightingScheme::kInverseSqrt), 0);
    std::vector<double> losses;
    for (const Batch& batch : batches) {
      losses.push_back(trainer.Step(batch).loss);
    }
    std::vector<float> params;
    for (const Param* p : trainer.params()) {
      const float* v = p->value.Raw();
      params.insert(params.end(), v, v + p->value.NumElements());
    }
    SetPoolEnabled(true);
    return std::make_pair(losses, params);
  };

  const auto [pooled_losses, pooled_params] = run(/*pooled=*/true);
  const auto [heap_losses, heap_params] = run(/*pooled=*/false);

  ASSERT_EQ(pooled_losses.size(), heap_losses.size());
  for (std::size_t i = 0; i < pooled_losses.size(); ++i) {
    EXPECT_EQ(pooled_losses[i], heap_losses[i]) << "step " << i;
  }
  ASSERT_EQ(pooled_params.size(), heap_params.size());
  ASSERT_EQ(std::memcmp(pooled_params.data(), heap_params.data(),
                        pooled_params.size() * sizeof(float)),
            0);
}

// The tentpole acceptance gate in test form: after warmup, a training
// step of either model performs zero heap allocations — every tensor,
// pack panel, conv workspace and dispatch task comes from recycled
// pooled storage.
TEST_F(PoolTest, WarmedTrainingStepPerformsZeroHeapAllocations) {
  const ClimateDataset dataset = SmallDataset();
  const auto freq = dataset.MeasureFrequencies(8);
  TrainerOptions deeplab = SmallTrainerOptions();
  deeplab.arch = TrainerOptions::Arch::kDeepLab;
  deeplab.deeplab = DeepLabV3Plus::Config::Downscaled(4);

  // Batches are made outside the measured region (decode staging is
  // I/O-side, not step-side) and reused so iteration s is truly warm.
  std::vector<Batch> batches;
  for (std::int64_t s = 0; s < 3; ++s) {
    const std::int64_t idx[] = {s, s + 1};
    batches.push_back(dataset.MakeBatch(DatasetSplit::kTrain, idx));
  }

  for (const TrainerOptions& opts : {SmallTrainerOptions(), deeplab}) {
    SCOPED_TRACE(opts.arch == TrainerOptions::Arch::kTiramisu ? "tiramisu"
                                                               : "deeplab");
    RankTrainer trainer(
        opts, MakeClassWeights(freq, WeightingScheme::kInverseSqrt), 0);
    for (const Batch& batch : batches) (void)trainer.Step(batch);  // warmup

    // The counts are read inside the guarded region but checked after it
    // closes: a failing EXPECT formats its message on the heap, which
    // would otherwise count as further violations.
    std::int64_t violations = 0, count = 0, bytes = 0;
    SetAllocTracking(true);
    {
      ScopedAllocCheck guard(EXACLIM_ALLOC_SITE("test.pool_steady_state"),
                             ScopedAllocCheck::Mode::kAssertNoAlloc,
                             ScopedAllocCheck::Scope::kThread);
      ScopedAllocCheck census(EXACLIM_ALLOC_SITE("test.pool_steady_census"),
                              ScopedAllocCheck::Mode::kCensus,
                              ScopedAllocCheck::Scope::kGlobal);
      for (const Batch& batch : batches) (void)trainer.Step(batch);
      violations = guard.violations();
      count = census.count();
      bytes = census.bytes();
    }
    SetAllocTracking(false);
    EXPECT_EQ(violations, 0);
    EXPECT_EQ(count, 0) << bytes << " bytes allocated";
  }
}

// Geometry churn through every conv-family pass: the same layers see
// alternating input sizes, forward and backward, on a plain, a stride-2
// and a transposed conv. After the warm cycles the workspace buffers, the
// forward row tables, the data-gradient phase tables and scratch, and
// the per-phase weight panels are at their high-water marks, so a churn
// cycle allocates nothing on any thread: every pool worker sized its
// GEMM pack slots when the pool started, whichever shards it ran since.
TEST_F(PoolTest, ConvGeometryChurnAllocatesNothingWhenWarm) {
  Rng rng(53);
  Conv2d conv("c", {.in_c = 3, .out_c = 4, .kernel = 3}, rng);
  Conv2d strided("s",
                 {.in_c = 3, .out_c = 4, .kernel = 3, .stride = 2, .pad = 1},
                 rng);
  ConvTranspose2d deconv("d",
                         {.in_c = 3, .out_c = 2, .kernel = 3, .stride = 2,
                          .pad = 1, .out_pad = 1},
                         rng);
  std::vector<Tensor> inputs;
  for (const auto& [h, w, batch] :
       {std::tuple{10, 12, 2}, {14, 8, 3}, {10, 12, 2}}) {
    Rng xrng(static_cast<std::uint64_t>(h * 100 + w));
    inputs.push_back(Tensor::Uniform(TensorShape::NCHW(batch, 3, h, w),
                                     xrng, -1.0f, 1.0f));
  }
  const auto churn = [&] {
    for (const Tensor& x : inputs) {
      for (Layer* layer : {static_cast<Layer*>(&conv),
                           static_cast<Layer*>(&strided),
                           static_cast<Layer*>(&deconv)}) {
        const Tensor y = layer->Forward(x, true);
        (void)layer->Backward(y);  // y doubles as a same-shape gradient
      }
    }
  };
  // Two warm cycles: the first sizes every buffer family, the second
  // proves the sizes reached a fixed point before the measured region.
  for (int cycle = 0; cycle < 2; ++cycle) churn();

  SetAllocTracking(true);
  {
    ScopedAllocCheck census(EXACLIM_ALLOC_SITE("test.conv_geom_churn"),
                            ScopedAllocCheck::Mode::kCensus,
                            ScopedAllocCheck::Scope::kGlobal);
    for (int cycle = 0; cycle < 2; ++cycle) churn();
    EXPECT_EQ(census.count(), 0) << census.bytes() << " bytes allocated";
  }
  SetAllocTracking(false);
}

// ------------------------------------------------------------- stress --

// Concurrent acquire/write/release across threads and size classes;
// runs under TSan via the `stress` ctest label. Exercises thread-cache
// overflow into the central pool and cross-thread block migration.
TEST(PoolStress, ConcurrentAcquireReleaseAcrossBuckets) {
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  // Thread-local scratch slots of the main thread and the global worker
  // pool legitimately stay live across tests; assert the stress run
  // itself is balanced, not that the whole process is empty.
  const PoolStats before = GetPoolStats();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      std::vector<PoolBuffer> held;
      for (int i = 0; i < kIters; ++i) {
        const std::size_t elems =
            std::size_t(1) << ((t + i) % 10);  // 1 .. 512 floats
        PoolBuffer buf = AcquirePoolBuffer(elems);
        buf.data()[0] = float(t);
        buf.data()[buf.capacity() - 1] = float(i);
        if (i % 3 == 0) {
          held.push_back(std::move(buf));  // stagger lifetimes
          if (held.size() > 16) held.erase(held.begin());
        }
      }
      held.clear();
      FlushThreadPoolCache();
    });
  }
  for (auto& th : threads) th.join();
  const PoolStats stats = GetPoolStats();
  EXPECT_EQ(stats.outstanding_buffers, before.outstanding_buffers);
  EXPECT_EQ(stats.live_bytes, before.live_bytes);
}

TEST(PoolStress, ConcurrentTensorChurnStaysConsistent) {
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 100; ++i) {
        Tensor a(TensorShape{{4, 8 + (t + i) % 8}});
        Tensor b = a;           // copy: fresh pooled block + memcpy
        b.Raw()[0] = float(i);
        Tensor c = std::move(b);  // move: handle transfer, no pool traffic
        EXPECT_EQ(c.Raw()[0], float(i));
        EXPECT_EQ(a.Raw()[0], 0.0f);
      }
      FlushThreadPoolCache();
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace exaclim
