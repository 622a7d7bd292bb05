// Tests for the Sec VIII future-work feature: spatial model parallelism
// via H-dimension domain decomposition with halo exchange.

#include <gtest/gtest.h>

#include <cstring>

#include "comm/collectives.hpp"
#include "train/spatial_parallel.hpp"

namespace exaclim {
namespace {

Tensor FullImage(std::int64_t n, std::int64_t c, std::int64_t h,
                 std::int64_t w, std::uint64_t seed = 3) {
  Rng rng(seed);
  return Tensor::Uniform(TensorShape::NCHW(n, c, h, w), rng, -1.0f, 1.0f);
}

Tensor SlabOf(const Tensor& full, int rank, int ranks) {
  const TensorShape& s = full.shape();
  const std::int64_t local_h = s.h() / ranks;
  Tensor slab(TensorShape::NCHW(s.n(), s.c(), local_h, s.w()));
  for (std::int64_t nc = 0; nc < s.n() * s.c(); ++nc) {
    std::memcpy(slab.Raw() + nc * local_h * s.w(),
                full.Raw() + nc * s.h() * s.w() + rank * local_h * s.w(),
                sizeof(float) *
                    static_cast<std::size_t>(local_h * s.w()));
  }
  return slab;
}

TEST(ExchangeHalo, SingleRankEqualsZeroPadding) {
  SimWorld world(1);
  world.Run([](Communicator& comm) {
    const Tensor slab = FullImage(1, 2, 4, 3);
    const Tensor padded = ExchangeHaloAndPad(comm, slab, 1, 100);
    EXPECT_EQ(padded.shape(), TensorShape::NCHW(1, 2, 6, 5));
    // Borders are zero, interior matches.
    for (std::int64_t x = 0; x < 5; ++x) {
      EXPECT_EQ(padded.At(0, 0, 0, x), 0.0f);
      EXPECT_EQ(padded.At(0, 0, 5, x), 0.0f);
    }
    EXPECT_EQ(padded.At(0, 1, 1, 1), slab.At(0, 1, 0, 0));
    EXPECT_EQ(padded.At(0, 1, 4, 3), slab.At(0, 1, 3, 2));
  });
}

TEST(ExchangeHalo, NeighbourRowsArriveCorrectly) {
  const int ranks = 3;
  const Tensor full = FullImage(1, 1, 9, 4);
  SimWorld world(ranks);
  world.Run([&](Communicator& comm) {
    const Tensor slab = SlabOf(full, comm.rank(), ranks);
    const Tensor padded = ExchangeHaloAndPad(comm, slab, 1, 200);
    // Row 0 of the padded slab is the last row of the rank above (or
    // zeros at the global top).
    for (std::int64_t x = 0; x < 4; ++x) {
      const float expect_top =
          comm.rank() == 0 ? 0.0f
                           : full.At(0, 0, comm.rank() * 3 - 1, x);
      EXPECT_EQ(padded.At(0, 0, 0, x + 1), expect_top);
      const float expect_bot =
          comm.rank() == ranks - 1 ? 0.0f
                                   : full.At(0, 0, (comm.rank() + 1) * 3, x);
      EXPECT_EQ(padded.At(0, 0, 4, x + 1), expect_bot);
    }
  });
}

TEST(ExchangeHalo, BackwardIsAdjointOfForward) {
  // <Pad(x), g> == <x, PadBackward(g)> summed over all ranks — the
  // defining property that makes the distributed gradients exact.
  const int ranks = 3;
  const std::int64_t halo = 1;
  const Tensor full = FullImage(1, 2, 9, 5, 7);
  SimWorld world(ranks);
  std::vector<double> lhs(ranks), rhs(ranks);
  world.Run([&](Communicator& comm) {
    const Tensor slab = SlabOf(full, comm.rank(), ranks);
    const Tensor padded = ExchangeHaloAndPad(comm, slab, halo, 300);
    Rng grng(40 + 0);  // identical g-field construction on each rank...
    // Build a deterministic padded-gradient unique per rank position.
    Tensor g(padded.shape());
    for (std::int64_t i = 0; i < g.NumElements(); ++i) {
      g[static_cast<std::size_t>(i)] =
          0.01f * static_cast<float>((i * 31 + comm.rank() * 977) % 97) -
          0.4f;
    }
    lhs[static_cast<std::size_t>(comm.rank())] =
        static_cast<double>(padded.Dot(g));
    const Tensor back = ExchangeHaloAndPadBackward(comm, g, halo, 310);
    rhs[static_cast<std::size_t>(comm.rank())] =
        static_cast<double>(slab.Dot(back));
  });
  double lhs_total = 0, rhs_total = 0;
  for (int r = 0; r < ranks; ++r) {
    lhs_total += lhs[static_cast<std::size_t>(r)];
    rhs_total += rhs[static_cast<std::size_t>(r)];
  }
  EXPECT_NEAR(lhs_total, rhs_total, 1e-3);
}

class SpatialStackRanks : public ::testing::TestWithParam<int> {};

TEST_P(SpatialStackRanks, ForwardMatchesSingleDevice) {
  const int ranks = GetParam();
  const Tensor full = FullImage(2, 3, 12, 7, 11);
  SpatialConvStack::Options opts;
  opts.in_c = 3;
  opts.widths = {4, 2};
  opts.seed = 5;

  SpatialConvStack reference(opts);
  const Tensor expected = reference.ForwardLocal(full);

  SimWorld world(ranks);
  std::vector<Tensor> outputs(static_cast<std::size_t>(ranks));
  world.Run([&](Communicator& comm) {
    SpatialConvStack stack(opts);  // same seed -> replicated weights
    outputs[static_cast<std::size_t>(comm.rank())] =
        stack.Forward(comm, SlabOf(full, comm.rank(), ranks));
  });

  const std::int64_t local_h = 12 / ranks;
  for (int r = 0; r < ranks; ++r) {
    const Tensor& out = outputs[static_cast<std::size_t>(r)];
    ASSERT_EQ(out.shape(), TensorShape::NCHW(2, 2, local_h, 7));
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t c = 0; c < 2; ++c) {
        for (std::int64_t y = 0; y < local_h; ++y) {
          for (std::int64_t x = 0; x < 7; ++x) {
            EXPECT_NEAR(out.At(n, c, y, x),
                        expected.At(n, c, r * local_h + y, x), 1e-5f)
                << "rank " << r;
          }
        }
      }
    }
  }
}

TEST_P(SpatialStackRanks, BackwardGradientsMatchSingleDevice) {
  const int ranks = GetParam();
  const Tensor full = FullImage(1, 2, 12, 6, 13);
  SpatialConvStack::Options opts;
  opts.in_c = 2;
  opts.widths = {3};
  opts.seed = 9;

  // Reference gradients.
  SpatialConvStack reference(opts);
  const Tensor ref_out = reference.ForwardLocal(full);
  Tensor seed_grad(ref_out.shape());
  for (std::int64_t i = 0; i < seed_grad.NumElements(); ++i) {
    seed_grad[static_cast<std::size_t>(i)] =
        0.05f * static_cast<float>((i * 17) % 23) - 0.5f;
  }
  const Tensor ref_grad_in = reference.BackwardLocal(seed_grad);
  const Tensor ref_wgrad = reference.Params()[0]->grad;

  SimWorld world(ranks);
  std::vector<Tensor> grad_ins(static_cast<std::size_t>(ranks));
  std::vector<Tensor> summed_wgrad(static_cast<std::size_t>(ranks));
  const std::int64_t local_h = 12 / ranks;
  world.Run([&](Communicator& comm) {
    SpatialConvStack stack(opts);
    const Tensor out =
        stack.Forward(comm, SlabOf(full, comm.rank(), ranks));
    // This rank's share of the seed gradient.
    Tensor local_seed = SlabOf(seed_grad, comm.rank(), ranks);
    grad_ins[static_cast<std::size_t>(comm.rank())] =
        stack.Backward(comm, local_seed);
    // Weight gradients are partial: sum across ranks (model-parallel
    // reduction).
    Tensor wgrad = stack.Params()[0]->grad;
    GroupAllreduceRing(comm, RankGroup::World(comm), wgrad.Data(), 5000);
    summed_wgrad[static_cast<std::size_t>(comm.rank())] = wgrad;
    (void)out;
  });

  // Input gradients: each rank's slab matches the reference slab.
  for (int r = 0; r < ranks; ++r) {
    const Tensor& g = grad_ins[static_cast<std::size_t>(r)];
    for (std::int64_t c = 0; c < 2; ++c) {
      for (std::int64_t y = 0; y < local_h; ++y) {
        for (std::int64_t x = 0; x < 6; ++x) {
          EXPECT_NEAR(g.At(0, c, y, x),
                      ref_grad_in.At(0, c, r * local_h + y, x), 1e-5f)
              << "rank " << r;
        }
      }
    }
  }
  // Summed weight gradient equals the full-image weight gradient.
  for (std::int64_t i = 0; i < ref_wgrad.NumElements(); ++i) {
    EXPECT_NEAR(summed_wgrad[0][static_cast<std::size_t>(i)],
                ref_wgrad[static_cast<std::size_t>(i)], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Decompositions, SpatialStackRanks,
                         ::testing::Values(1, 2, 3, 4));

TEST(SpatialStack, FiveByFiveKernelUsesHaloTwo) {
  SpatialConvStack::Options opts;
  opts.in_c = 1;
  opts.widths = {2};
  opts.kernel = 5;
  SpatialConvStack stack(opts);
  EXPECT_EQ(stack.halo(), 2);

  const Tensor full = FullImage(1, 1, 12, 8, 21);
  SpatialConvStack reference(opts);
  const Tensor expected = reference.ForwardLocal(full);
  SimWorld world(2);
  std::vector<Tensor> outputs(2);
  world.Run([&](Communicator& comm) {
    SpatialConvStack replica(opts);
    outputs[static_cast<std::size_t>(comm.rank())] =
        replica.Forward(comm, SlabOf(full, comm.rank(), 2));
  });
  for (int r = 0; r < 2; ++r) {
    for (std::int64_t y = 0; y < 6; ++y) {
      for (std::int64_t x = 0; x < 8; ++x) {
        EXPECT_NEAR(outputs[static_cast<std::size_t>(r)].At(0, 0, y, x),
                    expected.At(0, 0, r * 6 + y, x), 1e-5f);
      }
    }
  }
}

}  // namespace
}  // namespace exaclim
