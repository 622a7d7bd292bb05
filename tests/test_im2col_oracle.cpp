// The relocated im2col lowering (tests/im2col_oracle.*): the oracle the
// implicit-GEMM conv passes are checked against must itself be right.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "im2col_oracle.hpp"

namespace exaclim {
namespace {

TEST(Im2Col, IdentityFor1x1) {
  ConvGeometry g{.in_c = 2, .in_h = 3, .in_w = 3, .k_h = 1, .k_w = 1,
                 .stride = 1, .pad = 0, .dilation = 1};
  std::vector<float> img(18);
  std::iota(img.begin(), img.end(), 0.0f);
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize()) *
                         g.OutPixels());
  Im2Col(g, img.data(), col.data());
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_EQ(col[i], img[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
  ConvGeometry g{.in_c = 1, .in_h = 2, .in_w = 2, .k_h = 3, .k_w = 3,
                 .stride = 1, .pad = 1, .dilation = 1};
  std::vector<float> img{1, 2, 3, 4};
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize()) *
                         g.OutPixels());
  Im2Col(g, img.data(), col.data());
  // Output pixel (0,0) with kernel offset (0,0) reads input (-1,-1) = 0.
  EXPECT_EQ(col[0], 0.0f);
  // Kernel offset (1,1) (row 4) reads input (0,0) for output (0,0).
  EXPECT_EQ(col[4 * 4 + 0], 1.0f);
  // Kernel offset (2,2) (row 8) reads input (1,1) for output (0,0).
  EXPECT_EQ(col[8 * 4 + 0], 4.0f);
}

TEST(Im2Col, DilationSamplesSparsely) {
  ConvGeometry g{.in_c = 1, .in_h = 5, .in_w = 5, .k_h = 3, .k_w = 3,
                 .stride = 1, .pad = 2, .dilation = 2};
  EXPECT_EQ(g.OutH(), 5);
  std::vector<float> img(25);
  std::iota(img.begin(), img.end(), 0.0f);
  std::vector<float> col(static_cast<std::size_t>(g.PatchSize()) *
                         g.OutPixels());
  Im2Col(g, img.data(), col.data());
  // Center output pixel (2,2), kernel offset (0,0) reads (2-2, 2-2) = (0,0).
  EXPECT_EQ(col[0 * 25 + 12], 0.0f);
  // Kernel offset (2,2) reads (2+2, 2+2) = (4,4) = 24.
  EXPECT_EQ(col[8 * 25 + 12], 24.0f);
}

TEST(Im2Col, StridedGeometry) {
  ConvGeometry g{.in_c = 1, .in_h = 7, .in_w = 7, .k_h = 3, .k_w = 3,
                 .stride = 2, .pad = 1, .dilation = 1};
  EXPECT_EQ(g.OutH(), 4);
  EXPECT_EQ(g.OutW(), 4);
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <Im2Col(x), c> == <x, Col2Im(c)> for random x, c — the defining
  // property that makes conv backward correct.
  ConvGeometry g{.in_c = 3, .in_h = 6, .in_w = 5, .k_h = 3, .k_w = 3,
                 .stride = 2, .pad = 1, .dilation = 1};
  Rng rng(4);
  std::vector<float> x(static_cast<std::size_t>(g.in_c * g.in_h * g.in_w));
  std::vector<float> c(static_cast<std::size_t>(g.PatchSize()) *
                       g.OutPixels());
  for (auto& v : x) v = rng.Uniform(-1, 1);
  for (auto& v : c) v = rng.Uniform(-1, 1);

  std::vector<float> col(c.size());
  Im2Col(g, x.data(), col.data());
  double lhs = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    lhs += static_cast<double>(col[i]) * c[i];
  }
  std::vector<float> img(x.size(), 0.0f);
  Col2Im(g, c.data(), img.data());
  double rhs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * img[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// The table-driven gather is the same lowering as the direct loop.
TEST(Im2Col, FromRowsMatchesDirectLoop) {
  for (const ConvGeometry g :
       {ConvGeometry{.in_c = 2, .in_h = 7, .in_w = 6, .k_h = 3, .k_w = 3,
                     .stride = 1, .pad = 1, .dilation = 1},
        ConvGeometry{.in_c = 3, .in_h = 9, .in_w = 8, .k_h = 3, .k_w = 3,
                     .stride = 2, .pad = 0, .dilation = 1},
        ConvGeometry{.in_c = 1, .in_h = 8, .in_w = 8, .k_h = 3, .k_w = 3,
                     .stride = 1, .pad = 4, .dilation = 4}}) {
    Rng rng(5);
    std::vector<float> x(static_cast<std::size_t>(g.in_c * g.in_h * g.in_w));
    for (auto& v : x) v = rng.Uniform(-1, 1);
    std::vector<float> want(static_cast<std::size_t>(g.PatchSize()) *
                            g.OutPixels());
    std::vector<float> got(want.size(), -1.0f);
    std::vector<GemmImplicitRow> rows(static_cast<std::size_t>(g.PatchSize()));
    BuildImplicitRows(g, rows.data());
    Im2Col(g, x.data(), want.data());
    Im2ColFromRows(g, rows.data(), x.data(), got.data());
    EXPECT_EQ(got, want) << "stride " << g.stride << " dilation "
                         << g.dilation;
  }
}

}  // namespace
}  // namespace exaclim
