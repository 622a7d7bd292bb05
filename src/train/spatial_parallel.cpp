#include "train/spatial_parallel.hpp"

#include <cstring>

#include "common/error.hpp"

namespace exaclim {
namespace {

// Copies `rows` full-width rows starting at `y0` of every (n, c) plane
// into a contiguous buffer (and back).
std::vector<float> GatherRows(const Tensor& t, std::int64_t y0,
                              std::int64_t rows) {
  const TensorShape& s = t.shape();
  std::vector<float> out(static_cast<std::size_t>(s.n() * s.c() * rows *
                                                  s.w()));
  std::size_t off = 0;
  for (std::int64_t nc = 0; nc < s.n() * s.c(); ++nc) {
    const float* plane = t.Raw() + nc * s.h() * s.w();
    std::memcpy(out.data() + off, plane + y0 * s.w(),
                sizeof(float) * static_cast<std::size_t>(rows * s.w()));
    off += static_cast<std::size_t>(rows * s.w());
  }
  return out;
}

}  // namespace

Tensor ExchangeHaloAndPad(Communicator& comm, const Tensor& slab,
                          std::int64_t halo, int tag) {
  const TensorShape& s = slab.shape();
  EXACLIM_CHECK(s.rank() == 4 && s.h() >= halo,
                "slab must be rank-4 with h >= halo");
  const int rank = comm.rank();
  const int p = comm.size();

  // Send boundary rows to neighbours (top rows go up, bottom rows down).
  if (rank > 0) {
    comm.SendT(rank - 1, tag,
               std::span<const float>(GatherRows(slab, 0, halo)));
  }
  if (rank + 1 < p) {
    comm.SendT(rank + 1, tag + 1,
               std::span<const float>(
                   GatherRows(slab, s.h() - halo, halo)));
  }

  Tensor padded(TensorShape::NCHW(s.n(), s.c(), s.h() + 2 * halo,
                                  s.w() + 2 * halo));
  const std::int64_t ph = s.h() + 2 * halo, pw = s.w() + 2 * halo;
  // Interior copy (offset by halo in both axes; columns zero-padded).
  for (std::int64_t nc = 0; nc < s.n() * s.c(); ++nc) {
    const float* src = slab.Raw() + nc * s.h() * s.w();
    float* dst = padded.Raw() + nc * ph * pw;
    for (std::int64_t y = 0; y < s.h(); ++y) {
      std::memcpy(dst + (y + halo) * pw + halo, src + y * s.w(),
                  sizeof(float) * static_cast<std::size_t>(s.w()));
    }
  }

  auto scatter_rows = [&](const std::vector<float>& rows, std::int64_t y0) {
    std::size_t off = 0;
    for (std::int64_t nc = 0; nc < s.n() * s.c(); ++nc) {
      float* dst = padded.Raw() + nc * ph * pw;
      for (std::int64_t y = 0; y < halo; ++y) {
        std::memcpy(dst + (y0 + y) * pw + halo,
                    rows.data() + off + y * s.w(),
                    sizeof(float) * static_cast<std::size_t>(s.w()));
      }
      off += static_cast<std::size_t>(halo * s.w());
    }
  };

  // Receive the neighbour halos (global top/bottom stay zero = padding).
  const std::size_t halo_elems =
      static_cast<std::size_t>(s.n() * s.c() * halo * s.w());
  if (rank > 0) {
    std::vector<float> above(halo_elems);
    comm.RecvT(rank - 1, tag + 1, std::span<float>(above));  // fault: blocking-ok
    scatter_rows(above, 0);
  }
  if (rank + 1 < p) {
    std::vector<float> below(halo_elems);
    comm.RecvT(rank + 1, tag, std::span<float>(below));  // fault: blocking-ok
    scatter_rows(below, s.h() + halo);
  }
  return padded;
}

Tensor ExchangeHaloAndPadBackward(Communicator& comm,
                                  const Tensor& grad_padded,
                                  std::int64_t halo, int tag) {
  const TensorShape& ps = grad_padded.shape();
  const std::int64_t h = ps.h() - 2 * halo, w = ps.w() - 2 * halo;
  EXACLIM_CHECK(h >= halo && w >= 1, "bad padded gradient shape");
  const int rank = comm.rank();
  const int p = comm.size();
  const std::int64_t pw = ps.w();

  // Halo-row gradients belong to the neighbours' slabs: ship them.
  auto gather_padded_rows = [&](std::int64_t y0) {
    std::vector<float> out(
        static_cast<std::size_t>(ps.n() * ps.c() * halo * w));
    std::size_t off = 0;
    for (std::int64_t nc = 0; nc < ps.n() * ps.c(); ++nc) {
      const float* src = grad_padded.Raw() + nc * ps.h() * pw;
      for (std::int64_t y = 0; y < halo; ++y) {
        std::memcpy(out.data() + off + y * w, src + (y0 + y) * pw + halo,
                    sizeof(float) * static_cast<std::size_t>(w));
      }
      off += static_cast<std::size_t>(halo * w);
    }
    return out;
  };
  if (rank > 0) {
    comm.SendT(rank - 1, tag, std::span<const float>(gather_padded_rows(0)));
  }
  if (rank + 1 < p) {
    comm.SendT(rank + 1, tag + 1,
               std::span<const float>(gather_padded_rows(h + halo)));
  }

  // Local slab gradient = interior of the padded gradient...
  Tensor grad_slab(TensorShape::NCHW(ps.n(), ps.c(), h, w));
  for (std::int64_t nc = 0; nc < ps.n() * ps.c(); ++nc) {
    const float* src = grad_padded.Raw() + nc * ps.h() * pw;
    float* dst = grad_slab.Raw() + nc * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      std::memcpy(dst + y * w, src + (y + halo) * pw + halo,
                  sizeof(float) * static_cast<std::size_t>(w));
    }
  }

  // ...plus the contributions our rows made to the neighbours' halos.
  const std::size_t halo_elems =
      static_cast<std::size_t>(ps.n() * ps.c() * halo * w);
  auto add_rows = [&](const std::vector<float>& rows, std::int64_t y0) {
    std::size_t off = 0;
    for (std::int64_t nc = 0; nc < ps.n() * ps.c(); ++nc) {
      float* dst = grad_slab.Raw() + nc * h * w;
      for (std::int64_t y = 0; y < halo; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          dst[(y0 + y) * w + x] += rows[off + y * w + x];
        }
      }
      off += static_cast<std::size_t>(halo * w);
    }
  };
  if (rank > 0) {
    // The rank above holds the gradient for OUR top rows (its bottom
    // halo).
    std::vector<float> from_above(halo_elems);
    comm.RecvT(rank - 1, tag + 1,  // fault: blocking-ok
               std::span<float>(from_above));
    add_rows(from_above, 0);
  }
  if (rank + 1 < p) {
    std::vector<float> from_below(halo_elems);
    comm.RecvT(rank + 1, tag,  // fault: blocking-ok
               std::span<float>(from_below));
    add_rows(from_below, h - halo);
  }
  return grad_slab;
}

SpatialConvStack::SpatialConvStack(const Options& opts)
    : opts_(opts), halo_(opts.kernel / 2) {
  EXACLIM_CHECK(opts_.kernel % 2 == 1, "odd kernels only");
  Rng rng(opts_.seed);
  std::int64_t c = opts_.in_c;
  for (std::size_t i = 0; i < opts_.widths.size(); ++i) {
    convs_.push_back(std::make_unique<Conv2d>(
        "spatial.conv" + std::to_string(i),
        // pad 0: the halo exchange provides the padding.
        Conv2d::Options{.in_c = c, .out_c = opts_.widths[i],
                        .kernel = opts_.kernel, .pad = 0, .bias = false},
        rng));
    c = opts_.widths[i];
  }
}

Tensor SpatialConvStack::Forward(Communicator& comm, const Tensor& slab) {
  Tensor x = slab;
  int tag = 8600;
  for (auto& conv : convs_) {
    const Tensor padded = ExchangeHaloAndPad(comm, x, halo_, tag);
    x = conv->Forward(padded, /*train=*/true);
    tag += 10;
  }
  return x;
}

Tensor SpatialConvStack::Backward(Communicator& comm,
                                  const Tensor& grad_out) {
  Tensor g = grad_out;
  int tag = 8600 + 10 * static_cast<int>(convs_.size());
  for (std::size_t i = convs_.size(); i-- > 0;) {
    tag -= 10;
    const Tensor grad_padded = convs_[i]->Backward(g);
    g = ExchangeHaloAndPadBackward(comm, grad_padded, halo_, tag + 5);
  }
  return g;
}

namespace {

// Zero-pads a full image by `halo` on every side (the single-device
// equivalent of the halo exchange at world size 1... but without comm).
Tensor ZeroPad(const Tensor& image, std::int64_t halo) {
  const TensorShape& s = image.shape();
  Tensor padded(TensorShape::NCHW(s.n(), s.c(), s.h() + 2 * halo,
                                  s.w() + 2 * halo));
  const std::int64_t pw = s.w() + 2 * halo;
  for (std::int64_t nc = 0; nc < s.n() * s.c(); ++nc) {
    const float* src = image.Raw() + nc * s.h() * s.w();
    float* dst = padded.Raw() + nc * (s.h() + 2 * halo) * pw;
    for (std::int64_t y = 0; y < s.h(); ++y) {
      std::memcpy(dst + (y + halo) * pw + halo, src + y * s.w(),
                  sizeof(float) * static_cast<std::size_t>(s.w()));
    }
  }
  return padded;
}

Tensor CropPad(const Tensor& padded, std::int64_t halo) {
  const TensorShape& s = padded.shape();
  const std::int64_t h = s.h() - 2 * halo, w = s.w() - 2 * halo;
  Tensor out(TensorShape::NCHW(s.n(), s.c(), h, w));
  for (std::int64_t nc = 0; nc < s.n() * s.c(); ++nc) {
    const float* src = padded.Raw() + nc * s.h() * s.w();
    float* dst = out.Raw() + nc * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      std::memcpy(dst + y * w, src + (y + halo) * s.w() + halo,
                  sizeof(float) * static_cast<std::size_t>(w));
    }
  }
  return out;
}

}  // namespace

Tensor SpatialConvStack::ForwardLocal(const Tensor& full_image) {
  Tensor x = full_image;
  for (auto& conv : convs_) {
    x = conv->Forward(ZeroPad(x, halo_), /*train=*/true);
  }
  return x;
}

Tensor SpatialConvStack::BackwardLocal(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = convs_.size(); i-- > 0;) {
    g = CropPad(convs_[i]->Backward(g), halo_);
  }
  return g;
}

std::vector<Param*> SpatialConvStack::Params() {
  std::vector<Param*> params;
  for (auto& conv : convs_) {
    for (Param* p : conv->Params()) params.push_back(p);
  }
  return params;
}

}  // namespace exaclim
