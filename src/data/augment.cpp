#include "data/augment.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace exaclim {

void RollLongitude(Batch& batch, std::int64_t shift, std::int64_t height,
                   std::int64_t width) {
  const TensorShape& s = batch.fields.shape();
  EXACLIM_CHECK(s.rank() == 4 && s.h() == height && s.w() == width,
                "batch shape mismatch");
  shift = ((shift % width) + width) % width;
  if (shift == 0) return;
  // Rotating each row right by `shift` moves pixel x to (x + shift) %
  // width, in place.
  const auto roll_rows = [&](auto* row, std::int64_t rows) {
    for (std::int64_t r = 0; r < rows; ++r, row += width) {
      std::rotate(row, row + width - shift, row + width);
    }
  };
  roll_rows(batch.fields.Raw(), s.n() * s.c() * height);
  roll_rows(batch.labels.data(), s.n() * height);
}

void MirrorLatitude(Batch& batch, std::span<const std::int64_t> v_channels,
                    std::int64_t height, std::int64_t width) {
  const TensorShape& s = batch.fields.shape();
  EXACLIM_CHECK(s.rank() == 4 && s.h() == height && s.w() == width,
                "batch shape mismatch");
  const std::int64_t planes = s.n() * s.c();
  for (std::int64_t p = 0; p < planes; ++p) {
    float* plane = batch.fields.Raw() + p * height * width;
    for (std::int64_t y = 0; y < height / 2; ++y) {
      std::swap_ranges(plane + y * width, plane + (y + 1) * width,
                       plane + (height - 1 - y) * width);
    }
  }
  // Meridional winds change sign under a north-south flip.
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (const std::int64_t c : v_channels) {
      EXACLIM_CHECK(c >= 0 && c < s.c(), "bad meridional channel " << c);
      float* plane =
          batch.fields.Raw() + (n * s.c() + c) * height * width;
      for (std::int64_t i = 0; i < height * width; ++i) plane[i] = -plane[i];
    }
  }
  for (std::int64_t n = 0; n < s.n(); ++n) {
    std::uint8_t* sample = batch.labels.data() + n * height * width;
    for (std::int64_t y = 0; y < height / 2; ++y) {
      std::swap_ranges(sample + y * width, sample + (y + 1) * width,
                       sample + (height - 1 - y) * width);
    }
  }
}

void AugmentBatch(Batch& batch, const AugmentOptions& opts, Rng& rng,
                  std::int64_t height, std::int64_t width) {
  if (opts.roll_longitude) {
    RollLongitude(batch, rng.Int(0, width - 1), height, width);
  }
  if (opts.mirror_latitude && rng.Bernoulli(0.5)) {
    MirrorLatitude(batch, opts.meridional_channels, height, width);
  }
  if (opts.noise_stddev > 0.0f) {
    for (std::int64_t i = 0; i < batch.fields.NumElements(); ++i) {
      batch.fields[static_cast<std::size_t>(i)] +=
          rng.Normal(0.0f, opts.noise_stddev);
    }
  }
}

}  // namespace exaclim
