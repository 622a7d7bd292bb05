#include "data/climate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace exaclim {
namespace {

constexpr std::array<std::string_view, kNumClimateChannels> kChannelNames{
    "TMQ",  "U850",   "V850", "UBOT", "VBOT", "QREFHT", "PS",   "PSL",
    "T200", "T500",   "PRECT", "TS",  "TREFHT", "Z100", "Z200", "ZBOT"};

constexpr double kPi = 3.14159265358979323846;

/// Poisson sample via inversion (small means only).
int PoissonSample(Rng& rng, double mean) {
  const double l = std::exp(-mean);
  double p = 1.0;
  int k = 0;
  do {
    ++k;
    p *= rng.UniformDouble();
  } while (p > l);
  return k - 1;
}

/// The [C, H, W] fields an event is planted into. Signatures land on the
/// painted channels only, so a channel outside the mask stays zero.
class PlantTarget {
 public:
  PlantTarget(Tensor& fields, const ChannelMask& channels, std::int64_t h,
              std::int64_t w)
      : data_(fields.Raw()), channels_(channels), h_(h), w_(w) {}

  void Add(int c, std::int64_t y, std::int64_t x, double v) const {
    if (channels_[static_cast<std::size_t>(c)]) {
      data_[static_cast<std::size_t>((c * h_ + y) * w_ + x)] +=
          static_cast<float>(v);
    }
  }

 private:
  float* data_;
  const ChannelMask& channels_;
  std::int64_t h_, w_;
};

}  // namespace

std::string_view ChannelName(int channel) {
  EXACLIM_CHECK(channel >= 0 && channel < kNumClimateChannels,
                "bad channel index " << channel);
  return kChannelNames[static_cast<std::size_t>(channel)];
}

ClimateGenerator::ClimateGenerator(const ClimateGeneratorOptions& opts)
    : opts_(opts) {
  EXACLIM_CHECK(opts_.height >= 16 && opts_.width >= 16,
                "grid too small for event synthesis");
}

void ClimateGenerator::PaintBackground(Tensor& fields,
                                       const ChannelMask& channels,
                                       Rng& rng) const {
  const std::int64_t h = opts_.height, w = opts_.width;
  // Each channel: latitude-dependent mean state plus a few smooth
  // planetary waves plus white noise.
  for (int c = 0; c < kNumClimateChannels; ++c) {
    // Random planetary-wave mixture (low zonal/meridional wavenumbers).
    struct Wave {
      double kx, ky, phase, amp;
    };
    std::array<Wave, 3> waves;
    for (auto& wave : waves) {
      wave.kx = rng.Int(1, 4);
      wave.ky = rng.Int(1, 3);
      wave.phase = rng.UniformDouble(0, 2 * kPi);
      wave.amp = rng.UniformDouble(0.1, 0.35);
    }
    const float lat_slope = rng.Uniform(-0.6f, 0.6f);
    float* plane = fields.Raw() + c * h * w;
    if (!channels[static_cast<std::size_t>(c)]) {
      // An unread channel consumes exactly the draws its noise would, so
      // every later channel and event sees the same stream.
      std::fill(plane, plane + h * w, 0.0f);
      rng.SkipNormal(h * w);
      continue;
    }
    for (std::int64_t y = 0; y < h; ++y) {
      const double lat = static_cast<double>(y) / (h - 1) - 0.5;  // [-.5,.5]
      for (std::int64_t x = 0; x < w; ++x) {
        const double lon = static_cast<double>(x) / w;
        double v = lat_slope * lat;
        for (const auto& wave : waves) {
          v += wave.amp * std::sin(2 * kPi * (wave.kx * lon +
                                              wave.ky * (lat + 0.5)) +
                                   wave.phase);
        }
        v += rng.Normal(0.0f, opts_.background_noise);
        plane[y * w + x] = static_cast<float>(v);
      }
    }
  }
}

void ClimateGenerator::PlantCyclone(ClimateSample& sample,
                                    const ChannelMask& channels,
                                    Rng& rng) const {
  const std::int64_t h = opts_.height, w = opts_.width;
  const PlantTarget f(sample.fields, channels, h, w);
  // TCs live in the tropics band on either side of the equator.
  const bool north = rng.Bernoulli(0.5);
  const std::int64_t cy = north
                              ? rng.Int(h * 28 / 100, h * 44 / 100)
                              : rng.Int(h * 56 / 100, h * 72 / 100);
  const std::int64_t cx = rng.Int(0, w - 1);
  const double radius = rng.UniformDouble(0.013, 0.024) * w;
  const double intensity = rng.UniformDouble(2.2, 3.6);
  const double warm_core = intensity * 0.6;
  const std::int64_t reach = static_cast<std::int64_t>(radius * 3.5) + 1;

  for (std::int64_t dy = -reach; dy <= reach; ++dy) {
    const std::int64_t y = cy + dy;
    if (y < 0 || y >= h) continue;
    for (std::int64_t dx = -reach; dx <= reach; ++dx) {
      const std::int64_t x = (cx + dx % w + w) % w;  // periodic longitude
      const double r = std::sqrt(static_cast<double>(dy * dy + dx * dx));
      const double envelope = std::exp(-0.5 * (r / radius) * (r / radius));
      if (envelope < 1e-3) continue;
      // Deep pressure minimum.
      f.Add(kPSL, y, x, -(intensity * envelope));
      f.Add(kPS, y, x, -(0.8 * intensity * envelope));
      // Azimuthal vortex winds (Rankine-like profile).
      const double tangential =
          intensity * (r / radius) * std::exp(0.5 - 0.5 * (r / radius) *
                                                        (r / radius));
      if (r > 0) {
        const double ux = -static_cast<double>(dy) / r * tangential;
        const double vy = static_cast<double>(dx) / r * tangential;
        f.Add(kU850, y, x, ux);
        f.Add(kV850, y, x, vy);
        f.Add(kUBOT, y, x, 0.8 * ux);
        f.Add(kVBOT, y, x, 0.8 * vy);
      }
      // Moisture, rain and the upper-level warm core.
      f.Add(kTMQ, y, x, 1.6 * intensity * envelope);
      f.Add(kPRECT, y, x, 2.0 * intensity * envelope);
      f.Add(kT200, y, x, warm_core * envelope);
      f.Add(kT500, y, x, 0.7 * warm_core * envelope);
      f.Add(kZ200, y, x, 0.4 * intensity * envelope);
      // Truth mask: the dynamically significant core (~1.6 radii).
      if (r <= 1.6 * radius) {
        sample.truth[static_cast<std::size_t>(y * w + x)] =
            kTropicalCyclone;
      }
    }
  }
}

void ClimateGenerator::PlantRiver(ClimateSample& sample,
                                  const ChannelMask& channels,
                                  Rng& rng) const {
  const std::int64_t h = opts_.height, w = opts_.width;
  const PlantTarget f(sample.fields, channels, h, w);
  // A quadratic Bezier filament from the tropics toward mid-latitudes.
  const bool north = rng.Bernoulli(0.5);
  const double y0 = north ? rng.UniformDouble(0.40, 0.48)
                          : rng.UniformDouble(0.52, 0.60);
  const double y2 = north ? rng.UniformDouble(0.08, 0.25)
                          : rng.UniformDouble(0.75, 0.92);
  const double x0 = rng.UniformDouble(0.0, 1.0);
  const double span = rng.UniformDouble(0.18, 0.38);  // zonal extent
  const double x2 = x0 + span;
  const double x1 = (x0 + x2) / 2 + rng.UniformDouble(-0.08, 0.08);
  const double y1 = (y0 + y2) / 2 + rng.UniformDouble(-0.08, 0.08);
  const double width = rng.UniformDouble(0.010, 0.017) * h;
  const double intensity = rng.UniformDouble(1.8, 2.8);

  const int steps = static_cast<int>(3.0 * span * w) + 8;
  for (int s = 0; s <= steps; ++s) {
    const double t = static_cast<double>(s) / steps;
    const double bx = (1 - t) * (1 - t) * x0 + 2 * (1 - t) * t * x1 +
                      t * t * x2;
    const double by = (1 - t) * (1 - t) * y0 + 2 * (1 - t) * t * y1 +
                      t * t * y2;
    // Filament direction for the wind signature.
    const double dx_dt = 2 * (1 - t) * (x1 - x0) + 2 * t * (x2 - x1);
    const double dy_dt = 2 * (1 - t) * (y1 - y0) + 2 * t * (y2 - y1);
    const double norm = std::hypot(dx_dt, dy_dt) + 1e-9;

    const std::int64_t cy = static_cast<std::int64_t>(by * h);
    const std::int64_t cx = static_cast<std::int64_t>(bx * w);
    const std::int64_t reach = static_cast<std::int64_t>(width * 3) + 1;
    for (std::int64_t dy = -reach; dy <= reach; ++dy) {
      const std::int64_t y = cy + dy;
      if (y < 0 || y >= h) continue;
      for (std::int64_t dx = -reach; dx <= reach; ++dx) {
        const std::int64_t x = ((cx + dx) % w + w) % w;
        const double r = std::sqrt(static_cast<double>(dy * dy + dx * dx));
        const double envelope = std::exp(-0.5 * (r / width) * (r / width));
        if (envelope < 5e-2) continue;
        f.Add(kTMQ, y, x, intensity * envelope * 0.5);
        f.Add(kU850, y, x, 0.5 * intensity * envelope * dx_dt / norm);
        f.Add(kV850, y, x, 0.5 * intensity * envelope * dy_dt / norm);
        f.Add(kPRECT, y, x, 0.6 * intensity * envelope);
        f.Add(kQREFHT, y, x, 0.8 * intensity * envelope);
        if (r <= 1.2 * width &&
            sample.truth[static_cast<std::size_t>(y * w + x)] ==
                kBackground) {
          sample.truth[static_cast<std::size_t>(y * w + x)] =
              kAtmosphericRiver;
        }
      }
    }
  }
}

ClimateSample ClimateGenerator::Generate(std::uint64_t seed,
                                         std::int64_t index,
                                         const ChannelMask& channels) const {
  Rng rng = Rng(seed).Fork(static_cast<std::uint64_t>(index));
  ClimateSample sample;
  sample.height = opts_.height;
  sample.width = opts_.width;
  // PaintBackground writes every plane, painted or zeroed.
  sample.fields = Tensor::Uninitialized(
      TensorShape{kNumClimateChannels, opts_.height, opts_.width});
  sample.truth.assign(
      static_cast<std::size_t>(opts_.height * opts_.width), kBackground);

  PaintBackground(sample.fields, channels, rng);
  const int n_tc = PoissonSample(rng, opts_.mean_cyclones);
  const int n_ar = PoissonSample(rng, opts_.mean_rivers);
  // Rivers first so cyclone cores override overlapping AR pixels.
  for (int i = 0; i < n_ar; ++i) PlantRiver(sample, channels, rng);
  for (int i = 0; i < n_tc; ++i) PlantCyclone(sample, channels, rng);
  return sample;
}

}  // namespace exaclim
