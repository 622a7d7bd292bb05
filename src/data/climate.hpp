#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace exaclim {

/// Segmentation classes (Sec III-A2).
enum ClimateClass : std::uint8_t {
  kBackground = 0,
  kAtmosphericRiver = 1,
  kTropicalCyclone = 2,
};
inline constexpr int kNumClimateClasses = 3;

/// The 16 CAM5 variables used on Summit (Sec V-B3): moisture, winds,
/// humidity, pressures, temperatures, precipitation and geopotential
/// heights. Indices into the channel dimension of ClimateSample::fields.
enum ClimateChannel : int {
  kTMQ = 0,    // total (integrated) water vapour — the Fig 7 backdrop
  kU850 = 1,   // zonal wind at 850 hPa
  kV850 = 2,   // meridional wind at 850 hPa
  kUBOT = 3,   // lowest-level zonal wind
  kVBOT = 4,   // lowest-level meridional wind
  kQREFHT = 5, // reference-height humidity
  kPS = 6,     // surface pressure
  kPSL = 7,    // sea-level pressure — TC detection input
  kT200 = 8,   // temperature at 200 hPa — warm-core check
  kT500 = 9,   // temperature at 500 hPa
  kPRECT = 10, // total precipitation
  kTS = 11,    // surface temperature
  kTREFHT = 12,// reference-height temperature
  kZ100 = 13,  // geopotential height at 100 hPa
  kZ200 = 14,  // geopotential height at 200 hPa
  kZBOT = 15,  // lowest-level geopotential height
};
inline constexpr int kNumClimateChannels = 16;

/// The channels a ClimateGenerator::Generate call paints: bit c is
/// channel c.
using ChannelMask = std::bitset<kNumClimateChannels>;
inline constexpr ChannelMask kAllChannels{0xFFFFu};

std::string_view ChannelName(int channel);

/// One simulated CAM5 snapshot: `channels` x H x W fields, the planted
/// ground-truth mask, and (after labelling) the heuristic mask used for
/// training. Fields are in normalised physical-anomaly units.
struct ClimateSample {
  Tensor fields;                          // [C, H, W]
  std::vector<std::uint8_t> truth;        // planted event mask, H*W
  std::vector<std::uint8_t> labels;       // heuristic (TECA-style) mask
  std::int64_t height = 0;
  std::int64_t width = 0;
};

/// Synthetic CAM5 generator (the data substitution described in
/// DESIGN.md): smooth large-scale background circulation per channel,
/// plus planted tropical cyclones (azimuthal vortices with a deep PSL
/// minimum, warm core, moisture and rain signatures) and atmospheric
/// rivers (long narrow moisture filaments advecting poleward). Event
/// counts/sizes are tuned so label frequencies approximate the paper's
/// 98.2 / 1.7 / 0.1 % class imbalance.
/// Generate paints the channels a caller reads and leaves the rest zero,
/// as a reader of the paper's CAM5 files loads only the variables it
/// trains on: the 4-channel Piz Daint mode of Sec V-B3 and the 16-channel
/// Summit mode read the same output. A skipped channel still consumes its
/// exact share of the random stream, so every painted channel, every
/// planted event and the truth mask are bit-identical whatever the mask
/// (DESIGN §16).
struct ClimateGeneratorOptions {
  std::int64_t height = 96;
  std::int64_t width = 144;
  double mean_cyclones = 0.8;
  double mean_rivers = 1.0;
  /// Scale of the unstructured background noise (relative to signals).
  float background_noise = 0.35f;
};

class ClimateGenerator {
 public:
  explicit ClimateGenerator(const ClimateGeneratorOptions& opts);

  /// Generates sample `index` deterministically from (seed, index),
  /// painting the channels in `channels`; the others hold zeros.
  ClimateSample Generate(std::uint64_t seed, std::int64_t index,
                         const ChannelMask& channels = kAllChannels) const;

  const ClimateGeneratorOptions& options() const { return opts_; }

 private:
  void PaintBackground(Tensor& fields, const ChannelMask& channels,
                       Rng& rng) const;
  void PlantCyclone(ClimateSample& sample, const ChannelMask& channels,
                    Rng& rng) const;
  void PlantRiver(ClimateSample& sample, const ChannelMask& channels,
                  Rng& rng) const;

  ClimateGeneratorOptions opts_;
};

}  // namespace exaclim
