#pragma once

#include <cstdint>
#include <vector>

#include "data/climate.hpp"

namespace exaclim {

/// TECA-style heuristic ground-truth production (Sec III-A2): the paper's
/// training labels come not from hand annotation but from threshold
/// heuristics — TECA [1,11] finds tropical cyclones from sea-level
/// pressure minima with a warm-core and wind criterion, and a floodfill
/// of integrated water vapour produces atmospheric-river masks [12].
/// This class reimplements that pipeline on the synthetic fields.
struct HeuristicLabelerOptions {
  // --- TC detection ---
  /// A pixel is a TC candidate core if PSL anomaly is below this.
  float psl_depth_threshold = -1.4f;
  /// Warm-core requirement: mean T200 anomaly over the core must exceed.
  float warm_core_threshold = 0.3f;
  /// Minimum peak wind speed (|U850,V850|) within the candidate.
  float wind_speed_threshold = 1.0f;
  /// Candidate core size limits in pixels.
  std::int64_t tc_min_pixels = 3;
  std::int64_t tc_max_pixels = 400;

  // --- AR detection (floodfill of TMQ) ---
  /// Moisture anomaly threshold seeding the floodfill.
  float tmq_threshold = 1.25f;
  /// Geometry filters on connected components.
  std::int64_t ar_min_pixels = 25;
  /// Minimum elongation (bounding-box diagonal / sqrt(area)).
  double ar_min_elongation = 1.8;
};

/// The channels Label reads: PSL minima checked against T200 and the
/// U850/V850 wind for cyclones, the TMQ floodfill for rivers.
inline constexpr ChannelMask kLabelerChannels{
    (1u << kTMQ) | (1u << kU850) | (1u << kV850) | (1u << kPSL) |
    (1u << kT200)};

class HeuristicLabeler {
 public:
  HeuristicLabeler() : HeuristicLabelerOptions_{} {}
  explicit HeuristicLabeler(const HeuristicLabelerOptions& opts)
      : HeuristicLabelerOptions_(opts) {}

  /// Produces the label mask for a sample (does not read sample.truth).
  std::vector<std::uint8_t> Label(const ClimateSample& sample) const;

  /// Convenience: labels the sample in place (fills sample.labels).
  void LabelInPlace(ClimateSample& sample) const {
    sample.labels = Label(sample);
  }

  const HeuristicLabelerOptions& options() const {
    return HeuristicLabelerOptions_;
  }

 private:
  HeuristicLabelerOptions HeuristicLabelerOptions_;
};

/// 4-connected components of a boolean mask; returns a component id per
/// pixel (-1 outside the mask) and the number of components. Longitude
/// wraps periodically, matching the global grid.
struct ComponentMap {
  std::vector<int> ids;
  int count = 0;
};
ComponentMap ConnectedComponents(const std::vector<std::uint8_t>& mask,
                                 std::int64_t h, std::int64_t w);

}  // namespace exaclim
