#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "data/climate.hpp"
#include "data/labeler.hpp"

namespace exaclim {

/// The Piz Daint 4-channel subset (Sec V-B3: "4 channels that were
/// thought to be the most important").
inline constexpr std::array<int, 4> kPizDaintChannels{kTMQ, kU850, kV850,
                                                      kPSL};

enum class DatasetSplit { kTrain, kTest, kValidation };

/// A batch ready for the network: fields [N, C, H, W] and per-pixel
/// labels (N*H*W, row-major matching the tensor layout).
struct Batch {
  Tensor fields;
  std::vector<std::uint8_t> labels;
};

/// Deterministic synthetic climate dataset with the paper's 80/10/10
/// train/test/validation split (Sec III-A2). Samples are generated on
/// demand from (seed, index) and labelled by the TECA-style heuristics,
/// so the "dataset" needs no storage — the io/ module handles the
/// serialised-file view of the same samples for the staging experiments.
class ClimateDataset {
 public:
  struct Options {
    ClimateGeneratorOptions generator{};
    HeuristicLabelerOptions labeler{};
    std::int64_t num_samples = 1000;
    std::uint64_t seed = 2018;
    /// Channel subset fed to the network; empty = all 16.
    std::vector<int> channels{};
    /// Train with the heuristic labels (as the paper did) or the planted
    /// truth (upper-bound ablation).
    bool use_heuristic_labels = true;
  };

  explicit ClimateDataset(const Options& opts);

  std::int64_t size(DatasetSplit split) const;
  std::int64_t num_channels() const {
    return opts_.channels.empty()
               ? kNumClimateChannels
               : static_cast<std::int64_t>(opts_.channels.size());
  }
  std::int64_t height() const { return opts_.generator.height; }
  std::int64_t width() const { return opts_.generator.width; }

  /// Generates + labels sample `i` of the split, all 16 channels painted.
  ClimateSample GetSample(DatasetSplit split, std::int64_t i) const;

  /// Assembles a batch from split-local indices (with channel subsetting).
  /// Each sample paints only the batch's channels and the labeler's
  /// inputs; the result is bit-identical to slicing GetSample's.
  Batch MakeBatch(DatasetSplit split,
                  std::span<const std::int64_t> indices) const;

  /// The per-rank local-shard sampling of Sec V-A1: each rank
  /// independently draws `images_per_rank` random train indices; batches
  /// drawn from these shards are statistically similar to global ones.
  std::vector<std::int64_t> LocalShard(int rank, std::int64_t images_per_rank)
      const;

  /// Measures label class frequencies over the first `n` train samples —
  /// the input to MakeClassWeights. Paints only the labeler's inputs.
  std::array<double, kNumClimateClasses> MeasureFrequencies(
      std::int64_t n) const;

  const Options& options() const { return opts_; }

 private:
  std::int64_t GlobalIndex(DatasetSplit split, std::int64_t i) const;
  ClimateSample Sample(DatasetSplit split, std::int64_t i,
                       const ChannelMask& channels) const;

  Options opts_;
  /// What MakeBatch paints: `channels` plus the labeler's inputs.
  ChannelMask batch_channels_;
  ClimateGenerator generator_;
  HeuristicLabeler labeler_;
  std::int64_t train_size_;
  std::int64_t test_size_;
};

}  // namespace exaclim
