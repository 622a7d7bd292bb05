#include "data/dataset.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace exaclim {

ClimateDataset::ClimateDataset(const Options& opts)
    : opts_(opts),
      generator_(opts.generator),
      labeler_(opts.labeler),
      train_size_(opts.num_samples * 8 / 10),
      test_size_(opts.num_samples / 10) {
  EXACLIM_CHECK(opts_.num_samples >= 10, "need at least 10 samples");
  batch_channels_ = opts_.channels.empty() ? kAllChannels : kLabelerChannels;
  for (const int c : opts_.channels) {
    EXACLIM_CHECK(c >= 0 && c < kNumClimateChannels,
                  "bad channel index " << c);
    batch_channels_.set(static_cast<std::size_t>(c));
  }
}

std::int64_t ClimateDataset::size(DatasetSplit split) const {
  switch (split) {
    case DatasetSplit::kTrain: return train_size_;
    case DatasetSplit::kTest: return test_size_;
    case DatasetSplit::kValidation:
      return opts_.num_samples - train_size_ - test_size_;
  }
  return 0;
}

std::int64_t ClimateDataset::GlobalIndex(DatasetSplit split,
                                         std::int64_t i) const {
  EXACLIM_CHECK(i >= 0 && i < size(split), "sample index out of range");
  switch (split) {
    case DatasetSplit::kTrain: return i;
    case DatasetSplit::kTest: return train_size_ + i;
    case DatasetSplit::kValidation: return train_size_ + test_size_ + i;
  }
  return 0;
}

ClimateSample ClimateDataset::Sample(DatasetSplit split, std::int64_t i,
                                     const ChannelMask& channels) const {
  ClimateSample sample =
      generator_.Generate(opts_.seed, GlobalIndex(split, i), channels);
  labeler_.LabelInPlace(sample);
  if (!opts_.use_heuristic_labels) sample.labels = sample.truth;
  return sample;
}

ClimateSample ClimateDataset::GetSample(DatasetSplit split,
                                        std::int64_t i) const {
  return Sample(split, i, kAllChannels);
}

Batch ClimateDataset::MakeBatch(
    DatasetSplit split, std::span<const std::int64_t> indices) const {
  EXACLIM_CHECK(!indices.empty(), "empty batch");
  const std::int64_t n = static_cast<std::int64_t>(indices.size());
  const std::int64_t c = num_channels();
  const std::int64_t h = height(), w = width();
  Batch batch;
  batch.fields = Tensor(TensorShape::NCHW(n, c, h, w));
  batch.labels.resize(static_cast<std::size_t>(n * h * w));

  for (std::int64_t b = 0; b < n; ++b) {
    const ClimateSample sample =
        Sample(split, indices[static_cast<std::size_t>(b)], batch_channels_);
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const int src_c = opts_.channels.empty()
                            ? static_cast<int>(ci)
                            : opts_.channels[static_cast<std::size_t>(ci)];
      std::memcpy(batch.fields.Raw() + ((b * c + ci) * h * w),
                  sample.fields.Raw() + src_c * h * w,
                  sizeof(float) * static_cast<std::size_t>(h * w));
    }
    std::memcpy(batch.labels.data() + b * h * w, sample.labels.data(),
                static_cast<std::size_t>(h * w));
  }
  return batch;
}

std::vector<std::int64_t> ClimateDataset::LocalShard(
    int rank, std::int64_t images_per_rank) const {
  Rng rng = Rng(opts_.seed ^ 0x5174ull).Fork(static_cast<std::uint64_t>(rank));
  std::vector<std::int64_t> shard(static_cast<std::size_t>(images_per_rank));
  for (auto& idx : shard) {
    idx = rng.Int(0, train_size_ - 1);
  }
  return shard;
}

std::array<double, kNumClimateClasses> ClimateDataset::MeasureFrequencies(
    std::int64_t n) const {
  std::array<std::int64_t, kNumClimateClasses> counts{};
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < std::min(n, train_size_); ++i) {
    const ClimateSample sample =
        Sample(DatasetSplit::kTrain, i, kLabelerChannels);
    for (const std::uint8_t l : sample.labels) {
      ++counts[l];
      ++total;
    }
  }
  std::array<double, kNumClimateClasses> freq{};
  for (int c = 0; c < kNumClimateClasses; ++c) {
    // Avoid zero frequencies (weights would blow up): floor at one pixel.
    freq[static_cast<std::size_t>(c)] =
        std::max<double>(counts[static_cast<std::size_t>(c)], 1) /
        static_cast<double>(total);
  }
  return freq;
}

}  // namespace exaclim
