#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <span>
#include <vector>

#include "common/checksum.hpp"
#include "data/climate.hpp"
#include "data/dataset.hpp"
#include "data/labeler.hpp"
#include "stats/stats.hpp"

namespace exaclim {
namespace {

ClimateDataset::Options SmallOptions() {
  ClimateDataset::Options opts;
  opts.num_samples = 50;
  opts.generator.height = 64;
  opts.generator.width = 96;
  return opts;
}

// ----------------------------------------------------------- Channels ---

TEST(ClimateChannels, NamesMatchCAM5Variables) {
  EXPECT_EQ(ChannelName(kTMQ), "TMQ");
  EXPECT_EQ(ChannelName(kPSL), "PSL");
  EXPECT_EQ(ChannelName(kPRECT), "PRECT");
  EXPECT_EQ(ChannelName(kZBOT), "ZBOT");
  EXPECT_THROW(ChannelName(16), Error);
  EXPECT_THROW(ChannelName(-1), Error);
}

// ---------------------------------------------------------- Generator ---

TEST(ClimateGenerator, DeterministicPerSeedAndIndex) {
  ClimateGenerator gen({});
  const auto a = gen.Generate(7, 3);
  const auto b = gen.Generate(7, 3);
  ASSERT_EQ(a.fields.NumElements(), b.fields.NumElements());
  for (std::int64_t i = 0; i < a.fields.NumElements(); ++i) {
    ASSERT_EQ(a.fields[static_cast<std::size_t>(i)],
              b.fields[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(a.truth, b.truth);
  const auto c = gen.Generate(7, 4);
  EXPECT_NE(c.truth, a.truth);  // different index, different weather
}

TEST(ClimateGenerator, ShapesAndFiniteness) {
  ClimateGeneratorOptions opts;
  opts.height = 48;
  opts.width = 80;
  ClimateGenerator gen(opts);
  const auto s = gen.Generate(1, 0);
  EXPECT_EQ(s.fields.shape(),
            TensorShape({kNumClimateChannels, 48, 80}));
  EXPECT_EQ(s.truth.size(), static_cast<std::size_t>(48 * 80));
  EXPECT_TRUE(s.fields.AllFinite());
}

TEST(ClimateGenerator, CycloneSignaturesAreConsistent) {
  // Wherever the truth mask says TC, the area must show a PSL depression
  // and elevated TMQ relative to the sample means.
  ClimateGenerator gen({});
  int tc_samples = 0;
  for (int idx = 0; idx < 30 && tc_samples < 5; ++idx) {
    const auto s = gen.Generate(11, idx);
    const std::int64_t hw = s.height * s.width;
    double psl_mean = 0, tmq_mean = 0;
    for (std::int64_t p = 0; p < hw; ++p) {
      psl_mean += s.fields[static_cast<std::size_t>(kPSL * hw + p)];
      tmq_mean += s.fields[static_cast<std::size_t>(kTMQ * hw + p)];
    }
    psl_mean /= hw;
    tmq_mean /= hw;
    double psl_tc = 0, tmq_tc = 0;
    std::int64_t tc_pixels = 0;
    for (std::int64_t p = 0; p < hw; ++p) {
      if (s.truth[static_cast<std::size_t>(p)] == kTropicalCyclone) {
        psl_tc += s.fields[static_cast<std::size_t>(kPSL * hw + p)];
        tmq_tc += s.fields[static_cast<std::size_t>(kTMQ * hw + p)];
        ++tc_pixels;
      }
    }
    if (tc_pixels < 10) continue;
    ++tc_samples;
    EXPECT_LT(psl_tc / tc_pixels, psl_mean - 0.5) << "idx=" << idx;
    EXPECT_GT(tmq_tc / tc_pixels, tmq_mean + 0.5) << "idx=" << idx;
  }
  EXPECT_GE(tc_samples, 3) << "generator produced too few cyclones";
}

TEST(ClimateGenerator, TruthClassImbalanceMatchesPaperRegime) {
  // Sec V-B1 regime: BG dominates; AR a few percent; TC well under 1%.
  ClimateGenerator gen({});
  std::array<std::int64_t, 3> counts{};
  std::int64_t total = 0;
  for (int idx = 0; idx < 50; ++idx) {
    const auto s = gen.Generate(3, idx);
    for (const auto l : s.truth) ++counts[l];
    total += static_cast<std::int64_t>(s.truth.size());
  }
  const double bg = static_cast<double>(counts[0]) / total;
  const double ar = static_cast<double>(counts[1]) / total;
  const double tc = static_cast<double>(counts[2]) / total;
  EXPECT_GT(bg, 0.93);
  EXPECT_GT(ar, 0.003);
  EXPECT_LT(ar, 0.06);
  EXPECT_GT(tc, 0.0002);
  EXPECT_LT(tc, 0.012);
}

TEST(ClimateGenerator, UnpaintedChannelsAreZeroAndPaintedOnesUnchanged) {
  ClimateGenerator gen({});
  const auto full = gen.Generate(11, 5);
  const ChannelMask painted{(1u << kTMQ) | (1u << kPSL)};
  const auto masked = gen.Generate(11, 5, painted);
  EXPECT_EQ(masked.truth, full.truth);
  const std::size_t plane = static_cast<std::size_t>(96 * 144);
  for (int c = 0; c < kNumClimateChannels; ++c) {
    const float* got = masked.fields.Raw() + c * plane;
    const float* want = full.fields.Raw() + c * plane;
    if (painted[static_cast<std::size_t>(c)]) {
      EXPECT_EQ(std::memcmp(got, want, plane * sizeof(float)), 0)
          << ChannelName(c);
    } else {
      EXPECT_TRUE(std::all_of(got, got + plane,
                              [](float v) { return v == 0.0f; }))
          << ChannelName(c);
    }
  }
}

// -------------------------------------------------- ConnectedComponents --

TEST(ConnectedComponents, TwoSeparateBlobs) {
  // Interior blobs (away from the periodic seam):
  //  . X X . .
  //  . X . Y .
  const std::vector<std::uint8_t> mask{0, 1, 1, 0, 0, 0, 1, 0, 1, 0};
  const auto cc = ConnectedComponents(mask, 2, 5);
  EXPECT_EQ(cc.count, 2);
  EXPECT_EQ(cc.ids[1], cc.ids[2]);
  EXPECT_EQ(cc.ids[1], cc.ids[6]);
  EXPECT_NE(cc.ids[8], cc.ids[1]);
  EXPECT_EQ(cc.ids[0], -1);
}

TEST(ConnectedComponents, LongitudeWrapsPeriodically) {
  // Blob touching both vertical edges is one component on a globe.
  const std::vector<std::uint8_t> mask{1, 0, 0, 0, 1};
  const auto cc = ConnectedComponents(mask, 1, 5);
  EXPECT_EQ(cc.count, 1);
  EXPECT_EQ(cc.ids[0], cc.ids[4]);
}

TEST(ConnectedComponents, EmptyMask) {
  const std::vector<std::uint8_t> mask(12, 0);
  const auto cc = ConnectedComponents(mask, 3, 4);
  EXPECT_EQ(cc.count, 0);
}

// ------------------------------------------------------------ Labeler ---

TEST(HeuristicLabeler, AgreesReasonablyWithPlantedTruth) {
  // The heuristics are imperfect by design (the paper's labels were too),
  // but must broadly recover the planted events.
  ClimateDataset ds(SmallOptions());
  ConfusionMatrix cm(kNumClimateClasses);
  for (std::int64_t i = 0; i < 20; ++i) {
    const auto s = ds.GetSample(DatasetSplit::kTrain, i);
    cm.Add(s.labels, s.truth);
  }
  EXPECT_GT(cm.PixelAccuracy(), 0.95);
  EXPECT_GT(cm.IoU(kAtmosphericRiver), 0.3);
  EXPECT_GT(cm.IoU(kTropicalCyclone), 0.3);
}

TEST(HeuristicLabeler, FindsNothingOnQuietFields) {
  ClimateSample quiet;
  quiet.height = 32;
  quiet.width = 32;
  quiet.fields = Tensor(TensorShape{kNumClimateChannels, 32, 32});
  quiet.truth.assign(32 * 32, kBackground);
  HeuristicLabeler labeler;
  const auto labels = labeler.Label(quiet);
  for (const auto l : labels) EXPECT_EQ(l, kBackground);
}

TEST(HeuristicLabeler, WarmCoreCriterionRejectsColdLows) {
  // A deep low without a warm core (extratropical storm) must NOT be
  // labelled TC — the TECA multi-variate criterion at work.
  ClimateSample s;
  s.height = 32;
  s.width = 32;
  s.fields = Tensor(TensorShape{kNumClimateChannels, 32, 32});
  s.truth.assign(32 * 32, kBackground);
  const std::int64_t hw = 32 * 32;
  auto set_disc = [&](int channel, float value) {
    for (std::int64_t y = 12; y < 20; ++y) {
      for (std::int64_t x = 12; x < 20; ++x) {
        s.fields[static_cast<std::size_t>(channel * hw + y * 32 + x)] =
            value;
      }
    }
  };
  set_disc(kPSL, -3.0f);   // deep low
  set_disc(kU850, 2.5f);   // strong winds
  set_disc(kT200, -0.5f);  // COLD core
  HeuristicLabeler labeler;
  auto labels = labeler.Label(s);
  EXPECT_EQ(std::count(labels.begin(), labels.end(), kTropicalCyclone), 0);

  set_disc(kT200, 1.0f);  // now a warm core
  labels = labeler.Label(s);
  EXPECT_GT(std::count(labels.begin(), labels.end(), kTropicalCyclone), 0);
}

// ------------------------------------------------------------ Dataset ---

TEST(ClimateDataset, SplitSizes80_10_10) {
  ClimateDataset::Options opts = SmallOptions();
  opts.num_samples = 100;
  ClimateDataset ds(opts);
  EXPECT_EQ(ds.size(DatasetSplit::kTrain), 80);
  EXPECT_EQ(ds.size(DatasetSplit::kTest), 10);
  EXPECT_EQ(ds.size(DatasetSplit::kValidation), 10);
}

TEST(ClimateDataset, SplitsAreDisjoint) {
  // Samples are generated from the global index, so the first validation
  // sample differs from every train sample with the same local index.
  ClimateDataset ds(SmallOptions());
  const auto train0 = ds.GetSample(DatasetSplit::kTrain, 0);
  const auto val0 = ds.GetSample(DatasetSplit::kValidation, 0);
  bool identical = true;
  for (std::int64_t i = 0; i < train0.fields.NumElements() && identical;
       ++i) {
    identical = train0.fields[static_cast<std::size_t>(i)] ==
                val0.fields[static_cast<std::size_t>(i)];
  }
  EXPECT_FALSE(identical);
}

TEST(ClimateDataset, BatchAssemblyShapes) {
  ClimateDataset ds(SmallOptions());
  const std::vector<std::int64_t> idx{0, 3, 5};
  const Batch batch = ds.MakeBatch(DatasetSplit::kTrain, idx);
  EXPECT_EQ(batch.fields.shape(),
            TensorShape::NCHW(3, kNumClimateChannels, 64, 96));
  EXPECT_EQ(batch.labels.size(), static_cast<std::size_t>(3 * 64 * 96));
}

TEST(ClimateDataset, ChannelSubsetSelectsPizDaintVariables) {
  ClimateDataset::Options opts = SmallOptions();
  opts.channels.assign(kPizDaintChannels.begin(), kPizDaintChannels.end());
  ClimateDataset ds(opts);
  EXPECT_EQ(ds.num_channels(), 4);
  const std::vector<std::int64_t> idx{2};
  const Batch batch = ds.MakeBatch(DatasetSplit::kTrain, idx);
  EXPECT_EQ(batch.fields.shape().c(), 4);

  // Channel 3 of the subset batch must equal full channel kPSL.
  ClimateDataset::Options full_opts = SmallOptions();
  ClimateDataset full(full_opts);
  const Batch full_batch = full.MakeBatch(DatasetSplit::kTrain, idx);
  const std::int64_t hw = 64 * 96;
  for (std::int64_t p = 0; p < hw; p += 17) {
    EXPECT_EQ(batch.fields[static_cast<std::size_t>(3 * hw + p)],
              full_batch.fields[static_cast<std::size_t>(kPSL * hw + p)]);
  }
}

TEST(ClimateDataset, LocalShardsDifferAcrossRanksButAreDeterministic) {
  ClimateDataset ds(SmallOptions());
  const auto shard0 = ds.LocalShard(0, 20);
  const auto shard0_again = ds.LocalShard(0, 20);
  const auto shard1 = ds.LocalShard(1, 20);
  EXPECT_EQ(shard0, shard0_again);
  EXPECT_NE(shard0, shard1);
  for (const auto idx : shard0) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, ds.size(DatasetSplit::kTrain));
  }
}

TEST(ClimateDataset, MeasuredFrequenciesShowPaperImbalance) {
  ClimateDataset ds(SmallOptions());
  const auto freq = ds.MeasureFrequencies(20);
  EXPECT_GT(freq[kBackground], 0.90);
  EXPECT_LT(freq[kTropicalCyclone], 0.02);
  EXPECT_NEAR(freq[0] + freq[1] + freq[2], 1.0, 1e-6);
}

TEST(ClimateDataset, TruthLabelsModeBypassesHeuristics) {
  ClimateDataset::Options opts = SmallOptions();
  opts.use_heuristic_labels = false;
  ClimateDataset ds(opts);
  const auto s = ds.GetSample(DatasetSplit::kTrain, 1);
  EXPECT_EQ(s.labels, s.truth);
}

// ---------------------------------------------------- Masked batches ---

// The batch MakeBatch promises: each sample's full 16-channel GetSample,
// sliced to the dataset's channels, with its labels.
Batch BatchFromFullSamples(const ClimateDataset& ds, DatasetSplit split,
                           std::span<const std::int64_t> indices) {
  const std::int64_t n = static_cast<std::int64_t>(indices.size());
  const std::int64_t c = ds.num_channels(), hw = ds.height() * ds.width();
  const auto& channels = ds.options().channels;
  Batch batch;
  batch.fields = Tensor(TensorShape::NCHW(n, c, ds.height(), ds.width()));
  for (std::int64_t b = 0; b < n; ++b) {
    const ClimateSample s =
        ds.GetSample(split, indices[static_cast<std::size_t>(b)]);
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const std::int64_t src =
          channels.empty() ? ci : channels[static_cast<std::size_t>(ci)];
      std::memcpy(batch.fields.Raw() + (b * c + ci) * hw,
                  s.fields.Raw() + src * hw, sizeof(float) * hw);
    }
    batch.labels.insert(batch.labels.end(), s.labels.begin(),
                        s.labels.end());
  }
  return batch;
}

TEST(ClimateDataset, MaskedBatchesEqualSlicedFullSamples) {
  struct Case {
    const char* label;
    std::vector<int> channels;
    bool heuristic_labels = true;
  };
  const Case cases[] = {
      {"Piz Daint", {kPizDaintChannels.begin(), kPizDaintChannels.end()}},
      {"UBOT,VBOT,PRECT,T500", {kUBOT, kVBOT, kPRECT, kT500}},
      {"all 16", {}},
      {"ZBOT alone", {kZBOT}},
      {"Piz Daint, truth labels",
       {kPizDaintChannels.begin(), kPizDaintChannels.end()},
       false},
  };
  for (const Case& tc : cases) {
    ClimateDataset::Options opts;
    opts.num_samples = 100;  // 80 / 10 / 10
    opts.generator.height = 48;
    opts.generator.width = 64;
    opts.channels = tc.channels;
    opts.use_heuristic_labels = tc.heuristic_labels;
    const ClimateDataset ds(opts);
    // 64 samples: 44 train, every test and every validation sample, in
    // batches of up to 8.
    for (const auto& [split, count] :
         {std::pair{DatasetSplit::kTrain, 44}, {DatasetSplit::kTest, 10},
          {DatasetSplit::kValidation, 10}}) {
      for (std::int64_t first = 0; first < count; first += 8) {
        std::vector<std::int64_t> idx;
        const std::int64_t end = std::min<std::int64_t>(first + 8, count);
        for (std::int64_t i = first; i < end; ++i) idx.push_back(i);
        const Batch got = ds.MakeBatch(split, idx);
        const Batch want = BatchFromFullSamples(ds, split, idx);
        ASSERT_EQ(got.fields.shape(), want.fields.shape()) << tc.label;
        EXPECT_EQ(std::memcmp(got.fields.Raw(), want.fields.Raw(),
                              sizeof(float) * static_cast<std::size_t>(
                                                  got.fields.NumElements())),
                  0)
            << tc.label << ", batch from " << first;
        EXPECT_EQ(got.labels, want.labels)
            << tc.label << ", batch from " << first;
      }
    }
  }
}

TEST(ClimateDataset, FullSamplesMatchTheirPinnedChecksum) {
  // CRC-32 over the fields, labels and truth of train samples 0..3 at the
  // default options, as generated with std::mt19937_64 and a fresh
  // std::normal_distribution<float> per draw: the all-16-channel path
  // stays bit for bit what it was.
  const ClimateDataset ds(ClimateDataset::Options{});
  std::uint32_t crc = 0;
  for (std::int64_t i = 0; i < 4; ++i) {
    const ClimateSample s = ds.GetSample(DatasetSplit::kTrain, i);
    crc = Crc32(std::as_bytes(s.fields.Data()), crc);
    crc = Crc32(std::span<const std::uint8_t>(s.labels), crc);
    crc = Crc32(std::span<const std::uint8_t>(s.truth), crc);
  }
  EXPECT_EQ(crc, 0x5f8a40bcu);
}

TEST(ClimateDataset, MeasuredFrequenciesMatchPinnedValues) {
  // Pinned from the same std-engine generator; MeasureFrequencies now
  // paints only the labeler's inputs.
  const auto freq = ClimateDataset(SmallOptions()).MeasureFrequencies(16);
  EXPECT_EQ(freq[kBackground], 0x1.fa14p-1);
  EXPECT_EQ(freq[kAtmosphericRiver], 0x1.3855555555555p-7);
  EXPECT_EQ(freq[kTropicalCyclone], 0x1.0aaaaaaaaaaabp-9);
}

// -------------------------------------------------------------- Stats ---

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.375), 2.5);
}

TEST(Stats, SummarizeProducesCentral68CI) {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(i);
  }
  const auto s = Summarize(v);
  EXPECT_NEAR(s.median, 499.5, 1.0);
  EXPECT_NEAR(s.lo, 160.0, 2.0);
  EXPECT_NEAR(s.hi, 839.0, 2.0);
}

TEST(Stats, MovingAverageWindow) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6};
  const auto ma = MovingAverage(v, 3);
  EXPECT_DOUBLE_EQ(ma[0], 1.0);
  EXPECT_DOUBLE_EQ(ma[1], 1.5);
  EXPECT_DOUBLE_EQ(ma[2], 2.0);
  EXPECT_DOUBLE_EQ(ma[5], 5.0);
}

TEST(ConfusionMatrixTest, IoUKnownValues) {
  ConfusionMatrix cm(2);
  // 3 TP of class 1, 1 FP, 1 FN, 5 TN.
  for (int i = 0; i < 3; ++i) cm.AddOne(1, 1);
  cm.AddOne(1, 0);
  cm.AddOne(0, 1);
  for (int i = 0; i < 5; ++i) cm.AddOne(0, 0);
  EXPECT_DOUBLE_EQ(cm.IoU(1), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(cm.IoU(0), 5.0 / 7.0);
  EXPECT_DOUBLE_EQ(cm.PixelAccuracy(), 0.8);
  EXPECT_DOUBLE_EQ(cm.LabelFrequency(1), 0.4);
}

TEST(ConfusionMatrixTest, AbsentClassCountsAsPerfect) {
  ConfusionMatrix cm(3);
  cm.AddOne(0, 0);
  EXPECT_DOUBLE_EQ(cm.IoU(2), 1.0);
}

TEST(ConfusionMatrixTest, DegenerateAllBackgroundPredictor) {
  // The Sec V-B1 anecdote in metric form: predicting all-BG on a
  // 98.2%-BG label set gives high accuracy but zero minority IoU.
  ConfusionMatrix cm(3);
  std::vector<std::uint8_t> pred(1000, 0);
  std::vector<std::uint8_t> labels(1000, 0);
  for (int i = 0; i < 17; ++i) labels[static_cast<std::size_t>(i)] = 1;
  labels[17] = 2;
  cm.Add(pred, labels);
  EXPECT_NEAR(cm.PixelAccuracy(), 0.982, 1e-3);
  EXPECT_DOUBLE_EQ(cm.IoU(1), 0.0);
  EXPECT_DOUBLE_EQ(cm.IoU(2), 0.0);
  EXPECT_LT(cm.MeanIoU(), 0.4);
}

}  // namespace
}  // namespace exaclim
