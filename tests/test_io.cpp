#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <thread>

#include "comm/world.hpp"
#include "common/alloc_tracker.hpp"
#include "common/error.hpp"
#include "data/climate.hpp"
#include "io/ncf.hpp"
#include "io/pipeline.hpp"
#include "io/sample_io.hpp"
#include "io/staging.hpp"

namespace exaclim {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("exaclim_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  fs::path operator/(const std::string& name) const { return dir_ / name; }

 private:
  fs::path dir_;
  static inline int counter_ = 0;
};

// ----------------------------------------------------------------- NCF --

TEST(Ncf, RoundTripFloatAndBytes) {
  TempDir tmp;
  const auto path = tmp / "a.ncf";
  std::vector<float> floats(1000);
  std::iota(floats.begin(), floats.end(), 0.5f);
  std::vector<std::uint8_t> bytes{1, 2, 3, 250};
  {
    NcfWriter writer(path);
    writer.AddFloat("field", floats);
    writer.AddBytes("mask", bytes);
    const auto total = writer.Finish();
    EXPECT_GT(total, 4000);
  }
  NcfReader reader(path);
  EXPECT_TRUE(reader.Has("field"));
  EXPECT_TRUE(reader.Has("mask"));
  EXPECT_FALSE(reader.Has("absent"));
  EXPECT_EQ(reader.Count("field"), 1000);
  EXPECT_EQ(reader.ReadFloat("field"), floats);
  EXPECT_EQ(reader.ReadBytes("mask"), bytes);
  EXPECT_EQ(reader.Names(), (std::vector<std::string>{"field", "mask"}));
}

TEST(Ncf, DtypeMismatchThrows) {
  TempDir tmp;
  const auto path = tmp / "b.ncf";
  NcfWriter writer(path);
  writer.AddFloat("x", std::vector<float>{1.0f});
  writer.Finish();
  NcfReader reader(path);
  EXPECT_THROW(reader.ReadBytes("x"), Error);
  EXPECT_THROW(reader.ReadFloat("nope"), Error);
}

TEST(Ncf, RejectsGarbageFile) {
  TempDir tmp;
  const auto path = tmp / "garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an ncf file at all";
  }
  EXPECT_THROW(NcfReader reader(path), Error);
}

TEST(Ncf, MissingFileThrows) {
  EXPECT_THROW(NcfReader reader("/nonexistent/path.ncf"), Error);
}

// ------------------------------------------- crafted (hostile) headers --

/// Raw NCF bytes, laid out field by field like NcfWriter::Finish.
class RawNcf {
 public:
  RawNcf& U32(std::uint32_t v) { return Put(&v, sizeof(v)); }
  RawNcf& U64(std::uint64_t v) { return Put(&v, sizeof(v)); }
  RawNcf& Str(const std::string& s) { return Put(s.data(), s.size()); }
  RawNcf& Magic() { return Str("NCF1"); }
  void WriteTo(const fs::path& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }

 private:
  RawNcf& Put(const void* p, std::size_t n) {
    const auto* c = static_cast<const char*>(p);
    bytes_.insert(bytes_.end(), c, c + n);
    return *this;
  }
  std::vector<char> bytes_;
};

/// Opens `path` and reads every dataset it lists as floats. Expects an
/// Error naming `what`, thrown without any large allocation on the way.
void ExpectRejectedCheaply(const fs::path& path, const std::string& what) {
  SetAllocTracking(true);
  const AllocCounters before = ThreadAllocCounters();
  std::string message;
  try {
    NcfReader reader(path);
    for (const std::string& name : reader.Names()) {
      (void)reader.ReadFloat(name);
    }
  } catch (const Error& e) {
    message = e.what();
  }
  const AllocCounters after = ThreadAllocCounters();
  SetAllocTracking(false);
  EXPECT_NE(message.find(what), std::string::npos)
      << "expected an Error about '" << what << "', got '" << message << "'";
  EXPECT_LT(after.bytes - before.bytes, 1 << 20) << message;
}

TEST(Ncf, RejectsHugeNameLength) {
  TempDir tmp;
  const auto path = tmp / "name.ncf";
  // Room for one entry, but not for a 4 GiB name.
  RawNcf()
      .Magic()
      .U32(1)
      .U32(0xFFFFFFFFu)
      .Str(std::string(64, 'x'))
      .WriteTo(path);
  ExpectRejectedCheaply(path, "dataset name of 4294967295 bytes");
}

TEST(Ncf, RejectsHugeDatasetCount) {
  TempDir tmp;
  const auto path = tmp / "count.ncf";
  RawNcf().Magic().U32(0xFFFFFFFFu).U32(1).Str("x").WriteTo(path);
  ExpectRejectedCheaply(path, "header lists 4294967295 datasets");
}

TEST(Ncf, RejectsOverflowingElementCount) {
  // 2^62 + 1 floats: count * sizeof(float) wraps to 4 bytes in 64 bits,
  // which the 8-byte payload would satisfy if the product were formed.
  TempDir tmp;
  const auto path = tmp / "overflow.ncf";
  const std::uint64_t header = 8 + 4 + 1 + 4 + 8 + 8;
  RawNcf()
      .Magic()
      .U32(1)
      .U32(1)
      .Str("x")
      .U32(0)
      .U64((std::uint64_t{1} << 62) + 1)
      .U64(header)
      .U64(0)
      .WriteTo(path);
  ExpectRejectedCheaply(path, "runs past the end of the file");
}

TEST(Ncf, RejectsOffsetPastEof) {
  TempDir tmp;
  const auto path = tmp / "offset.ncf";
  RawNcf()
      .Magic()
      .U32(1)
      .U32(1)
      .Str("x")
      .U32(0)
      .U64(1)
      .U64(1000)
      .U32(0)
      .WriteTo(path);
  ExpectRejectedCheaply(path, "runs past the end of the file");
}

TEST(Ncf, RejectsHeaderTruncatedMidEntry) {
  TempDir tmp;
  const auto path = tmp / "truncated.ncf";
  NcfWriter writer(path);
  writer.AddFloat("field", std::vector<float>{1.0f, 2.0f});
  writer.Finish();
  // One byte short of the full header (8 + 4 + 5 + 4 + 8 + 8 bytes).
  fs::resize_file(path, 36);
  ExpectRejectedCheaply(path, "runs past the end of the header");
}

TEST(SampleIo, ClimateSampleRoundTrip) {
  TempDir tmp;
  ClimateGenerator gen({});
  ClimateSample sample = gen.Generate(5, 0);
  sample.labels = sample.truth;  // pretend labelled
  const auto path = tmp / "sample.ncf";
  WriteSampleFile(path, sample);
  const ClimateSample loaded = ReadSampleFile(path);
  EXPECT_EQ(loaded.height, sample.height);
  EXPECT_EQ(loaded.width, sample.width);
  EXPECT_EQ(loaded.truth, sample.truth);
  EXPECT_EQ(loaded.labels, sample.labels);
  for (std::int64_t i = 0; i < sample.fields.NumElements(); i += 97) {
    EXPECT_EQ(loaded.fields[static_cast<std::size_t>(i)],
              sample.fields[static_cast<std::size_t>(i)]);
  }
}

TEST(Ncf, GlobalLockSerialisesReaders) {
  // With the HDF5-style lock, 4 threads reading take ~4x one thread's
  // wall time; without it they overlap in the filesystem cache. We can't
  // measure timing robustly on 1 core, but we CAN verify both modes
  // return identical data and are thread-safe.
  TempDir tmp;
  const auto path = tmp / "c.ncf";
  std::vector<float> data(50000);
  std::iota(data.begin(), data.end(), 0.0f);
  {
    NcfWriter writer(path);
    writer.AddFloat("x", data);
    writer.Finish();
  }
  for (const bool lock : {false, true}) {
    NcfReader reader(path, lock);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int round = 0; round < 5; ++round) {
          if (reader.ReadFloat("x") != data) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "lock=" << lock;
  }
}

// ------------------------------------------------------------- Staging --

TEST(MockGlobalFs, CountsReads) {
  MockGlobalFs fs_store;
  fs_store.Put(3, std::vector<std::byte>(10));
  (void)fs_store.Read(3);
  (void)fs_store.Read(3);
  EXPECT_EQ(fs_store.reads(3), 2);
  EXPECT_EQ(fs_store.total_reads(), 2);
  EXPECT_EQ(fs_store.total_bytes_read(), 20);
  EXPECT_THROW(fs_store.Read(4), Error);
}

TEST(StageDataset, EveryFileReadFromFsExactlyOnce) {
  // The headline property of the Sec V-A1 stager (vs 23x duplication).
  const int p = 8;
  const int num_files = 40;
  MockGlobalFs fs_store;
  for (int f = 0; f < num_files; ++f) {
    std::vector<std::byte> contents(16 + static_cast<std::size_t>(f));
    for (std::size_t i = 0; i < contents.size(); ++i) {
      contents[i] = static_cast<std::byte>((f * 7 + static_cast<int>(i)) % 251);
    }
    fs_store.Put(f, std::move(contents));
  }
  // Each rank needs a random-ish overlapping subset.
  std::vector<std::set<int>> needs(p);
  for (int r = 0; r < p; ++r) {
    Rng rng(100 + r);
    for (int k = 0; k < 15; ++k) {
      needs[static_cast<std::size_t>(r)].insert(
          static_cast<int>(rng.Int(0, num_files - 1)));
    }
  }
  std::set<int> union_needs;
  for (const auto& s : needs) union_needs.insert(s.begin(), s.end());

  SimWorld world(p);
  std::atomic<int> wrong_contents{0};
  world.Run([&](Communicator& comm) {
    const auto staged = StageDataset(
        comm, fs_store, needs[static_cast<std::size_t>(comm.rank())],
        num_files);
    EXPECT_EQ(staged.size(),
              needs[static_cast<std::size_t>(comm.rank())].size());
    for (const auto& [f, contents] : staged) {
      std::vector<std::byte> expected(16 + static_cast<std::size_t>(f));
      for (std::size_t i = 0; i < expected.size(); ++i) {
        expected[i] =
            static_cast<std::byte>((f * 7 + static_cast<int>(i)) % 251);
      }
      if (contents != expected) wrong_contents.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong_contents.load(), 0);
  // Exactly one filesystem read per needed file; unneeded files untouched.
  EXPECT_EQ(fs_store.total_reads(),
            static_cast<std::int64_t>(union_needs.size()));
  for (const int f : union_needs) EXPECT_EQ(fs_store.reads(f), 1);
}

TEST(StageNaive, DuplicatesReads) {
  const int p = 6;
  MockGlobalFs fs_store;
  fs_store.Put(0, std::vector<std::byte>(8));
  const std::set<int> everyone_wants{0};
  for (int r = 0; r < p; ++r) (void)StageNaive(fs_store, everyone_wants);
  EXPECT_EQ(fs_store.reads(0), p);  // the pathology the stager removes
}

// -------------------------------------------------------- StagingModel --

TEST(StagingModel, ThreadScalingMatchesPaper) {
  StagingModel model;
  EXPECT_NEAR(model.NodeReadBandwidth(1), 1.79e9, 1e7);
  // Sec V-A1: 8 threads -> 11.98 GB/s (6.7x improvement).
  EXPECT_NEAR(model.NodeReadBandwidth(8) / 1e9, 11.98, 0.5);
  EXPECT_NEAR(model.NodeReadBandwidth(8) / model.NodeReadBandwidth(1), 6.7,
              0.3);
  // NIC cap binds eventually.
  EXPECT_LE(model.NodeReadBandwidth(64), model.options().node_nic_bw);
}

TEST(StagingModel, DuplicationFactorAt1024Nodes) {
  StagingModel model;
  // "each individual file ... read by 23 nodes on average" at 1024 nodes.
  EXPECT_NEAR(model.DuplicationFactor(1024), 24.4, 1.5);
}

TEST(StagingModel, PaperTimeBoundsHold) {
  StagingModel model;
  // Naive at 1024 nodes: 10-20 minutes.
  const double naive_1024 = model.NaiveStageSeconds(1024, 8);
  EXPECT_GT(naive_1024, 10 * 60.0);
  EXPECT_LT(naive_1024, 20 * 60.0);
  // Distributed: under 3 minutes at 1024 nodes, under 7 at 4500.
  EXPECT_LT(model.DistributedStageSeconds(1024, 8), 3 * 60.0);
  EXPECT_LT(model.DistributedStageSeconds(4500, 8), 7 * 60.0);
  // And the distributed stager is much faster than naive at scale.
  EXPECT_LT(model.DistributedStageSeconds(1024, 8) * 5, naive_1024);
}

TEST(StagingModel, DistributedScalesBetterThanNaive) {
  StagingModel model;
  // Naive time grows with node count (more duplicate reads through a
  // fixed-bandwidth filesystem); distributed time stays bounded.
  EXPECT_GT(model.NaiveStageSeconds(4096, 8),
            model.NaiveStageSeconds(1024, 8) * 3);
  EXPECT_LT(model.DistributedStageSeconds(4096, 8),
            model.DistributedStageSeconds(1024, 8) * 3);
}

// ------------------------------------------------------- InputPipeline --

Batch TinyBatch(std::int64_t index) {
  Batch b;
  b.fields = Tensor::Full(TensorShape::NCHW(1, 1, 2, 2),
                          static_cast<float>(index));
  b.labels.assign(4, static_cast<std::uint8_t>(index % 3));
  return b;
}

TEST(InputPipeline, DeliversAllBatchesExactlyOnce) {
  InputPipeline pipeline(TinyBatch, 20, {.workers = 3, .prefetch_depth = 2});
  std::multiset<int> seen;
  while (auto batch = pipeline.Next()) {
    seen.insert(static_cast<int>(batch->fields[0]));
  }
  EXPECT_EQ(seen.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(seen.count(i), 1u) << i;
}

TEST(InputPipeline, PrefetchQueueBounded) {
  std::atomic<int> in_flight{0};
  std::atomic<int> max_queue{0};
  InputPipeline pipeline(
      [&](std::int64_t index) {
        in_flight.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        in_flight.fetch_sub(1);
        return TinyBatch(index);
      },
      50, {.workers = 4, .prefetch_depth = 3});
  // Give producers a head start, then drain slowly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int count = 0;
  while (auto batch = pipeline.Next()) {
    max_queue.store(std::max<int>(max_queue.load(),
                                  static_cast<int>(pipeline.Stats().depth)));
    ++count;
  }
  EXPECT_EQ(count, 50);
  EXPECT_LE(max_queue.load(), 3);
  const PipelineStats stats = pipeline.Stats();
  EXPECT_EQ(stats.total, 50);
  EXPECT_EQ(stats.produced, 50);
  EXPECT_EQ(stats.consumed, 50);
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_GT(stats.produce_seconds, 0.0);  // producers sleep 1ms per batch
}

TEST(InputPipeline, ProducerParallelismHidesLatency) {
  // Producers that sleep (I/O-bound, like file reads) overlap even on one
  // core: 4 workers x 5ms batches should finish ~4x faster than serial.
  using Clock = std::chrono::steady_clock;
  const auto produce = [](std::int64_t index) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return TinyBatch(index);
  };
  const auto run = [&](int workers) {
    const auto start = Clock::now();
    InputPipeline pipeline(produce, 24,
                           {.workers = workers, .prefetch_depth = 24});
    while (pipeline.Next()) {
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const double serial = run(1);
  const double parallel = run(4);
  EXPECT_LT(parallel, serial * 0.6);
}

TEST(InputPipeline, DestructorStopsEarlyCleanly) {
  // Consumer abandons the pipeline after one batch; destructor must not
  // hang even with blocked producers.
  auto pipeline = std::make_unique<InputPipeline>(
      TinyBatch, 1000, InputPipeline::Options{.workers = 2,
                                              .prefetch_depth = 1});
  EXPECT_TRUE(pipeline->Next().has_value());
  pipeline.reset();
  SUCCEED();
}

TEST(InputPipeline, WorksWithRealSampleFiles) {
  // End-to-end: write NCF sample files, read them back through the
  // pipeline with parallel lock-free readers (the Sec V-A2 fixed config).
  TempDir tmp;
  ClimateGenerator gen({.height = 32, .width = 48});
  const int n = 6;
  std::vector<fs::path> paths;
  for (int i = 0; i < n; ++i) {
    ClimateSample s = gen.Generate(9, i);
    s.labels = s.truth;
    paths.push_back(tmp / ("s" + std::to_string(i) + ".ncf"));
    WriteSampleFile(paths.back(), s);
  }
  InputPipeline pipeline(
      [&](std::int64_t index) {
        const ClimateSample s =
            ReadSampleFile(paths[static_cast<std::size_t>(index)]);
        Batch b;
        b.fields = s.fields.Reshaped(
            TensorShape::NCHW(1, kNumClimateChannels, s.height, s.width));
        b.labels = s.labels;
        return b;
      },
      n, {.workers = 3, .prefetch_depth = 2});
  int count = 0;
  while (auto batch = pipeline.Next()) {
    EXPECT_EQ(batch->fields.shape().c(), kNumClimateChannels);
    EXPECT_TRUE(batch->fields.AllFinite());
    ++count;
  }
  EXPECT_EQ(count, n);
}

}  // namespace
}  // namespace exaclim
