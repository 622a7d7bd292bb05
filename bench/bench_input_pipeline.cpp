// Reproduces the Sec V-A2 input-pipeline findings on real NCF files:
//  * with the HDF5-style process-global lock, adding reader workers buys
//    nothing — reads serialise (the pathology that forced the paper from
//    threads to multiprocessing);
//  * without the lock (separate library instances / processes), worker
//    parallelism scales the production rate;
//  * a prefetch queue decouples the consumer: as long as production rate
//    exceeds consumption rate, the "GPU" never waits.
// It first times sample generation itself: a full 16-channel GetSample
// against the Piz Daint MakeBatch, which paints only its 4 channels and
// the labeler's 5th (DESIGN §16).
//
// Emits BENCH_input_pipeline.json (median + p16/p84 over repeated runs)
// for the bench-smoke CI stage.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "data/climate.hpp"
#include "data/dataset.hpp"
#include "io/ncf.hpp"
#include "io/pipeline.hpp"
#include "io/sample_io.hpp"
#include "obs/bench_report.hpp"
#include "stats/stats.hpp"

namespace exaclim {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct PipelineRun {
  double samples_per_sec = 0.0;
  PipelineStats stats;
};

PipelineRun RunPipeline(const std::vector<fs::path>& paths, int workers,
                        bool global_lock, int repeats) {
  const std::int64_t total =
      static_cast<std::int64_t>(paths.size()) * repeats;
  const auto start = Clock::now();
  InputPipeline pipeline(
      [&](std::int64_t index) {
        const auto& path = paths[static_cast<std::size_t>(index) %
                                 paths.size()];
        // Under the HDF5-style lock, read AND decode serialise (the
        // library holds its global lock across the whole operation).
        const auto read_one = [&] {
          const ClimateSample s =
              ReadSampleFile(path, /*use_global_lock=*/false);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          Batch b;
          b.fields = s.fields.Reshaped(TensorShape::NCHW(
              1, kNumClimateChannels, s.height, s.width));
          b.labels = s.labels;
          return b;
        };
        if (global_lock) {
          MutexLock lock(NcfGlobalLock());
          return read_one();
        }
        return read_one();
      },
      total, {.workers = workers, .prefetch_depth = 8});
  std::int64_t count = 0;
  while (pipeline.Next()) ++count;
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  PipelineRun run;
  run.samples_per_sec = static_cast<double>(count) / seconds;
  run.stats = pipeline.Stats();
  return run;
}

double MsPerSample(Clock::time_point start, std::size_t samples) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
             .count() /
         static_cast<double>(samples);
}

// Generation cost at the default 96x144 grid, the two paths interleaved
// over the repeats so both see the same machine load.
void MeasureGeneration(obs::BenchReport& report) {
  constexpr int kRepeats = 5;
  const std::vector<std::int64_t> indices{0, 1, 2, 3};
  ClimateDataset::Options opts;
  opts.channels.assign(kPizDaintChannels.begin(), kPizDaintChannels.end());
  const ClimateDataset dataset(opts);
  std::vector<double> get_sample_ms, make_batch_ms;
  for (int r = 0; r < kRepeats; ++r) {
    auto start = Clock::now();
    for (const std::int64_t i : indices) {
      (void)dataset.GetSample(DatasetSplit::kTrain, i);
    }
    get_sample_ms.push_back(MsPerSample(start, indices.size()));
    start = Clock::now();
    (void)dataset.MakeBatch(DatasetSplit::kTrain, indices);
    make_batch_ms.push_back(MsPerSample(start, indices.size()));
  }
  report.AddSeries("get_sample_ms_per_sample", get_sample_ms);
  report.AddSeries("make_batch_ms_per_sample", make_batch_ms);
  std::printf(
      "Sample generation, 96x144 grid (median of %d repeats):\n"
      "  GetSample, all 16 channels:  %6.2f ms/sample\n"
      "  MakeBatch, Piz Daint subset: %6.2f ms/sample\n\n",
      kRepeats, Summarize(get_sample_ms).median,
      Summarize(make_batch_ms).median);
}

// Median throughput over `rounds` runs, recorded into the bench report.
double MeasureConfig(obs::BenchReport& report, std::string_view metric,
                     const std::vector<fs::path>& paths, int workers,
                     bool global_lock) {
  constexpr int kRounds = 3;
  std::vector<double> rates;
  rates.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    rates.push_back(
        RunPipeline(paths, workers, global_lock, 6).samples_per_sec);
  }
  report.AddSeries(metric, rates);
  return Summarize(rates).median;
}

}  // namespace

int Main() {
  const fs::path dir =
      fs::temp_directory_path() / "exaclim_bench_pipeline";
  fs::create_directories(dir);
  ClimateGenerator gen({.height = 48, .width = 64});
  std::vector<fs::path> paths;
  for (int i = 0; i < 8; ++i) {
    ClimateSample s = gen.Generate(1, i);
    s.labels = s.truth;
    paths.push_back(dir / ("sample" + std::to_string(i) + ".ncf"));
    WriteSampleFile(paths.back(), s);
  }

  obs::BenchReport report("input_pipeline");
  MeasureGeneration(report);

  std::printf(
      "Sec V-A2 — input pipeline throughput (real NCF files, 2 ms decode "
      "per sample; median of 3 runs)\n");
  std::printf("  %7s %22s %22s\n", "workers", "HDF5-style lock [smp/s]",
              "lock-free [smp/s]");
  double locked_1 = 0, locked_4 = 0, free_1 = 0, free_4 = 0;
  for (const int workers : {1, 2, 4}) {
    const std::string suffix = "_w" + std::to_string(workers);
    const double locked =
        MeasureConfig(report, "locked" + suffix, paths, workers, true);
    const double lock_free =
        MeasureConfig(report, "lock_free" + suffix, paths, workers, false);
    std::printf("  %7d %22.1f %22.1f\n", workers, locked, lock_free);
    if (workers == 1) {
      locked_1 = locked;
      free_1 = lock_free;
    }
    if (workers == 4) {
      locked_4 = locked;
      free_4 = lock_free;
    }
  }
  std::printf(
      "\n  lock-held scaling 1->4 workers: %.2fx (serialised, as the "
      "paper saw with HDF5)\n"
      "  lock-free scaling 1->4 workers: %.2fx (the multiprocessing "
      "fix)\n",
      locked_4 / locked_1, free_4 / free_1);
  report.AddScalar("locked_scaling_1_to_4", locked_4 / locked_1);
  report.AddScalar("lock_free_scaling_1_to_4", free_4 / free_1);

  // Prefetch-depth effect: a deep queue absorbs producer variability.
  // The new PipelineStats surface shows the consumer-stall time directly.
  std::printf("\n  prefetch depth sweep (4 lock-free workers):\n");
  for (const int depth : {1, 2, 8}) {
    const auto start = Clock::now();
    InputPipeline pipeline(
        [&](std::int64_t index) {
          const ClimateSample s = ReadSampleFile(
              paths[static_cast<std::size_t>(index) % paths.size()]);
          // Variable production latency.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(index % 3 == 0 ? 6 : 1));
          Batch b;
          b.fields = s.fields.Reshaped(TensorShape::NCHW(
              1, kNumClimateChannels, s.height, s.width));
          b.labels = s.labels;
          return b;
        },
        48, {.workers = 4, .prefetch_depth = depth});
    std::int64_t count = 0;
    while (pipeline.Next()) {
      ++count;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));  // "GPU"
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const PipelineStats stats = pipeline.Stats();
    std::printf(
        "    depth %d: %.1f samples/s (consumer waited %.0f ms total)\n",
        depth, count / seconds, stats.wait_seconds * 1e3);
    report.AddScalar("depth" + std::to_string(depth) + "_samples_per_s",
                     count / seconds);
    report.AddScalar("depth" + std::to_string(depth) + "_wait_s",
                     stats.wait_seconds);
  }

  const auto json_path = report.WriteJsonFile();
  if (!json_path.empty()) {
    std::printf("\n  wrote %s\n", json_path.string().c_str());
  }

  fs::remove_all(dir);
  return 0;
}

}  // namespace exaclim

int main() { return exaclim::Main(); }
