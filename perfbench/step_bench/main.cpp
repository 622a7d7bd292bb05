// Workload runner of the end-to-end training benchmark (see
// perfbench/README.md). perfbench/run.py builds this binary, pins the
// environment and runs one workload per process:
//
//   perfbench_step --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--corrupt-replica] [--trace-out <path>]
//
// It prints two JSON lines: an info record (effective environment, check
// values) and the result {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "nn/conv.hpp"
#include "step_bench/workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

// Every EXACLIM_* variable the library reads. run.py unsets them all and
// sets EXACLIM_THREADS; the info record echoes each one.
constexpr const char* kKnobs[] = {
    "EXACLIM_THREADS",      "EXACLIM_OVERLAP",
    "EXACLIM_FUSION_BYTES", "EXACLIM_WIRE",
    "EXACLIM_ELASTIC",      "EXACLIM_ELASTIC_TIMEOUT",
    "EXACLIM_ELASTIC_REBUILD_TIMEOUT",
    "EXACLIM_CONV_ALGO",    "EXACLIM_CONV_SERIAL",
    "EXACLIM_CONV_FUSE",    "EXACLIM_CONV_SHARDS",
    "EXACLIM_GEMM_KERNEL",  "EXACLIM_POOL",
    "EXACLIM_POOL_BUCKETS", "EXACLIM_ALLOC_TRACK",
    "EXACLIM_FAULTS",       "EXACLIM_TRACE",
    "EXACLIM_BENCH_DIR"};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_step: %s\nusage: perfbench_step --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--corrupt-replica] [--trace-out <path>]\n",
               why);
  std::exit(2);
}

/// Refuses to measure under a stray EXACLIM_* variable: only
/// EXACLIM_THREADS may be set, and it must equal kPoolThreads.
void CheckEnvironment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "EXACLIM_", 8) == 0 &&
        std::strncmp(*e, "EXACLIM_THREADS=", 16) != 0) {
      std::fprintf(stderr, "perfbench_step: unexpected %s\n", *e);
      std::exit(2);
    }
  }
  const char* threads = std::getenv("EXACLIM_THREADS");
  if (threads == nullptr || std::to_string(kPoolThreads) != threads) {
    std::fprintf(stderr, "perfbench_step: needs EXACLIM_THREADS=%d\n",
                 kPoolThreads);
    std::exit(2);
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintInfo(const Workload& w, const RunOptions& o, const Report& r) {
  std::string env = "{";
  for (std::size_t i = 0; i < std::size(kKnobs); ++i) {
    const char* v = std::getenv(kKnobs[i]);
    env += (i ? ", " : "") + JsonString(kKnobs[i]) + ": " +
           (v ? JsonString(v) : std::string("null"));
  }
  env += "}";
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    problems += (i ? ", " : "") + JsonString(r.problems[i]);
  }
  problems += "]";
  std::printf(
      "{\"info\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": %s, \"nproc\": %u, "
      "\"pool_threads\": %zu, \"conv_algo\": %s, \"env\": %s, "
      "\"notes\": %s, \"problems\": %s}}\n",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(o.seed),
      JsonNumber(o.seconds).c_str(), o.traced ? 1 : 0,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      std::thread::hardware_concurrency(),
      exaclim::ThreadPool::Global().size() + 1,
      JsonString(exaclim::ToString(exaclim::DefaultConvAlgorithm())).c_str(),
      env.c_str(), JsonMetrics(r.notes).c_str(), problems.c_str());
}

int Main(int argc, char** argv) {
  RunOptions o;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = o.seconds > 0.0;
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") Usage("--trace takes 0 or 1");
        o.traced = t == "1";
        have_trace = true;
      } else if (a == "--trace-out") {
        o.trace_path = value();
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--corrupt-replica") {
        o.corrupt_replica = true;
      } else {
        Usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + a).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  Workload w;
  try {
    w = MakeWorkload(workload, o.seed);
  } catch (const std::exception& e) {
    Usage(e.what());
  }
  CheckEnvironment();

  const Report r = RunWorkload(w, o);
  PrintInfo(w, o, r);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      r.correct ? "true" : "false", static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), JsonMetrics(r.metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
