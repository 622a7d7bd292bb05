// Strict parsing of the EXACLIM_* knobs that are read once per process,
// on first use. Every case below therefore runs in a fresh child process
// (a "threadsafe" death test re-executes this binary). The lazily read
// knobs are set by the child before anything reads them;
// EXACLIM_ALLOC_TRACK is read by the first allocation, long before any
// test body runs, so it is set in the environment the child inherits.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/alloc_tracker.hpp"
#include "common/error.hpp"
#include "common/pool.hpp"
#include "common/thread_pool.hpp"

namespace exaclim {
namespace {

/// Child side: sets name=value, then reads the knob through `read`. Exits
/// 0 after printing "value=<result>", or 1 after printing the Error.
template <typename Read>
[[noreturn]] void ReadKnobAndExit(const char* name, const char* value,
                                  Read read) {
  ::setenv(name, value, 1);
  try {
    const std::string got = read();
    std::fprintf(stderr, "value=%s\n", got.c_str());
    std::_Exit(0);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::_Exit(1);
  }
}

/// Sets a variable for the death-test children spawned in its scope and
/// removes it again, so the parent's own knobs stay untouched.
struct ScopedInheritedEnv {
  ScopedInheritedEnv(const char* name, const char* value) : name(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedInheritedEnv() { ::unsetenv(name); }
  const char* name;
};

class EnvKnob : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }

  template <typename Read>
  static void ExpectAccepted(const char* name, const char* value, Read read,
                             const std::string& want) {
    EXPECT_EXIT(ReadKnobAndExit(name, value, read),
                ::testing::ExitedWithCode(0), "value=" + want + "\n")
        << name << "='" << value << "'";
  }

  template <typename Read>
  static void ExpectRejected(const char* name, const char* value,
                             Read read) {
    EXPECT_EXIT(ReadKnobAndExit(name, value, read),
                ::testing::ExitedWithCode(1), name)
        << name << "='" << value << "'";
  }
};

TEST_F(EnvKnob, PoolIsAStrictSwitch) {
  const auto read = [] { return std::string(PoolEnabled() ? "on" : "off"); };
  for (const char* v : {"on", "1", "true"}) {
    ExpectAccepted("EXACLIM_POOL", v, read, "on");
  }
  for (const char* v : {"off", "0", "false"}) {
    ExpectAccepted("EXACLIM_POOL", v, read, "off");
  }
  for (const char* v : {"no", "yes", "OFF", ""}) {
    ExpectRejected("EXACLIM_POOL", v, read);
  }
}

TEST_F(EnvKnob, ThreadsIsAPositiveInteger) {
  // The calling thread participates, so the pool spawns threads - 1.
  const auto read = [] {
    return std::to_string(ThreadPool::Global().size() + 1);
  };
  ExpectAccepted("EXACLIM_THREADS", "1", read, "1");
  ExpectAccepted("EXACLIM_THREADS", "3", read, "3");
  for (const char* v : {"4x", "0", "-2", "abc", " 4", ""}) {
    ExpectRejected("EXACLIM_THREADS", v, read);
  }
}

/// Child side of the EXACLIM_ALLOC_TRACK cases: the mode was fixed by the
/// child's first allocation, from the inherited environment.
[[noreturn]] void ReportAllocTrackModeAndExit() {
  std::fprintf(stderr, "value=%s\n",
               AllocTrackingStrict()    ? "strict"
               : AllocTrackingEnabled() ? "on"
                                        : "off");
  std::_Exit(0);
}

TEST_F(EnvKnob, AllocTrackIsAStrictSwitchOrStrict) {
  const struct {
    const char* value;
    const char* want;
  } cases[] = {{"on", "on"},   {"1", "on"},      {"true", "on"},
               {"off", "off"}, {"0", "off"},     {"false", "off"},
               {"strict", "strict"}};
  for (const auto& c : cases) {
    const ScopedInheritedEnv env("EXACLIM_ALLOC_TRACK", c.value);
    EXPECT_EXIT(ReportAllocTrackModeAndExit(), ::testing::ExitedWithCode(0),
                std::string("value=") + c.want + "\n")
        << "EXACLIM_ALLOC_TRACK='" << c.value << "'";
  }
}

// The read happens inside operator new, where throwing is not an option:
// a bad value aborts with a message naming the variable.
TEST_F(EnvKnob, AllocTrackRejectsOtherValuesByAborting) {
  for (const char* v : {"no", "yes", "STRICT", "2", ""}) {
    const ScopedInheritedEnv env("EXACLIM_ALLOC_TRACK", v);
    EXPECT_EXIT(ReportAllocTrackModeAndExit(),
                ::testing::KilledBySignal(SIGABRT), "EXACLIM_ALLOC_TRACK")
        << "EXACLIM_ALLOC_TRACK='" << v << "'";
  }
}

}  // namespace
}  // namespace exaclim
