// The conv knobs (EXACLIM_CONV_SERIAL / _FUSE / _SHARDS / _ALGO) are read
// once per process, on first use. Every case below therefore runs in a
// fresh child process (a "threadsafe" death test re-executes this binary)
// that sets the variable before anything reads it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "nn/conv.hpp"
#include "nn/conv_engine.hpp"

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

class ConvKnobEnv : public ::testing::Test {
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

TEST_F(ConvKnobEnv, SerialIsAStrictSwitch) {
  const auto read = [] {
    return std::string(ConvBatchParallelEnabled() ? "parallel" : "serial");
  };
  for (const char* v : {"on", "1", "true"}) {
    ExpectAccepted("EXACLIM_CONV_SERIAL", v, read, "serial");
  }
  for (const char* v : {"off", "0", "false"}) {
    ExpectAccepted("EXACLIM_CONV_SERIAL", v, read, "parallel");
  }
  for (const char* v : {"no", "yes", ""}) {
    ExpectRejected("EXACLIM_CONV_SERIAL", v, read);
  }
}

TEST_F(ConvKnobEnv, FuseIsAStrictSwitch) {
  const auto read = [] {
    return std::string(ConvFusionEnabled() ? "fused" : "unfused");
  };
  for (const char* v : {"on", "1", "true"}) {
    ExpectAccepted("EXACLIM_CONV_FUSE", v, read, "fused");
  }
  for (const char* v : {"off", "0", "false"}) {
    ExpectAccepted("EXACLIM_CONV_FUSE", v, read, "unfused");
  }
  for (const char* v : {"no", "yes", ""}) {
    ExpectRejected("EXACLIM_CONV_FUSE", v, read);
  }
}

TEST_F(ConvKnobEnv, ShardsIsAPositiveInteger) {
  // The knob caps the shard count, so a large batch reads it back.
  const auto read = [] { return std::to_string(ConvGradShards(1000)); };
  ExpectAccepted("EXACLIM_CONV_SHARDS", "4", read, "4");
  ExpectAccepted("EXACLIM_CONV_SHARDS", "32", read, "32");
  for (const char* v : {"abc", "0", "-2", "16x", " 4", ""}) {
    ExpectRejected("EXACLIM_CONV_SHARDS", v, read);
  }
}

TEST_F(ConvKnobEnv, AlgoMustNameAnAlgorithm) {
  const auto read = [] {
    return std::string(ToString(DefaultConvAlgorithm()));
  };
  for (const char* v : {"auto", "im2col", "implicit", "direct"}) {
    ExpectAccepted("EXACLIM_CONV_ALGO", v, read,
                   ToString(*ParseConvAlgorithm(v)));
  }
  for (const char* v : {"winograd", "IM2COL", ""}) {
    ExpectRejected("EXACLIM_CONV_ALGO", v, read);
  }
}

}  // namespace
}  // namespace exaclim
