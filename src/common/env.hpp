#pragma once

// Strict grammar shared by the EXACLIM_* knobs that take a switch or a
// number (POOL and THREADS). Call sites keep their own
// std::getenv("EXACLIM_...") (so the env-prefix and env-documented lint
// rules see every name) and hand the raw value here. A value outside the
// grammar fails with an EXACLIM_CHECK naming the variable, instead of
// silently meaning something else. EXACLIM_ALLOC_TRACK accepts the same
// switch spellings plus "strict", but is read inside operator new, where
// throwing is not an option, so common/alloc_tracker.cpp matches them
// with strcmp and aborts on anything else.

#include <cstdint>
#include <string_view>

namespace exaclim {

/// on|1|true -> true, off|0|false -> false.
bool ParseEnvSwitch(const char* name, std::string_view value);

/// A positive decimal integer: no sign, no spaces, no trailing
/// characters, no overflow.
std::int64_t ParseEnvPositiveInt(const char* name, std::string_view value);

}  // namespace exaclim
