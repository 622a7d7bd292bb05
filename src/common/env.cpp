#include "common/env.hpp"

#include <charconv>
#include <system_error>

#include "common/error.hpp"

namespace exaclim {

bool ParseEnvSwitch(const char* name, std::string_view value) {
  const bool on = value == "on" || value == "1" || value == "true";
  EXACLIM_CHECK(on || value == "off" || value == "0" || value == "false",
                name << "='" << value << "': expected on|off|1|0|true|false");
  return on;
}

std::int64_t ParseEnvPositiveInt(const char* name, std::string_view value) {
  std::int64_t v = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, v);
  EXACLIM_CHECK(ec == std::errc() && end == last && v > 0,
                name << "='" << value << "': expected a positive integer");
  return v;
}

}  // namespace exaclim
