#include "common/half.hpp"

#include <ostream>

namespace exaclim {

std::ostream& operator<<(std::ostream& os, Half h) {
  return os << h.ToFloat();
}

}  // namespace exaclim
