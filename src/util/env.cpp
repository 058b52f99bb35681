#include "src/util/env.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>

namespace resched::util {

double env_double(const std::string& name, double fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  double v = std::strtod(raw, &end);
  return (end == raw || *end != '\0' || !std::isfinite(v)) ? fallback : v;
}

int env_int(const std::string& name, int fallback) {
  double v = env_double(name, fallback);
  // Casting a double outside int's range is undefined behaviour.
  if (v <= std::numeric_limits<int>::min() - 1.0 ||
      v >= std::numeric_limits<int>::max() + 1.0)
    return fallback;
  return static_cast<int>(v);
}

double bench_scale() {
  return std::max(0.01, env_double("RESCHED_SCALE", 1.0));
}

int bench_threads() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, env_int("RESCHED_THREADS", std::max(1, hw)));
}

}  // namespace resched::util
