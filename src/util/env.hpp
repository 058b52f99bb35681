// Small helpers for reading harness configuration from the environment.
//
// Benchmarks honour RESCHED_SCALE (instance-count multiplier) and
// RESCHED_THREADS (experiment-runner thread count) so the paper-scale grids
// are reachable without recompiling.
#pragma once

#include <string>

namespace resched::util {

/// Returns the environment variable `name` parsed as double, or `fallback`
/// when unset or unparsable: the whole value must be one finite number
/// ("4x", "inf" and "nan" are unparsable).
double env_double(const std::string& name, double fallback);

/// Returns the environment variable `name` parsed as a number and
/// truncated to int ("7.25" reads as 7), or `fallback` when unset,
/// unparsable as for env_double, or outside int's range.
int env_int(const std::string& name, int fallback);

/// Global instance-count multiplier for benches (RESCHED_SCALE, default 1.0,
/// clamped to be >= 0.01).
double bench_scale();

/// Thread count for the experiment runner (RESCHED_THREADS, default:
/// hardware concurrency).
int bench_threads();

}  // namespace resched::util
