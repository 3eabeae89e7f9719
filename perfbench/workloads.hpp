#pragma once

// Workloads: set-up, the timed step loop, checks and (traced run)
// per-layer replays; plus the self-test of the checks.

#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir;  // traced run: where the layer JSON and trace go
  // Reference variant for the README figures, not a workload:
  // "all_strict" (no mixed fleet) or "incremental_te" (warm solves).
  std::string variant;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // first few, for stderr
  std::vector<std::string> notes;     // reference figures, for stderr
};

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options);

// Damages the program's output through public handles and confirms the
// checks of every workload report it. Returns true when all damage was
// caught; prints one line per case.
bool run_selftest(std::uint64_t seed);

}  // namespace perfbench
