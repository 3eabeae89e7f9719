#pragma once

// Machine-readable run artifacts: one JSON document per benchmark run
// capturing the workload parameters, headline scalar metrics, percentile
// series from EmpiricalDistributions, and a metrics-registry snapshot.
// bench_common writes one as BENCH_<name>.json when DSDN_BENCH_JSON=<dir>
// is set, giving the repo a perf trajectory that survives the run (the
// human-readable tables do not). scripts/validate_bench_json.py checks
// emitted artifacts against scripts/bench_schema.json in tier-1.

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/distribution.hpp"
#include "obs/metrics.hpp"

namespace dsdn::obs {

// The percentile sweep every series reports (one batch query per
// distribution via EmpiricalDistribution::percentiles()).
std::span<const double> artifact_percentiles();

// Keys are unique within params, within metrics and within series: a
// repeated key throws std::logic_error (JSON readers would otherwise keep
// one of the two values without a word).
class RunArtifact {
 public:
  explicit RunArtifact(std::string name);

  // Workload parameters ("nodes", "demands", "scale"...).
  void param(const std::string& key, double v);
  void param(const std::string& key, std::uint64_t v);
  void param(const std::string& key, std::int64_t v);
  void param(const std::string& key, int v) {
    param(key, static_cast<std::int64_t>(v));
  }
  void param(const std::string& key, const std::string& v);
  void param(const std::string& key, bool v);

  // Headline scalars (speedups, ratios, best-of times).
  void metric(const std::string& key, double v);

  // Percentile series of a measured distribution.
  void series(const std::string& key,
              const metrics::EmpiricalDistribution& d);

  // Registry snapshot to embed (typically Registry::global().snapshot(),
  // or a diff covering just this run). Last call wins.
  void attach_registry(Snapshot snapshot);

  const std::string& name() const { return name_; }
  std::string to_json() const;

  // Writes <dir>/BENCH_<name>.json (dir must exist). Returns false on
  // I/O failure.
  bool write(const std::string& dir) const;
  std::string file_name() const { return "BENCH_" + name_ + ".json"; }

  static constexpr int kSchemaVersion = 1;

 private:
  struct ParamValue {
    enum class Kind { kDouble, kInt, kUint, kString, kBool } kind;
    double d = 0;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    std::string s;
    bool b = false;
  };
  struct Series {
    std::string key;
    std::size_t n = 0;
    double mean = 0, min = 0, max = 0;
    std::vector<double> percentile_values;  // parallel to artifact_percentiles()
  };

  void add_param(const std::string& key, ParamValue v);

  std::string name_;
  std::vector<std::pair<std::string, ParamValue>> params_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<Series> series_;
  Snapshot registry_;
};

}  // namespace dsdn::obs
