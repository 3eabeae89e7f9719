#include "obs/artifact.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace dsdn::obs {

std::span<const double> artifact_percentiles() {
  static const double kPs[] = {1,  2,  5,  10, 25, 50,   75,
                               90, 95, 98, 99, 99.9};
  return kPs;
}

namespace {

// One section's keys must stay unique: the JSON object it becomes would
// silently keep only one of two values under a repeated key.
template <typename Entries, typename KeyOf>
void require_new_key(const Entries& entries, KeyOf key_of,
                     const char* section, const std::string& key) {
  for (const auto& e : entries) {
    if (key_of(e) == key) {
      throw std::logic_error("RunArtifact: duplicate " +
                             std::string(section) + " key '" + key + "'");
    }
  }
}

}  // namespace

RunArtifact::RunArtifact(std::string name) : name_(std::move(name)) {}

void RunArtifact::add_param(const std::string& key, ParamValue v) {
  require_new_key(params_, [](const auto& p) -> auto& { return p.first; },
                  "param", key);
  params_.emplace_back(key, std::move(v));
}

void RunArtifact::param(const std::string& key, double v) {
  add_param(key, ParamValue{ParamValue::Kind::kDouble, v, 0, 0, {}, false});
}
void RunArtifact::param(const std::string& key, std::int64_t v) {
  add_param(key, ParamValue{ParamValue::Kind::kInt, 0, v, 0, {}, false});
}
void RunArtifact::param(const std::string& key, std::uint64_t v) {
  add_param(key, ParamValue{ParamValue::Kind::kUint, 0, 0, v, {}, false});
}
void RunArtifact::param(const std::string& key, const std::string& v) {
  add_param(key, ParamValue{ParamValue::Kind::kString, 0, 0, 0, v, false});
}
void RunArtifact::param(const std::string& key, bool v) {
  add_param(key, ParamValue{ParamValue::Kind::kBool, 0, 0, 0, {}, v});
}

void RunArtifact::metric(const std::string& key, double v) {
  require_new_key(metrics_, [](const auto& m) -> auto& { return m.first; },
                  "metric", key);
  metrics_.emplace_back(key, v);
}

void RunArtifact::series(const std::string& key,
                         const metrics::EmpiricalDistribution& d) {
  require_new_key(series_, [](const Series& s) -> auto& { return s.key; },
                  "series", key);
  Series s;
  s.key = key;
  s.n = d.size();
  if (!d.empty()) {
    s.mean = d.mean();
    s.min = d.min();
    s.max = d.max();
    s.percentile_values = d.percentiles(artifact_percentiles());
  }
  series_.push_back(std::move(s));
}

void RunArtifact::attach_registry(Snapshot snapshot) {
  registry_ = std::move(snapshot);
}

std::string RunArtifact::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("name", name_);
  w.kv("schema_version", kSchemaVersion);
  w.key("params");
  w.begin_object();
  for (const auto& [key, v] : params_) {
    w.key(key);
    switch (v.kind) {
      case ParamValue::Kind::kDouble:
        w.value(v.d);
        break;
      case ParamValue::Kind::kInt:
        w.value(v.i);
        break;
      case ParamValue::Kind::kUint:
        w.value(v.u);
        break;
      case ParamValue::Kind::kString:
        w.value(v.s);
        break;
      case ParamValue::Kind::kBool:
        w.value(v.b);
        break;
    }
  }
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& [key, v] : metrics_) w.kv(key, v);
  w.end_object();
  w.key("series");
  w.begin_object();
  for (const Series& s : series_) {
    w.key(s.key);
    w.begin_object();
    w.kv("n", static_cast<std::uint64_t>(s.n));
    w.kv("mean", s.mean);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.key("percentiles");
    w.begin_object();
    const auto ps = artifact_percentiles();
    for (std::size_t i = 0; i < s.percentile_values.size(); ++i) {
      char key_buf[16];
      // p50, p99, p99.9 -- trim trailing ".0".
      std::snprintf(key_buf, sizeof(key_buf), "p%g", ps[i]);
      w.kv(key_buf, s.percentile_values[i]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  // Embedded, not stringified: the artifact is one coherent document.
  w.key("registry");
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : registry_.counters) w.kv(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : registry_.gauges) w.kv(name, v);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : registry_.histograms) {
    w.key(name);
    w.begin_object();
    w.key("bounds");
    w.begin_array();
    for (const double b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (const std::uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

bool RunArtifact::write(const std::string& dir) const {
  const std::string path = dir + "/" + file_name();
  const std::string json = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace dsdn::obs
