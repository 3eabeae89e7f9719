// dsdn_perfbench: one workload of the end-to-end dSDN benchmark per
// process. Usually started through perfbench/run.py, which builds it.
//
//   dsdn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--variant all_strict|incremental_te]
//   dsdn_perfbench --selftest [--seed <n>]
//
// Prints a host fingerprint, reference notes, then as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (and --out-dir receives the per-layer JSON and a chrome
// trace of the benchmark's spans). --variant runs a reference variant
// of a workload for the README figures; it is not a workload.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.hpp"
#include "obs/json.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "address/thread";
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") ? "from CXX flags"
                                                         : "none";
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: dsdn_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       [--variant all_strict|incremental_te]\n"
               "       dsdn_perfbench --selftest [--seed <n>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(next(), nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(next()) == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = next();
    } else if (arg == "--variant") {
      options.variant = next();
      if (options.variant != "all_strict" &&
          options.variant != "incremental_te") {
        return usage();
      }
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      return usage();
    }
  }

  std::printf("host: cpu=\"%s\" hw_threads=%u compiler=\"%s\" build=%s "
              "optimized=%s sanitizer=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              __VERSION__, PERFBENCH_BUILD_TYPE, optimized() ? "yes" : "no",
              sanitizer());
  std::fflush(stdout);
  if (!optimized() || std::strcmp(sanitizer(), "none") != 0) {
    std::fprintf(stderr, "refusing to report numbers from an unoptimised or "
                         "sanitizer build\n");
    return 3;
  }

  if (selftest) return run_selftest(options.seed) ? 0 : 1;

  const WorkloadSpec* spec = find_workload(workload);
  if (!spec || options.seconds <= 0) return usage();

  const RunResult r = run_workload(*spec, options);
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& f : r.failures)
    std::printf("FAILED: %s\n", f.c_str());

  dsdn::obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", r.correct);
  w.kv("attempted", static_cast<std::uint64_t>(r.attempted));
  w.kv("failed", static_cast<std::uint64_t>(r.failed));
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : r.metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
