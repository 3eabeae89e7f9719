// The three workloads: set-up, the timed step loop, per-step checks and
// (traced run) per-layer replays.

#include "workloads.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <span>

#include "core/pathing.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

// One set-up fleet: the inputs, the emulation, the benchmark's own fiber
// record and a batch pipeline on the emulation's snapshot hub.
struct Fleet {
  Inputs in;
  std::unique_ptr<sim::DsdnEmulation> emu;
  std::unique_ptr<FiberRecord> record;
  std::unique_ptr<dataplane::BatchPipeline> pipe;
  std::uint64_t next_epoch = 0;
  std::size_t next_burst = 0;
};

struct StepTiming {
  double wall_s = 0.0;
  double sim_s = 0.0;
};

// One demand epoch: the oracle matrix is generated and installed outside
// the timed interval; observe_traffic + measurement_epoch is the step.
StepTiming demand_epoch(Fleet& f) {
  traffic::TrafficMatrix oracle = f.in.dynamics->matrix_at(f.next_epoch++);
  f.emu->set_oracle_demands(oracle);
  const double sim0 = f.emu->sim_time();
  const auto t0 = Clock::now();
  f.emu->observe_traffic(oracle);
  f.emu->measurement_epoch();
  const auto t1 = Clock::now();
  return {seconds_between(t0, t1), f.emu->sim_time() - sim0};
}

StepTiming fiber_step(Fleet& f, const FiberStep& step) {
  sim::DsdnEmulation& emu = *f.emu;
  const double sim0 = emu.sim_time();
  const auto t0 = Clock::now();
  switch (step.op) {
    case FiberStep::Op::kCut: emu.fail_fiber(step.fibers[0]); break;
    case FiberStep::Op::kFlap: emu.flap_fiber(step.fibers[0]); break;
    case FiberStep::Op::kSrlg: emu.fail_fibers(step.fibers); break;
    case FiberStep::Op::kRepair: emu.repair_fiber(step.fibers[0]); break;
  }
  const auto t1 = Clock::now();
  for (topo::LinkId fiber : step.fibers) {
    if (step.op == FiberStep::Op::kCut || step.op == FiberStep::Op::kSrlg) {
      f.record->set(fiber, false);
    } else if (step.op == FiberStep::Op::kRepair) {
      f.record->set(fiber, true);
    }
  }
  return {seconds_between(t0, t1), emu.sim_time() - sim0};
}

std::unique_ptr<Fleet> set_up(WorkloadKind kind, std::uint64_t seed,
                              const std::string& variant = "") {
  auto f = std::make_unique<Fleet>();
  f->in = make_inputs(kind, seed);
  if (variant == "all_strict") f->in.config.algorithms.clear();
  if (variant == "incremental_te") f->in.config.incremental_te = true;
  traffic::TrafficMatrix initial =
      f->in.closed_loop ? f->in.dynamics->matrix_at(0) : f->in.tm;
  f->emu = std::make_unique<sim::DsdnEmulation>(f->in.topo, std::move(initial),
                                                f->in.config);
  f->emu->enable_fib_snapshots(1);
  if (f->in.closed_loop) f->emu->enable_in_band_measurement(f->in.estimator);
  f->emu->bootstrap();
  // The closed loop's first epoch -- the fleet first learns and solves
  // demand -- is warm-up, not a step.
  if (f->in.closed_loop) demand_epoch(*f);
  f->record = std::make_unique<FiberRecord>(f->emu->network());
  f->pipe = std::make_unique<dataplane::BatchPipeline>(f->emu->network(),
                                                       f->emu->fib_hub());
  return f;
}

// After convergence every packet between connected endpoints must be
// delivered -- except in the mixed fleet, where shortest-path headends
// place capacity-obliviously first and can leave a strict-TE demand
// with no allocation, hence no route (see README, faults seen).
Delivery converged_delivery(WorkloadKind kind) {
  return kind == WorkloadKind::kGeantSrChurn ? Delivery::kIfAllocated
                                             : Delivery::kIfConnected;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Accumulates attempted/failed operations and the first failure lines.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void op(const std::vector<std::string>& fails, std::uint64_t step_id) {
    ++attempted;
    if (fails.empty()) return;
    ++failed;
    note(fails, step_id);
  }
  void note(const std::vector<std::string>& fails, std::uint64_t step_id) {
    for (const std::string& s : fails) {
      if (failures.size() < 8)
        failures.push_back("step " + std::to_string(step_id) + ": " + s);
    }
  }
};

// Forwards the pool's next burst on the hub's current snapshot, timing
// only BatchPipeline::process, then checks every verdict.
struct BurstResult {
  double process_s = 0.0;
  std::size_t packets = 0;
  std::size_t frr_packets = 0;   // verdicts with an FRR activation
  std::size_t slow_path = 0;     // packets rerun on the scalar slow path
  std::span<const dataplane::PacketSpec> specs;
};

BurstResult forward_burst(Fleet& f, const topo::Topology& link_state,
                          Delivery delivery, Tally& tally,
                          std::uint64_t step_id,
                          std::vector<dataplane::PacketVerdict>& verdicts) {
  const std::size_t n = f.in.burst_size;
  const std::size_t bursts = f.in.packet_pool.size() / n;
  const std::size_t at = (f.next_burst++ % bursts) * n;
  BurstResult r;
  r.specs = std::span(f.in.packet_pool).subspan(at, n);
  const std::uint64_t slow0 = f.pipe->stats().slow_path_packets;
  const auto t0 = Clock::now();
  f.pipe->process(r.specs, verdicts);
  const auto t1 = Clock::now();
  r.process_s = seconds_between(t0, t1);
  r.packets = n;
  r.slow_path = f.pipe->stats().slow_path_packets - slow0;
  for (const dataplane::PacketVerdict& v : verdicts) {
    if (v.frr_activations > 0) ++r.frr_packets;
  }
  std::size_t bad = 0;
  const auto fails =
      check_burst(*f.emu, link_state, *f.record, r.specs, verdicts,
                  std::span(f.in.packet_dst).subspan(at, n), delivery,
                  &bad);
  tally.attempted += n;
  tally.failed += bad;
  tally.note(fails, step_id);
  return r;
}

void write_layer_report(const std::string& path, const WorkloadSpec& spec,
                        const RunOptions& options,
                        const std::vector<StepLayers>& steps,
                        const std::vector<Metric>& summary) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", spec.name);
  w.kv("seed", static_cast<std::uint64_t>(options.seed));
  w.key("summary");
  w.begin_object();
  for (const Metric& m : summary) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("steps");
  w.begin_array();
  for (const StepLayers& s : steps) {
    w.begin_object();
    w.kv("step", static_cast<std::uint64_t>(s.step_id));
    w.kv("op", s.op);
    w.kv("step_ms", s.step_ms);
    for (const auto& [name, value] : s.values) w.kv(name, value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream(path) << w.str() << "\n";
}

}  // namespace

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult result;
  Tally tally;

  // Set-up, several times; the last fleet is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    const auto t0 = Clock::now();
    fleet = set_up(spec.kind, options.seed, options.variant);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  Fleet& f = *fleet;
  {
    const auto fails = check_fleet(*f.emu, *f.record, spec.kind);
    if (!fails.empty()) {
      result.correct = false;
      tally.note(fails, 0);
    }
  }

  if (options.trace) {
    // Only the benchmark's own spans are recorded: the tracer stays
    // disabled for the program's internal spans.
    obs::Tracer::global().enable(1 << 16);
    obs::Tracer::global().disable();
  }
  std::vector<StepLayers> layer_steps;

  std::vector<double> step_s, sim_s;
  std::vector<double> burst_s;  // process() time of each burst
  std::uint64_t packets = 0;
  std::vector<dataplane::PacketVerdict> verdicts;
  std::uint64_t step_id = 0;
  std::uint64_t round = 0;
  const auto start = Clock::now();

  // Packets of the current step's bursts that took FRR / the slow path.
  std::size_t step_frr = 0, step_slow = 0;
  bool stale_burst = false;
  auto after_step = [&](const StepTiming& t, const std::string& op,
                        const StepCounters& before) {
    step_s.push_back(t.wall_s);
    sim_s.push_back(t.sim_s);
    const StepCounters after =
        options.trace ? StepCounters::sample(*f.emu) : StepCounters{};
    std::uint64_t t0 = obs::Tracer::now_ns();
    tally.op(check_fleet(*f.emu, *f.record, spec.kind), step_id);
    if (options.trace) record_step_span(step_id, "checks", t0);
    t0 = obs::Tracer::now_ns();
    const BurstResult b = forward_burst(f, f.emu->network(),
                                        converged_delivery(spec.kind), tally,
                                        step_id, verdicts);
    if (options.trace) record_step_span(step_id, "burst.converged", t0);
    burst_s.push_back(b.process_s);
    packets += b.packets;
    if (options.trace) {
      StepLayers sl;
      sl.step_id = step_id;
      sl.op = op;
      sl.step_ms = 1e3 * t.wall_s;
      replay_layers(*f.emu, f.in, spec.kind, before, after, b.specs, sl);
      // FRR and the slow path only engage around fiber-down steps.
      if (stale_burst) {
        sl.values["dataplane.frr_pkts"] =
            static_cast<double>(step_frr + b.frr_packets);
        sl.values["dataplane.slow_path_pkts"] =
            static_cast<double>(step_slow + b.slow_path);
      }
      layer_steps.push_back(std::move(sl));
    }
    step_frr = step_slow = 0;
    stale_burst = false;
  };

  // Whole rounds only: every run attempts the same mix of operations.
  while (seconds_between(start, Clock::now()) < options.seconds) {
    if (f.in.closed_loop) {
      ++step_id;
      const StepCounters before =
          options.trace ? StepCounters::sample(*f.emu) : StepCounters{};
      const std::uint64_t t0 = obs::Tracer::now_ns();
      const StepTiming t = demand_epoch(f);
      if (options.trace) record_step_span(step_id, "demand_epoch", t0);
      after_step(t, "demand_epoch", before);
      continue;
    }
    for (const FiberStep& step :
         churn_round(*f.record, f.in.schedule_seed, round++)) {
      ++step_id;
      if (step.fiber_down()) {
        // Stale window: the dataplane has seen the port go down, the
        // control plane has not reconverged -- FRR must carry traffic.
        topo::Topology down = f.emu->network();
        for (topo::LinkId fiber : step.fibers) down.set_duplex_up(fiber, false);
        f.emu->fib_hub()->publish_link_state(down);
        const std::uint64_t t0 = obs::Tracer::now_ns();
        const BurstResult b =
            forward_burst(f, down, Delivery::kNotRequired, tally, step_id,
                          verdicts);
        if (options.trace) record_step_span(step_id, "burst.stale", t0);
        burst_s.push_back(b.process_s);
        packets += b.packets;
        step_frr = b.frr_packets;
        step_slow = b.slow_path;
        stale_burst = true;
      }
      const StepCounters before =
          options.trace ? StepCounters::sample(*f.emu) : StepCounters{};
      const std::uint64_t t0 = obs::Tracer::now_ns();
      const StepTiming t = fiber_step(f, step);
      if (options.trace) record_step_span(step_id, step.name(), t0);
      after_step(t, step.name(), before);
    }
  }

  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.failures = tally.failures;
  if (tally.failed > 0) result.correct = false;

  char note[256];
  std::snprintf(note, sizeof note, "set-ups %.4f %.4f %.4f s", setup_s[0],
                setup_s[1], setup_s[2]);
  result.notes.push_back(note);
  std::snprintf(note, sizeof note,
                "%zu steps, %llu packets; sim-time per step p50 %.4f s, "
                "max %.4f s (reference, not a metric)",
                step_s.size(), static_cast<unsigned long long>(packets),
                median(sim_s), percentile(sim_s, 1.0));
  result.notes.push_back(note);

  if (!options.trace) {
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"step_p50_s", median(step_s), "s"},
        {"step_tail_s", percentile(step_s, spec.tail_q), "s"},
        // A burst's packets over its median time inside process().
        {"pkts_per_s", static_cast<double>(f.in.burst_size) / median(burst_s),
         "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return result;
  }

  // Per-layer summary: the median over steps of each metric.
  for (const auto& [name, unit] : layer_metrics()) {
    std::vector<double> values;
    for (const StepLayers& s : layer_steps) {
      const auto it = s.values.find(name);
      if (it != s.values.end()) values.push_back(it->second);
    }
    result.metrics.push_back({name, median(values), unit});
  }
  if (!options.out_dir.empty()) {
    const std::string base = options.out_dir + "/" + spec.name + "_seed" +
                             std::to_string(options.seed);
    write_layer_report(base + "_layers.json", spec, options, layer_steps,
                       result.metrics);
    obs::Tracer::global().write_chrome_trace(base + "_trace.json");
    result.notes.push_back("per-layer report: " + base + "_layers.json");
    result.notes.push_back("chrome trace: " + base + "_trace.json");
  }
  return result;
}

bool run_selftest(std::uint64_t seed) {
  bool all_caught = true;
  enum class Damage {
    kNone, kRecordFiber, kClearEncap, kForgedNsu, kRogueSolver
  };
  const std::pair<Damage, const char*> cases[] = {
      {Damage::kNone, "undamaged fleet passes"},
      {Damage::kRecordFiber, "fiber dropped from the benchmark's record"},
      {Damage::kClearEncap, "one router's encap routes cleared"},
      {Damage::kForgedNsu, "forged NSU applied at one router"},
      {Damage::kRogueSolver, "one router re-solved with other options"},
  };
  for (const WorkloadSpec& spec : all_workloads()) {
    for (const auto& [damage, what] : cases) {
      auto fleet = set_up(spec.kind, seed);
      Fleet& f = *fleet;
      Tally tally;
      // One ordinary step first, so the damage lands on a churned fleet.
      if (f.in.closed_loop) {
        demand_epoch(f);
      } else {
        fiber_step(f, churn_round(*f.record, f.in.schedule_seed, 0)[0]);
      }
      sim::DsdnEmulation& emu = *f.emu;
      const topo::NodeId victim = 2;
      switch (damage) {
        case Damage::kNone:
          break;
        case Damage::kRecordFiber: {
          const auto& fibers = f.record->fibers();
          for (topo::LinkId fiber : fibers) {
            if (f.record->up(fiber)) {
              f.record->set(fiber, false);
              break;
            }
          }
          break;
        }
        case Damage::kClearEncap: {
          core::Controller& c = emu.mutable_controller(victim);
          c.mutable_dataplane().ingress.clear_routes();
          emu.fib_hub()->publish_router(victim, c.dataplane());
          break;
        }
        case Damage::kForgedNsu: {
          const topo::NodeId origin = 1;
          core::NodeStateUpdate nsu =
              *emu.controller(0).state().latest(origin);
          ++nsu.seq;
          nsu.links.at(0).capacity_gbps *= 0.5;
          emu.mutable_controller(victim).handle_nsu(nsu, topo::kInvalidLink);
          break;
        }
        case Damage::kRogueSolver: {
          te::SolverOptions other = f.in.config.solver_options;
          other.quantum_divisor = 2.0;
          core::Controller& c = emu.mutable_controller(victim);
          c.set_solve_api(std::make_unique<core::LocalSolver>(other));
          c.recompute();
          break;
        }
      }
      const auto fleet_fails = check_fleet(emu, *f.record, spec.kind);
      tally.op(fleet_fails, 1);
      std::vector<dataplane::PacketVerdict> verdicts;
      forward_burst(f, emu.network(), converged_delivery(spec.kind), tally,
                    1, verdicts);
      const std::uint64_t bad_packets =
          tally.failed - (fleet_fails.empty() ? 0 : 1);
      const bool flagged = tally.failed > 0;
      const bool ok = damage == Damage::kNone ? !flagged : flagged;
      all_caught = all_caught && ok;
      std::printf("selftest %-17s %-44s %-6s fleet checks failed: %zu, "
                  "packets failed: %llu%s%s\n",
                  spec.name, what, ok ? "ok" : "FAILED", fleet_fails.size(),
                  static_cast<unsigned long long>(bad_packets),
                  tally.failures.empty() ? "" : "; first: ",
                  tally.failures.empty() ? "" : tally.failures[0].c_str());
      std::fflush(stdout);
    }
  }
  return all_caught;
}

}  // namespace perfbench
