// Per-layer replays for the traced run. Each layer is timed around its
// public calls, on scratch copies of the converged state right after a
// step, so the measured run itself is unchanged. Counts come from public
// accessors and the emulation's obs counters.

#include <algorithm>
#include <deque>

#include "bench.hpp"
#include "core/programmer.hpp"
#include "core/upgrade.hpp"
#include "core/wire.hpp"
#include "obs/trace.hpp"
#include "te/recompute_policy.hpp"
#include "te/segment_routing.hpp"
#include "te/solver.hpp"
#include "traffic/estimator.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"sim.nsu_deliveries", "count"},
      {"sim.nsu_bytes", "B"},
      {"sim.unaccounted_ms", "ms"},
      {"core.nsu_originations", "count"},
      {"core.nsu_accepted", "count"},
      {"core.recomputes", "count"},
      {"core.wire.encode_us", "us"},
      {"core.wire.decode_us", "us"},
      {"core.state_db.apply_us", "us"},
      {"core.state_db.digest_us", "us"},
      {"core.state_db.demands_us", "us"},
      {"core.program_prefixes_us", "us"},
      {"core.program_encap_us", "us"},
      {"core.program_bypasses_us", "us"},
      {"core.program_sr_us", "us"},
      {"te.solve_ms", "ms"},
      {"te.rounds", "count"},
      {"te.path_searches", "count"},
      {"te.warm_solve_ms", "ms"},
      {"te.warm_reused", "count"},
      {"te.policy.drift_us", "us"},
      {"te.sr.solve_ms", "ms"},
      {"te.sr.underlay_ms", "ms"},
      {"dataplane.batch_us", "us"},
      {"dataplane.frr_pkts", "count"},
      {"dataplane.slow_path_pkts", "count"},
      {"dataplane.publish_router_us", "us"},
      {"traffic.estimator.roll_us", "us"},
  };
  return m;
}

void record_step_span(std::uint64_t step_id, const char* what,
                      std::uint64_t begin_ns) {
  // The tracer stores the name pointer; interned labels outlive it.
  static std::deque<std::string> names;
  names.push_back("step " + std::to_string(step_id) + " " + what);
  obs::Tracer::global().record(names.back().c_str(), begin_ns,
                               obs::Tracer::now_ns());
}

StepCounters StepCounters::sample(const sim::DsdnEmulation& emu) {
  StepCounters c;
  c.deliveries = emu.messages_delivered();
  const obs::Snapshot snap = emu.obs().snapshot();
  const auto bytes = snap.counters.find("flood.nsu_bytes");
  c.nsu_bytes = bytes == snap.counters.end() ? 0 : bytes->second;
  const auto tx = snap.counters.find("flood.transmissions");
  c.transmissions = tx == snap.counters.end() ? 0 : tx->second;
  const std::size_t n = emu.network().num_nodes();
  for (topo::NodeId r = 0; r < n; ++r) {
    c.accepted += emu.controller(r).state().accepted();
    c.recomputes += emu.controller(r).recomputes();
  }
  for (topo::NodeId o = 0; o < n; ++o) {
    c.seqs.push_back(emu.controller(0).state().seq_of(o));
  }
  return c;
}

namespace {

double us_since(std::uint64_t begin_ns) {
  return static_cast<double>(obs::Tracer::now_ns() - begin_ns) / 1e3;
}

// Times one replay block as a benchmark span tagged with the step id.
template <typename F>
void span(std::uint64_t step_id, const char* what, F&& body) {
  const std::uint64_t t0 = obs::Tracer::now_ns();
  body();
  record_step_span(step_id, what, t0);
}

// Routers whose per-router costs are sampled (evenly spread, <= 16).
std::vector<topo::NodeId> sample_routers(std::size_t n) {
  std::vector<topo::NodeId> out;
  const std::size_t k = std::min<std::size_t>(n, 16);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(static_cast<topo::NodeId>(i * n / k));
  }
  return out;
}

}  // namespace

void replay_layers(const sim::DsdnEmulation& emu, const Inputs& inputs,
                   WorkloadKind kind,
                   const StepCounters& before, const StepCounters& after,
                   std::span<const dataplane::PacketSpec> burst,
                   StepLayers& out) {
  auto& v = out.values;
  const std::uint64_t id = out.step_id;
  const std::size_t n = emu.network().num_nodes();
  const core::StateDb& db = emu.controller(0).state();
  const topo::Topology& view = db.view();
  const sim::EmulationConfig& cfg = inputs.config;
  const bool closed_loop = kind == WorkloadKind::kB4DemandEpochs;
  const bool sr_fleet = kind == WorkloadKind::kGeantSrChurn;

  // ---- sim / core counts ----
  const double deliveries =
      static_cast<double>(after.deliveries - before.deliveries);
  const double transmissions =
      static_cast<double>(after.transmissions - before.transmissions);
  const double accepted = static_cast<double>(after.accepted - before.accepted);
  const double recomputes =
      static_cast<double>(after.recomputes - before.recomputes);
  double originations = 0;
  for (std::size_t o = 0; o < n; ++o) {
    originations += static_cast<double>(after.seqs[o] - before.seqs[o]);
  }
  v["sim.nsu_deliveries"] = deliveries;
  v["sim.nsu_bytes"] = static_cast<double>(after.nsu_bytes - before.nsu_bytes);
  v["core.nsu_originations"] = originations;
  v["core.nsu_accepted"] = accepted;
  v["core.recomputes"] = recomputes;

  // ---- wire + StateDb ----
  std::vector<const core::NodeStateUpdate*> nsus = db.all_latest();
  span(id, "replay core.wire", [&] {
    std::vector<double> enc, dec;
    for (const core::NodeStateUpdate* nsu : nsus) {
      std::uint64_t t = obs::Tracer::now_ns();
      const auto bytes = core::serialize_nsu(*nsu);
      enc.push_back(us_since(t));
      t = obs::Tracer::now_ns();
      const auto decoded = core::decode_nsu(bytes);
      dec.push_back(us_since(t));
      if (!decoded) throw std::logic_error("replay: own NSU failed to decode");
    }
    v["core.wire.encode_us"] = median(enc);
    v["core.wire.decode_us"] = median(dec);
  });
  span(id, "replay core.state_db", [&] {
    core::StateDb scratch(emu.network());
    std::vector<double> apply, digest, demands;
    for (const core::NodeStateUpdate* nsu : nsus) {
      const std::uint64_t t = obs::Tracer::now_ns();
      scratch.apply(*nsu);
      apply.push_back(us_since(t));
    }
    // In the run, digest() follows the apply that just touched the same
    // database; time a second, cache-warm call to match.
    for (topo::NodeId r = 0; r < n; ++r) {
      const core::StateDb& state = emu.controller(r).state();
      std::uint64_t d = state.digest();
      const std::uint64_t t = obs::Tracer::now_ns();
      d ^= state.digest();
      digest.push_back(us_since(t));
      if (d != 0) throw std::logic_error("replay: digest is not stable");
    }
    for (topo::NodeId r : sample_routers(n)) {
      const std::uint64_t t = obs::Tracer::now_ns();
      const traffic::TrafficMatrix tm = emu.controller(r).state().demands();
      demands.push_back(us_since(t));
    }
    v["core.state_db.apply_us"] = median(apply);
    v["core.state_db.digest_us"] = median(digest);
    v["core.state_db.demands_us"] = median(demands);
  });

  // ---- programming + snapshot publication (scratch tables and hub) ----
  span(id, "replay core.program", [&] {
    std::vector<double> prefixes, encap, bypasses, sr, publish;
    dataplane::SnapshotHub hub(emu.network(), 1);
    for (topo::NodeId r : sample_routers(n)) {
      const core::Controller& c = emu.controller(r);
      const core::Programmer programmer(r);
      dataplane::RouterDataplane hw = c.dataplane();
      std::vector<te::Allocation> own;
      for (const te::Allocation* a : c.last_solution().originating_at(r)) {
        own.push_back(*a);
      }
      const std::vector<double> residual =
          c.last_solution().residual_capacity(c.state().view());
      std::uint64_t t = obs::Tracer::now_ns();
      programmer.program_prefixes(c.state(), hw);
      prefixes.push_back(us_since(t));
      t = obs::Tracer::now_ns();
      programmer.program_encap(own, hw);
      encap.push_back(us_since(t));
      if (sr_fleet) {
        t = obs::Tracer::now_ns();
        programmer.program_sr(c.state().view(), hw);
        sr.push_back(us_since(t));
      }
      if (cfg.use_bypasses) {
        t = obs::Tracer::now_ns();
        programmer.program_bypasses(c.state().view(), residual,
                                    cfg.bypass_strategy,
                                    core::ControllerConfig{}.bypass_k, hw);
        bypasses.push_back(us_since(t));
      }
      t = obs::Tracer::now_ns();
      hub.publish_router(r, hw);
      publish.push_back(us_since(t));
    }
    v["core.program_prefixes_us"] = median(prefixes);
    v["core.program_encap_us"] = median(encap);
    v["core.program_bypasses_us"] = median(bypasses);
    v["core.program_sr_us"] = median(sr);
    v["dataplane.publish_router_us"] = median(publish);
  });

  // ---- TE ----
  const traffic::TrafficMatrix demands = db.demands();
  span(id, "replay te.solve", [&] {
    te::SolveStats stats;
    const std::uint64_t t = obs::Tracer::now_ns();
    te::Solver(cfg.solver_options).solve(view, demands, &stats);
    v["te.solve_ms"] = us_since(t) / 1e3;
    v["te.rounds"] = static_cast<double>(stats.rounds);
    v["te.path_searches"] = static_cast<double>(stats.path_searches);
  });
  // Warm solves happen only on the closed loop's recompute epochs; the
  // other epochs leave these unset, so their median is over those solves.
  if (!closed_loop) {
    v["te.warm_solve_ms"] = 0.0;
    v["te.warm_reused"] = 0.0;
  } else if (recomputes > 0) {
    // The in-run solve of this epoch, as the controller recorded it.
    const te::IncrementalStats& inc =
        emu.controller(0).last_incremental_stats();
    v["te.warm_solve_ms"] = 1e3 * inc.wall_time_s;
    v["te.warm_reused"] = static_cast<double>(inc.reused_allocations);
  }
  v["te.policy.drift_us"] = 0.0;
  v["traffic.estimator.roll_us"] = 0.0;
  if (closed_loop) {
    span(id, "replay te.policy", [&] {
      std::vector<traffic::Demand> rows;
      for (const te::Allocation& a :
           emu.controller(0).last_solution().allocations) {
        rows.push_back(a.demand);
      }
      const traffic::TrafficMatrix solved(std::move(rows));
      std::vector<double> drift;
      for (int rep = 0; rep < 5; ++rep) {
        const std::uint64_t t = obs::Tracer::now_ns();
        const double d = te::RecomputePolicy::drift_fraction(solved, demands);
        drift.push_back(us_since(t));
        if (d < 0) drift.push_back(0);  // keep d live
      }
      v["te.policy.drift_us"] = median(drift);
    });
    span(id, "replay traffic.estimator", [&] {
      std::vector<double> roll;
      for (topo::NodeId r : sample_routers(n)) {
        traffic::DemandEstimator est(r, inputs.estimator);
        const std::vector<traffic::Demand> rows = emu.demands().from(r);
        for (int warm = 0; warm < 2; ++warm) {
          for (const traffic::Demand& d : rows)
            est.observe(d.dst, d.priority, d.rate_gbps);
          est.roll_epoch();
        }
        const std::uint64_t t = obs::Tracer::now_ns();
        for (const traffic::Demand& d : rows)
          est.observe(d.dst, d.priority, d.rate_gbps);
        est.roll_epoch();
        roll.push_back(us_since(t));
      }
      v["traffic.estimator.roll_us"] = median(roll);
    });
  }
  v["te.sr.solve_ms"] = 0.0;
  v["te.sr.underlay_ms"] = 0.0;
  if (sr_fleet) {
    span(id, "replay te.sr", [&] {
      const std::vector<core::PathingAlgorithm> algos = cfg.algorithms;
      const core::MixedAlgorithmSolver solver(
          cfg.solver_options, [&algos](topo::NodeId r) { return algos[r]; });
      std::uint64_t t = obs::Tracer::now_ns();
      solver.solve(view, demands, nullptr);
      v["te.sr.solve_ms"] = us_since(t) / 1e3;
      t = obs::Tracer::now_ns();
      const te::SrUnderlay underlay = te::SrUnderlay::build(view);
      v["te.sr.underlay_ms"] = us_since(t) / 1e3;
    });
  }

  // ---- dataplane: one 32-packet batch at a time on the current epoch ----
  span(id, "replay dataplane.batch", [&] {
    dataplane::BatchPipeline pipe(emu.network(), emu.fib_hub());
    std::vector<dataplane::PacketVerdict> verdicts;
    std::vector<double> batch;
    for (std::size_t at = 0; at + dataplane::kBatchSize <= burst.size();
         at += dataplane::kBatchSize) {
      const std::uint64_t t = obs::Tracer::now_ns();
      pipe.process(burst.subspan(at, dataplane::kBatchSize), verdicts);
      batch.push_back(us_since(t));
    }
    v["dataplane.batch_us"] = median(batch);
  });

  // ---- the accounting identity ----
  // step = transmissions x decode + accepted x (apply + digest + encode)
  //      + recomputes x (solve + demands + program_* + publish)
  //      [+ closed loop: every router's epoch tick, n x (roll + demands
  //        + drift), and each recompute's policy note, x demands]
  //      + unaccounted.
  double solve_ms = v["te.solve_ms"];
  if (closed_loop) solve_ms = recomputes > 0 ? v["te.warm_solve_ms"] : 0.0;
  if (sr_fleet) solve_ms = v["te.sr.solve_ms"];
  double accounted_us =
      transmissions * v["core.wire.decode_us"] +
      accepted * (v["core.state_db.apply_us"] + v["core.state_db.digest_us"] +
                  v["core.wire.encode_us"]) +
      recomputes *
          (1e3 * solve_ms + v["core.state_db.demands_us"] +
           v["core.program_prefixes_us"] + v["core.program_encap_us"] +
           v["core.program_bypasses_us"] + v["core.program_sr_us"] +
           v["dataplane.publish_router_us"]);
  if (closed_loop) {
    accounted_us += static_cast<double>(n) *
                        (v["traffic.estimator.roll_us"] +
                         v["core.state_db.demands_us"] +
                         v["te.policy.drift_us"]) +
                    recomputes * v["core.state_db.demands_us"];
  }
  v["sim.unaccounted_ms"] = out.step_ms - accounted_us / 1e3;
}

}  // namespace perfbench
