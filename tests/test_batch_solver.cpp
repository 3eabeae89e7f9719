#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.hpp"
#include "oracle/legacy_solver.hpp"
#include "sim/scenario.hpp"
#include "te/incremental.hpp"
#include "te/path_cache.hpp"
#include "te/solver.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::te {
namespace {

using oracle::LegacySolver;

// Exact (bitwise) solution equality: te::Solver's contract is that it
// reproduces the one-Dijkstra-per-demand waterfill of the test oracle to
// the last ULP, at any thread count.
void expect_bit_identical(const Solution& a, const Solution& b,
                          const std::string& context) {
  ASSERT_EQ(a.allocations.size(), b.allocations.size()) << context;
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    const Allocation& x = a.allocations[i];
    const Allocation& y = b.allocations[i];
    ASSERT_EQ(x.allocated_gbps, y.allocated_gbps)
        << context << " alloc " << i;
    ASSERT_EQ(x.paths.size(), y.paths.size()) << context << " alloc " << i;
    for (std::size_t p = 0; p < x.paths.size(); ++p) {
      ASSERT_EQ(x.paths[p].path, y.paths[p].path)
          << context << " alloc " << i << " path " << p;
      ASSERT_EQ(x.paths[p].weight, y.paths[p].weight)
          << context << " alloc " << i << " path " << p;
    }
  }
}

SolverOptions with_threads(std::size_t num_threads) {
  SolverOptions opt;
  opt.num_threads = num_threads;
  return opt;
}

// The B4-like graph the perfbench fleet and the B4 swarm legs solve,
// with a gravity matrix dense enough to contend.
traffic::TrafficMatrix b4_demands(std::uint64_t seed) {
  traffic::GravityParams gp;
  gp.seed = seed;
  gp.pair_fraction = 0.15;
  gp.target_max_utilization = 0.9;
  return traffic::generate_gravity(topo::make_b4_like(), gp);
}

TEST(BatchSolver, BitIdenticalToLegacyAcrossSeedsAndThreadCounts) {
  // The determinism sweep: for 16 gravity seeds on two real topologies,
  // the solver at pool sizes 1/4/8 must reproduce the oracle bit-for-bit
  // (the batched SSSP must introduce no ordering nondeterminism).
  const topo::Topology topos[] = {topo::make_abilene(), topo::make_geant()};
  for (const auto& t : topos) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      traffic::GravityParams gp;
      gp.seed = seed;
      gp.target_max_utilization = 0.9;  // some contention every seed
      const auto tm = traffic::generate_gravity(t, gp);
      const auto reference = LegacySolver().solve(t, tm);
      for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                                  std::size_t{8}}) {
        const auto batch = Solver(with_threads(threads)).solve(t, tm);
        expect_bit_identical(reference, batch,
                             "seed " + std::to_string(seed) + " threads " +
                                 std::to_string(threads) + " nodes " +
                                 std::to_string(t.num_nodes()));
      }
    }
  }
  // B4-like: a few seeds at pool sizes 1 and 4.
  const auto b4 = topo::make_b4_like();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto tm = b4_demands(seed);
    const auto reference = LegacySolver().solve(b4, tm);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      expect_bit_identical(reference,
                           Solver(with_threads(threads)).solve(b4, tm),
                           "b4 seed " + std::to_string(seed) + " threads " +
                               std::to_string(threads));
    }
  }
}

TEST(BatchSolver, BitIdenticalUnderOverloadAndDownLinks) {
  // Heavy contention drives the drained-path re-search and no-path
  // freeze codepaths in both solvers; a down fiber exercises the CSR
  // up-link filtering. Parity must survive all of it.
  auto t = topo::make_geant();
  t.set_duplex_up(t.links().front().id, false);
  traffic::GravityParams gp;
  gp.seed = 7;
  gp.target_max_utilization = 2.0;  // well past capacity
  const auto tm = traffic::generate_gravity(t, gp);
  SolveStats legacy_stats, batch_stats;
  const auto legacy = LegacySolver().solve(t, tm, &legacy_stats);
  const auto batch = Solver(with_threads(4)).solve(t, tm, &batch_stats);
  expect_bit_identical(legacy, batch, "overload");
  EXPECT_EQ(legacy_stats.rounds, batch_stats.rounds);
  // Validated cross-round path reuse makes batch searches a subset of the
  // legacy one-search-per-active-demand-per-round count.
  EXPECT_LE(batch_stats.path_searches, legacy_stats.path_searches);
  EXPECT_GT(batch_stats.path_searches, 0u);
  EXPECT_EQ(legacy_stats.frozen_no_path, batch_stats.frozen_no_path);
  EXPECT_EQ(legacy_stats.frozen_round_cap, batch_stats.frozen_round_cap);
  EXPECT_GT(legacy_stats.frozen_demands, 0u);  // the sweep has teeth
}

TEST(BatchSolver, BitIdenticalWithResidualOverride) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  std::vector<double> residual(t.num_links());
  for (const auto& l : t.links()) residual[l.id] = l.capacity_gbps * 0.5;
  const auto legacy = LegacySolver().solve(t, tm, nullptr, &residual);
  const auto batch = Solver().solve(t, tm, nullptr, &residual);
  expect_bit_identical(legacy, batch, "residual override");
}

std::uint64_t global_counter(const char* name) {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? std::uint64_t{0} : it->second;
}

TEST(BatchSolver, ReusedPathBelowNewSliverThresholdIsSearchedAgain) {
  // Validated path reuse must also check that the cached path still
  // clears the *new* sliver threshold. A high-class demand leaves the
  // short path s->m->d with a sliver of residual on s->m; the next class
  // carries that path over with a much larger grant quantum, so the
  // sliver sits above zero but below the new threshold. The carried path
  // must be searched again at the start of the round. Were it reused,
  // the grant step's bottleneck recheck would catch it and search then
  // -- same solution, but a grant recheck that a lone demand per class
  // never needs. So besides oracle parity, the solve must record no
  // grant recheck.
  for (const double sliver : {0.002, 0.005, 0.008}) {
    // Large enough that the big demand is satisfied (remaining below
    // 1e-3 of its rate) while its threshold still exceeds the sliver:
    // the oracle never touches s->m at all.
    for (const double big : {1e5, 4e5}) {
      topo::Topology t;
      for (const char* name : {"s", "m", "d", "x"}) t.add_node(name);
      const topo::LinkId short_first = t.add_link(0, 1, 10.0, 1.0);
      t.add_link(1, 2, 1e6, 1.0);
      t.add_link(0, 3, 1e6, 2.0);
      t.add_link(3, 2, 1e6, 2.0);
      traffic::TrafficMatrix tm;
      tm.add({0, 2, metrics::PriorityClass::kHigh, 10.0 - sliver});
      tm.add({0, 2, metrics::PriorityClass::kIntermediate, big});
      const std::string context = "sliver " + std::to_string(sliver) +
                                  " big " + std::to_string(big);
      const Solution legacy = LegacySolver().solve(t, tm);
      const std::uint64_t rechecks = global_counter("te.batch.grant_rechecks");
      const Solution batch = Solver().solve(t, tm);
      EXPECT_EQ(global_counter("te.batch.grant_rechecks"), rechecks)
          << context;
      expect_bit_identical(legacy, batch, context);
      // The case has teeth only if the high class left a sliver and the
      // oracle kept the big demand off it.
      ASSERT_GT(10.0 - legacy.allocations[0].allocated_gbps, 0.0) << context;
      ASSERT_FALSE(legacy.allocations[1].paths.empty()) << context;
      for (const WeightedPath& wp : legacy.allocations[1].paths) {
        EXPECT_EQ(std::count(wp.path.links.begin(), wp.path.links.end(),
                             short_first),
                  0)
            << context;
      }
    }
  }
}

TEST(BatchSolver, CachedSolvesMatchCachedLegacy) {
  // With a PathCache both solvers delegate the search step to the
  // cache per demand, so parity holds there too (independent cache
  // instances keep the memoization histories identical).
  const auto t = topo::make_geant();
  const auto tm = traffic::generate_gravity(t);
  PathCache cache_a(t), cache_b(t);
  SolverOptions legacy;
  legacy.cache = &cache_a;
  SolverOptions batch;
  batch.cache = &cache_b;
  expect_bit_identical(LegacySolver(legacy).solve(t, tm),
                       Solver(batch).solve(t, tm), "cached");
  EXPECT_GT(cache_b.hits(), 0u);
}

TEST(BatchSolver, DiffCheckerParityOverScenarioEras) {
  // Walk the scenario harness's deterministic cut/repair schedule,
  // solving each topology era with te::Solver and validating it through
  // the DiffChecker against an oracle reference solve -- zero
  // violations, and (cacheless) exact parity era by era.
  struct Case {
    topo::Topology base;
    traffic::TrafficMatrix tm;
    std::vector<std::uint64_t> seeds;
    std::size_t n_events;
  };
  const auto abilene = topo::make_abilene();
  const Case cases[] = {
      {abilene, traffic::generate_gravity(abilene), {1, 2, 3},
       sim::ScenarioOptions{}.n_events},
      {topo::make_b4_like(), b4_demands(0), {1, 2}, 10},
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed : c.seeds) {
      sim::ScenarioOptions opts;
      opts.n_events = c.n_events;
      sim::Scenario scenario(c.base, c.tm, opts, seed);
      auto era = c.base;
      std::size_t eras_checked = 0;
      for (const auto& ev : scenario.schedule()) {
        if (ev.kind == sim::ScenarioEventKind::kFiberCut) {
          for (topo::LinkId l : ev.fibers) era.set_duplex_up(l, false);
        } else if (ev.kind == sim::ScenarioEventKind::kFiberRepair) {
          for (topo::LinkId l : ev.fibers) era.set_duplex_up(l, true);
        } else {
          continue;
        }
        const std::string context = std::to_string(c.base.num_nodes()) +
                                    " nodes seed " + std::to_string(seed) +
                                    " era " + std::to_string(eras_checked);
        const auto batch = Solver(with_threads(4)).solve(era, c.tm);
        const auto reference = LegacySolver().solve(era, c.tm);
        const auto report =
            DiffChecker::check_against(era, c.tm, batch, reference, {});
        EXPECT_TRUE(report.ok())
            << context << ": "
            << (report.violations.empty() ? "" : report.violations.front());
        expect_bit_identical(reference, batch, context);
        ++eras_checked;
      }
      EXPECT_GT(eras_checked, 0u) << "seed " << seed;
    }
  }
}

TEST(BatchSolver, EmitsBatchCounters) {
  const auto t = topo::make_abilene();
  const auto tm = traffic::generate_gravity(t);
  const auto before = obs::Registry::global().snapshot();
  Solver().solve(t, tm);
  const auto snap = obs::Registry::global().snapshot();
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_GT(counter("te.batch.solves"), 0u);
  EXPECT_GT(counter("te.batch.sssp_batches"), 0u);
  EXPECT_GT(counter("te.batch.interned_paths"), 0u);
  EXPECT_GT(counter("te.solver.solves"), 0u);  // shared counters still move
  // Bucketing is what makes the search *batched*: strictly fewer SSSP
  // runs than demand searches in this solve.
  const auto delta = [&](const char* name) {
    const auto it = before.counters.find(name);
    return counter(name) -
           (it == before.counters.end() ? std::uint64_t{0} : it->second);
  };
  EXPECT_GT(delta("te.batch.sssp_batches"), 0u);
  EXPECT_GT(delta("te.batch.batched_searches"),
            delta("te.batch.sssp_batches"));
}

TEST(BatchSolver, SsspWorkspaceReuseAcrossEpochs) {
  // The workspace's epoch stamping must isolate runs: a second SSSP on
  // the same scratch must not see the first run's dist/pred state.
  const auto t = topo::make_abilene();
  const Solver solver;
  const auto tm1 = traffic::generate_gravity(t);
  traffic::GravityParams gp;
  gp.seed = 99;
  const auto tm2 = traffic::generate_gravity(t, gp);
  const auto first = solver.solve(t, tm1);
  const auto again = solver.solve(t, tm1);
  solver.solve(t, tm2);  // interleave different demand set
  const auto third = solver.solve(t, tm1);
  expect_bit_identical(first, again, "workspace reuse");
  expect_bit_identical(first, third, "workspace reuse after interleave");
}

}  // namespace
}  // namespace dsdn::te
