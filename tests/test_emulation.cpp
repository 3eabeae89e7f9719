#include <gtest/gtest.h>

#include <set>

#include "core/upgrade.hpp"
#include "sim/emulation.hpp"
#include "sim/invariants.hpp"
#include "topo/builder.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::sim {
namespace {

using dataplane::ForwardOutcome;
using metrics::PriorityClass;

DsdnEmulation make_emulation(topo::Topology topo, double util = 0.5) {
  traffic::GravityParams gp;
  gp.target_max_utilization = util;
  auto tm = traffic::generate_gravity(topo, gp);
  return DsdnEmulation(std::move(topo), std::move(tm));
}

TEST(Emulation, BootstrapConvergesAllViews) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  EXPECT_TRUE(emu.views_converged());
  EXPECT_GT(emu.messages_delivered(), emu.network().num_nodes());
  EXPECT_GT(emu.sim_time(), 0.0);
}

TEST(Emulation, AllPairsDeliverAfterBootstrap) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const auto& topo = emu.network();
  std::size_t delivered = 0, total = 0;
  for (topo::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d || topo.node(s).metro == topo.node(d).metro) continue;
      ++total;
      const auto r = emu.send_packet(s, emu.address_of(d));
      if (r.outcome == ForwardOutcome::kDelivered && r.final_node == d)
        ++delivered;
    }
  }
  EXPECT_EQ(delivered, total);
}

TEST(Emulation, PacketsFollowLoopFreePaths) {
  auto emu = make_emulation(topo::make_geant());
  emu.bootstrap();

  for (topo::NodeId d = 1; d < 8; ++d) {
    const auto r = emu.send_packet(0, emu.address_of(d), PriorityClass::kHigh,
                                   /*entropy=*/d * 77);
    ASSERT_EQ(r.outcome, ForwardOutcome::kDelivered);
    std::set<topo::NodeId> seen(r.trace.begin(), r.trace.end());
    EXPECT_EQ(seen.size(), r.trace.size()) << "loop in trace";
  }
}

TEST(Emulation, FiberCutReconvergesAndRestoresDelivery) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const auto& topo = emu.network();

  // Cut seattle-sunnyvale (both are border nodes with alternates).
  const topo::LinkId fiber = topo.find_link(0, 1);
  ASSERT_NE(fiber, topo::kInvalidLink);
  emu.fail_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());

  // Traffic between the endpoints still flows, not over the dead fiber.
  const auto r = emu.send_packet(0, emu.address_of(1));
  ASSERT_EQ(r.outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(r.final_node, 1u);
  EXPECT_GT(r.hops, 1u);  // must detour

  emu.repair_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());
  const auto r2 = emu.send_packet(0, emu.address_of(1));
  EXPECT_EQ(r2.outcome, ForwardOutcome::kDelivered);
}

// What router r must have installed: a fresh stock solver over its own
// StateDb (for a mixed fleet, the MixedAlgorithmSolver over the TLV
// algorithm map with r's own configured algorithm).
te::Solution independent_solve(const DsdnEmulation& emu, topo::NodeId r) {
  const core::StateDb& state = emu.controller(r).state();
  if (emu.config().algorithms.empty()) {
    return te::Solver(emu.config().solver_options)
        .solve(state.view(), state.demands());
  }
  std::vector<core::PathingAlgorithm> algos =
      core::algorithm_map_from_state(state);
  algos[r] = emu.config().algorithms[r];
  const core::MixedAlgorithmSolver solver(
      emu.config().solver_options,
      [&algos](topo::NodeId n) { return algos[n]; });
  return solver.solve(state.view(), state.demands(), nullptr);
}

void expect_every_router_solved_its_own_view(const DsdnEmulation& emu,
                                             const std::string& when) {
  for (topo::NodeId r = 0; r < emu.network().num_nodes(); ++r) {
    EXPECT_TRUE(emu.controller(r).last_solution() ==
                independent_solve(emu, r))
        << when << ": router " << r;
  }
  for (const std::string& v : check_invariants(emu).violations) {
    EXPECT_EQ(v.rfind("consensus audit", 0), std::string::npos)
        << when << ": " << v;
  }
}

// A fiber whose cut keeps the network strongly connected.
topo::LinkId cuttable_fiber(const topo::Topology& topo) {
  for (const topo::Link& l : topo.links()) {
    topo::Topology cut = topo;
    cut.set_duplex_up(l.id, false);
    if (topo::is_strongly_connected(cut)) return l.id;
  }
  return topo::kInvalidLink;
}

std::vector<core::PathingAlgorithm> sr_fleet(std::size_t num_nodes) {
  std::vector<core::PathingAlgorithm> algos(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    algos[n] = n % 3 == 1   ? core::PathingAlgorithm::kMaxMinFairTe
               : n % 7 == 5 ? core::PathingAlgorithm::kShortestPath
                            : core::PathingAlgorithm::kSegmentRouting;
  }
  return algos;
}

// The consensus-free property (§3.1) with solve sharing in play: after
// bootstrap, a cut and a repair, every router's installed solution is
// what a fresh solver computes from its own StateDb. Then one router is
// handed a view that differs from its peers' only in one demand rate
// (and, for a mixed fleet, only in one advertised algorithm): it must
// not adopt the peers' solution. That router is the last one, which the
// consensus audit in check_invariants always re-solves.
void run_consensus_check(topo::Topology topo,
                         std::vector<core::PathingAlgorithm> algorithms,
                         bool odd_router_out = true) {
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  auto tm = traffic::generate_gravity(topo, gp);
  EmulationConfig cfg;
  cfg.algorithms = std::move(algorithms);
  DsdnEmulation emu(topo, std::move(tm), cfg);
  emu.bootstrap();
  ASSERT_TRUE(emu.views_converged());
  expect_every_router_solved_its_own_view(emu, "bootstrap");

  const topo::LinkId fiber = cuttable_fiber(emu.network());
  ASSERT_NE(fiber, topo::kInvalidLink);
  emu.fail_fiber(fiber);
  ASSERT_TRUE(emu.views_converged());
  expect_every_router_solved_its_own_view(emu, "cut");
  emu.repair_fiber(fiber);
  ASSERT_TRUE(emu.views_converged());
  expect_every_router_solved_its_own_view(emu, "repair");
  if (!odd_router_out) return;

  // An origin with demand rows that is neither the odd router out nor an
  // endpoint of the fiber cut below (so it never re-originates).
  const auto n = static_cast<topo::NodeId>(emu.network().num_nodes());
  const topo::NodeId odd = n - 1;
  const topo::Link& cut = emu.network().link(fiber);
  topo::NodeId origin = 0;
  while (origin == odd || origin == cut.src || origin == cut.dst ||
         emu.controller(0).state().latest(origin)->demands.empty()) {
    ++origin;
  }
  const core::NodeStateUpdate truth =
      *emu.controller(0).state().latest(origin);

  core::NodeStateUpdate rates = truth;
  ++rates.seq;
  rates.demands.at(0).rate_gbps *= 2.0;
  emu.mutable_controller(odd).handle_nsu(rates, topo::kInvalidLink);
  emu.fail_fiber(fiber);
  expect_every_router_solved_its_own_view(emu, "odd demand rate");

  if (emu.config().algorithms.empty()) return;
  // Same demands as everyone else again, but another algorithm for
  // `origin`: only the algorithm map tells this view apart.
  core::NodeStateUpdate algo = truth;
  algo.seq = rates.seq + 1;
  const auto was = core::parse_algorithm_tlv(truth);
  ASSERT_TRUE(was.has_value());
  for (core::OpaqueTlv& tlv : algo.tlvs) {
    if (tlv.type != core::kAlgorithmTlvType) continue;
    tlv = core::make_algorithm_tlv(
        *was == core::PathingAlgorithm::kMaxMinFairTe
            ? core::PathingAlgorithm::kShortestPath
            : core::PathingAlgorithm::kMaxMinFairTe);
  }
  emu.mutable_controller(odd).handle_nsu(algo, topo::kInvalidLink);
  emu.repair_fiber(fiber);
  expect_every_router_solved_its_own_view(emu, "odd algorithm");
}

TEST(Emulation, ConsensusFreeIdenticalSolutions) {
  run_consensus_check(topo::make_abilene(), {});
}

TEST(Emulation, ConsensusFreeIdenticalSolutionsB4) {
  // Bootstrap, cut and repair only: each stage re-solves 99 routers.
  run_consensus_check(topo::make_b4_like(), {}, /*odd_router_out=*/false);
}

TEST(Emulation, ConsensusFreeIdenticalSolutionsMixedFleet) {
  const topo::Topology topo = topo::make_abilene();
  run_consensus_check(topo, sr_fleet(topo.num_nodes()));
}

// --- Solve sharing: which controllers adopt, and what they keep ---

TEST(Emulation, SolveSharingAdoptersHoldOneSolution) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const te::Solution& solved = emu.controller(0).last_solution();
  const te::Solution& shared = emu.controller(1).last_solution();
  EXPECT_NE(&solved, &shared);  // the solver keeps its own copy
  EXPECT_TRUE(solved == shared);
  for (topo::NodeId n = 1; n < emu.network().num_nodes(); ++n) {
    EXPECT_EQ(&emu.controller(n).last_solution(), &shared) << n;
    EXPECT_EQ(emu.controller(n).recomputes(), 1u) << n;
    EXPECT_TRUE(emu.controller(n).solution_shareable()) << n;
  }
}

TEST(Emulation, SolveSharingSkipsCustomSolveApi) {
  // A rogue-options router never adopts: it keeps solving for itself and
  // ends up with its own, different solution.
  auto emu = make_emulation(topo::make_abilene(), 1.5);
  te::SolverOptions rogue = emu.config().solver_options;
  rogue.quantum_divisor = 2.0;
  emu.mutable_controller(4).set_solve_api(
      std::make_unique<core::LocalSolver>(rogue));
  emu.bootstrap();
  emu.fail_fiber(emu.network().find_link(0, 1));
  const core::Controller& c = emu.controller(4);
  EXPECT_FALSE(c.shares_solves());
  EXPECT_FALSE(c.solution_shareable());
  EXPECT_FALSE(c.solve_input().has_value());
  EXPECT_TRUE(c.last_solution() ==
              te::Solver(rogue).solve(c.state().view(), c.state().demands()));
  EXPECT_FALSE(c.last_solution() == emu.controller(0).last_solution());
  EXPECT_THROW(emu.mutable_controller(4).adopt(
                   std::make_shared<const te::Solution>(
                       emu.controller(0).last_solution()),
                   {}),
               std::logic_error);
}

TEST(Emulation, SolveSharingSkipsIncrementalControllers) {
  topo::Topology topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  auto tm = traffic::generate_gravity(topo, gp);
  EmulationConfig cfg;
  cfg.incremental_te = true;
  DsdnEmulation emu(topo, std::move(tm), cfg);
  emu.bootstrap();
  const topo::LinkId fiber = emu.network().find_link(0, 1);
  emu.fail_fiber(fiber);
  std::set<const te::Solution*> distinct;
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    EXPECT_FALSE(emu.controller(n).shares_solves()) << n;
    distinct.insert(&emu.controller(n).last_solution());
  }
  EXPECT_EQ(distinct.size(), emu.network().num_nodes());
  EXPECT_THROW(emu.mutable_controller(1).adopt(
                   std::make_shared<const te::Solution>(), {}),
               std::logic_error);
  // Turning warm start off makes the next recompute shareable again.
  emu.set_incremental_te(false);
  EXPECT_TRUE(emu.controller(1).shares_solves());
  EXPECT_FALSE(emu.controller(1).solution_shareable());
  emu.repair_fiber(fiber);
  EXPECT_EQ(&emu.controller(1).last_solution(),
            &emu.controller(2).last_solution());
}

TEST(Emulation, SolveSharingCrashReplacementRejoinsGroup) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  emu.crash_and_recover(3);
  EXPECT_EQ(&emu.controller(3).last_solution(),
            &emu.controller(1).last_solution());
  EXPECT_TRUE(emu.controller(3).last_solution() ==
              independent_solve(emu, 3));
}

TEST(Emulation, SolveSharingKeepsPerRouterProgramming) {
  // Reference fleet: every controller gets a LocalSolver with the stock
  // options through set_solve_api, so each one solves for itself as
  // every controller did before solves were shared.
  const topo::Topology topo = topo::make_abilene();
  DsdnEmulation shared = make_emulation(topo);
  DsdnEmulation alone = make_emulation(topo);
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    alone.mutable_controller(n).set_solve_api(
        std::make_unique<core::LocalSolver>(alone.config().solver_options));
  }
  const topo::LinkId a = topo.find_link(0, 1);
  const topo::LinkId b = topo.find_link(4, 5);
  for (DsdnEmulation* emu : {&shared, &alone}) {
    emu->bootstrap();
    emu->fail_fiber(a);
    emu->flap_fiber(b);
    emu->degrade_fiber(b, 40.0);
    emu->repair_fiber(a);
    emu->scale_demands(1.5, 2);
  }
  for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    const core::Controller& x = shared.controller(n);
    const core::Controller& y = alone.controller(n);
    EXPECT_EQ(x.recomputes(), y.recomputes()) << n;
    const auto& ex = x.encap_totals();
    const auto& ey = y.encap_totals();
    EXPECT_EQ(ex.routes_installed, ey.routes_installed) << n;
    EXPECT_EQ(ex.routes_too_deep, ey.routes_too_deep) << n;
    EXPECT_EQ(ex.sr_routes_installed, ey.sr_routes_installed) << n;
    EXPECT_EQ(ex.install_retries, ey.install_retries) << n;
    EXPECT_EQ(ex.routes_gave_up, ey.routes_gave_up) << n;
    EXPECT_EQ(ex.retry_time_s, ey.retry_time_s) << n;
    EXPECT_TRUE(x.last_solution() == y.last_solution()) << n;
    const auto& tx = x.dataplane().ingress.encap_table();
    const auto& ty = y.dataplane().ingress.encap_table();
    ASSERT_EQ(tx.size(), ty.size()) << n;
    for (auto ix = tx.begin(), iy = ty.begin(); ix != tx.end(); ++ix, ++iy) {
      ASSERT_EQ(ix->first, iy->first) << n;
      ASSERT_EQ(ix->second.routes.size(), iy->second.routes.size()) << n;
      for (std::size_t k = 0; k < ix->second.routes.size(); ++k) {
        EXPECT_EQ(ix->second.routes[k].stack.labels(),
                  iy->second.routes[k].stack.labels()) << n;
        EXPECT_EQ(ix->second.routes[k].weight, iy->second.routes[k].weight)
            << n;
      }
    }
  }
}

TEST(Emulation, SolveSharingAdoptedSolutionOutlivesSolverRecompute) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const te::Solution* held = &emu.controller(5).last_solution();
  const te::Solution before = *held;
  // The solving router re-solves alone on a view with one demand doubled.
  core::NodeStateUpdate nsu = *emu.controller(0).state().latest(2);
  ++nsu.seq;
  nsu.demands.at(0).rate_gbps *= 2.0;
  core::Controller& solver = emu.mutable_controller(0);
  solver.handle_nsu(nsu, topo::kInvalidLink);
  solver.recompute();
  EXPECT_FALSE(solver.last_solution() == before);
  EXPECT_EQ(&emu.controller(5).last_solution(), held);
  EXPECT_TRUE(*held == before);
}

TEST(Emulation, CrashRecoveryRejoinsNetwork) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  emu.crash_and_recover(3);
  EXPECT_TRUE(emu.views_converged());
  // The recovered router still originates and forwards.
  const auto r = emu.send_packet(3, emu.address_of(7));
  EXPECT_EQ(r.outcome, ForwardOutcome::kDelivered);
}

TEST(Emulation, ColdRestartRebuildsStateFromReflooding) {
  // Unlike crash_and_recover (out-of-band neighbor DB copy), a cold
  // restart rebuilds the StateDb purely from NSUs the neighbors reflood
  // over the wire, and discards all warm-start TE state.
  topo::Topology topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  auto tm = traffic::generate_gravity(topo, gp);
  EmulationConfig cfg;
  cfg.incremental_te = true;
  DsdnEmulation emu(topo, std::move(tm), cfg);
  emu.bootstrap();

  // Churn once so every controller holds warm solver state.
  const topo::LinkId fiber = emu.network().find_link(0, 1);
  emu.fail_fiber(fiber);
  emu.repair_fiber(fiber);
  {
    const te::IncrementalSolver* inc = emu.controller(3).incremental_solver();
    ASSERT_NE(inc, nullptr);
    ASSERT_GT(inc->incremental_solves(), 0u);
  }
  const std::uint64_t seq_before = emu.controller(3).state().seq_of(3);
  ASSERT_GT(seq_before, 0u);

  emu.crash_and_cold_restart(3);

  // Back in agreement with everyone, with a full database again.
  EXPECT_TRUE(emu.views_converged());
  const core::Controller& restarted = emu.controller(3);
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    EXPECT_GT(restarted.state().seq_of(n), 0u) << "missing origin " << n;
  }
  // Its own-LSP sequence advanced past the echoed pre-crash NSU, so the
  // post-restart origination superseded the stale copy everywhere.
  EXPECT_GT(restarted.state().seq_of(3), seq_before);
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    EXPECT_EQ(emu.controller(n).state().seq_of(3),
              restarted.state().seq_of(3));
  }

  // Warm-start state died with the old instance: the fresh controller's
  // first recompute was a cold full solve.
  const te::IncrementalSolver* inc = restarted.incremental_solver();
  ASSERT_NE(inc, nullptr);
  EXPECT_GE(inc->full_solves(), 1u);
  EXPECT_EQ(inc->incremental_solves(), 0u);

  // And the restarted router forwards like everyone else.
  const auto r = emu.send_packet(3, emu.address_of(7));
  EXPECT_EQ(r.outcome, ForwardOutcome::kDelivered);
  const auto inbound = emu.send_packet(0, emu.address_of(3));
  EXPECT_EQ(inbound.outcome, ForwardOutcome::kDelivered);
}

TEST(Emulation, FrrCoversWindowBetweenFailureAndReconvergence) {
  // Program routes on the healthy network, cut a fiber *without*
  // letting headends reconverge (we bypass fail_fiber's NSU flood), and
  // check that FRR still delivers the stale-routed packet.
  auto topo = topo::make_abilene();
  traffic::GravityParams gp;
  auto tm = traffic::generate_gravity(topo, gp);
  DsdnEmulation emu(topo, tm);
  emu.bootstrap();

  // Find the fiber carrying 0 -> 10 traffic (seattle -> newyork).
  const auto before = emu.send_packet(0, emu.address_of(10));
  ASSERT_EQ(before.outcome, ForwardOutcome::kDelivered);

  // Kill the first hop of the installed path directly in ground truth.
  auto& net = const_cast<topo::Topology&>(emu.network());
  const topo::LinkId first_hop = net.find_link(before.trace[0], before.trace[1]);
  ASSERT_NE(first_hop, topo::kInvalidLink);
  net.set_duplex_up(first_hop, false);

  const auto during = emu.send_packet(0, emu.address_of(10));
  EXPECT_EQ(during.outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(during.final_node, 10u);
  EXPECT_GE(during.frr_activations, 1u);
}

TEST(Emulation, EcmpSpreadsEntropyAcrossRoutes) {
  // On an overloaded network TE must split flows off the shortest path;
  // distinct entropy values should then exercise distinct paths somewhere.
  auto emu = make_emulation(topo::make_abilene(), /*util=*/1.4);
  emu.bootstrap();
  bool found_split = false;
  const auto n = emu.network().num_nodes();
  for (topo::NodeId s = 0; s < n && !found_split; ++s) {
    for (topo::NodeId d = 0; d < n && !found_split; ++d) {
      if (s == d) continue;
      std::set<std::vector<topo::NodeId>> traces;
      for (std::uint64_t e = 0; e < 64; ++e) {
        const auto r = emu.send_packet(s, emu.address_of(d),
                                       PriorityClass::kLow, e * 131);
        if (r.outcome == ForwardOutcome::kDelivered) traces.insert(r.trace);
      }
      if (traces.size() > 1) found_split = true;
    }
  }
  EXPECT_TRUE(found_split);
}

TEST(Emulation, MessageComplexityLinearInLinksPerOrigination) {
  // Flooding delivers each NSU at most once per link: bootstrap of n
  // routers sends O(n * links) messages, not more.
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  const auto& t = emu.network();
  EXPECT_LE(emu.messages_delivered(), t.num_nodes() * t.num_links());
}

}  // namespace
}  // namespace dsdn::sim

namespace dsdn::sim {
namespace {

TEST(Emulation, ControllersProgramLocalBypasses) {
  auto emu = make_emulation(topo::make_abilene());
  emu.bootstrap();
  // Every router with >= 2 up links should protect its links locally.
  std::size_t protected_links = 0;
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    protected_links += emu.at(n).bypass.num_protected_links();
  }
  EXPECT_GT(protected_links, emu.network().num_links() / 2);
}

TEST(Emulation, PartialCapacityLossRebalancesTraffic) {
  // One fat demand on a direct link; halving the link's capacity must
  // push part of the demand onto an alternate path after reconvergence.
  topo::Topology topo = topo::make_fig5();  // R0-R1 direct + via R2
  traffic::TrafficMatrix tm;
  tm.add({0, 1, PriorityClass::kHigh, 80.0});
  DsdnEmulation emu(topo, tm);
  emu.bootstrap();

  const topo::LinkId direct = emu.network().find_link(0, 1);
  // Healthy: everything fits the 100G direct link.
  std::set<std::vector<topo::NodeId>> healthy_paths;
  for (std::uint64_t e = 0; e < 64; ++e) {
    healthy_paths.insert(
        emu.send_packet(0, emu.address_of(1), PriorityClass::kHigh, e)
            .trace);
  }
  EXPECT_EQ(healthy_paths.size(), 1u);

  emu.degrade_fiber(direct, 50.0);
  EXPECT_TRUE(emu.views_converged());
  // Every controller's view reflects the degraded capacity.
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(emu.controller(n).state().view().link(direct)
                         .capacity_gbps,
                     50.0);
  }
  // The 80G demand no longer fits one 50G link: flows must now split.
  std::set<std::vector<topo::NodeId>> degraded_paths;
  for (std::uint64_t e = 0; e < 64; ++e) {
    const auto r =
        emu.send_packet(0, emu.address_of(1), PriorityClass::kHigh, e * 31);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
    degraded_paths.insert(r.trace);
  }
  EXPECT_GT(degraded_paths.size(), 1u);

  // Restoration returns all traffic to the direct path.
  emu.degrade_fiber(direct, 100.0);
  std::set<std::vector<topo::NodeId>> restored_paths;
  for (std::uint64_t e = 0; e < 64; ++e) {
    restored_paths.insert(
        emu.send_packet(0, emu.address_of(1), PriorityClass::kHigh, e)
            .trace);
  }
  EXPECT_EQ(restored_paths.size(), 1u);
}

TEST(Emulation, IncrementalTeConvergesUnderChurn) {
  // Full network emulation with warm-start TE and the differential
  // checker armed (te_diff_check makes a violation throw): fiber cut,
  // repair, and a crash recovery must all converge with every router
  // delivering, and routers must actually take the warm path after the
  // initial bootstrap solve.
  topo::Topology topo = topo::make_abilene();
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  auto tm = traffic::generate_gravity(topo, gp);
  EmulationConfig cfg;
  cfg.incremental_te = true;
  cfg.te_diff_check = true;
  DsdnEmulation emu(topo, std::move(tm), cfg);
  emu.bootstrap();
  EXPECT_TRUE(emu.views_converged());

  const topo::LinkId fiber = emu.network().find_link(0, 1);
  emu.fail_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());
  const auto r = emu.send_packet(0, emu.address_of(1));
  ASSERT_EQ(r.outcome, ForwardOutcome::kDelivered);

  emu.repair_fiber(fiber);
  EXPECT_TRUE(emu.views_converged());

  // A crashed controller restarts cold and still rejoins.
  emu.crash_and_recover(3);
  EXPECT_TRUE(emu.views_converged());

  std::size_t warm_solves = 0, violations = 0;
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    const te::IncrementalSolver* inc = emu.controller(n).incremental_solver();
    ASSERT_NE(inc, nullptr);
    warm_solves += inc->incremental_solves();
    violations += inc->checker_violations();
  }
  EXPECT_GT(warm_solves, 0u);
  EXPECT_EQ(violations, 0u);

  // Consensus-free property holds on the warm path: identical digests.
  const auto digest0 = emu.controller(0).state().digest();
  for (topo::NodeId n = 1; n < emu.network().num_nodes(); ++n) {
    EXPECT_EQ(emu.controller(n).state().digest(), digest0);
  }
}

TEST(Emulation, FleetWideSurgeFloodsOnlyDemandOrigins) {
  // Regression (flood amplification): a fleet-wide surge used to
  // re-originate every router, including routers with no demand rows at
  // all. The per-origin diff must keep silent routers silent -- their
  // own NSU sequence numbers do not move.
  auto topo = topo::make_ring(5);
  traffic::TrafficMatrix tm;
  tm.add({0, 2, PriorityClass::kHigh, 5.0});
  tm.add({1, 3, PriorityClass::kLow, 3.0});
  DsdnEmulation emu(std::move(topo), std::move(tm));
  emu.bootstrap();

  std::vector<std::uint64_t> seq_before;
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    seq_before.push_back(emu.controller(n).state().seq_of(n));
  }

  emu.scale_demands(2.0);  // origin == kInvalidNode: everyone surges
  EXPECT_TRUE(emu.views_converged());
  for (topo::NodeId n = 0; n < emu.network().num_nodes(); ++n) {
    const std::uint64_t seq = emu.controller(n).state().seq_of(n);
    if (n <= 1) {
      EXPECT_EQ(seq, seq_before[n] + 1) << "origin " << n;
    } else {
      EXPECT_EQ(seq, seq_before[n]) << "demand-less router " << n
                                    << " re-originated";
    }
  }
  // The doubled demand reached every view.
  EXPECT_NEAR(emu.controller(4).state().demands().total_rate_gbps(), 16.0,
              1e-9);

  // A no-op surge floods nothing anywhere.
  const std::size_t messages_before = emu.messages_delivered();
  emu.scale_demands(1.0);
  EXPECT_EQ(emu.messages_delivered(), messages_before);
}

}  // namespace
}  // namespace dsdn::sim
