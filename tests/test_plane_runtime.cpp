#include <gtest/gtest.h>

#include <algorithm>

#include "hier/plane_runtime.hpp"
#include "hier/scenario.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"

namespace dsdn::hier {
namespace {

using metrics::PriorityClass;

TEST(Planes, SplitPreservesStructureAndStripesCapacity) {
  const auto base = topo::make_geant();
  const auto planes = make_planes(base, 4);
  ASSERT_EQ(planes.size(), 4u);
  for (const auto& plane : planes) {
    EXPECT_EQ(plane.num_nodes(), base.num_nodes());
    EXPECT_EQ(plane.num_links(), base.num_links());
  }
  // Capacity striping: each plane link carries ~1/k of the base fiber
  // (remainder units may bump one plane by a kbps) and the stripes sum
  // back to the base capacity exactly.
  for (topo::LinkId l = 0; l < base.num_links(); ++l) {
    double sum = 0.0;
    for (const auto& plane : planes) {
      EXPECT_NEAR(plane.link(l).capacity_gbps,
                  base.link(l).capacity_gbps / 4.0, 1e-5);
      sum += plane.link(l).capacity_gbps;
    }
    EXPECT_NEAR(sum, base.link(l).capacity_gbps, 1e-9);
  }
  EXPECT_THROW(make_planes(base, 0), std::invalid_argument);
}

TEST(Planes, StripingConservesCapacityWithIndivisibleRemainder) {
  // 10 Gbps across k=3 does not divide evenly (naive /k loses a third of
  // a kbps per fiber); quantized striping must conserve the total.
  topo::Topology base;
  base.add_node("a");
  base.add_node("b");
  base.add_node("c");
  base.add_duplex(0, 1, 10.0);
  base.add_duplex(1, 2, 99.999999);  // fractional-kbps stress
  base.add_duplex(0, 2, 0.001);      // 1000 units across 3 planes
  const auto planes = make_planes(base, 3);
  for (topo::LinkId l = 0; l < base.num_links(); ++l) {
    double sum = 0.0;
    double lo = 1e18, hi = 0.0;
    for (const auto& plane : planes) {
      sum += plane.link(l).capacity_gbps;
      lo = std::min(lo, plane.link(l).capacity_gbps);
      hi = std::max(hi, plane.link(l).capacity_gbps);
    }
    EXPECT_NEAR(sum, base.link(l).capacity_gbps, 1e-9) << "link " << l;
    // Remainder distribution is fair: stripes differ by at most one unit.
    EXPECT_LE(hi - lo, 1e-6 + 1e-12) << "link " << l;
  }
}

TEST(PlaceFlow, FlowHashBalancesRateAcrossPlanes) {
  // With every plane alive, no plane may carry more than 1/K + epsilon of
  // the total rate -- the property that makes 1/K capacity stripes
  // sufficient -- and every plane gets a share of the flows.
  const auto base = topo::make_geant();
  traffic::GravityParams gp;
  gp.pair_fraction = 1.0;  // every metro pair, for a stable estimate
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  for (std::size_t k : {2, 4, 8}) {
    const std::vector<char> alive(k, 1);
    std::vector<double> rate(k, 0.0);
    std::vector<std::size_t> flows(k, 0);
    for (const auto& d : tm.demands()) {
      const std::size_t p = place_flow(d.src, d.dst, d.priority, alive);
      rate[p] += d.rate_gbps;
      ++flows[p];
    }
    for (std::size_t p = 0; p < k; ++p) {
      EXPECT_LT(rate[p],
                tm.total_rate_gbps() * (1.0 / static_cast<double>(k) + 0.10))
          << "k=" << k << " plane " << p;
      EXPECT_GT(flows[p], tm.size() / 16) << "k=" << k << " plane " << p;
    }
  }
}

TEST(PlaceFlow, RendezvousMovesOnlyTheFailedPlanesFlows) {
  // HRW property: when plane 2 dies, exactly the flows whose all-alive
  // argmax was 2 re-place; every other flow keeps its plane. When it
  // returns, the same set -- and only it -- moves home.
  std::vector<char> all(4, 1);
  std::vector<char> degraded = all;
  degraded[2] = 0;
  std::size_t moved = 0, kept = 0;
  for (topo::NodeId src = 0; src < 40; ++src) {
    for (topo::NodeId dst = 0; dst < 40; ++dst) {
      if (src == dst) continue;
      std::size_t before = place_flow(src, dst, PriorityClass::kHigh, all);
      std::size_t after = place_flow(src, dst, PriorityClass::kHigh, degraded);
      if (before == 2) {
        EXPECT_NE(after, 2u);
        ++moved;
      } else {
        EXPECT_EQ(after, before);
        ++kept;
      }
      EXPECT_EQ(place_flow(src, dst, PriorityClass::kHigh, all), before);
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(kept, 0u);
  // Roughly 1/4 of flows lived on plane 2.
  double fraction = static_cast<double>(moved) /
                    static_cast<double>(moved + kept);
  EXPECT_NEAR(fraction, 0.25, 0.06);
  EXPECT_THROW(place_flow(0, 1, PriorityClass::kHigh, {0, 0}),
               std::logic_error);
}

class PlaneRuntimeTest : public ::testing::Test {
 protected:
  PlaneRuntimeTest() : base_(topo::make_abilene()) {
    traffic::GravityParams gp;
    gp.pair_fraction = 0.6;
    gp.seed = 0xF10;
    tm_ = traffic::generate_gravity(base_, gp).aggregated();
    PlaneRuntimeConfig config;
    config.planes = 3;
    config.score_packets = 128;
    runtime_ = std::make_unique<PlaneRuntime>(base_, tm_, config);
    runtime_->bootstrap();
  }

  topo::Topology base_;
  traffic::TrafficMatrix tm_;
  std::unique_ptr<PlaneRuntime> runtime_;
};

TEST_F(PlaneRuntimeTest, BootstrapPlacesEveryFlowWhereHrwSays) {
  EXPECT_TRUE(runtime_->all_planes_converged());
  EXPECT_EQ(runtime_->total_flows(), tm_.size());
  EXPECT_NEAR(runtime_->total_rate_gbps(), tm_.total_rate_gbps(), 1e-9);
  for (std::size_t p = 0; p < runtime_->num_planes(); ++p) {
    for (const auto& d : runtime_->plane_demands(p)) {
      EXPECT_EQ(runtime_->plane_of(d.src, d.dst, d.priority), p);
    }
  }
}

TEST_F(PlaneRuntimeTest, SendPacketUsesTheSnapshotOfTheFlowsPlane) {
  for (const auto& d : tm_.demands()) {
    const auto r = runtime_->send_packet(d.src, d.dst, d.priority);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered)
        << d.src << "->" << d.dst;
  }
}

TEST_F(PlaneRuntimeTest, FailPlaneRebalancesOntoSurvivorsAndRestores) {
  const std::size_t flows_before = runtime_->total_flows();
  const double rate_before = runtime_->total_rate_gbps();
  const std::size_t victim_flows = runtime_->plane_demands(1).size();

  const auto report = runtime_->fail_plane(1);
  EXPECT_EQ(report.moved_flows, victim_flows);
  EXPECT_LT(report.exposed_fraction, 1.0 / 3.0 + 0.12);
  EXPECT_EQ(report.score_hard_drops, 0u);
  EXPECT_GT(report.scored_packets, 0u);
  EXPECT_FALSE(runtime_->plane_alive(1));
  EXPECT_EQ(runtime_->num_alive(), 2u);
  // Conservation: nothing lost in the drain -> re-place -> reprogram.
  EXPECT_EQ(runtime_->total_flows(), flows_before);
  EXPECT_NEAR(runtime_->total_rate_gbps(), rate_before, 1e-9);
  EXPECT_TRUE(runtime_->plane_demands(1).empty());
  // Survivors carry everything and still deliver.
  for (const auto& d : tm_.demands()) {
    const auto r = runtime_->send_packet(d.src, d.dst, d.priority);
    EXPECT_EQ(r.outcome, dataplane::ForwardOutcome::kDelivered);
  }

  const auto back = runtime_->restore_plane(1);
  EXPECT_EQ(back.moved_flows, victim_flows);
  EXPECT_TRUE(runtime_->plane_alive(1));
  EXPECT_EQ(runtime_->total_flows(), flows_before);
  // Exactly the original placement is restored (HRW stability).
  EXPECT_EQ(runtime_->plane_demands(1).size(), victim_flows);
  for (std::size_t p = 0; p < runtime_->num_planes(); ++p) {
    for (const auto& d : runtime_->plane_demands(p)) {
      EXPECT_EQ(runtime_->plane_of(d.src, d.dst, d.priority), p);
    }
  }
  EXPECT_THROW(runtime_->restore_plane(1), std::invalid_argument);
}

TEST_F(PlaneRuntimeTest, LastLivePlaneCannotFail) {
  runtime_->fail_plane(0);
  runtime_->fail_plane(1);
  EXPECT_THROW(runtime_->fail_plane(2), std::invalid_argument);
}

TEST_F(PlaneRuntimeTest, ConduitCutHitsEveryPlaneButPlaneCutOnlyOne) {
  const topo::LinkId fiber = base_.find_link(0, base_.up_neighbors(0)[0]);
  const auto msgs2 = runtime_->plane(2).messages_delivered();
  runtime_->fail_fiber_in_plane(0, fiber);
  EXPECT_FALSE(runtime_->plane(0).network().link(fiber).up);
  EXPECT_TRUE(runtime_->plane(1).network().link(fiber).up);
  EXPECT_EQ(runtime_->plane(2).messages_delivered(), msgs2);
  runtime_->repair_fiber_in_plane(0, fiber);

  runtime_->fail_conduit(fiber);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_FALSE(runtime_->plane(p).network().link(fiber).up) << p;
  }
  runtime_->repair_conduit(fiber);
  EXPECT_TRUE(runtime_->all_planes_converged());
}

// Fiber cuts and controller crashes stay inside one plane: the other
// planes run no NSU exchange, no recomputation, and keep delivering.
class PlaneContainmentTest : public ::testing::Test {
 protected:
  PlaneContainmentTest() : base_(topo::make_geant()) {
    traffic::GravityParams gp;
    gp.pair_fraction = 0.4;
    tm_ = traffic::generate_gravity(base_, gp).aggregated();
    PlaneRuntimeConfig config;
    config.planes = 3;
    runtime_ = std::make_unique<PlaneRuntime>(base_, tm_, config);
    runtime_->bootstrap();
  }

  // Delivery rate over every demand placed on one plane.
  double delivery_rate(std::size_t plane) {
    const auto& demands = runtime_->plane_demands(plane);
    if (demands.empty()) return 1.0;
    std::size_t ok = 0;
    for (const auto& d : demands) {
      const auto r = runtime_->send_packet(d.src, d.dst, d.priority);
      if (r.outcome == dataplane::ForwardOutcome::kDelivered) ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(demands.size());
  }

  topo::Topology base_;
  traffic::TrafficMatrix tm_;
  std::unique_ptr<PlaneRuntime> runtime_;
};

TEST_F(PlaneContainmentTest, FailureContainedToOnePlane) {
  // Cut a fiber in plane 1 only. Planes 0 and 2 must be bit-identical
  // undisturbed: no NSUs, no recomputation, no delivery impact.
  const auto msgs0 = runtime_->plane(0).messages_delivered();
  const auto msgs2 = runtime_->plane(2).messages_delivered();
  const auto digest0 = runtime_->plane(0).controller(0).state().digest();
  const auto digest2 = runtime_->plane(2).controller(0).state().digest();

  const topo::LinkId fiber = runtime_->plane(1).network().find_link(
      5, runtime_->plane(1).network().up_neighbors(5).front());
  runtime_->fail_fiber_in_plane(1, fiber);

  EXPECT_TRUE(runtime_->all_planes_converged());
  EXPECT_EQ(runtime_->plane(0).messages_delivered(), msgs0);
  EXPECT_EQ(runtime_->plane(2).messages_delivered(), msgs2);
  EXPECT_EQ(runtime_->plane(0).controller(0).state().digest(), digest0);
  EXPECT_EQ(runtime_->plane(2).controller(0).state().digest(), digest2);
  // All planes still deliver (plane 1 reconverged around the cut).
  for (std::size_t p = 0; p < runtime_->num_planes(); ++p) {
    EXPECT_DOUBLE_EQ(delivery_rate(p), 1.0) << "plane " << p;
  }
  runtime_->repair_fiber_in_plane(1, fiber);
  EXPECT_TRUE(runtime_->all_planes_converged());
}

TEST_F(PlaneContainmentTest, ControllerCrashContainedToOnePlane) {
  const auto digest2 = runtime_->plane(2).controller(0).state().digest();
  runtime_->plane(0).crash_and_recover(4);
  EXPECT_TRUE(runtime_->all_planes_converged());
  EXPECT_EQ(runtime_->plane(2).controller(0).state().digest(), digest2);
}

TEST(PlaneScenario, SeededRunsReplayBitIdentically) {
  const auto base = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  gp.seed = 0xABE;
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  PlaneScenarioOptions options;
  options.planes = 3;
  options.n_events = 6;
  options.score_packets = 64;
  const auto a = run_plane_scenario(base, tm, options, 7);
  const auto b = run_plane_scenario(base, tm, options, 7);
  for (const auto& v : a.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_GT(a.events_applied, 0u);
  EXPECT_GT(a.invariant_checks, 0u);
}

TEST(PlaneScenario, SmallSwarmIsClean) {
  const auto base = topo::make_abilene();
  traffic::GravityParams gp;
  gp.pair_fraction = 0.5;
  gp.seed = 0xABE;
  const auto tm = traffic::generate_gravity(base, gp).aggregated();
  PlaneScenarioOptions options;
  options.planes = 3;
  options.n_events = 5;
  options.score_packets = 64;
  // Parity (cold re-solve per plane per event) off to keep CI fast; the
  // tier-1 swarm leg runs with it on.
  options.invariants.check_solution_parity = false;
  const auto failure = run_plane_swarm(base, tm, options, 1, 4);
  if (failure) {
    for (const auto& v : failure->result.violations) {
      ADD_FAILURE() << "seed " << failure->seed << ": " << v;
    }
  }
  EXPECT_FALSE(failure.has_value());
}

}  // namespace
}  // namespace dsdn::hier
