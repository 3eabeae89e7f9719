// Seeded input generation: topologies, gravity matrices, churn rounds,
// demand dynamics and packet pools. Nothing here is timed.

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>

#include "bench.hpp"
#include "core/upgrade.hpp"
#include "dataplane/label.hpp"
#include "topo/prefix.hpp"
#include "topo/synthetic.hpp"
#include "topo/zoo.hpp"
#include "traffic/gravity.hpp"
#include "util/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {WorkloadKind::kB4FiberChurn, "b4_fiber_churn", 0.70},
      {WorkloadKind::kB4DemandEpochs, "b4_demand_epochs", 0.55},
      {WorkloadKind::kGeantSrChurn, "geant_sr_churn", 0.66},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const char* FiberStep::name() const {
  switch (op) {
    case Op::kCut: return "cut";
    case Op::kFlap: return "flap";
    case Op::kSrlg: return "srlg";
    case Op::kRepair: return "repair";
  }
  return "?";
}

namespace {

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return util::splitmix64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

// The mixed fleet of `scenario_swarm --sr`: n%3==1 strict TE, n%7==5
// shortest path, every other router segment routing.
std::vector<core::PathingAlgorithm> sr_fleet(std::size_t num_nodes) {
  std::vector<core::PathingAlgorithm> algos(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (n % 3 == 1) {
      algos[n] = core::PathingAlgorithm::kMaxMinFairTe;
    } else if (n % 7 == 5) {
      algos[n] = core::PathingAlgorithm::kShortestPath;
    } else {
      algos[n] = core::PathingAlgorithm::kSegmentRouting;
    }
  }
  return algos;
}

// `count` packets drawn uniformly over the matrix rows of at least
// `min_rate_gbps`, addressed to a host behind the row's egress router.
void make_packet_pool(Inputs& in, std::size_t count, double min_rate_gbps,
                      std::uint64_t seed) {
  const auto prefixes = topo::assign_router_prefixes(in.topo);
  std::vector<traffic::Demand> rows;
  for (const traffic::Demand& d : in.tm.demands()) {
    if (d.rate_gbps >= min_rate_gbps) rows.push_back(d);
  }
  util::Rng rng(seed);
  const int ttl = static_cast<int>(4 * in.topo.num_nodes() + 16);
  in.packet_pool.reserve(count);
  in.packet_dst.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const traffic::Demand& d = rows[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1))];
    dataplane::PacketSpec s;
    s.dst_ip = topo::host_in(prefixes.at(d.dst));
    s.priority = d.priority;
    s.entropy = rng.engine()();
    s.ttl = ttl;
    s.ingress = d.src;
    in.packet_pool.push_back(s);
    in.packet_dst.push_back(d.dst);
  }
}

}  // namespace

Inputs make_inputs(WorkloadKind kind, std::uint64_t seed) {
  Inputs in;
  traffic::GravityParams gp;
  gp.target_max_utilization = 0.5;
  gp.seed = derive(seed, 2);
  switch (kind) {
    case WorkloadKind::kB4FiberChurn:
    case WorkloadKind::kB4DemandEpochs:
      // The repository's fixed B4 stand-in (99 routers, 458 links). A
      // seeded B4-like graph would make some seeds fail: TE then places
      // paths deeper than the 12-label stack the programmer installs
      // (see CHANGES.md, FOUND).
      in.topo = topo::make_b4_like();
      gp.pair_fraction = 0.15;
      break;
    case WorkloadKind::kGeantSrChurn:
      in.topo = topo::make_geant();
      gp.pair_fraction = 1.0;
      in.config.algorithms = sr_fleet(in.topo.num_nodes());
      break;
  }
  in.tm = traffic::generate_gravity(in.topo, gp).aggregated();

  if (kind == WorkloadKind::kB4DemandEpochs) {
    in.closed_loop = true;
    in.config.incremental_te = true;
    in.config.recompute_policy = {.kind = te::RecomputeTrigger::kHybrid,
                                  .period_epochs = 16,
                                  .drift_threshold = 0.10};
    in.estimator.alpha = 0.4;
    in.estimator.floor_gbps = 0.005;
    traffic::DemandDynamicsOptions dyn;
    dyn.diurnal_amplitude = 0.25;
    dyn.diurnal_period_epochs = 96.0;
    dyn.regional_max_shift = 0.15;
    dyn.regional_horizon_epochs = 256;
    dyn.flash_prob_per_epoch = 0.02;
    dyn.horizon_epochs = 512;
    in.dynamics = std::make_unique<traffic::DemandDynamics>(in.tm, dyn,
                                                            derive(seed, 3));
  } else {
    in.schedule_seed = derive(seed, 4);
  }

  // Closed loop: only rows the estimator keeps advertising under the
  // dynamics' worst drift (diurnal -25%, regional -15%) carry packets,
  // so every sampled packet has an installed route to follow.
  const double min_rate = in.closed_loop ? 4.0 * in.estimator.floor_gbps : 0.0;
  in.burst_size = 8192;
  make_packet_pool(in, 8 * in.burst_size, min_rate, derive(seed, 5));
  return in;
}

FiberRecord::FiberRecord(const topo::Topology& topo)
    : topo_(&topo), up_(topo.num_links(), 1) {
  for (const topo::Link& l : topo.links()) {
    if (l.reverse == topo::kInvalidLink || l.id < l.reverse) {
      fibers_.push_back(l.id);
    }
    up_[l.id] = l.up ? 1 : 0;
  }
}

topo::LinkId FiberRecord::rep(topo::LinkId l) const {
  const topo::LinkId r = topo_->link(l).reverse;
  return r == topo::kInvalidLink ? l : std::min(l, r);
}

std::vector<char> FiberRecord::reachable_from(topo::NodeId src) const {
  std::vector<char> seen(topo_->num_nodes(), 0);
  std::deque<topo::NodeId> frontier{src};
  seen[src] = 1;
  while (!frontier.empty()) {
    const topo::NodeId at = frontier.front();
    frontier.pop_front();
    for (topo::LinkId lid : topo_->node(at).out_links) {
      const topo::Link& l = topo_->link(lid);
      if (!up(lid) || seen[l.dst]) continue;
      seen[l.dst] = 1;
      frontier.push_back(l.dst);
    }
  }
  return seen;
}

bool FiberRecord::connected_without(
    const std::vector<topo::LinkId>& extra) const {
  FiberRecord probe = *this;
  for (topo::LinkId f : extra) probe.set(f, false);
  const auto seen = probe.reachable_from(0);
  return std::all_of(seen.begin(), seen.end(), [](char c) { return c; });
}

std::size_t FiberRecord::max_igp_hops_without(
    const std::vector<topo::LinkId>& extra) const {
  FiberRecord probe = *this;
  for (topo::LinkId f : extra) probe.set(f, false);
  const std::size_t n = topo_->num_nodes();
  std::size_t worst = 0;
  using Item = std::pair<double, topo::NodeId>;
  for (topo::NodeId src = 0; src < n; ++src) {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<std::size_t> hops(n, 0);  // most hops over tied paths
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[src] = 0;
    heap.push({0.0, src});
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (topo::LinkId lid : topo_->node(u).out_links) {
        const topo::Link& l = topo_->link(lid);
        if (!probe.up(lid)) continue;
        const double nd = d + l.igp_metric;
        const double eps = 1e-9 * std::max(1.0, nd);
        if (nd < dist[l.dst] - eps) {
          dist[l.dst] = nd;
          hops[l.dst] = hops[u] + 1;
          heap.push({nd, l.dst});
        } else if (nd <= dist[l.dst] + eps) {
          hops[l.dst] = std::max(hops[l.dst], hops[u] + 1);
        }
      }
    }
    for (std::size_t h : hops) worst = std::max(worst, h);
  }
  return worst;
}

std::vector<FiberStep> churn_round(const FiberRecord& record,
                                   std::uint64_t schedule_seed,
                                   std::uint64_t round) {
  util::Rng rng(derive(schedule_seed, round));
  const auto& fibers = record.fibers();
  // Draws a fiber not in `taken` such that, in every fiber state the
  // round converges to while it is down (the fiber with each set in
  // `with` also down), the network stays connected and every IGP shortest
  // path fits the label stack a headend can push. Longer paths are
  // skipped by the programmer and blackhole their demand on every run
  // that reaches such a state (CHANGES.md, FOUND), so the schedule leaves
  // them out. Repairs matter too: restoring a fiber can make a path of
  // more hops the IGP-shortest one.
  auto draw = [&](const std::vector<std::vector<topo::LinkId>>& with,
                  const std::vector<topo::LinkId>& taken) {
    for (int attempt = 0; attempt < 10'000; ++attempt) {
      const topo::LinkId f = rng.pick(fibers);
      if (std::find(taken.begin(), taken.end(), f) != taken.end()) continue;
      const bool fits = std::all_of(with.begin(), with.end(), [&](auto down) {
        down.push_back(f);
        return record.connected_without(down) &&
               record.max_igp_hops_without(down) <= dataplane::kMaxLabelDepth;
      });
      if (fits) return f;
    }
    throw std::runtime_error("churn_round: no fiber fits the schedule rules");
  };
  // States after each step: {a}, {a} (flap of b, through {a, b}),
  // {a, c, d}, {c, d}, {d}, {}. c is drawn against {a} only so that a
  // fitting d can exist; d's draw checks every state c is down in.
  const topo::LinkId a = draw({{}}, {});
  const topo::LinkId b = draw({{a}}, {a});
  const topo::LinkId c = draw({{a}}, {a, b});
  const topo::LinkId d = draw({{a, c}, {c}, {}}, {a, b, c});
  using Op = FiberStep::Op;
  return {
      {Op::kCut, {a}},    {Op::kFlap, {b}},   {Op::kSrlg, {c, d}},
      {Op::kRepair, {a}}, {Op::kRepair, {c}}, {Op::kRepair, {d}},
  };
}

}  // namespace perfbench
