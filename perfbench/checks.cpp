// Correctness checks run after every step, outside every timed interval.
// They compare the fleet against properties the method must have (the
// consensus-free property, capacity conservation, loop freedom) and
// against the benchmark's own fiber record -- never against a stored
// copy of an earlier run's output.

#include "bench.hpp"
#include "core/upgrade.hpp"
#include "sim/invariants.hpp"
#include "util/format.hpp"

namespace perfbench {
namespace {

bool same_solution(const te::Solution& a, const te::Solution& b) {
  if (a.allocations.size() != b.allocations.size()) return false;
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    const te::Allocation& x = a.allocations[i];
    const te::Allocation& y = b.allocations[i];
    if (!(x.demand == y.demand) || x.allocated_gbps != y.allocated_gbps ||
        x.paths != y.paths) {
      return false;
    }
  }
  return true;
}

// Did `src`'s headend allocate rate to its (dst, class) demand?
bool allocated(const sim::DsdnEmulation& emu, topo::NodeId src,
               topo::NodeId dst, metrics::PriorityClass priority) {
  for (const te::Allocation* a :
       emu.controller(src).last_solution().originating_at(src)) {
    if (a->demand.dst == dst && a->demand.priority == priority &&
        a->allocated_gbps > 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<std::string> check_fleet(const sim::DsdnEmulation& emu,
                                     const FiberRecord& record,
                                     WorkloadKind kind) {
  std::vector<std::string> fails;
  const topo::Topology& topo = emu.network();
  const std::size_t n = topo.num_nodes();

  // 1. Every router's StateDb digest is equal.
  const std::uint64_t digest = emu.controller(0).state().digest();
  for (topo::NodeId r = 1; r < n; ++r) {
    if (emu.controller(r).state().digest() != digest) {
      fails.push_back("digest: router " + std::to_string(r) +
                      " disagrees with router 0");
      break;
    }
  }

  // 2. The agreed view's link liveness matches the benchmark's record.
  const topo::Topology& view = emu.controller(0).state().view();
  for (const topo::Link& l : view.links()) {
    if (l.up != record.up(l.id)) {
      fails.push_back("liveness: view says link " + std::to_string(l.id) +
                      (l.up ? " up" : " down") + ", record says " +
                      (record.up(l.id) ? "up" : "down"));
      break;
    }
  }

  // 3. Every router installed the identical full-network solution.
  const te::Solution& ref = emu.controller(0).last_solution();
  for (topo::NodeId r = 1; r < n; ++r) {
    if (!same_solution(emu.controller(r).last_solution(), ref)) {
      fails.push_back("consensus: router " + std::to_string(r) +
                      " solved differently from router 0");
      break;
    }
  }

  // 4. The union of every router's own allocations stays within
  // capacity, and is zero on links the record has down.
  std::vector<double> placed(topo.num_links(), 0.0);
  for (topo::NodeId r = 0; r < n; ++r) {
    for (const te::Allocation* a :
         emu.controller(r).last_solution().originating_at(r)) {
      for (const te::WeightedPath& wp : a->paths) {
        const double rate = a->allocated_gbps * wp.weight;
        if (rate <= 0) continue;
        for (topo::LinkId lid : wp.path.links) placed[lid] += rate;
      }
    }
  }
  for (const topo::Link& l : topo.links()) {
    const double slack = 1e-6;
    if (!record.up(l.id) && placed[l.id] > slack) {
      fails.push_back("capacity: " + util::format_double(placed[l.id], 3) +
                      "G placed on down link " + std::to_string(l.id));
      break;
    }
    if (placed[l.id] > l.capacity_gbps + slack) {
      fails.push_back("capacity: link " + std::to_string(l.id) + " carries " +
                      util::format_double(placed[l.id], 3) + "G of " +
                      util::format_double(l.capacity_gbps, 3) + "G");
      break;
    }
  }

  // 5. The program's own invariant battery; the closed loop's recompute
  // policy may legitimately leave the solution behind the demand view.
  sim::InvariantOptions inv;
  inv.parity_against_solved_demands = kind == WorkloadKind::kB4DemandEpochs;
  const sim::InvariantReport rep = sim::check_invariants(emu, inv);
  for (const std::string& v : rep.violations) {
    fails.push_back("invariants: " + v);
  }

  // 6. Segment stacks stay within the 3-segment encoding limit, both in
  // the solution and in every installed headend route.
  if (kind == WorkloadKind::kGeantSrChurn) {
    for (const te::Allocation& a : ref.allocations) {
      for (const te::WeightedPath& wp : a.paths) {
        if (wp.segments.size() > core::kMaxSegmentStackDepth) {
          fails.push_back("sr: solution stack of " +
                          std::to_string(wp.segments.size()) + " segments");
          break;
        }
      }
    }
    for (topo::NodeId r = 0; r < n; ++r) {
      for (const auto& [key, entry] : emu.at(r).ingress.encap_table()) {
        for (const dataplane::WeightedRoute& route : entry.routes) {
          const auto& labels = route.stack.labels();
          if (!labels.empty() &&
              dataplane::is_node_segment_label(labels.front()) &&
              labels.size() > core::kMaxSegmentStackDepth) {
            fails.push_back("sr: router " + std::to_string(r) +
                            " installed a " + std::to_string(labels.size()) +
                            "-label segment stack");
          }
        }
      }
    }
  }
  return fails;
}

std::vector<std::string> check_burst(
    const sim::DsdnEmulation& emu, const topo::Topology& link_state,
    const FiberRecord& record, std::span<const dataplane::PacketSpec> specs,
    const std::vector<dataplane::PacketVerdict>& verdicts,
    std::span<const topo::NodeId> dst_of, Delivery delivery,
    std::size_t* failed_packets) {
  std::vector<std::string> fails;
  std::size_t bad = 0;
  // The scalar forwarder over the snapshot the burst ran on (nothing has
  // published since: the benchmark is single-threaded).
  const dataplane::SnapshotView view(emu.fib_hub()->acquire(0));
  const dataplane::Forwarder scalar(link_state, &view);
  std::vector<std::vector<char>> reach(link_state.num_nodes());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const dataplane::PacketSpec& s = specs[i];
    const dataplane::PacketVerdict& v = verdicts[i];
    std::string why;
    if (v.outcome == dataplane::ForwardOutcome::kDroppedLoop) {
      why = "loop";
    } else if (v.outcome == dataplane::ForwardOutcome::kDroppedUnknownLabel) {
      why = "unknown label";
    } else {
      dataplane::Packet pkt;
      pkt.dst_ip = s.dst_ip;
      pkt.priority = s.priority;
      pkt.entropy = s.entropy;
      pkt.ttl = s.ttl;
      const dataplane::ForwardResult r = scalar.forward(pkt, s.ingress);
      if (r.outcome != v.outcome || r.final_node != v.final_node ||
          r.hops != v.hops || r.frr_activations != v.frr_activations ||
          r.latency_s != v.latency_s) {
        why = std::string("scalar forwarder disagrees (") +
              dataplane::forward_outcome_name(r.outcome) + " vs " +
              dataplane::forward_outcome_name(v.outcome) + ")";
      } else if (delivery != Delivery::kNotRequired &&
                 v.outcome != dataplane::ForwardOutcome::kDelivered) {
        auto& seen = reach[s.ingress];
        if (seen.empty()) seen = record.reachable_from(s.ingress);
        if (seen[dst_of[i]] && (delivery == Delivery::kIfConnected ||
                                allocated(emu, s.ingress, dst_of[i],
                                          s.priority))) {
          why = std::string("not delivered between connected endpoints (") +
                dataplane::forward_outcome_name(v.outcome) + ")";
        }
      }
    }
    if (!why.empty()) {
      if (bad++ < 3) {
        fails.push_back("packet " + std::to_string(i) + " " +
                        std::to_string(s.ingress) + "->" +
                        std::to_string(dst_of[i]) + ": " + why);
      }
    }
  }
  *failed_packets = bad;
  return fails;
}

}  // namespace perfbench
