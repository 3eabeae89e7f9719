#pragma once

// End-to-end benchmark of the dSDN fleet (sim::DsdnEmulation): shared
// types for the workload loops, the correctness checks and the
// per-layer replays. Everything here lives outside src/ and reaches the
// program only through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dataplane/pipeline.hpp"
#include "sim/emulation.hpp"
#include "topo/topology.hpp"
#include "traffic/dynamics.hpp"
#include "traffic/matrix.hpp"

namespace perfbench {

using namespace dsdn;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linearly interpolated percentile (q in [0, 1]) of a sample; 0 for an
// empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

enum class WorkloadKind { kB4FiberChurn, kB4DemandEpochs, kGeantSrChurn };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  // Percentile reported as step_tail_s: the highest with at least ten
  // samples beyond it at the step counts of a 30 s run (see README).
  double tail_q;
};

const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& all_workloads();

// ---- Inputs (all generated from the seed; the program sees only calls) --

// One fleet-driving fiber step of a churn schedule.
struct FiberStep {
  enum class Op { kCut, kFlap, kSrlg, kRepair };
  Op op = Op::kCut;
  std::vector<topo::LinkId> fibers;  // duplex representatives
  bool fiber_down() const { return op == Op::kCut || op == Op::kSrlg; }
  const char* name() const;
};

struct Inputs {
  topo::Topology topo;
  traffic::TrafficMatrix tm;  // aggregated gravity matrix
  sim::EmulationConfig config;
  // Closed loop only.
  bool closed_loop = false;
  traffic::DemandEstimator::Options estimator;
  std::unique_ptr<traffic::DemandDynamics> dynamics;
  // Churn only: seed of the per-round fiber schedule.
  std::uint64_t schedule_seed = 0;
  // Packet pool, sampled in bursts of burst_size consecutive specs.
  std::vector<dataplane::PacketSpec> packet_pool;
  std::vector<topo::NodeId> packet_dst;  // egress router of each spec
  std::size_t burst_size = 0;
};

Inputs make_inputs(WorkloadKind kind, std::uint64_t seed);

// Fiber state as the benchmark itself records it: its ground truth,
// independent of anything the program reports.
class FiberRecord {
 public:
  explicit FiberRecord(const topo::Topology& topo);
  // Duplex representative (the lower id of the pair) of any link.
  topo::LinkId rep(topo::LinkId l) const;
  bool up(topo::LinkId l) const { return up_[rep(l)] != 0; }
  void set(topo::LinkId l, bool up) { up_[rep(l)] = up ? 1 : 0; }
  const std::vector<topo::LinkId>& fibers() const { return fibers_; }
  // Is the graph connected over links the record has up, with `extra`
  // fibers also taken down?
  bool connected_without(const std::vector<topo::LinkId>& extra) const;
  // Most hops on any IGP-shortest path (ties included) with `extra`
  // fibers also down.
  std::size_t max_igp_hops_without(
      const std::vector<topo::LinkId>& extra) const;
  // Node reachability from `src` over up fibers.
  std::vector<char> reachable_from(topo::NodeId src) const;

 private:
  const topo::Topology* topo_;
  std::vector<char> up_;  // by link id (valid at representatives)
  std::vector<topo::LinkId> fibers_;
};

// The steps of churn round `round`: cut a, flap b, SRLG {c, d}, then
// repair a, c, d -- every round starts and ends with all fibers up, and
// no state it converges to partitions the network or stretches an IGP
// shortest path past the label stack limit (both checked against
// `record`).
std::vector<FiberStep> churn_round(const FiberRecord& record,
                                   std::uint64_t schedule_seed,
                                   std::uint64_t round);

// ---- Checks ------------------------------------------------------------

// Post-step checks of the converged fleet; returns one line per failure.
std::vector<std::string> check_fleet(const sim::DsdnEmulation& emu,
                                     const FiberRecord& record,
                                     WorkloadKind kind);

// Which packets of a burst must be delivered.
enum class Delivery {
  kNotRequired,   // stale window: FRR may or may not find a way
  kIfConnected,   // every packet whose endpoints `record` has connected
  kIfAllocated,   // ... and whose demand its headend allocated rate to
};

// Packet checks for one burst forwarded on `link_state` (the topology
// whose up flags the hub's snapshot carries).
std::vector<std::string> check_burst(
    const sim::DsdnEmulation& emu, const topo::Topology& link_state,
    const FiberRecord& record, std::span<const dataplane::PacketSpec> specs,
    const std::vector<dataplane::PacketVerdict>& verdicts,
    std::span<const topo::NodeId> dst_of, Delivery delivery,
    std::size_t* failed_packets);

// ---- Per-layer replays (traced run only) --------------------------------

// Everything the traced run learns about one step.
struct StepLayers {
  std::uint64_t step_id = 0;
  std::string op;
  double step_ms = 0.0;
  std::map<std::string, double> values;  // per-layer metric -> value
};

// Counters sampled before a step, diffed after it.
struct StepCounters {
  std::size_t deliveries = 0;
  std::uint64_t nsu_bytes = 0;
  std::uint64_t transmissions = 0;
  std::size_t accepted = 0;
  std::size_t recomputes = 0;
  std::vector<std::uint64_t> seqs;
  static StepCounters sample(const sim::DsdnEmulation& emu);
};

// Replays each layer's public calls on scratch copies of the converged
// state right after a step and fills `out.values`; records one span per
// replay, tagged with the step id, into the obs::Tracer.
void replay_layers(const sim::DsdnEmulation& emu, const Inputs& inputs,
                   WorkloadKind kind,
                   const StepCounters& before, const StepCounters& after,
                   std::span<const dataplane::PacketSpec> burst,
                   StepLayers& out);

// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

// Records a benchmark span "step <id> <what>" from `begin_ns`
// (obs::Tracer::now_ns) to now into the obs::Tracer.
void record_step_span(std::uint64_t step_id, const char* what,
                      std::uint64_t begin_ns);

}  // namespace perfbench
