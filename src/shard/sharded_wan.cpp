#include "shard/sharded_wan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "te/thread_pool.hpp"
#include "util/rng.hpp"

namespace dsdn::shard {

std::vector<topo::Topology> make_planes(const topo::Topology& base,
                                        std::size_t k) {
  if (k == 0) throw std::invalid_argument("make_planes: k == 0");
  // Striping is exact in integer kbps units so that the K planes' stripes
  // sum to the base fiber's capacity even when it does not divide evenly
  // (naive capacity/k loses up to (k-1)/k kbps per fiber). The remainder
  // units rotate across planes by duplex-fiber index, so no plane is
  // systematically fatter than the others.
  constexpr double kUnitsPerGbps = 1e6;  // 1 kbps resolution
  std::vector<topo::Topology> planes;
  planes.reserve(k);
  for (std::size_t p = 0; p < k; ++p) {
    topo::Topology plane;
    for (const topo::Node& n : base.nodes()) {
      plane.add_node(n.name, n.metro, n.gravity_weight);
    }
    std::size_t fiber_index = 0;
    for (const topo::Link& l : base.links()) {
      // One pass per duplex fiber.
      if (l.reverse == topo::kInvalidLink || l.id < l.reverse) {
        const auto units = static_cast<std::uint64_t>(
            std::llround(l.capacity_gbps * kUnitsPerGbps));
        std::uint64_t stripe = units / k;
        if ((p + fiber_index) % k < units % k) ++stripe;
        plane.add_duplex(l.src, l.dst,
                         static_cast<double>(stripe) / kUnitsPerGbps,
                         l.igp_metric, l.delay_s);
        ++fiber_index;
      }
    }
    plane.validate();
    planes.push_back(std::move(plane));
  }
  return planes;
}

std::size_t plane_of_flow(topo::NodeId src, topo::NodeId dst,
                          metrics::PriorityClass priority, std::size_t k) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 34) ^
                            (static_cast<std::uint64_t>(dst) << 4) ^
                            static_cast<std::uint64_t>(priority);
  return util::splitmix64(key) % k;
}

std::vector<traffic::TrafficMatrix> split_demands(
    const traffic::TrafficMatrix& tm, std::size_t k) {
  if (k == 0) throw std::invalid_argument("split_demands: k == 0");
  std::vector<traffic::TrafficMatrix> out(k);
  for (const traffic::Demand& d : tm.demands()) {
    out[plane_of_flow(d.src, d.dst, d.priority, k)].add(d);
  }
  return out;
}

ShardedWan::ShardedWan(const topo::Topology& base,
                       const traffic::TrafficMatrix& tm, std::size_t k,
                       sim::EmulationConfig config) {
  auto plane_topos = make_planes(base, k);
  demands_ = split_demands(tm, k);
  planes_.reserve(k);
  for (std::size_t p = 0; p < k; ++p) {
    planes_.push_back(std::make_unique<sim::DsdnEmulation>(
        std::move(plane_topos[p]), demands_[p], config));
  }
}

void ShardedWan::bootstrap(std::size_t n_threads) {
  te::ThreadPool pool(std::min(n_threads, planes_.size()));
  pool.parallel_for(planes_.size(),
                    [&](std::size_t p) { planes_[p]->bootstrap(); });
}

void ShardedWan::fail_fiber_in_plane(std::size_t k, topo::LinkId fiber) {
  planes_.at(k)->fail_fiber(fiber);
}

void ShardedWan::repair_fiber_in_plane(std::size_t k, topo::LinkId fiber) {
  planes_.at(k)->repair_fiber(fiber);
}

dataplane::ForwardResult ShardedWan::send_packet(
    topo::NodeId ingress, topo::NodeId dst,
    metrics::PriorityClass priority, std::uint64_t entropy) const {
  const auto& plane =
      *planes_[plane_of_flow(ingress, dst, priority, planes_.size())];
  return plane.send_packet(ingress, plane.address_of(dst), priority,
                           entropy);
}

bool ShardedWan::all_planes_converged() const {
  for (const auto& plane : planes_) {
    if (!plane->views_converged()) return false;
  }
  return true;
}

}  // namespace dsdn::shard
