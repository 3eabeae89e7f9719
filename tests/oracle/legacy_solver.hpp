#pragma once

// Differential oracle for te::Solver: the original one-Dijkstra-per-demand
// waterfill (a heap-allocating te::shortest_path, or PathCache::get, per
// active demand per round, and a per-allocation std::map<links, double>
// of grants). te::Solver must reproduce it bit-for-bit for any topology,
// demand set, option set and thread count (tests/test_batch_solver.cpp,
// tests/test_te.cpp). It is test-only code: no production path links it.

#include <vector>

#include "te/solver.hpp"

namespace dsdn::te::oracle {

class LegacySolver {
 public:
  explicit LegacySolver(SolverOptions options = {}) : options_(options) {}

  // Same contract as te::Solver::solve. Does not record the te.solver.*
  // counters, so production observability is unaffected by oracle runs.
  Solution solve(const topo::Topology& topo,
                 const traffic::TrafficMatrix& tm,
                 SolveStats* stats = nullptr,
                 const std::vector<double>* residual_override = nullptr) const;

 private:
  SolverOptions options_;
};

}  // namespace dsdn::te::oracle
