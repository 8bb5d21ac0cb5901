// Fault model for butterfly fabrics: which links and nodes of B_n are dead.
//
// The paper's Theorem 2.1 argument and the Section 5 packaging example assume
// a pristine fabric.  A production interconnect must keep serving traffic when
// links, switches, or whole chips fail, so this subsystem makes failure a
// first-class, *deterministic* object: a FaultSet is a dense link/node
// liveness map over B_n, built either by explicit surgery (fail_link,
// fail_node), by seeded random injection (random_links, random_nodes — one
// single-threaded PRNG pass, so a (n, rate, seed) triple always names the
// same fault set), or chip-granularly through the Section 5 packaging plan:
// fail_chip() kills every butterfly node hosted on one physical chip of the
// row-block packing, mapped through the swap-butterfly isomorphism rho_s.
//
// Node faults induce link faults: a dead switch can neither accept nor emit
// packets, so all of its incident links are marked dead too.  Hot routing
// loops therefore only ever test link liveness (one byte load per hop);
// node liveness only matters at injection and delivery endpoints.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routing.hpp"
#include "topology/butterfly.hpp"
#include "topology/swap_butterfly.hpp"
#include "util/bits.hpp"

namespace bfly {

class FaultSet {
 public:
  /// An all-alive fault set over B_n.  Requires 1 <= n <= 30.
  explicit FaultSet(int n);

  int dimension() const { return n_; }
  u64 rows() const { return rows_; }
  u64 num_links() const { return static_cast<u64>(n_) * rows_ * 2; }
  u64 num_nodes() const { return static_cast<u64>(n_ + 1) * rows_; }

  bool empty() const { return dead_link_count_ == 0 && dead_node_count_ == 0; }
  u64 num_dead_links() const { return dead_link_count_; }  ///< explicit + induced
  u64 num_dead_nodes() const { return dead_node_count_; }

  /// Kills the forward link (row, stage) -> stage+1 (straight or cross).
  void fail_link(u64 row, int stage, bool cross);
  /// Kills the node (row, stage) and every link incident to it.
  void fail_node(u64 row, int stage);

  bool link_alive(u64 row, int stage, bool cross) const {
    BFLY_REQUIRE(row < rows_ && stage >= 0 && stage < n_, "link out of range");
    return dead_links_[dense_link(rows_, row, stage, cross)] == 0;
  }
  bool node_alive(u64 row, int stage) const {
    BFLY_REQUIRE(row < rows_ && stage >= 0 && stage <= n_, "node out of range");
    return dead_nodes_[static_cast<u64>(stage) * rows_ + row] == 0;
  }
  /// Unchecked liveness by dense link index (routing's dense_link()) —
  /// the one-byte-load fast path for per-hop tests in routing loops.
  bool link_alive_index(u64 link) const { return dead_links_[link] == 0; }

  /// Each of the n * 2^n * 2 links fails independently with probability
  /// `rate` (one PRNG pass in link-index order: bitwise deterministic).
  static FaultSet random_links(int n, double rate, u64 seed);
  /// Each of the (n+1) * 2^n nodes fails independently with probability
  /// `rate`; incident links are induced dead.
  static FaultSet random_nodes(int n, double rate, u64 seed);

  /// Chip-granular fault through the packaging plan: the row-block packing
  /// places swap-butterfly rows [chip * 2^rows_log2, (chip+1) * 2^rows_log2)
  /// (all stages) on one chip; this kills the *butterfly* image of every one
  /// of those nodes under the isomorphism (v, s) -> (rho_s(v), s).  Requires
  /// sb.dimension() == dimension().
  void fail_chip(const SwapButterfly& sb, int rows_log2, u64 chip);

 private:
  void kill_link(u64 link);

  int n_;
  u64 rows_;
  std::vector<std::uint8_t> dead_links_;  ///< indexed by dense link index
  std::vector<std::uint8_t> dead_nodes_;  ///< indexed by stage * rows + row
  u64 dead_link_count_ = 0;
  u64 dead_node_count_ = 0;
};

}  // namespace bfly
