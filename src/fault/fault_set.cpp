#include "fault/fault_set.hpp"

#include "util/prng.hpp"

namespace bfly {

FaultSet::FaultSet(int n) : n_(n), rows_(0) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "fault set dimension must be in [1, 30]");
  rows_ = pow2(n_);
  dead_links_.assign(num_links(), 0);
  dead_nodes_.assign(num_nodes(), 0);
}

void FaultSet::kill_link(u64 link) {
  if (dead_links_[link] == 0) {
    dead_links_[link] = 1;
    ++dead_link_count_;
  }
}

void FaultSet::fail_link(u64 row, int stage, bool cross) {
  BFLY_REQUIRE(row < rows_ && stage >= 0 && stage < n_, "link out of range");
  kill_link(dense_link(rows_, row, stage, cross));
}

void FaultSet::fail_node(u64 row, int stage) {
  BFLY_REQUIRE(row < rows_ && stage >= 0 && stage <= n_, "node out of range");
  const u64 id = static_cast<u64>(stage) * rows_ + row;
  if (dead_nodes_[id] == 0) {
    dead_nodes_[id] = 1;
    ++dead_node_count_;
  }
  // Outgoing links (toward stage + 1).
  if (stage < n_) {
    kill_link(dense_link(rows_, row, stage, false));
    kill_link(dense_link(rows_, row, stage, true));
  }
  // Incoming links (from stage - 1): the straight link from the same row and
  // the cross link from the row differing in bit stage-1.
  if (stage > 0) {
    kill_link(dense_link(rows_, row, stage - 1, false));
    kill_link(dense_link(rows_, row ^ pow2(stage - 1), stage - 1, true));
  }
}

FaultSet FaultSet::random_links(int n, double rate, u64 seed) {
  BFLY_REQUIRE(rate >= 0.0 && rate <= 1.0, "fault rate is a probability");
  FaultSet f(n);
  Xoshiro256 rng(seed);
  for (u64 link = 0; link < f.num_links(); ++link) {
    if (rng.uniform() < rate) f.kill_link(link);
  }
  return f;
}

FaultSet FaultSet::random_nodes(int n, double rate, u64 seed) {
  BFLY_REQUIRE(rate >= 0.0 && rate <= 1.0, "fault rate is a probability");
  FaultSet f(n);
  Xoshiro256 rng(seed);
  for (int s = 0; s <= n; ++s) {
    for (u64 row = 0; row < f.rows(); ++row) {
      if (rng.uniform() < rate) f.fail_node(row, s);
    }
  }
  return f;
}

void FaultSet::fail_chip(const SwapButterfly& sb, int rows_log2, u64 chip) {
  BFLY_REQUIRE(sb.dimension() == n_, "swap-butterfly dimension mismatch");
  BFLY_REQUIRE(rows_log2 >= 0 && rows_log2 <= n_, "bad rows_log2");
  const u64 chips = rows_ >> rows_log2;
  BFLY_REQUIRE(chip < chips, "chip index out of range");
  const u64 first_row = chip << rows_log2;
  const u64 last_row = first_row + pow2(rows_log2);
  for (int s = 0; s <= n_; ++s) {
    for (u64 v = first_row; v < last_row; ++v) {
      fail_node(sb.rho(s, v), s);
    }
  }
}

}  // namespace bfly
