// Live faults: a deterministic timeline of mid-run fail/repair events, and
// the mutable liveness overlay the saturation engines consult while one is
// attached.
//
// A FaultSchedule extends the static FaultSet model (fault_set.hpp) with
// *time*: each event names a cycle, an action (fail or repair), and a target
// (one link, one node, or one whole chip of the Section 5 packaging plan).
// Schedules are built by explicit surgery (fail_link_at, repair_node_at,
// fail_chip_at, ...) or by seeded MTBF/MTTR-style random generation
// (random_links — one PRNG pass in link-index order, so an
// (n, mtbf, mttr, horizon, seed) tuple always names the same schedule).
// Events are kept sorted by cycle (stable within a cycle), the whole object
// round-trips through JSON bitwise, and content_hash() folds every
// outcome-relevant field into one u64 so the exec checkpoint can key
// scheduled sweep points by content.
//
// A LiveFaultState is the engine-facing overlay: it starts from a base
// FaultSet and applies the schedule's events at cycle boundaries
// (advance_to, called once per cycle in ascending order).  Liveness is
// *counted* — each link/node carries the number of active failure causes, so
// overlapping faults (an explicit link fault under a node fault under a chip
// fault) repair in any order without resurrecting a link that another cause
// still holds dead.  The router keeps reading liveness through the same
// one-byte link_alive_index fast path as the static FaultSet.
//
// Spare-chip failover: the Section 5 packaging provisions spare chips, and
// the FailoverPolicy models wiring one in.  When a chip-fail event fires and
// a spare remains, the spare is consumed and — after detection_latency
// cycles — the failed chip's rows are remapped through it: every node the
// chip fault killed is repaired (its failure cause removed) in one cycle.  A
// chip that fails with no spares left stays dead until an explicit
// repair-chip event.
//
// Determinism contract (tests/test_fault_schedule.cpp): attaching an empty
// schedule leaves the faulty engine bitwise identical to the static path; a
// schedule whose events all sit at cycle 0 is bitwise identical to the
// equivalent static FaultSet; and scheduled sweep points kill/resume
// bit-identically at every prefix across thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_set.hpp"
#include "obs/json.hpp"
#include "packaging/hierarchical.hpp"
#include "topology/swap_butterfly.hpp"

namespace bfly {

enum class FaultAction : int {
  kFail = 0,
  kRepair = 1,
};

enum class FaultTarget : int {
  kLink = 0,
  kNode = 1,
  kChip = 2,  ///< one chip of the attached packaging plan's row-block packing
};

/// What happens to packets already queued on a link the moment it dies.
enum class LinkDeathPolicy : int {
  /// Drain the dying link's FIFO: every resident packet is dropped with
  /// DropReason::kKilledByFault at the fault cycle.
  kKillInFlight = 0,
  /// Leave them: a packet already on the wire finishes its traversal and the
  /// router deflects it at the next node, where liveness is consulted again.
  kDeflect = 1,
};

/// One timeline entry.  `row`/`stage`/`cross` address link and node targets;
/// `chip` addresses chip targets (the other fields are zero there).
struct FaultEvent {
  u64 cycle = 0;
  FaultAction action = FaultAction::kFail;
  FaultTarget target = FaultTarget::kLink;
  u64 row = 0;
  int stage = 0;
  bool cross = false;
  u64 chip = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Spare-chip failover parameters (Section 5 provisioning).
struct FailoverPolicy {
  u64 spare_chips = 0;        ///< spares available to absorb chip failures
  u64 detection_latency = 0;  ///< cycles from chip death to the spare remap

  friend bool operator==(const FailoverPolicy&, const FailoverPolicy&) = default;
};

class FaultSchedule {
 public:
  /// An empty schedule over B_n.  Requires 1 <= n <= 30.
  explicit FaultSchedule(int n);

  int dimension() const { return n_; }
  u64 rows() const { return rows_; }
  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }
  /// Cycle of the last event (0 when empty).
  u64 last_event_cycle() const { return events_.empty() ? 0 : events_.back().cycle; }

  // --- explicit surgery ------------------------------------------------------
  // Events insert in cycle order (stable within a cycle: later insertions at
  // the same cycle apply later).  Range checks match FaultSet's.

  void fail_link_at(u64 cycle, u64 row, int stage, bool cross);
  void repair_link_at(u64 cycle, u64 row, int stage, bool cross);
  void fail_node_at(u64 cycle, u64 row, int stage);
  void repair_node_at(u64 cycle, u64 row, int stage);

  /// Chip events address one chip of the row-block packing; a plan must be
  /// attached first.  The low-level overload takes the ISN parameters
  /// directly (what the JSON codec round-trips).
  void attach_plan(const HierarchicalPlan& plan);
  void attach_plan(std::vector<int> k, int rows_log2);
  bool has_plan() const { return !plan_k_.empty(); }
  const std::vector<int>& plan_k() const { return plan_k_; }
  int plan_rows_log2() const { return plan_rows_log2_; }
  u64 num_chips() const;

  void fail_chip_at(u64 cycle, u64 chip);
  void repair_chip_at(u64 cycle, u64 chip);

  // --- policies --------------------------------------------------------------

  void set_failover(FailoverPolicy policy) { failover_ = policy; }
  const FailoverPolicy& failover() const { return failover_; }
  void set_link_death_policy(LinkDeathPolicy policy) { link_death_ = policy; }
  LinkDeathPolicy link_death_policy() const { return link_death_; }

  // --- seeded random generation ---------------------------------------------

  /// MTBF/MTTR-style link schedule over [0, horizon): every link starts
  /// alive and flips state by per-cycle Bernoulli trials — an alive link
  /// fails with probability 1/mtbf each cycle, a dead one repairs with
  /// probability 1/mttr (geometric up/down times with those means).  One
  /// PRNG pass in link-index order, integer arithmetic only, so the
  /// (n, mtbf, mttr, horizon, seed) tuple is bitwise deterministic on every
  /// platform.  Requires mtbf >= 2 and mttr >= 1 (cycles).
  static FaultSchedule random_links(int n, u64 mtbf, u64 mttr, u64 horizon, u64 seed);

  // --- persistence -----------------------------------------------------------

  /// Stable JSON encoding (events in timeline order; the document a
  /// $BFLY_SCHEDULE_FILE artifact carries).
  json::Value to_json() const;
  /// Strictly validating decoder; throws InvalidArgument on any shape, code,
  /// or range violation.  Round-trips bitwise: from_json(to_json(s)) == s.
  static FaultSchedule from_json(const json::Value& v);

  /// FNV-1a content hash over every outcome-relevant field — dimension,
  /// policies, plan parameters, and the full event timeline.  Two schedules
  /// hash equal iff an engine run would be indistinguishable; this is what
  /// joins exec::sweep_point_key for scheduled points.
  u64 content_hash() const;

  friend bool operator==(const FaultSchedule& a, const FaultSchedule& b);

 private:
  void insert_event(FaultEvent event);
  void require_link(u64 row, int stage) const;
  void require_node(u64 row, int stage) const;
  void require_chip(u64 chip) const;

  int n_;
  u64 rows_;
  std::vector<FaultEvent> events_;  ///< sorted by cycle, stable
  FailoverPolicy failover_{};
  LinkDeathPolicy link_death_ = LinkDeathPolicy::kKillInFlight;
  std::vector<int> plan_k_;  ///< empty = no plan attached
  int plan_rows_log2_ = 0;
};

/// Counters a live run accumulates while applying its schedule.
struct LiveFaultStats {
  u64 fail_events = 0;    ///< fail events applied (links + nodes + chips)
  u64 repair_events = 0;  ///< explicit repair events applied
  u64 failovers = 0;      ///< spare-chip remaps completed
  u64 spares_used = 0;    ///< spares consumed (scheduled at chip death)
  u64 links_killed = 0;   ///< alive -> dead link transitions
  u64 links_revived = 0;  ///< dead -> alive link transitions

  friend bool operator==(const LiveFaultStats&, const LiveFaultStats&) = default;
};

/// The engine-facing mutable overlay: base FaultSet liveness plus the
/// schedule's events applied up to the current cycle, with per-cause
/// counting so overlapping faults repair soundly.  Single-threaded, like the
/// engines that own it.
class LiveFaultState {
 public:
  /// Requires base.dimension() == schedule.dimension(); the schedule must
  /// outlive this object.
  LiveFaultState(const FaultSet& base, const FaultSchedule& schedule);

  int dimension() const { return n_; }
  u64 rows() const { return rows_; }

  // Same read interface (and the same one-byte fast path) as FaultSet.
  bool link_alive_index(u64 link) const { return dead_links_[link] == 0; }
  bool link_alive(u64 row, int stage, bool cross) const {
    return dead_links_[dense_link(rows_, row, stage, cross)] == 0;
  }
  bool node_alive(u64 row, int stage) const {
    return dead_nodes_[static_cast<u64>(stage) * rows_ + row] == 0;
  }
  u64 num_dead_links() const { return dead_link_count_; }
  u64 num_dead_nodes() const { return dead_node_count_; }

  /// Applies every event scheduled at exactly `cycle`, then any spare-chip
  /// failover whose detection latency elapses at `cycle`.  Call once per
  /// cycle in ascending order (the engines call it at the top of each cycle,
  /// before routing).  When `newly_dead_links` is non-null it receives the
  /// dense indices of links that transitioned alive -> dead this cycle and
  /// are still dead afterwards, in ascending order — the kill-in-flight
  /// drain set.
  void advance_to(u64 cycle, std::vector<u64>* newly_dead_links);

  const LiveFaultStats& stats() const { return stats_; }

 private:
  struct PendingFailover {
    u64 ready_cycle = 0;
    u64 chip = 0;
  };

  void apply_link(u64 link, bool fail);
  void apply_node(u64 row, int stage, bool fail);
  void apply_chip(u64 chip, bool fail);
  void apply_event(const FaultEvent& event, u64 cycle);

  int n_;
  u64 rows_;
  const FaultSchedule* schedule_;
  std::vector<std::uint16_t> link_causes_;  ///< active failure causes per link
  std::vector<std::uint16_t> node_causes_;
  std::vector<std::uint8_t> dead_links_;  ///< derived byte map (causes > 0)
  std::vector<std::uint8_t> dead_nodes_;
  u64 dead_link_count_ = 0;
  u64 dead_node_count_ = 0;
  std::size_t next_event_ = 0;  ///< cursor into schedule_->events()
  std::vector<PendingFailover> pending_;  ///< FIFO, ready cycles non-decreasing
  std::size_t pending_head_ = 0;
  u64 spares_left_ = 0;
  std::vector<SwapButterfly> sb_;  ///< 0 or 1 elements (lazy plan instance)
  std::vector<u64> touched_;      ///< links touched this advance (for the drain set)
  LiveFaultStats stats_;
};

}  // namespace bfly
