#include "fault/fault_schedule.hpp"

#include <algorithm>

#include "util/fileio.hpp"
#include "util/prng.hpp"

namespace bfly {

FaultSchedule::FaultSchedule(int n) : n_(n), rows_(0) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "fault schedule dimension must be in [1, 30]");
  rows_ = pow2(n_);
}

void FaultSchedule::insert_event(FaultEvent event) {
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event.cycle,
      [](u64 cycle, const FaultEvent& e) { return cycle < e.cycle; });
  events_.insert(pos, event);
}

void FaultSchedule::require_link(u64 row, int stage) const {
  BFLY_REQUIRE(row < rows_ && stage >= 0 && stage < n_, "link out of range");
}

void FaultSchedule::require_node(u64 row, int stage) const {
  BFLY_REQUIRE(row < rows_ && stage >= 0 && stage <= n_, "node out of range");
}

void FaultSchedule::require_chip(u64 chip) const {
  BFLY_REQUIRE(has_plan(), "chip events need an attached packaging plan");
  BFLY_REQUIRE(chip < num_chips(), "chip index out of range");
}

void FaultSchedule::fail_link_at(u64 cycle, u64 row, int stage, bool cross) {
  require_link(row, stage);
  insert_event({cycle, FaultAction::kFail, FaultTarget::kLink, row, stage, cross, 0});
}

void FaultSchedule::repair_link_at(u64 cycle, u64 row, int stage, bool cross) {
  require_link(row, stage);
  insert_event({cycle, FaultAction::kRepair, FaultTarget::kLink, row, stage, cross, 0});
}

void FaultSchedule::fail_node_at(u64 cycle, u64 row, int stage) {
  require_node(row, stage);
  insert_event({cycle, FaultAction::kFail, FaultTarget::kNode, row, stage, false, 0});
}

void FaultSchedule::repair_node_at(u64 cycle, u64 row, int stage) {
  require_node(row, stage);
  insert_event({cycle, FaultAction::kRepair, FaultTarget::kNode, row, stage, false, 0});
}

void FaultSchedule::attach_plan(const HierarchicalPlan& plan) {
  attach_plan(plan.k, plan.rows_log2);
}

void FaultSchedule::attach_plan(std::vector<int> k, int rows_log2) {
  BFLY_REQUIRE(plan_k_.empty(), "a packaging plan is already attached");
  BFLY_REQUIRE(!k.empty(), "plan needs at least one ISN level");
  BFLY_REQUIRE(SwapButterfly(k).dimension() == n_, "plan dimension mismatch");
  BFLY_REQUIRE(rows_log2 >= 0 && rows_log2 <= n_, "bad rows_log2");
  plan_k_ = std::move(k);
  plan_rows_log2_ = rows_log2;
}

u64 FaultSchedule::num_chips() const {
  BFLY_REQUIRE(has_plan(), "no packaging plan attached");
  return rows_ >> plan_rows_log2_;
}

void FaultSchedule::fail_chip_at(u64 cycle, u64 chip) {
  require_chip(chip);
  insert_event({cycle, FaultAction::kFail, FaultTarget::kChip, 0, 0, false, chip});
}

void FaultSchedule::repair_chip_at(u64 cycle, u64 chip) {
  require_chip(chip);
  insert_event({cycle, FaultAction::kRepair, FaultTarget::kChip, 0, 0, false, chip});
}

FaultSchedule FaultSchedule::random_links(int n, u64 mtbf, u64 mttr, u64 horizon, u64 seed) {
  BFLY_REQUIRE(mtbf >= 2, "mean time between failures must be >= 2 cycles");
  BFLY_REQUIRE(mttr >= 1, "mean time to repair must be >= 1 cycle");
  BFLY_REQUIRE(horizon >= 1, "schedule horizon must cover at least one cycle");
  FaultSchedule s(n);
  const u64 num_links = static_cast<u64>(n) * s.rows_ * 2;
  Xoshiro256 rng(seed);
  // One pass in link-index order; each link's up/down holding times are
  // geometric with means mtbf / mttr, drawn as per-cycle integer Bernoulli
  // trials (below(m) == 0 has probability exactly 1/m) — no floating point,
  // so the schedule is bitwise reproducible on every platform and libm.
  std::vector<FaultEvent> events;
  for (u64 link = 0; link < num_links; ++link) {
    const u64 row = (link / 2) % s.rows_;
    const int stage = static_cast<int>(link / (2 * s.rows_));
    const bool cross = (link & 1) != 0;
    bool dead = false;
    for (u64 cycle = 0; cycle < horizon; ++cycle) {
      if (!dead) {
        if (rng.below(mtbf) == 0) {
          events.push_back({cycle, FaultAction::kFail, FaultTarget::kLink, row, stage, cross, 0});
          dead = true;
        }
      } else {
        if (rng.below(mttr) == 0) {
          events.push_back({cycle, FaultAction::kRepair, FaultTarget::kLink, row, stage, cross, 0});
          dead = false;
        }
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.cycle < b.cycle; });
  s.events_ = std::move(events);
  return s;
}

json::Value FaultSchedule::to_json() const {
  json::Value v = json::Value::object();
  v.set("v", json::Value::number(1));
  v.set("n", json::Value::number(n_));
  v.set("link_death_policy", json::Value::number(static_cast<int>(link_death_)));
  json::Value fo = json::Value::object();
  fo.set("spare_chips", json::Value::number(failover_.spare_chips));
  fo.set("detection_latency", json::Value::number(failover_.detection_latency));
  v.set("failover", std::move(fo));
  if (has_plan()) {
    json::Value plan = json::Value::object();
    json::Value k = json::Value::array();
    for (const int ki : plan_k_) k.push_back(json::Value::number(ki));
    plan.set("k", std::move(k));
    plan.set("rows_log2", json::Value::number(plan_rows_log2_));
    v.set("plan", std::move(plan));
  }
  json::Value events = json::Value::array();
  for (const FaultEvent& e : events_) {
    json::Value ev = json::Value::array();
    ev.push_back(json::Value::number(e.cycle));
    ev.push_back(json::Value::number(static_cast<int>(e.action)));
    ev.push_back(json::Value::number(static_cast<int>(e.target)));
    ev.push_back(json::Value::number(e.row));
    ev.push_back(json::Value::number(e.stage));
    ev.push_back(json::Value::number(e.cross ? 1 : 0));
    ev.push_back(json::Value::number(e.chip));
    events.push_back(std::move(ev));
  }
  v.set("events", std::move(events));
  return v;
}

FaultSchedule FaultSchedule::from_json(const json::Value& v) {
  BFLY_REQUIRE(v.is_object(), "schedule: not an object");
  BFLY_REQUIRE(v.at("v").as_u64() == 1, "schedule: unknown format version");
  const u64 n = v.at("n").as_u64();
  BFLY_REQUIRE(n >= 1 && n <= 30, "schedule: dimension out of range");
  FaultSchedule s(static_cast<int>(n));
  const u64 policy = v.at("link_death_policy").as_u64();
  BFLY_REQUIRE(policy <= 1, "schedule: bad link death policy code");
  s.link_death_ = static_cast<LinkDeathPolicy>(policy);
  const json::Value& fo = v.at("failover");
  BFLY_REQUIRE(fo.is_object(), "schedule: failover must be an object");
  s.failover_.spare_chips = fo.at("spare_chips").as_u64();
  s.failover_.detection_latency = fo.at("detection_latency").as_u64();
  if (const json::Value* plan = v.find("plan")) {
    BFLY_REQUIRE(plan->is_object(), "schedule: plan must be an object");
    const json::Value& k = plan->at("k");
    BFLY_REQUIRE(k.is_array() && k.size() > 0, "schedule: plan.k must be a non-empty array");
    std::vector<int> kv;
    kv.reserve(k.size());
    for (std::size_t i = 0; i < k.size(); ++i) {
      const u64 ki = k.at(i).as_u64();
      BFLY_REQUIRE(ki >= 1 && ki <= 30, "schedule: plan.k entry out of range");
      kv.push_back(static_cast<int>(ki));
    }
    const u64 rl = plan->at("rows_log2").as_u64();
    BFLY_REQUIRE(rl <= n, "schedule: plan.rows_log2 out of range");
    s.attach_plan(std::move(kv), static_cast<int>(rl));
  }
  const json::Value& events = v.at("events");
  BFLY_REQUIRE(events.is_array(), "schedule: events must be an array");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events.at(i);
    BFLY_REQUIRE(ev.is_array() && ev.size() == 7,
                 "schedule: event must be [cycle, action, target, row, stage, cross, chip]");
    const u64 cycle = ev.at(std::size_t{0}).as_u64();
    const u64 action = ev.at(std::size_t{1}).as_u64();
    BFLY_REQUIRE(action <= 1, "schedule: bad action code");
    const u64 target = ev.at(std::size_t{2}).as_u64();
    BFLY_REQUIRE(target <= 2, "schedule: bad target code");
    const u64 row = ev.at(std::size_t{3}).as_u64();
    const u64 stage = ev.at(std::size_t{4}).as_u64();
    BFLY_REQUIRE(stage <= n, "schedule: event stage out of range");
    const u64 cross = ev.at(std::size_t{5}).as_u64();
    BFLY_REQUIRE(cross <= 1, "schedule: event cross flag must be 0 or 1");
    const u64 chip = ev.at(std::size_t{6}).as_u64();
    const bool fail = action == 0;
    // Route through the surgery API so every range check applies.
    switch (static_cast<FaultTarget>(target)) {
      case FaultTarget::kLink:
        if (fail) {
          s.fail_link_at(cycle, row, static_cast<int>(stage), cross != 0);
        } else {
          s.repair_link_at(cycle, row, static_cast<int>(stage), cross != 0);
        }
        break;
      case FaultTarget::kNode:
        if (fail) {
          s.fail_node_at(cycle, row, static_cast<int>(stage));
        } else {
          s.repair_node_at(cycle, row, static_cast<int>(stage));
        }
        break;
      case FaultTarget::kChip:
        if (fail) {
          s.fail_chip_at(cycle, chip);
        } else {
          s.repair_chip_at(cycle, chip);
        }
        break;
    }
  }
  return s;
}

u64 FaultSchedule::content_hash() const {
  util::Fnv1a64 h;
  h.update(static_cast<u64>(n_));
  h.update(static_cast<u64>(link_death_));
  h.update(failover_.spare_chips);
  h.update(failover_.detection_latency);
  h.update(static_cast<u64>(plan_k_.size()));
  for (const int ki : plan_k_) h.update(static_cast<u64>(ki));
  h.update(static_cast<u64>(plan_rows_log2_));
  h.update(static_cast<u64>(events_.size()));
  for (const FaultEvent& e : events_) {
    h.update(e.cycle);
    h.update(static_cast<u64>(e.action));
    h.update(static_cast<u64>(e.target));
    h.update(e.row);
    h.update(static_cast<u64>(e.stage));
    h.update(e.cross ? 1 : 0);
    h.update(e.chip);
  }
  return h.digest();
}

bool operator==(const FaultSchedule& a, const FaultSchedule& b) {
  return a.n_ == b.n_ && a.events_ == b.events_ && a.failover_ == b.failover_ &&
         a.link_death_ == b.link_death_ && a.plan_k_ == b.plan_k_ &&
         a.plan_rows_log2_ == b.plan_rows_log2_;
}

// ---------------------------------------------------------------------------
// LiveFaultState
// ---------------------------------------------------------------------------

LiveFaultState::LiveFaultState(const FaultSet& base, const FaultSchedule& schedule)
    : n_(schedule.dimension()), rows_(schedule.rows()), schedule_(&schedule) {
  BFLY_REQUIRE(base.dimension() == schedule.dimension(),
               "fault set / schedule dimension mismatch");
  const u64 links = base.num_links();
  link_causes_.assign(links, 0);
  dead_links_.assign(links, 0);
  for (u64 link = 0; link < links; ++link) {
    // A base fault counts as one standing cause (its multiplicity — explicit
    // vs node-induced — is flattened by FaultSet's byte map).
    if (!base.link_alive_index(link)) {
      link_causes_[link] = 1;
      dead_links_[link] = 1;
    }
  }
  const u64 nodes = base.num_nodes();
  node_causes_.assign(nodes, 0);
  dead_nodes_.assign(nodes, 0);
  for (int s = 0; s <= n_; ++s) {
    for (u64 row = 0; row < rows_; ++row) {
      if (!base.node_alive(row, s)) {
        const u64 id = static_cast<u64>(s) * rows_ + row;
        node_causes_[id] = 1;
        dead_nodes_[id] = 1;
      }
    }
  }
  dead_link_count_ = base.num_dead_links();
  dead_node_count_ = base.num_dead_nodes();
  spares_left_ = schedule.failover().spare_chips;
  if (schedule.has_plan()) sb_.emplace_back(schedule.plan_k());
}

void LiveFaultState::apply_link(u64 link, bool fail) {
  if (fail) {
    if (++link_causes_[link] == 1) {
      dead_links_[link] = 1;
      ++dead_link_count_;
      ++stats_.links_killed;
      touched_.push_back(link);
    }
  } else {
    // Guarded: a repair with no standing cause is a no-op, so surplus
    // repairs (or overlapping-cause orderings) can never resurrect a link
    // another cause still holds dead.
    if (link_causes_[link] > 0 && --link_causes_[link] == 0) {
      dead_links_[link] = 0;
      --dead_link_count_;
      ++stats_.links_revived;
    }
  }
}

void LiveFaultState::apply_node(u64 row, int stage, bool fail) {
  const u64 id = static_cast<u64>(stage) * rows_ + row;
  if (fail) {
    if (++node_causes_[id] == 1) {
      dead_nodes_[id] = 1;
      ++dead_node_count_;
    }
  } else {
    if (node_causes_[id] == 0) return;  // nothing to undo
    if (--node_causes_[id] == 0) {
      dead_nodes_[id] = 0;
      --dead_node_count_;
    }
  }
  // Induced incident links, the same set FaultSet::fail_node kills: a node
  // fault adds one cause to each, a node repair removes it.
  if (stage < n_) {
    apply_link(dense_link(rows_, row, stage, false), fail);
    apply_link(dense_link(rows_, row, stage, true), fail);
  }
  if (stage > 0) {
    apply_link(dense_link(rows_, row, stage - 1, false), fail);
    apply_link(dense_link(rows_, row ^ pow2(stage - 1), stage - 1, true), fail);
  }
}

void LiveFaultState::apply_chip(u64 chip, bool fail) {
  BFLY_CHECK(!sb_.empty(), "chip event without an attached plan");
  const SwapButterfly& sb = sb_.front();
  const int rows_log2 = schedule_->plan_rows_log2();
  const u64 first_row = chip << rows_log2;
  const u64 last_row = first_row + pow2(rows_log2);
  for (int s = 0; s <= n_; ++s) {
    for (u64 v = first_row; v < last_row; ++v) {
      apply_node(sb.rho(s, v), s, fail);
    }
  }
}

void LiveFaultState::apply_event(const FaultEvent& event, u64 /*cycle*/) {
  const bool fail = event.action == FaultAction::kFail;
  if (fail) {
    ++stats_.fail_events;
  } else {
    ++stats_.repair_events;
  }
  switch (event.target) {
    case FaultTarget::kLink:
      apply_link(dense_link(rows_, event.row, event.stage, event.cross), fail);
      break;
    case FaultTarget::kNode:
      apply_node(event.row, event.stage, fail);
      break;
    case FaultTarget::kChip:
      apply_chip(event.chip, fail);
      if (fail && spares_left_ > 0) {
        // Consume the spare now; the remap completes detection_latency
        // cycles after the chip died.
        --spares_left_;
        ++stats_.spares_used;
        pending_.push_back({event.cycle + schedule_->failover().detection_latency, event.chip});
      }
      break;
  }
}

void LiveFaultState::advance_to(u64 cycle, std::vector<u64>* newly_dead_links) {
  touched_.clear();
  const std::vector<FaultEvent>& events = schedule_->events();
  while (next_event_ < events.size() && events[next_event_].cycle <= cycle) {
    apply_event(events[next_event_], cycle);
    ++next_event_;
  }
  // Spare-chip failovers whose detection latency elapsed: undo the chip
  // fault's causes, remapping its rows through the spare.  Ready cycles are
  // non-decreasing (event cycles are, and the latency is constant).
  while (pending_head_ < pending_.size() && pending_[pending_head_].ready_cycle <= cycle) {
    apply_chip(pending_[pending_head_].chip, /*fail=*/false);
    ++stats_.failovers;
    ++pending_head_;
  }
  if (newly_dead_links != nullptr) {
    newly_dead_links->clear();
    std::sort(touched_.begin(), touched_.end());
    u64 prev = ~u64{0};
    for (const u64 link : touched_) {
      // Keep links that transitioned alive -> dead this cycle and are still
      // dead after all of the cycle's events and failovers settled.
      if (link != prev && dead_links_[link] != 0) newly_dead_links->push_back(link);
      prev = link;
    }
  }
}

}  // namespace bfly
