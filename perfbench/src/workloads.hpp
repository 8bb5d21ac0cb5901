// The four workloads and the per-layer suite.  A workload fills `r` with its
// end-to-end metrics (setup_s, op_ms, work_per_s, peak_rss_mb),
// its operation counts and every failed output check.
#pragma once

#include <vector>

#include "common.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/fault_set.hpp"
#include "sim/sweep.hpp"

namespace pb {

void run_sat_sharded(const Args& a, Result& r);
void run_sat_grid(const Args& a, Result& r);
void run_layout_legal(const Args& a, Result& r);
void run_bflyd_mix(const Args& a, Result& r);

/// Per-layer metrics from a fixed set of timed calls into every layer; run
/// with an obs::Registry installed so each call also leaves a span.
void run_layer_suite(const Args& a, Result& r);
/// The serve and packaging part of the suite (in wl_serve.cpp, next to the
/// daemon session code it reuses).
void serve_layer_metrics(const Args& a, Result& r);

/// The sat_grid inputs: serial B_8..B_11 points mixing pristine, static
/// FaultSet and live FaultSchedule (kill-in-flight and deflect) runs.  Owns
/// the fault objects the points point at.
struct Grid {
  std::vector<bfly::FaultSet> fault_sets;
  std::vector<bfly::FaultSchedule> schedules;
  std::vector<bfly::SweepPoint> points;
};
Grid make_grid(u64 seed);

/// One live schedule for B_n, as make_grid generates it.
bfly::FaultSchedule make_schedule(int n, u64 seed, bfly::LinkDeathPolicy policy);

/// SplitMix64 step, for deriving per-point seeds from --seed.
u64 mix_seed(u64 seed, u64 salt);

}  // namespace pb
