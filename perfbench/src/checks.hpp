// Output checks for every workload.  Each returns "" when the output passes
// and a one-line reason when it does not.  They test properties derived from
// the model (conservation, binomial injection, hop counts, closed-form node
// and wire counts, the paper's packaging figures) or compare two computations
// made apart (1 vs many threads, simulated vs replayed, cached vs cold,
// daemon vs in-process), never a recorded copy of earlier output.
// `bfbench selftest` feeds each one a deliberately wrong result.
#pragma once

#include <string>
#include <vector>

#include "layout/layout.hpp"
#include "layout/legality.hpp"
#include "obs/json.hpp"
#include "routing/sharded_sim.hpp"
#include "sim/sweep.hpp"

namespace pb {

using bfly::u64;

// --- saturation engines -----------------------------------------------------

std::string check_conserved(const bfly::ShardedSaturationPoint& p);

/// Below saturation every injected packet is eventually delivered, so the
/// post-warmup delivery rate is the injection rate: Binomial(rows * cycles,
/// offered) per row-cycle, plus the change in packets in flight across the
/// measured window.  Six standard deviations of both.
std::string check_throughput(int n, double offered, double throughput, u64 measured_cycles);

/// Every delivered packet crossed n stages, one per cycle at best.
std::string check_latency(int n, const bfly::SaturationPoint& p);

std::string check_same_point(const bfly::SaturationPoint& a, const bfly::SaturationPoint& b,
                             const std::string& what);
std::string check_same_sharded(const bfly::ShardedSaturationPoint& a,
                               const bfly::ShardedSaturationPoint& b, const std::string& what);
std::string check_same_outcome(const bfly::SweepOutcome& a, const bfly::SweepOutcome& b,
                               const std::string& what);

// --- layout -----------------------------------------------------------------

std::string check_legal(const bfly::LegalityReport& r, const std::string& what);
std::string check_rejected(const bfly::LegalityReport& r, const std::string& what);
/// B_n has (n+1) 2^n nodes and 2 n 2^n wires.
std::string check_counts(int n, const bfly::LayoutMetrics& m);
std::string check_same_metrics(const bfly::LayoutMetrics& a, const bfly::LayoutMetrics& b,
                               const std::string& what);
/// area / formulas::thompson_area(n) falls strictly as n grows (the 1+o(1)
/// constant converging); `areas[i]` belongs to `ns[i]`, ns ascending.
std::string check_area_trend(const std::vector<int>& ns, const std::vector<double>& areas);
std::string check_fewer_layers_larger(int n, double area_l2, double area_l4);

// --- serving ----------------------------------------------------------------

/// A parsed bflyd response line with "ok": true and a result object.
std::string check_response_ok(const bfly::json::Value& response);
/// The daemon's request ledger from a `stats` reply, taken when nothing else
/// is in flight: conserved, nothing shed, nothing failed.  The stats request
/// itself is accepted but not yet terminal when the snapshot is taken.
std::string check_ledger(const bfly::json::Value& stats);
std::string check_same_text(const std::string& got, const std::string& want,
                            const std::string& what);
/// Section 4 of the paper: B_9 packs onto 64 chips; board areas 409.6K,
/// 160K and 78.4K at 2, 4 and 8 layers.
std::string check_packaging_n9(const bfly::json::Value& result);
/// The stage-0 -> stage-n DAG routes every packet over exactly n links.
std::string check_census_distance(int n, const bfly::json::Value& result);

/// Feeds every check above a right and a deliberately wrong result; returns
/// the failures (empty = every check accepts the right one and rejects the
/// wrong one).
std::vector<std::string> selftest_checks();

}  // namespace pb
