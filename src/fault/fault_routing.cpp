#include "fault/fault_routing.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/cycle_kernel.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace bfly {

namespace {

/// The single-packet walk shared by route_packet() and the census.  on_link
/// is called with the dense index of every traversed link.
template <typename OnLink>
RouteResult route_one(int n, u64 rows, const FaultSet& faults, const FaultRoutingOptions& options,
                      u64 src, u64 dst, OnLink&& on_link) {
  RouteResult res;
  if (!faults.node_alive(src, 0) || !faults.node_alive(dst, n)) {
    res.reason = DropReason::kEndpointDead;
    return res;
  }
  u64 row = src;
  int stage = 0;
  for (;;) {
    if (stage == n) {
      if (row == dst) {
        res.delivered = true;
        return res;
      }
      if (res.wraps >= options.wrap_budget) {
        res.reason = DropReason::kBudgetExhausted;
        return res;
      }
      if (!faults.node_alive(row, 0)) {
        res.reason = DropReason::kNoAliveLink;
        return res;
      }
      ++res.wraps;
      stage = 0;
      continue;
    }
    const bool want = ((row ^ dst) >> stage) & 1;
    bool cross = want;
    if (!faults.link_alive_index(dense_link(rows, row, stage, want))) {
      if (!faults.link_alive_index(dense_link(rows, row, stage, !want))) {
        res.reason = DropReason::kNoAliveLink;
        return res;
      }
      if (res.misroutes >= options.misroute_budget) {
        res.reason = DropReason::kBudgetExhausted;
        return res;
      }
      ++res.misroutes;
      cross = !want;
    }
    on_link(dense_link(rows, row, stage, cross));
    ++res.hops;
    if (cross) row ^= pow2(stage);
    ++stage;
  }
}

void export_tally_metrics(const FaultTally& tally) {
  obs::add(obs::get_counter("fault.delivered"), tally.delivered);
  obs::add(obs::get_counter("fault.dropped.endpoint"),
           tally.dropped[drop_index(DropReason::kEndpointDead)]);
  obs::add(obs::get_counter("fault.dropped.no_alive_link"),
           tally.dropped[drop_index(DropReason::kNoAliveLink)]);
  obs::add(obs::get_counter("fault.dropped.budget_exhausted"),
           tally.dropped[drop_index(DropReason::kBudgetExhausted)]);
  obs::add(obs::get_counter("fault.dropped.queue_full"),
           tally.dropped[drop_index(DropReason::kQueueFull)]);
  obs::add(obs::get_counter("fault.dropped.killed_by_fault"),
           tally.dropped[drop_index(DropReason::kKilledByFault)]);
  obs::add(obs::get_counter("fault.misroutes"), tally.misroutes);
  obs::add(obs::get_counter("fault.wraps"), tally.wraps);
}

}  // namespace

RouteResult route_packet(int n, const FaultSet& faults, const FaultRoutingOptions& options,
                         u64 src, u64 dst, std::vector<u64>* path_links) {
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  const u64 rows = pow2(n);
  BFLY_REQUIRE(src < rows && dst < rows, "row out of range");
  return route_one(n, rows, faults, options, src, dst, [&](u64 link) {
    if (path_links != nullptr) path_links->push_back(link);
  });
}

FaultLoadCensus measure_link_loads_faulty(int n, u64 packets, u64 seed, const FaultSet& faults,
                                          const FaultRoutingOptions& options,
                                          std::size_t threads, bool keep_link_loads) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  BFLY_TRACE_SCOPE("fault.measure_link_loads");
  const u64 rows = pow2(n);
  const u64 links = static_cast<u64>(n) * rows * 2;
  if (threads == 0) threads = default_thread_count();
  obs::Counter* packet_counter = obs::get_counter("fault.census.packets");

  // Identical fixed-chunk seeding to measure_link_loads(): packet streams are
  // a function of (seed, chunk index) alone, so per-link sums and drop
  // tallies are bitwise deterministic for any thread count — and, with an
  // empty FaultSet, identical to the pristine census (every packet takes its
  // preferred link for exactly n hops).
  constexpr u64 kChunkPackets = u64{1} << 16;
  const u64 num_chunks = (packets + kChunkPackets - 1) / kChunkPackets;
  threads = std::min<std::size_t>(threads, std::max<u64>(num_chunks, 1));

  std::vector<std::vector<u64>> partial(threads, std::vector<u64>(links, 0));
  std::vector<FaultTally> partial_tally(threads);
  parallel_for_chunked(
      0, num_chunks, threads, [&](std::size_t lo, std::size_t hi, std::size_t tid) {
        BFLY_TRACE_SCOPE("fault.census.worker");
        std::vector<u64>& loads = partial[tid];
        FaultTally& tally = partial_tally[tid];
        u64 routed = 0;
        for (std::size_t chunk = lo; chunk < hi; ++chunk) {
          Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ULL * (chunk + 1)));
          const u64 begin = static_cast<u64>(chunk) * kChunkPackets;
          const u64 end = std::min(packets, begin + kChunkPackets);
          for (u64 p = begin; p < end; ++p) {
            const u64 src = rng.below(rows);
            const u64 dst = rng.below(rows);
            const RouteResult res = route_one(n, rows, faults, options, src, dst,
                                              [&](u64 link) { ++loads[link]; });
            if (res.delivered) {
              ++tally.delivered;
            } else {
              ++tally.dropped[drop_index(res.reason)];
            }
            tally.misroutes += static_cast<u64>(res.misroutes);
            tally.wraps += static_cast<u64>(res.wraps);
          }
          routed += end - begin;
        }
        obs::add(packet_counter, routed);
      });

  FaultLoadCensus out;
  out.census.packets = packets;
  {
    BFLY_TRACE_SCOPE("fault.census.merge");
    detail::merge_link_loads(partial, keep_link_loads, out.census);
    for (const FaultTally& t : partial_tally) {
      out.tally.delivered += t.delivered;
      for (std::size_t r = 0; r < kNumDropReasons; ++r) out.tally.dropped[r] += t.dropped[r];
      out.tally.misroutes += t.misroutes;
      out.tally.wraps += t.wraps;
    }
  }
  out.delivered_fraction =
      packets > 0 ? static_cast<double>(out.tally.delivered) / static_cast<double>(packets)
                  : 0.0;
  export_tally_metrics(out.tally);
  obs::set(obs::get_gauge("fault.census.delivered_fraction"), out.delivered_fraction);
  obs::set(obs::get_gauge("fault.census.max_link_load"),
           static_cast<double>(out.census.max_link_load));
  return out;
}

FaultSaturationPoint simulate_saturation_faulty(int n, double offered_load, u64 cycles,
                                                u64 seed, const FaultSet& faults,
                                                const FaultRoutingOptions& options,
                                                u64 warmup_cycles, u64 queue_capacity,
                                                const CancelToken* cancel,
                                                obs::TimeSeries* timeseries,
                                                obs::OccupancyFrames* frames,
                                                obs::FlightRecorder* flight,
                                                const FaultSchedule* schedule) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(offered_load >= 0.0 && offered_load <= 1.0, "offered load is a probability");
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  BFLY_REQUIRE(schedule == nullptr || schedule->dimension() == n,
               "fault schedule dimension mismatch");
  BFLY_TRACE_SCOPE("fault.simulate_saturation");
  // The cycle kernel on one shard, drawing from the `seed` stream itself —
  // the pristine engine's stream, which is what makes an empty FaultSet
  // reproduce simulate_saturation bit for bit.
  const detail::KernelSpec spec{
      .n = n,
      .offered_load = offered_load,
      .cycles = cycles,
      .seed = seed,
      .warmup_cycles = warmup_cycles,
      .queue_capacity = queue_capacity,
      .misroute_budget = static_cast<u32>(std::max(options.misroute_budget, 0)),
      .wrap_budget = static_cast<u32>(std::max(options.wrap_budget, 0)),
      .kill_in_flight = schedule != nullptr &&
                        schedule->link_death_policy() == LinkDeathPolicy::kKillInFlight,
      .cancel = cancel,
      .timeseries = timeseries,
      .frames = frames,
      .flight = flight,
      .latency_hist = obs::get_histogram("fault.latency_cycles",
                                         obs::Histogram::exponential_bounds(1, 2, 16)),
      .depth_hist = obs::get_histogram("fault.queue_depth",
                                       obs::Histogram::exponential_bounds(1, 2, 24)),
  };
  FaultSaturationPoint out;
  detail::KernelResult r;
  if (schedule == nullptr) {
    r = detail::run_cycle_kernel(spec, faults);
  } else {
    // `faults` becomes the cycle-0 base of a live overlay the kernel advances.
    LiveFaultState live(faults, *schedule);
    r = detail::run_cycle_kernel(spec, live);
    out.live = live.stats();
  }
  out.point = r.point;
  out.tally = r.tally;
  obs::add(obs::get_counter("fault.injected"), r.measured_injections);
  export_tally_metrics(out.tally);
  obs::set(obs::get_gauge("fault.max_queue"), static_cast<double>(out.point.max_queue));
  obs::set(obs::get_gauge("fault.throughput"), out.point.throughput);
  return out;
}

std::vector<std::uint8_t> reachable_destinations(int n, const FaultSet& faults, u64 src_row) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  const u64 rows = pow2(n);
  BFLY_REQUIRE(src_row < rows, "row out of range");
  std::vector<std::uint8_t> out(rows, 0);
  if (!faults.node_alive(src_row, 0)) return out;

  const u64 states = rows * static_cast<u64>(n + 1);
  std::vector<std::uint8_t> seen(states, 0);
  std::vector<u64> queue;
  const auto push = [&](u64 row, int stage) {
    const u64 id = static_cast<u64>(stage) * rows + row;
    if (seen[id]) return;
    seen[id] = 1;
    queue.push_back(id);
  };
  push(src_row, 0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const u64 id = queue[head];
    const u64 row = id % rows;
    const int stage = static_cast<int>(id / rows);
    if (stage == n) {
      out[row] = 1;
      // Recirculation: a packet at an output can re-enter the fabric.
      if (faults.node_alive(row, 0)) push(row, 0);
      continue;
    }
    // Dead links never lead into dead nodes (node faults kill incident
    // links), so link liveness alone gates the forward expansion.
    if (faults.link_alive(row, stage, false)) push(row, stage + 1);
    if (faults.link_alive(row, stage, true)) push(row ^ pow2(stage), stage + 1);
  }
  return out;
}

double exact_reachability(int n, const FaultSet& faults) {
  BFLY_TRACE_SCOPE("fault.exact_reachability");
  const u64 rows = pow2(n);
  // Each source row's BFS is independent; pool threads claim contiguous row
  // ranges and the u64 per-range pair counts are summed in range order, so
  // the fraction is bitwise identical for any pool size.
  const std::size_t threads =
      std::min<std::size_t>(default_thread_count(), static_cast<std::size_t>(rows));
  std::vector<u64> partial(threads, 0);
  parallel_for_chunked(
      0, static_cast<std::size_t>(rows), threads,
      [&](std::size_t lo, std::size_t hi, std::size_t tid) {
        u64 pairs = 0;
        for (std::size_t src = lo; src < hi; ++src) {
          const std::vector<std::uint8_t> reach =
              reachable_destinations(n, faults, static_cast<u64>(src));
          for (const std::uint8_t r : reach) pairs += r;
        }
        partial[tid] = pairs;
      });
  u64 reachable_pairs = 0;
  for (const u64 p : partial) reachable_pairs += p;
  const double fraction = static_cast<double>(reachable_pairs) /
                          (static_cast<double>(rows) * static_cast<double>(rows));
  obs::set(obs::get_gauge("fault.reachability"), fraction);
  return fraction;
}

}  // namespace bfly
