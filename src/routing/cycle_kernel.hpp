// The packet engine: one synchronous store-and-forward cycle kernel behind
// every saturation entry point.  simulate_saturation (routing.hpp) and
// simulate_saturation_faulty (fault/fault_routing.hpp) run it with one shard
// on the calling thread, drawing injections from the `seed` stream itself;
// simulate_saturation_sharded runs it with `shard_count` shards on the pool
// (sharded_sim.hpp describes the row-block geometry, the hand-off rings, the
// determinism contract, and why observers attach only to one-shard runs).
// With one shard no stage crosses, the drain phase is empty, and shard-local
// link ids are the global dense ids of routing's link_index().
//
// The kernel's only template parameter is the liveness provider:
//
//   * NoFaults — link_alive / node_alive are constant true, so the pristine
//     instantiation runs the deflection body with every fault test folded
//     away (bit-fixing is then the only choice, and every packet reaching
//     stage n is at its destination);
//   * FaultSet — static faults, budgeted deflection routing (the policy of
//     fault/fault_routing.hpp);
//   * LiveFaultState — a fault schedule is attached: the overlay advances at
//     the top of every cycle and, under LinkDeathPolicy::kKillInFlight, the
//     FIFOs of links that just died are drained as kKilledByFault before any
//     packet moves.
//
// A cycle: poll the cancel token (every kCancelPollCycles cycles), apply the
// live schedule, then per shard advance every stage (highest first, so a
// packet moves at most one hop per cycle), re-enter wrapped packets at stage
// 0, and inject; then drain the rings; then sample the observers.  Every run
// ends with an exact ledger check: each offered packet was delivered,
// dropped, or is still queued.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault_routing.hpp"
#include "fault/fault_schedule.hpp"
#include "obs/metrics.hpp"
#include "routing/packet_arena.hpp"
#include "routing/routing.hpp"
#include "routing/sharded_sim.hpp"
#include "routing/telemetry_probe.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/spsc_ring.hpp"

namespace bfly::detail {

/// Liveness of the pristine fabric: every test is a compile-time constant.
struct NoFaults {
  static constexpr bool link_alive(u64, int, bool) { return true; }
  static constexpr bool node_alive(u64, int) { return true; }
  static constexpr u64 num_dead_links() { return 0; }
};
inline constexpr NoFaults kNoFaults{};

/// Everything a run needs besides its liveness provider.
struct KernelSpec {
  int n = 1;
  double offered_load = 0.0;
  u64 cycles = 0;
  u64 seed = 0;
  u64 warmup_cycles = 0;
  u64 queue_capacity = 0;  ///< 0 = unbounded per-link FIFOs
  u32 misroute_budget = 0;
  u32 wrap_budget = 0;
  u64 shard_count = 1;
  std::size_t threads = 1;  ///< never affects results, only wall-clock
  bool mix_shard_seeds = false;  ///< shard k draws seed ^ golden*(k+1); else `seed`
  /// LiveFaultState runs only: drain links at the cycle they die.
  bool kill_in_flight = false;
  const CancelToken* cancel = nullptr;
  // Observers; null = off.  Non-null only with shard_count == 1.
  obs::TimeSeries* timeseries = nullptr;
  obs::OccupancyFrames* frames = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::Histogram* latency_hist = nullptr;
  obs::Histogram* depth_hist = nullptr;
};

/// A run's SaturationPoint, post-warmup FaultTally and whole-run ledger, plus
/// the post-warmup injection count the wrappers export as a counter.
/// tally.delivered == point.delivered for every liveness provider.
struct KernelResult : ShardedSaturationPoint {
  u64 measured_injections = 0;
};

/// A packet at a global row: a cross-shard hand-off (the cross link's far
/// end) or a wrap awaiting re-entry at stage 0.
using RowPacket = std::pair<u64, PacketArena::Packet>;

/// Per-shard state: a private arena over the shard's local link range, its
/// own injection stream, and private statistics merged in shard order.
struct KernelShard {
  /// Readies the shard for a run: the state of a freshly built shard, in
  /// the memory of the last run's.
  void reset(u64 local_links, bool with_budgets, bool with_flight, u64 seed) {
    arena.reset(local_links, with_budgets, with_flight);
    rng = Xoshiro256(seed);
    wrapped.clear();
    tally = {};
    latency_sum = 0.0;
    measured_injections = offered = injected = delivered_all = dropped_all = in_flight = 0;
  }

  PacketArena arena{0, false, false, 0};
  Xoshiro256 rng{0};
  std::vector<RowPacket> wrapped;

  // Post-warmup statistics (tally.delivered is the delivered count).
  FaultTally tally;
  double latency_sum = 0.0;
  u64 measured_injections = 0;

  // Whole-run ledger (every cycle, warmup included).
  u64 offered = 0;
  u64 injected = 0;
  u64 delivered_all = 0;
  u64 dropped_all = 0;
  u64 in_flight = 0;  ///< packets currently queued in this shard's arena
};

/// A run's shards and hand-off rings.  A run borrows its thread's store (see
/// t_idle_store) and gives it back when it returns normally, so the points
/// of a curve or sweep reuse one set of arenas instead of building and
/// paging in a fresh set per point.
struct KernelStore {
  std::deque<KernelShard> shards;
  // A ring is empty between runs: every cycle's drain empties it, and a run
  // stops (complete or cancelled) only at a cycle boundary.
  std::deque<util::SpscRing<RowPacket>> rings;
};

/// The calling thread's idle store, or null when it has none.  A run takes
/// the store out for its whole duration, so a second run started on the same
/// thread meanwhile (the pool's help-while-wait can run another sweep point
/// inside this run's parallel_for_chunked) finds none and builds its own.
/// The first of them to finish leaves its store here and the other's is
/// freed, so a thread keeps at most one idle store.
inline thread_local std::unique_ptr<KernelStore> t_idle_store;

/// One shard's share of one cycle.  The kernel builds one on the stack per
/// (shard, phase), copying the run's constants in; advance() and drain() are
/// force-inlined into that frame, so the hot loops keep the constants in
/// registers instead of reloading them through a pointer after every arena
/// store.
template <typename Liveness>
struct ShardCycle {
  using Packet = PacketArena::Packet;

  const KernelSpec spec;
  const u64 rows;
  const u64 block;      ///< rows per shard (power of two)
  const int log2block;  ///< stages below this are shard-local
  Liveness& faults;
  SaturationProbe& probe;
  FlightProbe fprobe;
  obs::LocalHistogram& latency_hist;
  std::deque<util::SpscRing<RowPacket>>& rings;
  KernelShard& sh;
  u64 k;
  u64 cycle;
  bool measured;

  /// The hand-off ring of (source shard, crossing stage).
  util::SpscRing<RowPacket>& ring(u64 src_shard, int stage) const {
    return rings[src_shard * static_cast<u64>(spec.n - log2block) +
                 static_cast<u64>(stage - log2block)];
  }

  /// The telemetry drop channel is cumulative over *all* cycles; the tally
  /// stays post-warmup-only.
  void count_drop(DropReason reason, u64 flight) {
    ++sh.dropped_all;
    if (measured) ++sh.tally.dropped[drop_index(reason)];
    probe.on_dropped();
    fprobe.on_dropped(flight, cycle, static_cast<u64>(drop_index(reason)));
  }

  /// Picks the stage-`stage` output link for a packet at global `row` (owned
  /// by this shard) and enqueues it there, charging a misroute when the
  /// packet must deflect.  Returns false (after counting the drop) when the
  /// packet dies here.  `entry` is the flight-trace event for how the packet
  /// reached this node; a deflection overrides it.
  bool enqueue(u64 row, int stage, Packet pkt, obs::FlightEvent entry) {
    const bool want = ((row ^ pkt.dst) >> stage) & 1;
    bool cross = want;
    if (!faults.link_alive(row, stage, want)) {
      if (!faults.link_alive(row, stage, !want)) {
        count_drop(DropReason::kNoAliveLink, pkt.flight);
        return false;
      }
      if (pkt.misroutes >= spec.misroute_budget) {
        count_drop(DropReason::kBudgetExhausted, pkt.flight);
        return false;
      }
      ++pkt.misroutes;
      if (measured) ++sh.tally.misroutes;
      cross = !want;
      entry = obs::FlightEvent::kMisroute;
    }
    return push(dense_link(block, row & (block - 1), stage, cross), pkt, entry);
  }

  /// Appends the packet to `link`'s FIFO, or drops it when the FIFO is full.
  bool push(u64 link, const Packet& pkt, obs::FlightEvent entry) {
    if (spec.queue_capacity > 0 && sh.arena.size(link) >= spec.queue_capacity) {
      count_drop(DropReason::kQueueFull, pkt.flight);
      return false;
    }
    fprobe.on_push(pkt.flight, cycle, link, entry);
    sh.arena.push(link, pkt);
    return true;
  }

  /// A packet that reached stage n on `row`: delivered at its destination,
  /// otherwise queued to wrap to stage 0 when wrap budget remains and the
  /// input switch is alive, otherwise dropped.  Returns true iff it wraps
  /// (stays in the fabric); the caller settles in_flight.
  bool reach_output(u64 row, Packet pkt) {
    if (row == pkt.dst) {
      ++sh.delivered_all;
      if (measured) {
        ++sh.tally.delivered;
        const double latency = static_cast<double>(cycle + 1 - pkt.injected_at);
        sh.latency_sum += latency;
        latency_hist.observe(latency);
      }
      probe.on_delivered(cycle, pkt.injected_at);
      fprobe.on_delivered(pkt.flight, cycle);
      return false;
    }
    if (pkt.wraps < spec.wrap_budget && faults.node_alive(row, 0)) {
      ++pkt.wraps;
      if (measured) ++sh.tally.wraps;
      sh.wrapped.emplace_back(row, pkt);
      return true;
    }
    count_drop(pkt.wraps < spec.wrap_budget ? DropReason::kNoAliveLink
                                            : DropReason::kBudgetExhausted,
               pkt.flight);
    return false;
  }

  /// Wrapped packets re-enter at stage 0 only after the phase that produced
  /// them, so they too move at most one hop per cycle.
  void reenter_wraps() {
    for (const auto& [row, pkt] : sh.wrapped) {
      if (!enqueue(row, 0, pkt, obs::FlightEvent::kWrap)) --sh.in_flight;
    }
    sh.wrapped.clear();
  }

  /// Phase A: advance every stage (highest first, so a packet moves at most
  /// one hop per cycle), re-enter shard-local wraps at stage 0, then inject.
  /// Cross hops at crossing stages pop into the hand-off ring.
  [[gnu::always_inline]] void advance() {
    const u64 row0 = k * block;
    for (int s = spec.n - 1; s >= 0; --s) {
      // For a fixed stage the dense link ids are contiguous, so the occupancy
      // bitmap walks non-empty links in (row, cross) order and skips the
      // empty ones for free.
      const u64 stage_base = static_cast<u64>(s) * block * 2;
      const bool crossing_stage = s >= log2block;
      sh.arena.for_each_occupied(stage_base, stage_base + block * 2, [&](u64 link) {
        const u64 row = row0 + ((link - stage_base) >> 1);
        const bool cross = (link & 1) != 0;
        const u64 next_row = cross ? (row ^ pow2(s)) : row;
        // A non-short-circuit test: branching on `cross` itself would be a
        // coin flip per hop, while this is constant on shard-local stages.
        if (crossing_stage & cross) {
          // The far end is another shard's row: hand the packet off.
          const bool pushed = ring(k, s).try_push({next_row, sh.arena.pop(link)});
          --sh.in_flight;
          BFLY_CHECK(pushed, "sharded hand-off ring overflow");
          return;
        }
        if (s + 1 < spec.n) {
          // An intermediate hop onto an alive wanted link leaves the payload
          // (dst, injected_at, budgets) unchanged: relink the slot instead of
          // popping and re-pushing.  Deflections take the full enqueue below.
          const u64 dst = sh.arena.front_dst(link);
          const bool want = ((next_row ^ dst) >> (s + 1)) & 1;
          if (faults.link_alive(next_row, s + 1, want)) {
            const u64 next_link = dense_link(block, next_row - row0, s + 1, want);
            if (spec.queue_capacity > 0 && sh.arena.size(next_link) >= spec.queue_capacity) {
              const Packet dead = sh.arena.pop(link);
              --sh.in_flight;
              count_drop(DropReason::kQueueFull, dead.flight);
            } else {
              fprobe.on_advance(sh.arena, link, cycle, next_link);
              sh.arena.move_front(link, next_link);
            }
            return;
          }
          if (!enqueue(next_row, s + 1, sh.arena.pop(link), obs::FlightEvent::kAdvance)) {
            --sh.in_flight;
          }
        } else if (!reach_output(next_row, sh.arena.pop(link))) {
          --sh.in_flight;
        }
      });
    }
    reenter_wraps();
    // Inject.  Packet identity (the flight sampler's key) is the creation
    // counter inside on_packet: every drawn packet advances it, dropped or
    // not, so the id stream is the same for every liveness provider.  The
    // stream state is copied to a local for the loop: in the shard it would
    // round-trip through memory on every draw.
    u64 cycle_injections = 0;
    Xoshiro256 rng = sh.rng;
    for (u64 local_row = 0; local_row < block; ++local_row) {
      if (rng.uniform() < spec.offered_load) {
        ++sh.offered;
        const u64 row = row0 + local_row;
        Packet pkt{rng.below(rows), cycle, 0, 0, 0};
        pkt.flight = fprobe.on_packet(cycle, row, pkt.dst);
        if (!faults.node_alive(row, 0) || !faults.node_alive(pkt.dst, spec.n)) {
          count_drop(DropReason::kEndpointDead, pkt.flight);
          continue;
        }
        // Same split as a hop: a plain push onto an alive wanted link, the
        // full deflection enqueue otherwise.
        const bool want = ((row ^ pkt.dst) & 1) != 0;
        if (faults.link_alive(row, 0, want)
                ? push(dense_link(block, local_row, 0, want), pkt, obs::FlightEvent::kInject)
                : enqueue(row, 0, pkt, obs::FlightEvent::kInject)) {
          ++cycle_injections;
          if (measured) ++sh.measured_injections;
        }
      }
    }
    sh.rng = rng;
    sh.injected += cycle_injections;
    sh.in_flight += cycle_injections;
    probe.on_injected(cycle_injections);
  }

  /// Phase B: drain this shard's inbound rings in fixed (stage ascending,
  /// FIFO) order — every producer finished phase A, so the drain sees the
  /// complete cycle's hand-offs deterministically.  Wraps decided here
  /// re-enter at the end of the drain: nothing else pushes to stage 0 during
  /// a drain, so deferring them changes no FIFO order.
  [[gnu::always_inline]] void drain() {
    for (int s = log2block; s < spec.n; ++s) {
      util::SpscRing<RowPacket>& in = ring(k ^ (u64{1} << (s - log2block)), s);
      RowPacket hop;
      while (in.try_pop(&hop)) {
        const auto& [row, pkt] = hop;
        if (s + 1 < spec.n ? enqueue(row, s + 1, pkt, obs::FlightEvent::kAdvance)
                           : reach_output(row, pkt)) {
          ++sh.in_flight;
        }
      }
    }
    reenter_wraps();
  }
};

/// Runs one saturation simulation.  `faults` is NoFaults, a FaultSet, or a
/// LiveFaultState the kernel advances cycle by cycle (hence non-const).
template <typename Liveness>
KernelResult run_cycle_kernel(const KernelSpec& spec, Liveness& faults) {
  constexpr bool kFaulty = !std::is_same_v<std::remove_const_t<Liveness>, NoFaults>;
  const u64 rows = pow2(spec.n);
  const u64 num_shards = spec.shard_count;
  BFLY_CHECK(is_pow2(num_shards) && num_shards <= rows, "cycle kernel: bad shard count");
  BFLY_CHECK(num_shards == 1 || (spec.timeseries == nullptr && spec.frames == nullptr &&
                                 spec.flight == nullptr && spec.latency_hist == nullptr &&
                                 spec.depth_hist == nullptr),
             "cycle kernel: observers need a single shard");
  const u64 block = rows / num_shards;
  const int log2block = spec.n - ilog2(num_shards);
  const std::size_t threads =
      std::min<std::size_t>(spec.threads, static_cast<std::size_t>(num_shards));

  SaturationProbe probe(spec.timeseries, spec.frames, spec.n, rows);
  // The arena grows its flight lane only when a recorder is attached, so the
  // disabled path is byte-for-byte the flight-less arena.
  const FlightProbe fprobe(spec.flight);
  // Single-writer buffers: plain array increments, merged once at the end.
  obs::LocalHistogram latency_hist(spec.latency_hist);
  obs::LocalHistogram depth_hist(spec.depth_hist);

  std::unique_ptr<KernelStore> store = std::move(t_idle_store);
  if (store == nullptr) store = std::make_unique<KernelStore>();
  std::deque<KernelShard>& shards = store->shards;
  shards.resize(num_shards);
  for (u64 k = 0; k < num_shards; ++k) {
    shards[k].reset(static_cast<u64>(spec.n) * block * 2, kFaulty, fprobe.enabled(),
                    spec.mix_shard_seeds ? spec.seed ^ (0x9e3779b97f4a7c15ULL * (k + 1))
                                         : spec.seed);
  }
  // A shard has `block` cross links per stage and each forwards at most its
  // front packet per cycle, so `block` slots never overflow — the drain
  // empties every ring before the next advance phase refills it.
  std::deque<util::SpscRing<RowPacket>>& rings = store->rings;
  const u64 num_rings = num_shards * static_cast<u64>(spec.n - log2block);
  if (rings.size() != num_rings || (num_rings > 0 && rings.front().capacity() != block)) {
    rings.clear();
    for (u64 r = 0; r < num_rings; ++r) rings.emplace_back(static_cast<std::size_t>(block));
  }

  u64 cycle = 0;
  bool measured = false;
  const auto shard_cycle = [&](u64 k) {
    return ShardCycle<Liveness>{spec,   rows,  block,     log2block, faults, probe, fprobe,
                                latency_hist, rings, shards[k], k,         cycle,  measured};
  };
  const auto phase_a = [&](u64 k) { shard_cycle(k).advance(); };
  const auto phase_b = [&](u64 k) { shard_cycle(k).drain(); };

  // Cancellation is polled only at the cycle boundary: the phases always run
  // over all shards, so a cancelled run stops with every shard at the same
  // cycle and the ledger exact.
  std::vector<u64> newly_dead;  // links killed this cycle (kill-in-flight only)
  u64 simulated = spec.cycles;
  for (cycle = 0; cycle < spec.cycles; ++cycle) {
    if (cycle % kCancelPollCycles == 0 && CancelToken::cancelled(spec.cancel)) {
      simulated = cycle;
      break;
    }
    measured = cycle >= spec.warmup_cycles;
    if constexpr (std::is_same_v<Liveness, LiveFaultState>) {
      // This cycle's fail/repair events (and any spare-chip failover whose
      // detection latency elapsed) apply before anything routes.  Packets on
      // a link the moment it dies are on the wire: kill-in-flight drains
      // them, kDeflect leaves them for the router's next liveness test.
      faults.advance_to(cycle, spec.kill_in_flight ? &newly_dead : nullptr);
      if (spec.kill_in_flight) {
        for (const u64 link : newly_dead) {
          const u64 row = (link >> 1) % rows;
          ShardCycle<Liveness> sc = shard_cycle(row / block);
          const u64 local = dense_link(block, row % block, static_cast<int>(link / (2 * rows)),
                                       (link & 1) != 0);
          while (sc.sh.arena.size(local) > 0) {
            const PacketArena::Packet dead = sc.sh.arena.pop(local);
            --sc.sh.in_flight;
            sc.count_drop(DropReason::kKilledByFault, dead.flight);
          }
        }
      }
    }
    if (threads <= 1) {
      for (u64 k = 0; k < num_shards; ++k) phase_a(k);
      for (u64 k = 0; k < num_shards; ++k) phase_b(k);
    } else {
      parallel_for_chunked(0, static_cast<std::size_t>(num_shards), threads,
                           [&](std::size_t lo, std::size_t hi, std::size_t /*tid*/) {
                             for (std::size_t k = lo; k < hi; ++k) phase_a(k);
                           });
      parallel_for_chunked(0, static_cast<std::size_t>(num_shards), threads,
                           [&](std::size_t lo, std::size_t hi, std::size_t /*tid*/) {
                             for (std::size_t k = lo; k < hi; ++k) phase_b(k);
                           });
    }
    u64 in_flight = 0;
    for (const KernelShard& sh : shards) in_flight += sh.in_flight;
    depth_hist.observe(static_cast<double>(in_flight));
    probe.sample(cycle, shards.front().arena, in_flight, faults.num_dead_links());
  }
  latency_hist.flush();
  depth_hist.flush();

  // Merge in shard order (the double sums too), so the result is independent
  // of which thread ran which shard.
  KernelResult out;
  out.shard_count = num_shards;
  SaturationPoint& result = out.point;
  result.offered_load = spec.offered_load;
  double total_latency = 0.0;
  for (const KernelShard& sh : shards) {
    total_latency += sh.latency_sum;
    out.measured_injections += sh.measured_injections;
    result.max_queue = std::max(result.max_queue, sh.arena.max_size());
    out.offered_total += sh.offered;
    out.injected_total += sh.injected;
    out.delivered_total += sh.delivered_all;
    out.dropped_total += sh.dropped_all;
    out.in_flight_end += sh.in_flight;
    out.tally.delivered += sh.tally.delivered;
    for (std::size_t r = 0; r < kNumDropReasons; ++r) out.tally.dropped[r] += sh.tally.dropped[r];
    out.tally.misroutes += sh.tally.misroutes;
    out.tally.wraps += sh.tally.wraps;
  }
  BFLY_CHECK(out.conserved(), "packet engine conservation violation");
  result.delivered = out.tally.delivered;
  result.dropped_queue_full = out.tally.dropped[drop_index(DropReason::kQueueFull)];
  // Rates average over the cycles actually simulated, so a cancelled run
  // still reports meaningful (if noisier) rates; zero when the token tripped
  // before the first measured cycle.
  const double measured_cycles =
      simulated > spec.warmup_cycles ? static_cast<double>(simulated - spec.warmup_cycles)
                                     : 0.0;
  result.throughput =
      measured_cycles > 0.0
          ? static_cast<double>(result.delivered) / (measured_cycles * static_cast<double>(rows))
          : 0.0;
  result.per_node_injection = result.throughput / static_cast<double>(spec.n + 1);
  result.avg_latency =
      result.delivered > 0 ? total_latency / static_cast<double>(result.delivered) : 0.0;
  if (t_idle_store == nullptr) t_idle_store = std::move(store);
  return out;
}

}  // namespace bfly::detail
