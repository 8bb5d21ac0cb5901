// Cycle-parallel sharded saturation engine: one large butterfly on all cores.
//
// There is one packet engine, the cycle kernel of routing/cycle_kernel.hpp,
// with three entry points: simulate_saturation and
// simulate_saturation_faulty run it with one shard on the calling thread;
// simulate_saturation_sharded runs it with `shard_count` shards, which
// advance concurrently on the persistent ThreadPool within each cycle.
//
// Sharding geometry.  With block = 2^n / shard_count, shard k owns rows
// [k*block, (k+1)*block) and the contiguous per-stage link ranges of those
// rows in a private PacketArena.  The arena keeps 4 bytes per link (the
// front slot; packet_arena.hpp gives the cache-footprint argument), so
// B_16's link state is 8 MiB in all, 1 MiB per shard at the default eight
// shards.  The stage-s cross link flips row bit s, so a packet leaves its
// shard only when 2^s >= block — the low log2(block) stages are entirely
// shard-local, and exactly log2(shard_count) stages cross.  Cross hops
// travel through preallocated SPSC hand-off rings (util/spsc_ring.hpp), one
// per (source shard, crossing stage), drained at a deterministic barrier in
// fixed (stage, source) order by the receiving shard, which also makes the
// arrival's routing decision (it needs the destination row's queue and
// liveness state).  A run's arenas and rings are reused by the next run on
// the same thread (KernelStore in cycle_kernel.hpp), so the points of a
// curve do not page them in again.
//
// Determinism contract.  Shard k draws injections from its own Xoshiro256
// stream seeded by seed ^ golden * (k + 1), like the census's per-chunk
// streams; per-shard statistics merge in shard order and the two intra-cycle
// phases are fork-join barriers with a fixed drain order, so the result is a
// pure function of (n, offered_load, cycles, seed, shard_count), bitwise
// invariant across thread counts (tests/test_sharded_sim.cpp).  The serial
// entry points draw from the `seed` stream itself, so a sharded result is
// deliberately NOT bitwise equal to theirs, even at shard_count == 1; exact
// conservation (checked by the kernel on every run) and close statistical
// agreement are asserted against them instead.
//
// Scope.  Pristine and static-FaultSet runs, no observers and no live
// FaultSchedule.  The telemetry, occupancy and flight sinks are single-writer
// sinks keyed by global link id and global packet-creation order, while
// shards run concurrently, index shard-local link ranges and create packets
// in per-shard streams — attaching them needs per-shard sinks and an ordered
// merge that do not exist yet.  Sweep points that request observers or a
// schedule fall back to the serial engines (docs/performance.md).  The
// registry sees only commutative counter merges (sharded.offered / injected
// / delivered / dropped), never gauges, so concurrent sharded points in one
// sweep stay report-deterministic.
#pragma once

#include <cstddef>

#include "fault/fault_routing.hpp"
#include "routing/routing.hpp"
#include "util/cancel.hpp"

namespace bfly {

struct ShardedOptions {
  /// Power-of-two number of row blocks, <= 2^n.  0 picks the fixed default
  /// min(2^n, 8) — machine-independent, so a defaulted run is still a pure
  /// function of its parameters.
  u64 shard_count = 0;
  /// Worker cap for the per-cycle phases (0 = default_thread_count()).  Never
  /// affects results, only wall-clock.
  std::size_t threads = 0;
  u64 warmup_cycles = 0;
  u64 queue_capacity = 0;  ///< 0 = unbounded per-link FIFOs
  /// Deflection budgets for static-fault runs (ignored when faults == nullptr).
  FaultRoutingOptions routing{};
};

/// Result of a sharded run: the serial engines' SaturationPoint / FaultTally
/// shapes (post-warmup, same formulas), plus an exact whole-run conservation
/// ledger counted over every cycle including warmup.
struct ShardedSaturationPoint {
  SaturationPoint point;
  /// Post-warmup drop/deflection accounting; all-zero for pristine runs.
  FaultTally tally;
  u64 shard_count = 0;

  // Conservation ledger.  offered counts every injection-RNG success;
  // injected the subset that entered a queue; every offered packet is
  // eventually delivered, dropped (at injection or in the fabric), or still
  // queued when the run ends, so offered == delivered + dropped + in_flight
  // holds exactly — the engine BFLY_CHECKs it before returning.
  u64 offered_total = 0;
  u64 injected_total = 0;
  u64 delivered_total = 0;
  u64 dropped_total = 0;
  u64 in_flight_end = 0;

  bool conserved() const {
    return offered_total == delivered_total + dropped_total + in_flight_end;
  }
};

/// Runs one B_n saturation simulation sharded across the thread pool.  A
/// non-null `faults` (dimension n, static) routes with the budgeted
/// deflection policy; a non-null `cancel` is polled every kCancelPollCycles
/// cycles at the cycle barrier, stopping all shards in sync so a cancelled
/// run still returns a consistent (conservation-exact) partial result.
ShardedSaturationPoint simulate_saturation_sharded(int n, double offered_load, u64 cycles,
                                                   u64 seed, const ShardedOptions& options = {},
                                                   const FaultSet* faults = nullptr,
                                                   const CancelToken* cancel = nullptr);

}  // namespace bfly
