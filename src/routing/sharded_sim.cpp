#include "routing/sharded_sim.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/cycle_kernel.hpp"

namespace bfly {

ShardedSaturationPoint simulate_saturation_sharded(int n, double offered_load, u64 cycles,
                                                   u64 seed, const ShardedOptions& options,
                                                   const FaultSet* faults,
                                                   const CancelToken* cancel) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(std::isfinite(offered_load) && offered_load >= 0.0 && offered_load <= 1.0,
               "offered load is a probability");
  const u64 rows = pow2(n);
  u64 num_shards = options.shard_count;
  if (num_shards == 0) num_shards = std::min<u64>(rows, 8);
  BFLY_REQUIRE(is_pow2(num_shards) && num_shards <= rows,
               "shard_count must be a power of two, at most 2^n");
  BFLY_REQUIRE(faults == nullptr || faults->dimension() == n, "fault set dimension mismatch");
  BFLY_TRACE_SCOPE("routing.simulate_saturation_sharded");

  const detail::KernelSpec spec{
      .n = n,
      .offered_load = offered_load,
      .cycles = cycles,
      .seed = seed,
      .warmup_cycles = options.warmup_cycles,
      .queue_capacity = options.queue_capacity,
      .misroute_budget = static_cast<u32>(std::max(options.routing.misroute_budget, 0)),
      .wrap_budget = static_cast<u32>(std::max(options.routing.wrap_budget, 0)),
      .shard_count = num_shards,
      .threads = options.threads != 0 ? options.threads : default_thread_count(),
      .mix_shard_seeds = true,
      .cancel = cancel,
  };
  detail::KernelResult r = faults != nullptr ? detail::run_cycle_kernel(spec, *faults)
                                             : detail::run_cycle_kernel(spec, detail::kNoFaults);
  if (faults == nullptr) r.tally = {};  // the documented all-zero pristine tally

  // Commutative counter merges only — no gauges, so concurrent sharded
  // points in one sweep leave the registry deterministic without the
  // reset-after dance the serial engines need.
  obs::add(obs::get_counter("sharded.offered"), r.offered_total);
  obs::add(obs::get_counter("sharded.injected"), r.measured_injections);
  obs::add(obs::get_counter("sharded.delivered"), r.point.delivered);
  obs::add(obs::get_counter("sharded.dropped"), r.dropped_total);
  return r;
}

}  // namespace bfly
