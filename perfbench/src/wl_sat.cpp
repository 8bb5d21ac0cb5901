// sat_sharded: a six-load B_16 saturation curve on the sharded engine,
// repeated.  sat_grid: small serial points (pristine, static faults, live
// faults) through the resumable sweep with a checkpoint journal, then a
// resume that replays the whole journal.
//
// Both run their operations on one worker thread and time them in CPU time
// (common.hpp).  On a shared host the wall time of work spread over several
// threads follows how much of the host the threads get and how fast
// sleeping threads wake: a B_16 curve on three threads read 1.2 s to 5.3 s
// across runs of the same code.  The three-thread figures are per-layer
// metrics (routing.sharded_point_ms, routing.sharded_speedup_b16).
#include <filesystem>
#include <fstream>

#include "checks.hpp"
#include "exec/exec.hpp"
#include "routing/sharded_sim.hpp"
#include "workloads.hpp"

namespace pb {

u64 mix_seed(u64 seed, u64 salt) {
  u64 z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) >> 11;  // within every seed field's range
}

namespace {

constexpr int kShardedN = 16;
constexpr u64 kShardedWarmup = 24;
constexpr u64 kShardedCycles = 48;
constexpr double kShardedLoads[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};

double node_cycles(int n, u64 cycles) {
  return static_cast<double>(n + 1) * static_cast<double>(bfly::pow2(n)) *
         static_cast<double>(cycles);
}

}  // namespace

void run_sat_sharded(const Args& a, Result& r) {
  bfly::ShardedOptions opt;
  opt.threads = 1;
  opt.warmup_cycles = kShardedWarmup;

  // Set-up: a short top-load point that sizes the shard arenas, once per
  // round so that its median spans the run.
  std::vector<double> setups;
  auto set_up = [&] {
    PB_SPAN("pb.setup.sharded_warmup");
    bfly::ShardedOptions warm = opt;
    warm.warmup_cycles = 0;
    r.check(check_conserved(
        bfly::simulate_saturation_sharded(kShardedN, 0.6, 8, mix_seed(a.seed, 99), warm)));
  };

  std::vector<std::vector<double>> point_s(std::size(kShardedLoads));  // per load
  RoundClock clock(a.seconds, 3);
  while (clock.another()) {
    const double curve_s = timed([&] {
      setups.push_back(cpu_timed(set_up));
      PB_SPAN("pb.sat_sharded.curve");
      for (std::size_t i = 0; i < std::size(kShardedLoads); ++i) {
        const double load = kShardedLoads[i];
        bfly::ShardedSaturationPoint p;
        point_s[i].push_back(cpu_timed([&] {
          PB_SPAN("pb.routing.sharded_point");
          p = bfly::simulate_saturation_sharded(kShardedN, load, kShardedCycles,
                                                mix_seed(a.seed, i), opt);
        }));
        ++r.attempted;
        r.check(check_conserved(p));
        r.check(check_throughput(kShardedN, load, p.point.throughput,
                                 kShardedCycles - kShardedWarmup));
        r.check(check_latency(kShardedN, p.point));
      }
    });
    clock.round_done(curve_s);
  }

  // Thread-count invariance on one smaller point (not timed).
  bfly::ShardedOptions many = opt;
  many.threads = worker_threads();
  const u64 s = mix_seed(a.seed, 7);
  r.check(check_same_sharded(bfly::simulate_saturation_sharded(14, 0.5, 48, s, opt),
                             bfly::simulate_saturation_sharded(14, 0.5, 48, s, many),
                             "B_14 sharded point at 1 vs " + std::to_string(many.threads) +
                                 " threads"));

  const std::vector<double> best = best_times(point_s);
  r.metric("setup_s", median(setups), "s");
  r.metric("op_ms", geo_mean(best) * 1e3, "ms");
  r.metric("work_per_s",
           static_cast<double>(best.size()) * node_cycles(kShardedN, kShardedCycles) / sum(best),
           "1/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

// --- sat_grid ----------------------------------------------------------------

namespace {

constexpr int kGridNs[] = {8, 9, 10, 11};
constexpr double kGridLoads[] = {0.25, 0.5, 0.75};
constexpr u64 kGridCycles = 600;
constexpr u64 kGridWarmup = 100;
constexpr u64 kScheduleHorizon = 400;
constexpr double kStaticLinkRate = 0.004;

enum Kind { kPristine, kStatic, kLiveKill, kLiveDeflect, kNumKinds };

}  // namespace

bfly::FaultSchedule make_schedule(int n, u64 seed, bfly::LinkDeathPolicy policy) {
  // Per-link MTBF of 100K cycles, MTTR of 50: about 1.5 failures per 1000
  // links over the horizon, most of them repaired within the run.
  bfly::FaultSchedule s = bfly::FaultSchedule::random_links(n, 100'000, 50, kScheduleHorizon, seed);
  s.set_link_death_policy(policy);
  return s;
}

Grid make_grid(u64 seed) {
  PB_SPAN("pb.fault.grid_setup");
  Grid g;
  // Reserve so the points' pointers stay valid.
  g.fault_sets.reserve(std::size(kGridNs) * std::size(kGridLoads));
  g.schedules.reserve(std::size(kGridNs) * 2);
  for (const int n : kGridNs) {
    {
      PB_SPAN("pb.fault.schedule_gen");
      const u64 s = mix_seed(seed, 1000 + static_cast<u64>(n));
      g.schedules.push_back(make_schedule(n, s, bfly::LinkDeathPolicy::kKillInFlight));
      g.schedules.push_back(g.schedules.back());
      g.schedules.back().set_link_death_policy(bfly::LinkDeathPolicy::kDeflect);
    }
    for (std::size_t l = 0; l < std::size(kGridLoads); ++l) {
      PB_SPAN("pb.fault.faultset_gen");
      g.fault_sets.push_back(bfly::FaultSet::random_links(
          n, kStaticLinkRate, mix_seed(seed, 2000 + static_cast<u64>(n) * 8 + l)));
    }
  }
  // n varies fastest, so a sweep on several workers hands each contiguous
  // chunk the same mix of sizes.
  for (int kind = 0; kind < kNumKinds; ++kind) {
    for (std::size_t l = 0; l < std::size(kGridLoads); ++l) {
      for (std::size_t ni = 0; ni < std::size(kGridNs); ++ni) {
        bfly::SweepPoint p;
        p.n = kGridNs[ni];
        p.offered_load = kGridLoads[l];
        p.cycles = kGridCycles;
        p.warmup_cycles = kGridWarmup;
        p.seed = mix_seed(seed, g.points.size());
        if (kind == kStatic) p.faults = &g.fault_sets[ni * std::size(kGridLoads) + l];
        if (kind == kLiveKill) p.schedule = &g.schedules[ni * 2];
        if (kind == kLiveDeflect) p.schedule = &g.schedules[ni * 2 + 1];
        g.points.push_back(p);
      }
    }
  }
  return g;
}

void run_sat_grid(const Args& a, Result& r) {
  namespace fs = std::filesystem;
  const std::string journal = "grid.ckpt.jsonl";

  // Set-up: fault sets and schedules for every point, and a fresh journal,
  // once per round so that its median spans the run.
  Grid g;
  std::vector<double> setups;
  auto set_up = [&] {
    g = make_grid(a.seed);
    fs::remove(journal);
    std::ofstream(journal).flush();
  };
  const std::size_t num_points = std::size(kGridNs) * std::size(kGridLoads) * kNumKinds;

  // One operation per point, from before_point to after_checkpoint on the
  // one exec worker (in CPU time, so the journal's fsync wait is left out),
  // and the resume that replays the whole journal as the last operation.
  std::vector<std::vector<double>> op_s(num_points + 1);
  RoundClock clock(a.seconds, 3);
  while (clock.another()) {
    const Clock::time_point round_start = Clock::now();
    setups.push_back(cpu_timed(set_up));
    std::vector<double> start(num_points);
    std::vector<double> dur(num_points, 0.0);
    std::size_t current = 0;  // the point the one exec worker is running
    bfly::exec::SweepRunOptions opt;
    opt.threads = 1;
    opt.checkpoint_path = journal;
    opt.before_point = [&](std::size_t i, int) {
      current = i;
      start[i] = cpu_seconds();
    };
    opt.after_checkpoint = [&](std::size_t) { dur[current] = cpu_seconds() - start[current]; };
    bfly::exec::SweepRunOptions resume_opt;
    resume_opt.threads = 1;
    resume_opt.checkpoint_path = journal;

    bfly::exec::SweepRun run;
    bfly::exec::SweepRun resumed;
    {
      PB_SPAN("pb.sat_grid.round");
      {
        PB_SPAN("pb.exec.sweep");
        run = bfly::exec::run_sweep_resumable(g.points, opt);
      }
      PB_SPAN("pb.exec.replay");
      op_s[num_points].push_back(
          cpu_timed([&] { resumed = bfly::exec::run_sweep_resumable(g.points, resume_opt); }));
    }
    clock.round_done(seconds_since(round_start));
    for (std::size_t i = 0; i < num_points; ++i) op_s[i].push_back(dur[i]);

    r.attempted += 2 * num_points;
    r.failed += run.num_failed + (num_points - resumed.num_completed);
    if (!run.complete() || run.num_replayed != 0) {
      r.check("grid sweep did not simulate every point: " + run.first_error);
    }
    if (resumed.num_replayed != num_points) {
      r.check("resume replayed " + std::to_string(resumed.num_replayed) + " of " +
              std::to_string(num_points) + " points");
    }
    for (std::size_t i = 0; i < num_points; ++i) {
      const bfly::SweepPoint& p = g.points[i];
      const bfly::SweepOutcome& o = run.outcomes[i];
      r.check(check_same_outcome(o, resumed.outcomes[i],
                                 "point " + std::to_string(i) + " simulated vs replayed"));
      r.check(check_latency(p.n, o.point));
      if (!bfly::sweep_point_is_faulty(p)) {
        r.check(check_throughput(p.n, p.offered_load, o.point.throughput,
                                 p.cycles - p.warmup_cycles));
      }
    }
  }

  // A static run on an empty FaultSet is the pristine run (not timed).
  bfly::SweepPoint pristine;
  pristine.n = 10;
  pristine.offered_load = 0.5;
  pristine.cycles = kGridCycles;
  pristine.warmup_cycles = kGridWarmup;
  pristine.seed = mix_seed(a.seed, 77);
  const bfly::FaultSet empty(pristine.n);
  bfly::SweepPoint with_empty = pristine;
  with_empty.faults = &empty;
  r.check(check_same_point(bfly::run_sweep_point(pristine, nullptr, nullptr, nullptr).point,
                           bfly::run_sweep_point(with_empty, nullptr, nullptr, nullptr).point,
                           "B_10 pristine vs empty FaultSet"));

  const std::vector<double> best = best_times(op_s);
  double sim_node_cycles = 0.0;
  double sweep_s = 0.0;
  for (std::size_t i = 0; i < num_points; ++i) {
    sim_node_cycles += node_cycles(g.points[i].n, g.points[i].cycles);
    sweep_s += best[i];
  }
  r.metric("setup_s", median(setups), "s");
  r.metric("op_ms", geo_mean(best) * 1e3, "ms");
  r.metric("work_per_s", sim_node_cycles / sweep_s, "1/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace pb
