// The per-layer suite: a fixed set of timed calls into each layer's public
// functions, the same in every traced run, so a per-layer figure means the
// same thing whichever workload's trace it came with.
#include <filesystem>

#include "checks.hpp"
#include "exec/exec.hpp"
#include "fault/fault_routing.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/legality.hpp"
#include "routing/sharded_sim.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(timed(fn) * 1e3);
  return median(ms);
}

void layout_layer(Result& r) {
  constexpr int kN = 11;
  bfly::ButterflyLayoutOptions l2;
  bfly::ButterflyLayoutOptions l4;
  l4.layers = 4;
  const std::vector<int> k = bfly::ButterflyLayoutPlan::choose_parameters(kN);
  r.metric("layout.plan_ms", median_ms(5, [&] {
             PB_SPAN("pb.layout.plan");
             bfly::ButterflyLayoutPlan plan(k, l2);
           }),
           "ms");
  const bfly::ButterflyLayoutPlan plan2(k, l2);
  const bfly::ButterflyLayoutPlan plan4(k, l4);
  bfly::Layout lay2;
  const double mat_ms = median_ms(3, [&] {
    PB_SPAN("pb.layout.materialize");
    lay2 = plan2.materialize();
  });
  r.metric("layout.materialize_ms", mat_ms, "ms");
  r.metric("layout.materialize_wires_per_s",
           static_cast<double>(lay2.wires().size()) / (mat_ms / 1e3), "1/s");
  bfly::LegalityReport rep;
  const double thompson_ms = median_ms(3, [&] {
    PB_SPAN("pb.legality.thompson");
    rep = bfly::check_thompson(lay2);
  });
  r.check(check_legal(rep, "layer suite B_11 L=2"));
  r.metric("legality.thompson_ms", thompson_ms, "ms");
  r.metric("legality.segments_per_s",
           static_cast<double>(rep.segments_checked) / (thompson_ms / 1e3), "1/s");
  const bfly::Layout lay4 = plan4.materialize();
  r.metric("legality.multilayer_ms", median_ms(3, [&] {
             PB_SPAN("pb.legality.multilayer");
             r.check(check_legal(bfly::check_multilayer(lay4), "layer suite B_11 L=4"));
           }),
           "ms");
  r.metric("layout.metrics_ms", median_ms(3, [&] {
             PB_SPAN("pb.layout.metrics");
             r.check(check_counts(kN, lay2.metrics()));
           }),
           "ms");
  const bfly::ButterflyLayoutPlan big(bfly::ButterflyLayoutPlan::choose_parameters(17), l2);
  r.metric("layout.stream_metrics_ms", median_ms(1, [&] {
             PB_SPAN("pb.layout.stream_metrics");
             r.check(check_counts(17, big.metrics()));
           }),
           "ms");
  r.attempted += 5 + 3 * 5 + 1;
}

void routing_layer(const Args& a, Result& r) {
  bfly::ShardedOptions opt;
  opt.threads = worker_threads();
  opt.warmup_cycles = 24;
  const u64 seed = mix_seed(a.seed, 40);
  const double sharded_ms = median_ms(3, [&] {
    PB_SPAN("pb.routing.sharded_point");
    r.check(check_conserved(bfly::simulate_saturation_sharded(16, 0.5, 48, seed, opt)));
  });
  r.metric("routing.sharded_point_ms", sharded_ms, "ms");
  r.metric("routing.sharded_node_cycles_per_s", 17.0 * 65536.0 * 48.0 / (sharded_ms / 1e3),
           "1/s");
  const double serial_ms = median_ms(1, [&] {
    PB_SPAN("pb.routing.serial_point");
    r.check(check_latency(16, bfly::simulate_saturation(16, 0.5, 48, seed, 24)));
  });
  r.metric("routing.sharded_speedup_b16", serial_ms / sharded_ms, "x");
  r.metric("routing.sharded_b10_point_ms", median_ms(5, [&] {
             PB_SPAN("pb.routing.sharded_point");
             bfly::simulate_saturation_sharded(10, 0.5, 600, seed, opt);
           }),
           "ms");
  r.metric("routing.serial_point_ms", median_ms(5, [&] {
             PB_SPAN("pb.routing.serial_point");
             bfly::simulate_saturation(10, 0.5, 600, seed, 100);
           }),
           "ms");
  constexpr u64 kPackets = u64{1} << 17;
  const double census_ms = median_ms(5, [&] {
    PB_SPAN("pb.routing.census");
    const bfly::LoadCensus c = bfly::measure_link_loads(10, kPackets, seed, 1);
    if (c.avg_distance != 10.0) r.check("layer suite census distance off n");
  });
  r.metric("routing.census_ms", census_ms, "ms");
  r.metric("routing.census_packets_per_s", static_cast<double>(kPackets) / (census_ms / 1e3),
           "1/s");
  r.attempted += 3 + 1 + 5 + 5 + 5;
}

void fault_layer(const Args& a, Result& r) {
  constexpr int kN = 10;
  const u64 seed = mix_seed(a.seed, 41);
  r.metric("fault.schedule_gen_ms", median_ms(3, [&] {
             PB_SPAN("pb.fault.schedule_gen");
             make_schedule(11, seed, bfly::LinkDeathPolicy::kKillInFlight);
           }),
           "ms");
  const bfly::FaultSet faults = bfly::FaultSet::random_links(kN, 0.004, seed);
  const bfly::FaultSet none(kN);
  const bfly::FaultSchedule kill = make_schedule(kN, seed, bfly::LinkDeathPolicy::kKillInFlight);
  const bfly::FaultSchedule deflect = make_schedule(kN, seed, bfly::LinkDeathPolicy::kDeflect);
  bfly::FaultTally total;
  auto add = [&](const bfly::FaultTally& t) {
    total.misroutes += t.misroutes;
    for (std::size_t i = 0; i < bfly::kNumDropReasons; ++i) total.dropped[i] += t.dropped[i];
  };
  bfly::FaultSaturationPoint p;
  r.metric("fault.static_point_ms", median_ms(5, [&] {
             PB_SPAN("pb.fault.static_point");
             p = bfly::simulate_saturation_faulty(kN, 0.5, 600, seed, faults, {}, 100);
           }),
           "ms");
  add(p.tally);
  r.metric("fault.live_point_ms", median_ms(5, [&] {
             PB_SPAN("pb.fault.live_point");
             p = bfly::simulate_saturation_faulty(kN, 0.5, 600, seed, none, {}, 100, 0, nullptr,
                                                  nullptr, nullptr, nullptr, &kill);
           }),
           "ms");
  add(p.tally);
  p = bfly::simulate_saturation_faulty(kN, 0.5, 600, seed, none, {}, 100, 0, nullptr, nullptr,
                                       nullptr, nullptr, &deflect);
  add(p.tally);
  r.metric("fault.misroutes", static_cast<double>(total.misroutes), "count");
  r.metric("fault.dropped", static_cast<double>(total.total_dropped()), "count");
  r.metric("fault.killed_by_fault",
           static_cast<double>(total.dropped[bfly::drop_index(bfly::DropReason::kKilledByFault)]),
           "count");
  r.attempted += 3 + 5 + 5 + 1;
}

void exec_layer(const Args& a, Result& r) {
  namespace fs = std::filesystem;
  const Grid g = make_grid(a.seed);
  const std::string journal = "layers.ckpt.jsonl";

  // Per-point exec time on one worker against direct run_sweep_point calls
  // on the same points: the B_10 points of the grid.
  std::vector<bfly::SweepPoint> pts;
  for (const bfly::SweepPoint& p : g.points) {
    if (p.n == 10) pts.push_back(p);
  }
  fs::remove(journal);
  std::vector<Clock::time_point> start(pts.size());
  std::vector<double> exec_ms(pts.size());
  bfly::exec::SweepRunOptions opt;
  opt.threads = 1;
  opt.checkpoint_path = journal;
  std::size_t current = 0;
  opt.before_point = [&](std::size_t i, int) {
    current = i;
    start[i] = Clock::now();
  };
  opt.after_checkpoint = [&](std::size_t) { exec_ms[current] = seconds_since(start[current]) * 1e3; };
  {
    PB_SPAN("pb.exec.sweep");
    bfly::exec::run_sweep_resumable(pts, opt);
  }
  std::vector<double> overhead_ms;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double direct = timed([&] {
      PB_SPAN("pb.exec.direct_point");
      bfly::run_sweep_point(pts[i], nullptr, nullptr, nullptr);
    }) * 1e3;
    overhead_ms.push_back(exec_ms[i] - direct);
  }
  r.metric("exec.point_ms", median(exec_ms), "ms");
  r.metric("exec.overhead_ms", median(overhead_ms), "ms");

  // The whole grid into a fresh journal, then a resume that replays it.
  fs::remove(journal);
  bfly::exec::SweepRunOptions full;
  full.threads = worker_threads();
  full.checkpoint_path = journal;
  {
    PB_SPAN("pb.exec.sweep");
    bfly::exec::run_sweep_resumable(g.points, full);
  }
  bfly::exec::SweepRun resumed;
  const double replay_s = timed([&] {
    PB_SPAN("pb.exec.replay");
    resumed = bfly::exec::run_sweep_resumable(g.points, full);
  });
  if (resumed.num_replayed != g.points.size()) r.check("layer suite resume did not replay all");
  r.metric("exec.journal_bytes", static_cast<double>(fs::file_size(journal)), "bytes");
  r.metric("exec.replay_ms", replay_s * 1e3, "ms");
  r.metric("exec.replay_points_per_s", static_cast<double>(g.points.size()) / replay_s, "1/s");
  r.attempted += 2 * pts.size() + 2 * g.points.size();
}

}  // namespace

void run_layer_suite(const Args& a, Result& r) {
  PB_SPAN("pb.layer_suite");
  layout_layer(r);
  routing_layer(a, r);
  fault_layer(a, r);
  exec_layer(a, r);
  serve_layer_metrics(a, r);
}

}  // namespace pb
