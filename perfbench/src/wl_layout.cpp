// layout_legal: materialize, legality-check and measure B_10..B_12 at L=2
// (Thompson checker) and L=4 (multilayer checker), repeated; then the
// streamed plan.metrics() of B_17 and B_18, which are too large to
// materialize.
#include <memory>

#include "checks.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/legality.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kLegalNs[] = {10, 11, 12};
constexpr int kLayers[] = {2, 4};
constexpr int kStreamNs[] = {17, 18};

std::unique_ptr<bfly::ButterflyLayoutPlan> make_plan(int n, int layers) {
  PB_SPAN("pb.layout.plan");
  bfly::ButterflyLayoutOptions options;
  options.layers = layers;
  return std::make_unique<bfly::ButterflyLayoutPlan>(
      bfly::ButterflyLayoutPlan::choose_parameters(n), options);
}

bfly::LegalityReport check_layout(const bfly::Layout& layout, int layers) {
  if (layers == 2) {
    PB_SPAN("pb.legality.thompson");
    return bfly::check_thompson(layout);
  }
  PB_SPAN("pb.legality.multilayer");
  return bfly::check_multilayer(layout);
}

/// `layout` with wire `k` moved onto the track of wire k+1.
bfly::Layout displace_wire(const bfly::Layout& layout, std::size_t k) {
  bfly::Layout out;
  for (const bfly::PlacedNode& node : layout.nodes()) out.add_node(node.id, node.rect);
  const std::vector<bfly::Wire>& wires = layout.wires();
  for (std::size_t i = 0; i < wires.size(); ++i) {
    bfly::Wire w = wires[i];
    if (i == k) {
      w.points = wires[k + 1].points;
      w.layers = wires[k + 1].layers;
    }
    out.add_wire(std::move(w));
  }
  return out;
}

}  // namespace

void run_layout_legal(const Args& a, Result& r) {
  // Set-up: a ButterflyLayoutPlan for every size and layer count, and one
  // warm-up legality-checked B_10 that sizes the allocator; once per round
  // so that its median spans the run.
  std::vector<std::unique_ptr<bfly::ButterflyLayoutPlan>> plans;
  std::vector<std::unique_ptr<bfly::ButterflyLayoutPlan>> stream_plans;
  std::vector<double> setups;
  auto set_up = [&] {
    plans.clear();
    stream_plans.clear();
    for (const int n : kLegalNs) {
      for (const int layers : kLayers) plans.push_back(make_plan(n, layers));
    }
    for (const int n : kStreamNs) stream_plans.push_back(make_plan(n, 2));
    PB_SPAN("pb.setup.layout_warmup");
    r.check(check_legal(check_layout(plans[0]->materialize(), kLayers[0]), "B_10 warm-up"));
  };

  constexpr std::size_t kNumLayouts = std::size(kLegalNs) * std::size(kLayers);
  std::vector<std::vector<double>> op_s(kNumLayouts);  // per (n, L)
  std::vector<bfly::LayoutMetrics> measured(kNumLayouts);
  RoundClock clock(a.seconds, 3);
  while (clock.another()) {
    const double round_s = timed([&] {
      setups.push_back(cpu_timed(set_up));
      PB_SPAN("pb.layout_legal.round");
      for (std::size_t i = 0; i < plans.size(); ++i) {
        const int layers = kLayers[i % std::size(kLayers)];
        bfly::LegalityReport report;
        bfly::LayoutMetrics m;
        op_s[i].push_back(cpu_timed([&] {
          PB_SPAN("pb.layout.legal_layout");
          bfly::Layout layout;
          {
            PB_SPAN("pb.layout.materialize");
            layout = plans[i]->materialize();
          }
          report = check_layout(layout, layers);
          PB_SPAN("pb.layout.metrics");
          m = layout.metrics();
        }));
        ++r.attempted;
        const int n = kLegalNs[i / std::size(kLayers)];
        const std::string what = "B_" + std::to_string(n) + " L=" + std::to_string(layers);
        r.check(check_legal(report, what));
        r.check(check_counts(n, m));
        measured[i] = m;
      }
    });
    clock.round_done(round_s);
  }

  // Streamed metrics: equal to the materialized ones where both exist, then
  // the paper-scale sizes.
  std::vector<int> trend_ns;
  std::vector<double> trend_areas;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const int n = kLegalNs[i / std::size(kLayers)];
    r.check(check_same_metrics(plans[i]->metrics(), measured[i],
                               "B_" + std::to_string(n) + " streamed vs materialized"));
    if (i % std::size(kLayers) == 0) {
      trend_ns.push_back(n);
      trend_areas.push_back(static_cast<double>(measured[i].area));
      r.check(check_fewer_layers_larger(n, static_cast<double>(measured[i].area),
                                        static_cast<double>(measured[i + 1].area)));
    }
  }
  for (std::size_t i = 0; i < stream_plans.size(); ++i) {
    bfly::LayoutMetrics m;
    {
      PB_SPAN("pb.layout.stream_metrics");
      m = stream_plans[i]->metrics();
    }
    ++r.attempted;
    r.check(check_counts(kStreamNs[i], m));
    trend_ns.push_back(kStreamNs[i]);
    trend_areas.push_back(static_cast<double>(m.area));
  }
  r.check(check_area_trend(trend_ns, trend_areas));

  // A seeded wire displaced onto its neighbour must fail both checkers.
  for (std::size_t li = 0; li < std::size(kLayers); ++li) {
    const bfly::Layout layout = plans[li]->materialize();
    bfly::Xoshiro256 rng(mix_seed(a.seed, 500 + li));
    const std::size_t k = static_cast<std::size_t>(rng.below(layout.wires().size() - 1));
    r.check(check_rejected(check_layout(displace_wire(layout, k), kLayers[li]),
                           "B_10 L=" + std::to_string(kLayers[li]) + " wire " +
                               std::to_string(k) + " displaced"));
  }

  const std::vector<double> best = best_times(op_s);
  double wires = 0.0;
  for (const bfly::LayoutMetrics& m : measured) wires += static_cast<double>(m.num_wires);
  r.metric("setup_s", median(setups), "s");
  r.metric("op_ms", geo_mean(best) * 1e3, "ms");
  r.metric("work_per_s", wires / sum(best), "1/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace pb
