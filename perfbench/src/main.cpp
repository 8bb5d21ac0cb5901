// bfbench: runs one benchmark workload and prints its result as one JSON
// line on stdout.
//
//   bfbench <workload> --seed N --seconds S --trace 0|1 --work-dir DIR --bflyd PATH
//   bfbench selftest
//
// Workloads: sat_sharded, sat_grid, layout_legal, bflyd_mix.  With --trace 0
// the result carries the end-to-end metrics.  With --trace 1 it runs the
// workload twice, untraced and under an obs::Registry, then the per-layer
// suite under the same registry, and carries the per-layer metrics; it also
// writes DIR/<workload>.trace.json (Chrome trace) and
// DIR/<workload>.selftime.txt (per-span self times).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "checks.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using pb::Args;
using pb::Result;

using Workload = void (*)(const Args&, Result&);

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> w = {
      {"sat_sharded", pb::run_sat_sharded},
      {"sat_grid", pb::run_sat_grid},
      {"layout_legal", pb::run_layout_legal},
      {"bflyd_mix", pb::run_bflyd_mix},
  };
  return w;
}

int usage() {
  std::fprintf(stderr,
               "usage: bfbench <sat_sharded|sat_grid|layout_legal|bflyd_mix> --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --bflyd PATH\n"
               "       bfbench selftest\n");
  return 2;
}

struct SelfTime {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Self time per span name: a span's duration minus that of the spans
/// directly nested in it on the same thread.  Also returns, for the thread
/// `main_tid`, the share of its root-span time that lies inside child spans:
/// how much of the traced time the layers' spans account for.
std::map<std::string, SelfTime> self_times(const std::vector<bfly::obs::CompletedSpan>& spans,
                                           bfly::u64 main_tid, double* coverage_pct) {
  std::vector<const bfly::obs::CompletedSpan*> order;
  for (const auto& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->depth < b->depth;
  });
  std::map<std::string, SelfTime> table;
  std::vector<double> child_us(order.size(), 0.0);
  std::vector<std::size_t> stack;
  double root_us = 0.0;
  double root_self_us = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto* s = order[i];
    while (!stack.empty() && (order[stack.back()]->tid != s->tid ||
                              order[stack.back()]->depth >= s->depth)) {
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += s->dur_us;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    SelfTime& t = table[order[i]->name];
    ++t.count;
    t.total_us += order[i]->dur_us;
    const double self = std::max(0.0, order[i]->dur_us - child_us[i]);
    t.self_us += self;
    if (order[i]->depth == 0 && order[i]->tid == main_tid) {
      root_us += order[i]->dur_us;
      root_self_us += self;
    }
  }
  *coverage_pct = root_us > 0.0 ? 100.0 * (1.0 - root_self_us / root_us) : 0.0;
  return table;
}

std::string format_table(const std::map<std::string, SelfTime>& table) {
  std::vector<std::pair<std::string, SelfTime>> rows(table.begin(), table.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_us > b.second.self_us; });
  double all_self = 0.0;
  for (const auto& [name, t] : rows) all_self += t.self_us;
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %8s %12s %12s %7s\n", "span", "count", "total_ms",
                "self_ms", "self%");
  os << line;
  for (const auto& [name, t] : rows) {
    std::snprintf(line, sizeof(line), "%-44s %8zu %12.3f %12.3f %6.2f%%\n", name.c_str(),
                  t.count, t.total_us / 1e3, t.self_us / 1e3,
                  all_self > 0.0 ? 100.0 * t.self_us / all_self : 0.0);
    os << line;
  }
  return os.str();
}

void run_traced(const Args& a, Workload run, Result& out) {
  // Untraced and traced passes of the same workload, each on a share of the
  // run, for the tracing overhead; then the layer suite, traced.
  Args pass = a;
  pass.seconds = a.seconds * 0.3;
  Result untraced;
  run(pass, untraced);

  bfly::obs::Registry registry;
  Result traced;
  Result layers;
  std::size_t workload_events = 0;
  {
    const bfly::obs::ScopedRegistry scope(&registry);
    {
      PB_SPAN("pb.workload");
      run(pass, traced);
    }
    workload_events = registry.trace_events().size();
    pb::run_layer_suite(a, layers);
  }
  double coverage = 0.0;
  const auto table =
      self_times(registry.completed_spans(), bfly::obs::current_thread_id(), &coverage);
  const std::string text = format_table(table);
  std::ofstream(a.workload + ".selftime.txt") << text;
  std::ofstream(a.workload + ".trace.json") << bfly::obs::chrome_trace_json(registry);
  std::fprintf(stderr, "%s", text.c_str());

  out = layers;
  out.attempted += untraced.attempted + traced.attempted;
  out.failed += untraced.failed + traced.failed;
  for (const Result* r : {&untraced, &traced}) {
    out.errors.insert(out.errors.end(), r->errors.begin(), r->errors.end());
  }
  const double op_u = untraced.find("op_ms")->value;
  const double op_t = traced.find("op_ms")->value;
  out.metric("obs.trace_overhead_pct", 100.0 * (op_t / op_u - 1.0), "%");
  out.metric("obs.trace_events", static_cast<double>(workload_events), "count");
  out.metric("obs.span_coverage_pct", coverage, "%");
}

int parse_args(int argc, char** argv, Args* a) {
  if (argc < 2) return usage();
  a->workload = argv[1];
  bool have_trace = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      a->trace = value == "1";
      have_trace = true;
      continue;
    } else if (flag == "--work-dir") {
      a->work_dir = value;
      continue;
    } else if (flag == "--bflyd") {
      a->bflyd_path = value;
      continue;
    } else {
      return usage();
    }
    if (end == nullptr || *end != '\0' || value.empty()) return usage();
  }
  if ((argc % 2) != 0 || !have_trace || a->work_dir.empty() || a->bflyd_path.empty() ||
      !(a->seconds > 0.0)) {
    return usage();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) {
    const std::vector<std::string> failures = pb::selftest_checks();
    for (const std::string& f : failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
    std::printf("selftest: %s\n", failures.empty() ? "every check rejects its wrong result"
                                                   : "FAILED");
    return failures.empty() ? 0 : 1;
  }
  Args a;
  if (const int rc = parse_args(argc, argv, &a); rc != 0) return rc;
  const auto it = workloads().find(a.workload);
  if (it == workloads().end()) return usage();
  if (::chdir(a.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "bfbench: cannot enter %s\n", a.work_dir.c_str());
    return 2;
  }

  Result r;
  try {
    if (a.trace) {
      run_traced(a, it->second, r);
    } else {
      it->second(a, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfbench %s: %s\n", a.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& e : r.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  using bfly::json::Value;
  Value metrics = Value::object();
  for (const pb::Metric& m : r.metrics) {
    Value v = Value::object();
    v.set("value", Value::number(m.value));
    v.set("unit", Value::string(m.unit));
    metrics.set(m.name, std::move(v));
  }
  Value doc = Value::object();
  doc.set("correct", Value::boolean(r.correct()));
  doc.set("attempted", Value::number(r.attempted));
  doc.set("failed", Value::number(r.failed));
  doc.set("metrics", std::move(metrics));
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}
