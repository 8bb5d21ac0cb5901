#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "core/formulas.hpp"
#include "util/bits.hpp"

namespace pb {
namespace {

using bfly::json::Value;

std::string fmt(const std::string& head, double got, double want) {
  std::ostringstream os;
  os.precision(12);
  os << head << ": got " << got << ", want " << want;
  return os.str();
}

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_point(const bfly::SaturationPoint& a, const bfly::SaturationPoint& b) {
  return same_bits(a.offered_load, b.offered_load) && same_bits(a.throughput, b.throughput) &&
         same_bits(a.avg_latency, b.avg_latency) &&
         same_bits(a.per_node_injection, b.per_node_injection) && a.delivered == b.delivered &&
         a.max_queue == b.max_queue && a.dropped_queue_full == b.dropped_queue_full;
}

bool same_tally(const bfly::FaultTally& a, const bfly::FaultTally& b) {
  return a.delivered == b.delivered && a.dropped == b.dropped && a.misroutes == b.misroutes &&
         a.wraps == b.wraps;
}

double number_at(const Value& v, const char* key) {
  const Value* f = v.find(key);
  return f != nullptr && f->is_number() ? f->as_double() : std::nan("");
}

}  // namespace

std::string check_conserved(const bfly::ShardedSaturationPoint& p) {
  if (p.conserved()) return "";
  std::ostringstream os;
  os << "sharded ledger not conserved: offered " << p.offered_total << " != delivered "
     << p.delivered_total << " + dropped " << p.dropped_total << " + in flight "
     << p.in_flight_end;
  return os.str();
}

std::string check_throughput(int n, double offered, double throughput, u64 measured_cycles) {
  const double rows = static_cast<double>(bfly::pow2(n));
  const double trials = rows * static_cast<double>(measured_cycles);
  // Injection count variance, plus the in-flight population (about
  // rows * offered * n packets at light load) entering or leaving the window.
  const double var = trials * offered * (1.0 - offered) + 2.0 * rows * offered * n;
  const double tol = 6.0 * std::sqrt(var) / trials;
  if (std::fabs(throughput - offered) <= tol) return "";
  return fmt("B_" + std::to_string(n) + " throughput off the offered load by more than " +
                 std::to_string(tol),
             throughput, offered);
}

std::string check_latency(int n, const bfly::SaturationPoint& p) {
  if (p.delivered == 0 || p.avg_latency >= static_cast<double>(n)) return "";
  return fmt("B_" + std::to_string(n) + " average latency below n", p.avg_latency, n);
}

std::string check_same_point(const bfly::SaturationPoint& a, const bfly::SaturationPoint& b,
                             const std::string& what) {
  if (same_point(a, b)) return "";
  return fmt(what + ": saturation points differ (throughput)", a.throughput, b.throughput);
}

std::string check_same_sharded(const bfly::ShardedSaturationPoint& a,
                               const bfly::ShardedSaturationPoint& b, const std::string& what) {
  const bool same = same_point(a.point, b.point) && same_tally(a.tally, b.tally) &&
                    a.shard_count == b.shard_count && a.offered_total == b.offered_total &&
                    a.injected_total == b.injected_total &&
                    a.delivered_total == b.delivered_total &&
                    a.dropped_total == b.dropped_total && a.in_flight_end == b.in_flight_end;
  if (same) return "";
  return fmt(what + ": sharded points differ (delivered)", static_cast<double>(a.delivered_total),
             static_cast<double>(b.delivered_total));
}

std::string check_same_outcome(const bfly::SweepOutcome& a, const bfly::SweepOutcome& b,
                               const std::string& what) {
  if (same_point(a.point, b.point) && same_tally(a.tally, b.tally) && a.live == b.live) {
    return "";
  }
  return fmt(what + ": outcomes differ (delivered)", static_cast<double>(a.point.delivered),
             static_cast<double>(b.point.delivered));
}

std::string check_legal(const bfly::LegalityReport& r, const std::string& what) {
  if (r.ok && r.segments_checked > 0) return "";
  return what + ": layout not legal: " + r.summary();
}

std::string check_rejected(const bfly::LegalityReport& r, const std::string& what) {
  if (!r.ok) return "";
  return what + ": a displaced wire passed the legality check";
}

std::string check_counts(int n, const bfly::LayoutMetrics& m) {
  const u64 rows = bfly::pow2(n);
  const u64 nodes = static_cast<u64>(n + 1) * rows;
  const u64 wires = 2 * static_cast<u64>(n) * rows;
  const std::string b = "B_" + std::to_string(n);
  if (m.num_nodes != nodes) {
    return fmt(b + " node count", static_cast<double>(m.num_nodes), static_cast<double>(nodes));
  }
  if (m.num_wires != wires) {
    return fmt(b + " wire count", static_cast<double>(m.num_wires), static_cast<double>(wires));
  }
  if (m.area != m.width * m.height || m.area <= 0) {
    return fmt(b + " area", static_cast<double>(m.area),
               static_cast<double>(m.width * m.height));
  }
  return "";
}

std::string check_same_metrics(const bfly::LayoutMetrics& a, const bfly::LayoutMetrics& b,
                               const std::string& what) {
  const bool same = a.width == b.width && a.height == b.height && a.area == b.area &&
                    a.max_wire_length == b.max_wire_length &&
                    a.total_wire_length == b.total_wire_length &&
                    a.num_layers == b.num_layers && a.volume == b.volume &&
                    a.num_nodes == b.num_nodes && a.num_wires == b.num_wires;
  if (same) return "";
  return fmt(what + ": streamed and materialized metrics differ (total wire length)",
             static_cast<double>(a.total_wire_length), static_cast<double>(b.total_wire_length));
}

std::string check_area_trend(const std::vector<int>& ns, const std::vector<double>& areas) {
  for (std::size_t i = 1; i < ns.size(); ++i) {
    const double prev = areas[i - 1] / bfly::formulas::thompson_area(ns[i - 1]);
    const double cur = areas[i] / bfly::formulas::thompson_area(ns[i]);
    if (!(cur < prev)) {
      return fmt("area ratio to thompson_area does not fall from B_" + std::to_string(ns[i - 1]) +
                     " to B_" + std::to_string(ns[i]),
                 cur, prev);
    }
  }
  return "";
}

std::string check_fewer_layers_larger(int n, double area_l2, double area_l4) {
  if (area_l4 < area_l2) return "";
  return fmt("B_" + std::to_string(n) + " L=4 area not below L=2 area", area_l4, area_l2);
}

std::string check_response_ok(const Value& response) {
  const Value* ok = response.find("ok");
  if (ok == nullptr || ok->type() != Value::Type::kBool || !ok->as_bool()) {
    return "response not ok: " + response.dump();
  }
  const Value* result = response.find("result");
  if (result == nullptr || !result->is_object()) return "response without result: " + response.dump();
  return "";
}

std::string check_ledger(const Value& stats) {
  const double accepted = number_at(stats, "accepted");
  const double completed = number_at(stats, "completed");
  const double cancelled = number_at(stats, "cancelled");
  const double shed = number_at(stats, "shed");
  const double failed = number_at(stats, "failed");
  if (!(accepted == completed + cancelled + shed + failed + 1)) {
    return fmt("daemon ledger not conserved (accepted vs terminal + this stats request)",
               accepted, completed + cancelled + shed + failed + 1);
  }
  if (shed != 0.0) return fmt("daemon shed requests", shed, 0.0);
  if (failed != 0.0 || cancelled != 0.0) {
    return fmt("daemon failed or cancelled requests", failed + cancelled, 0.0);
  }
  return "";
}

std::string check_same_text(const std::string& got, const std::string& want,
                            const std::string& what) {
  if (got == want) return "";
  return what + ": got " + got.substr(0, 160) + " want " + want.substr(0, 160);
}

std::string check_packaging_n9(const Value& result) {
  if (number_at(result, "num_chips") != 64.0) {
    return fmt("B_9 packaging chip count", number_at(result, "num_chips"), 64.0);
  }
  const Value* boards = result.find("boards");
  if (boards == nullptr) return "B_9 packaging without boards";
  const std::pair<const char*, double> want[] = {
      {"layers_2", 409600.0}, {"layers_4", 160000.0}, {"layers_8", 78400.0}};
  for (const auto& [key, area] : want) {
    const Value* b = boards->find(key);
    const double got = b == nullptr ? std::nan("") : number_at(*b, "board_area");
    if (got != area) return fmt(std::string("B_9 board area ") + key, got, area);
  }
  return "";
}

std::string check_census_distance(int n, const Value& result) {
  const double d = number_at(result, "avg_distance");
  if (d == static_cast<double>(n)) return "";
  return fmt("census average distance on B_" + std::to_string(n), d, n);
}

std::vector<std::string> selftest_checks() {
  std::vector<std::string> failures;
  auto expect = [&](const std::string& name, const std::string& right, const std::string& wrong) {
    if (!right.empty()) failures.push_back(name + " rejected a right result: " + right);
    if (wrong.empty()) failures.push_back(name + " accepted a wrong result");
  };

  bfly::ShardedSaturationPoint sp;
  sp.offered_total = 100;
  sp.delivered_total = 90;
  sp.dropped_total = 4;
  sp.in_flight_end = 6;
  bfly::ShardedSaturationPoint leaky = sp;
  leaky.in_flight_end = 5;
  expect("check_conserved", check_conserved(sp), check_conserved(leaky));

  expect("check_throughput", check_throughput(16, 0.5, 0.5003, 24),
         check_throughput(16, 0.5, 0.49, 24));

  bfly::SaturationPoint p;
  p.offered_load = 0.5;
  p.throughput = 0.5;
  p.avg_latency = 17.25;
  p.delivered = 1000;
  bfly::SaturationPoint fast = p;
  fast.avg_latency = 15.5;
  expect("check_latency", check_latency(16, p), check_latency(16, fast));

  bfly::SaturationPoint q = p;
  q.throughput = std::nextafter(p.throughput, 1.0);
  expect("check_same_point", check_same_point(p, p, "t"), check_same_point(p, q, "t"));

  bfly::ShardedSaturationPoint sq = sp;
  sq.tally.misroutes = 1;
  expect("check_same_sharded", check_same_sharded(sp, sp, "t"), check_same_sharded(sp, sq, "t"));

  bfly::SweepOutcome oa;
  oa.point = p;
  bfly::SweepOutcome ob = oa;
  ob.live.links_killed = 3;
  expect("check_same_outcome", check_same_outcome(oa, oa, "t"), check_same_outcome(oa, ob, "t"));

  bfly::LegalityReport good;
  good.segments_checked = 10;
  bfly::LegalityReport bad = good;
  bad.ok = false;
  bad.violations.push_back("overlap");
  expect("check_legal", check_legal(good, "t"), check_legal(bad, "t"));
  expect("check_rejected", check_rejected(bad, "t"), check_rejected(good, "t"));

  bfly::LayoutMetrics m;
  m.num_nodes = 11 * 1024;
  m.num_wires = 2 * 10 * 1024;
  m.width = 100;
  m.height = 50;
  m.area = 5000;
  bfly::LayoutMetrics m2 = m;
  m2.num_wires -= 1;
  expect("check_counts", check_counts(10, m), check_counts(10, m2));
  bfly::LayoutMetrics m3 = m;
  m3.total_wire_length = 1;
  expect("check_same_metrics", check_same_metrics(m, m, "t"), check_same_metrics(m, m3, "t"));

  const std::vector<int> ns = {10, 11, 12};
  const auto area_at = [](int n, double ratio) { return ratio * bfly::formulas::thompson_area(n); };
  expect("check_area_trend",
         check_area_trend(ns, {area_at(10, 2.0), area_at(11, 1.9), area_at(12, 1.8)}),
         check_area_trend(ns, {area_at(10, 2.0), area_at(11, 2.1), area_at(12, 1.8)}));
  expect("check_fewer_layers_larger", check_fewer_layers_larger(10, 1000, 400),
         check_fewer_layers_larger(10, 1000, 1000));

  const Value ok = Value::parse(R"({"id":"a","ok":true,"key":"k","cached":false,"result":{"n":3}})");
  const Value err = Value::parse(
      R"({"id":"a","ok":false,"error":{"code":"overloaded","message":"queue full"}})");
  expect("check_response_ok", check_response_ok(ok), check_response_ok(err));

  const Value ledger = Value::parse(
      R"({"accepted":11,"completed":10,"cancelled":0,"shed":0,"failed":0})");
  const Value shed = Value::parse(
      R"({"accepted":11,"completed":9,"cancelled":0,"shed":1,"failed":0})");
  const Value leak = Value::parse(
      R"({"accepted":11,"completed":9,"cancelled":0,"shed":0,"failed":0})");
  expect("check_ledger", check_ledger(ledger), check_ledger(shed));
  expect("check_ledger (unconserved)", check_ledger(ledger), check_ledger(leak));

  expect("check_same_text", check_same_text("{\"a\":1}", "{\"a\":1}", "t"),
         check_same_text("{\"a\":1}", "{\"a\":2}", "t"));

  const Value pkg = Value::parse(
      R"({"num_chips":64,"boards":{"layers_2":{"board_area":409600},)"
      R"("layers_4":{"board_area":160000},"layers_8":{"board_area":78400}}})");
  const Value pkg_bad = Value::parse(
      R"({"num_chips":64,"boards":{"layers_2":{"board_area":409600},)"
      R"("layers_4":{"board_area":160000},"layers_8":{"board_area":78401}}})");
  expect("check_packaging_n9", check_packaging_n9(pkg), check_packaging_n9(pkg_bad));

  expect("check_census_distance",
         check_census_distance(9, Value::parse(R"({"avg_distance":9})")),
         check_census_distance(9, Value::parse(R"({"avg_distance":8.5})")));
  return failures;
}

}  // namespace pb
