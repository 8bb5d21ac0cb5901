// bflyd_mix: the real bflyd on a Unix socket, started on a pre-filled cache
// journal, serving cache hits, cold unique computes, bursts of identical
// cold keys and pings: first as one open-loop mix at a fixed rate, then in
// batches of one kind at a time, each timed in the daemon's CPU time.  The
// p99-limited rate ladder runs in the per-layer suite.
//
// The mix's weights, the journal's size and the fixed rate are assumptions:
// no request log of real bflyd traffic exists to take them from.  So the
// gated figures are per-kind costs, which do not depend on the weights.
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>

#include "checks.hpp"
#include "obs/metrics.hpp"
#include "packaging/hierarchical.hpp"
#include "serve/cache.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve_client.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace serve = bfly::serve;
using bfly::json::Value;

constexpr const char* kSocket = "bflyd.sock";
constexpr const char* kJournal = "bflyd.cache.jsonl";

// The open-loop request mix, per schedule slot (per mille).
constexpr u64 kHitPm = 700;     // a warm key, answered from the replayed cache
constexpr u64 kWritePm = 120;   // a cold unique sweep, appended to the journal
constexpr u64 kRereadPm = 80;   // a key written earlier in this phase
constexpr u64 kBurstPm = 20;    // kBurstSize identical cold requests at once
constexpr std::size_t kBurstSize = 6;
// The rest are pings.

constexpr double kFixedRate = 200.0;  // slots per second
// Requests in one batch of each kind (kHit, kWrite, kReread unused, kBurst,
// kPing); a burst batch is kBurstBatch / kBurstSize bursts.
constexpr std::size_t kBatch[] = {1000, 24, 0, 48, 1000};
// The p99-limited ladder of the layer suite, each step kLadderStepS long so
// that at least ten samples lie beyond the p99.
constexpr double kLadder[] = {400.0, 800.0, 1600.0};
constexpr double kLadderStepS = 2.5;
constexpr double kP99LimitMs = 50.0;
constexpr std::size_t kFillerEntries = 50'000;

enum Kind { kHit, kWrite, kReread, kBurst, kPing, kNumKinds };

struct WarmKey {
  std::string body;     ///< request frame after the "id" member
  std::string payload;  ///< in-process execute_request result text
};

std::string census_body(int n, u64 packets, u64 seed) {
  return "\"op\":\"census\",\"n\":" + std::to_string(n) + ",\"packets\":" +
         std::to_string(packets) + ",\"seed\":" + std::to_string(seed) + "}";
}

serve::Request parse_body(const std::string& body) {
  return serve::parse_request_line("{" + body);
}

std::string compute(const std::string& body) {
  PB_SPAN("pb.serve.execute_request");
  return serve::execute_request(parse_body(body), nullptr, 1).dump();
}

/// The keys every phase reads; all of them are in the pre-filled journal.
std::vector<WarmKey> warm_keys() {
  std::vector<std::string> bodies;
  for (int n = 3; n <= 12; ++n) {
    for (const int layers : {2, 3, 4}) {
      bodies.push_back("\"op\":\"layout\",\"n\":" + std::to_string(n) + ",\"layers\":" +
                       std::to_string(layers) + "}");
    }
  }
  for (int n = 4; n <= 12; ++n) {
    for (const int links : {64, 128, 256}) {
      bodies.push_back("\"op\":\"packaging\",\"n\":" + std::to_string(n) +
                       ",\"max_offchip_links\":" + std::to_string(links) + "}");
    }
  }
  for (int n = 6; n <= 10; ++n) {
    for (u64 s = 1; s <= 8; ++s) bodies.push_back(census_body(n, 4096, s));
  }
  for (int n = 4; n <= 8; ++n) {
    for (u64 s = 1; s <= 8; ++s) {
      bodies.push_back("\"op\":\"sweep\",\"n\":" + std::to_string(n) +
                       ",\"offered_load\":0.5,\"cycles\":200,\"seed\":" + std::to_string(s) + "}");
    }
  }
  std::vector<WarmKey> keys;
  for (std::string& b : bodies) keys.push_back({b, compute(b)});
  return keys;
}

/// Writes the cache journal bflyd replays at start: the warm keys plus
/// `filler` further census results, in the journal's record format.
void write_journal(const std::vector<WarmKey>& warm, std::size_t filler) {
  std::ofstream out(kJournal, std::ios::trunc);
  auto record = [&](const std::string& body, const std::string& payload) {
    out << "{\"v\":" << serve::kCacheJournalVersion << ",\"key\":\""
        << bfly::json::escape(serve::request_key(parse_body(body))) << "\",\"result\":\""
        << bfly::json::escape(payload) << "\"}\n";
  };
  for (std::size_t i = 0; i < filler; ++i) {
    const std::string body = census_body(4, 64, 1'000'000 + i);
    record(body, compute(body));
  }
  for (const WarmKey& k : warm) record(k.body, k.payload);
}

std::vector<std::string> daemon_args() {
  return {"--cache",         kJournal,
          "--max-inflight",  std::to_string(worker_threads()),
          "--engine-threads", "1",
          "--queue-depth",   "8192",
          "--default-deadline-ms", "120000",
          "--drain-ms",      "5000"};
}

/// The CPU time bflyd uses from its spawn to its first answered ping,
/// journal replay included.
double startup_cpu_s(const Args& a, std::unique_ptr<DaemonProcess>* keep) {
  auto d = std::make_unique<DaemonProcess>(a.bflyd_path, kSocket, daemon_args());
  const std::string pong = serve::Client::connect_unix(kSocket).call("{\"op\":\"ping\"}");
  const double s = d->cpu_seconds();
  if (pong.find("\"pong\":true") == std::string::npos) {
    throw std::runtime_error("bad ping reply: " + pong);
  }
  if (keep != nullptr) *keep = std::move(d);
  return s;
}

/// Open-loop schedules of the request mix: `slots` slots at `rate` per
/// second (an infinite rate puts them all due at once).
class MixBuilder {
 public:
  MixBuilder(u64 seed, const std::vector<WarmKey>& warm) : rng_(seed), warm_(warm) {}

  std::vector<Scheduled> build(double rate, std::size_t slots) {
    std::vector<Scheduled> out;
    std::vector<std::string> written;  // cold keys of this phase, in order
    for (std::size_t s = 0; s < slots; ++s) {
      const double due = static_cast<double>(s) / rate;
      const u64 draw = rng_.below(1000);
      const bool reread = draw >= kHitPm + kWritePm && draw < kHitPm + kWritePm + kRereadPm;
      if (draw < kHitPm || (reread && written.size() < 64)) {
        out.push_back({due, warm_[rng_.below(warm_.size())].body, kHit});
      } else if (draw < kHitPm + kWritePm) {
        written.push_back(unique_write());
        out.push_back({due, written.back(), kWrite});
      } else if (reread) {
        out.push_back({due, written[rng_.below(written.size() - 32)], kReread});
      } else if (draw < kHitPm + kWritePm + kRereadPm + kBurstPm) {
        add_burst(due, out);
      } else {
        out.push_back({due, "\"op\":\"ping\"}", kPing});
      }
    }
    return out;
  }

  /// `count` requests of one kind, all due at once.
  std::vector<Scheduled> batch(Kind kind, std::size_t count) {
    std::vector<Scheduled> out;
    while (out.size() < count) {
      if (kind == kHit) out.push_back({0.0, warm_[rng_.below(warm_.size())].body, kHit});
      if (kind == kWrite) out.push_back({0.0, unique_write(), kWrite});
      if (kind == kBurst) add_burst(0.0, out);
      if (kind == kPing) out.push_back({0.0, "\"op\":\"ping\"}", kPing});
    }
    return out;
  }

 private:
  void add_burst(double due, std::vector<Scheduled>& out) {
    const std::string body = census_body(10, u64{1} << 17, next_unique());
    for (std::size_t i = 0; i < kBurstSize; ++i) out.push_back({due, body, kBurst});
  }

  u64 next_unique() { return 2'000'000 + unique_++; }

  // The mix's cold write: a B_8 sweep point, a few milliseconds of engine work.
  std::string unique_write() {
    return "\"op\":\"sweep\",\"n\":8,\"offered_load\":0.5,\"cycles\":400,\"seed\":" +
           std::to_string(next_unique()) + "}";
  }

  bfly::Xoshiro256 rng_;
  const std::vector<WarmKey>& warm_;
  u64 unique_ = 0;
};

/// Checks every response of a phase against the properties the mix fixes,
/// returns the number of responses that were not ok.
u64 check_phase(const std::vector<Scheduled>& sched, const LoadRun& run,
                const std::map<std::string, std::string>& warm_payload, Result& r) {
  u64 not_ok = 0;
  std::map<std::string, std::string> first_result;  // body -> result text
  std::size_t sampled = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const std::string& line = run.responses[i];
    if (line.empty()) {
      ++not_ok;
      continue;
    }
    const Value doc = Value::parse(line);
    const std::string err = check_response_ok(doc);
    if (!err.empty()) {
      ++not_ok;
      continue;
    }
    const Scheduled& s = sched[i];
    if (s.kind == kPing) continue;
    const std::string result = raw_result(line);
    const bool cached = doc.find("cached")->as_bool();
    if (s.kind == kHit) {
      if (!cached) r.check("warm key answered cold: " + s.body);
      r.check(check_same_text(result, warm_payload.at(s.body), "replayed hit " + s.body));
      continue;
    }
    if (s.body.find("\"census\"") != std::string::npos) {
      r.check(check_census_distance(static_cast<int>(doc.at("result").at("n").as_double()),
                                    doc.at("result")));
    }
    // Re-reads and burst members answer with the bytes of the first compute.
    const auto [it, inserted] = first_result.emplace(s.body, result);
    if (!inserted) r.check(check_same_text(result, it->second, "repeat of " + s.body));
    // Sampled cold results against an in-process compute.
    if (s.kind == kWrite && sampled++ % 16 == 0) {
      r.check(check_same_text(result, compute(s.body), "daemon vs in-process " + s.body));
    }
  }
  return not_ok;
}

struct Step {
  double achieved = 0.0;  ///< answered requests per second of the step
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double wall_s = 0.0;  ///< first due time to last response
  double last_due_s = 0.0;
  std::vector<double> lag_s;
  double daemon_cpu_s = 0.0;  ///< CPU the daemon used while the step was sent and answered
  u64 not_ok = 0;
  bool complete = false;
  /// The p99 is under the limit, nothing failed, and the last response came
  /// within the limit of the last due time (the backlog did not grow).
  bool meets_slo() const {
    return complete && not_ok == 0 && p99_ms < kP99LimitMs &&
           wall_s - last_due_s < kP99LimitMs / 1e3;
  }
};

/// Sends `sched` over `connections` sockets and checks every response.
/// With `daemon`, also reads its CPU clock around the sending and answering.
Step run_step(const std::vector<Scheduled>& sched, std::size_t connections,
              const std::map<std::string, std::string>& warm_payload, Result& r,
              const DaemonProcess* daemon = nullptr) {
  LoadRun run;
  Step st;
  {
    PB_SPAN("pb.serve.open_loop");
    const double cpu0 = daemon != nullptr ? daemon->cpu_seconds() : 0.0;
    run = drive_open_loop(kSocket, sched, connections, 60.0);
    if (daemon != nullptr) st.daemon_cpu_s = daemon->cpu_seconds() - cpu0;
  }
  st.complete = run.complete;
  st.not_ok = check_phase(sched, run, warm_payload, r);
  st.p50_ms = quantile(run.latency_s, 0.5) * 1e3;
  st.p99_ms = quantile(run.latency_s, 0.99) * 1e3;
  st.wall_s = run.last_done_s;
  st.last_due_s = sched.back().due_s;
  st.achieved = static_cast<double>(sched.size()) / run.last_done_s;
  st.lag_s = std::move(run.lag_s);
  r.attempted += sched.size();
  r.failed += st.not_ok;
  if (!run.complete) {
    r.check("a phase of " + std::to_string(sched.size()) + " requests was not answered in time");
  }
  return st;
}

/// The kinds kind_costs times, in the order of its result.
constexpr Kind kCostKinds[] = {kHit, kWrite, kBurst, kPing};

/// Rounds of one batch per kind of kCostKinds, all due at once, while
/// `clock` allows: the least CPU time the daemon spent per request of each
/// kind in any round.  Every response is checked.
std::vector<double> kind_costs(const DaemonProcess& daemon, MixBuilder& mix, RoundClock& clock,
                               std::size_t conns,
                               const std::map<std::string, std::string>& warm_payload,
                               Result& r) {
  std::vector<std::vector<double>> cpu_per_request(std::size(kCostKinds));
  while (clock.another()) {
    clock.round_done(timed([&] {
      for (std::size_t k = 0; k < std::size(kCostKinds); ++k) {
        const std::vector<Scheduled> batch = mix.batch(kCostKinds[k], kBatch[kCostKinds[k]]);
        const Step st = run_step(batch, conns, warm_payload, r, &daemon);
        cpu_per_request[k].push_back(st.daemon_cpu_s / static_cast<double>(batch.size()));
      }
    }));
  }
  return best_times(cpu_per_request);
}

}  // namespace

void run_bflyd_mix(const Args& a, Result& r) {
  const Clock::time_point t_start = Clock::now();
  // Input generation, untraced: the journal's results are computed here
  // in-process, tens of thousands of engine calls.
  std::vector<WarmKey> warm;
  {
    const bfly::obs::ScopedRegistry untraced(nullptr);
    warm = warm_keys();
    write_journal(warm, kFillerEntries);
  }
  std::map<std::string, std::string> warm_payload;
  for (const WarmKey& k : warm) warm_payload[k.body] = k.payload;

  // Set-up: spawn to first answered ping, seven times; the last daemon stays.
  std::vector<double> setups;
  std::unique_ptr<DaemonProcess> daemon;
  for (int i = 0; i < 7; ++i) {
    setups.push_back(startup_cpu_s(a, i == 6 ? &daemon : nullptr));
  }

  // The paper's packaging example, computed cold by the daemon.
  {
    const Value pkg = Value::parse(serve::Client::connect_unix(kSocket).call(
        "{\"op\":\"packaging\",\"n\":9,\"no_cache\":true}"));
    r.check(check_response_ok(pkg));
    if (pkg.find("result") != nullptr) r.check(check_packaging_n9(pkg.at("result")));
  }

  // The mix open-loop at a fixed rate: every response checked; its latencies
  // are reported on stderr only, since on a shared host they follow the
  // host's thread wake-up latency more than the daemon.
  const std::size_t conns = std::min<std::size_t>(4, worker_threads() + 1);
  MixBuilder mix(mix_seed(a.seed, 300), warm);
  const Step fixed =
      run_step(mix.build(kFixedRate, static_cast<std::size_t>(kFixedRate * 0.25 * a.seconds)),
               conns, warm_payload, r);

  RoundClock clock(a.seconds - seconds_since(t_start), 3);
  const std::vector<double> cost = kind_costs(*daemon, mix, clock, conns, warm_payload, r);

  const Value stats =
      Value::parse(serve::Client::connect_unix(kSocket).call("{\"op\":\"stats\"}"));
  const Value& s = stats.at("result");
  r.check(check_ledger(s));
  if (s.at("cache_loaded").as_double() != static_cast<double>(warm.size() + kFillerEntries) ||
      s.at("cache_lines_skipped").as_double() != 0.0) {
    r.check("journal replay loaded " + s.at("cache_loaded").dump() + " entries, skipped " +
            s.at("cache_lines_skipped").dump());
  }
  const double rss = daemon->peak_rss_mb();
  if (!daemon->stop()) r.check("bflyd did not exit cleanly on SIGTERM");

  std::fprintf(stderr,
               "  open loop %.0f/s: p50 %.3f ms  p99 %.3f ms\n"
               "  daemon CPU per request: hit %.1f us  write %.3f ms  burst %.3f ms  ping %.1f us\n",
               kFixedRate, fixed.p50_ms, fixed.p99_ms, cost[0] * 1e6, cost[1] * 1e3, cost[2] * 1e3,
               cost[3] * 1e6);
  r.metric("setup_s", median(setups), "s");
  r.metric("op_ms", geo_mean(cost) * 1e3, "ms");
  // Requests per daemon CPU-second at the geometric-mean cost of the kinds:
  // weighted by no assumed mix.
  r.metric("work_per_s", 1.0 / geo_mean(cost), "1/s");
  r.metric("peak_rss_mb", rss, "MiB");
}

namespace {

/// Median per-call time in microseconds of `fn`, over 5 batches of `reps`.
template <typename Fn>
double per_call_us(int reps, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    batches.push_back(timed([&] {
      for (int i = 0; i < reps; ++i) fn();
    }) / reps * 1e6);
  }
  return median(batches);
}

}  // namespace

void serve_layer_metrics(const Args& a, Result& r) {
  const std::string frame = "{\"id\":\"7\"," + census_body(10, 4096, 3);
  serve::Request req;
  r.metric("serve.parse_us", per_call_us(2000, [&] { req = serve::parse_request_line(frame); }),
           "us");
  std::string key;
  r.metric("serve.key_us", per_call_us(2000, [&] { key = serve::request_key(req); }), "us");
  const std::string payload = compute(census_body(10, 4096, 3));
  std::string line;
  r.metric("serve.envelope_us",
           per_call_us(2000, [&] { line = serve::build_response_ok("7", key, true, payload); }),
           "us");

  // Cold computes in-process, one representative request per op.
  const std::pair<const char*, std::string> cold[] = {
      {"layout", "\"op\":\"layout\",\"n\":12,\"layers\":2}"},
      {"packaging", "\"op\":\"packaging\",\"n\":12}"},
      {"census", census_body(10, u64{1} << 17, 5)},
      {"sweep", "\"op\":\"sweep\",\"n\":6,\"offered_load\":0.5,\"cycles\":400,\"seed\":5}"},
  };
  for (const auto& [op, body] : cold) {
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) ms.push_back(timed([&] { compute(body); }) * 1e3);
    r.metric(std::string("serve.cold_ms.") + op, median(ms), "ms");
  }
  std::vector<double> plan_ms;
  for (int i = 0; i < 20; ++i) {
    plan_ms.push_back(timed([&] {
      PB_SPAN("pb.packaging.plan");
      bfly::plan_hierarchical(12, bfly::ChipConstraints{});
    }) * 1e3);
  }
  r.metric("packaging.plan_ms", median(plan_ms), "ms");

  // A daemon session on a smaller journal (generated untraced).
  std::vector<WarmKey> warm;
  {
    const bfly::obs::ScopedRegistry untraced(nullptr);
    warm = warm_keys();
    write_journal(warm, kFillerEntries / 4);
  }
  std::map<std::string, std::string> warm_payload;
  for (const WarmKey& k : warm) warm_payload[k.body] = k.payload;
  std::vector<double> replay_ms;
  for (int i = 0; i < 3; ++i) {
    replay_ms.push_back(timed([&] {
      PB_SPAN("pb.serve.replay");
      const serve::ServeCache cache(kJournal);
    }) * 1e3);
  }
  std::unique_ptr<DaemonProcess> daemon;
  startup_cpu_s(a, &daemon);
  {
    serve::Client c = serve::Client::connect_unix(kSocket);
    std::vector<double> rtt;
    for (int i = 0; i < 300; ++i) {
      rtt.push_back(timed([&] {
        PB_SPAN("pb.serve.ping");
        c.call("{\"op\":\"ping\"}");
      }) * 1e6);
    }
    r.metric("serve.ping_rtt_us", median(rtt), "us");
  }
  // The rate ladder: the highest step whose p99 stays under the limit.
  const std::size_t conns = std::min<std::size_t>(4, worker_threads() + 1);
  MixBuilder mix(mix_seed(a.seed, 301), warm);
  double rps_at_slo = 0.0;
  double p99_ms = 0.0;
  std::vector<double> lag_s;
  for (const double rate : kLadder) {
    const Step st = run_step(mix.build(rate, static_cast<std::size_t>(rate * kLadderStepS)),
                             conns, warm_payload, r);
    lag_s.insert(lag_s.end(), st.lag_s.begin(), st.lag_s.end());
    if (rate == kLadder[0]) p99_ms = st.p99_ms;
    std::fprintf(stderr, "  ladder %6.0f/s: %8.1f requests/s  p50 %7.3f ms  p99 %8.3f ms  %s\n",
                 rate, st.achieved, st.p50_ms, st.p99_ms,
                 st.meets_slo() ? "meets the p99 limit" : "misses the p99 limit");
    if (!st.meets_slo()) break;
    rps_at_slo = st.achieved;
  }
  RoundClock three_rounds(0.0, 3);
  const std::vector<double> cost =
      kind_costs(*daemon, mix, three_rounds, conns, warm_payload, r);
  const Value stats =
      Value::parse(serve::Client::connect_unix(kSocket).call("{\"op\":\"stats\"}"));
  const Value& s = stats.at("result");
  r.check(check_ledger(s));
  const double hits = s.at("cache_hits").as_double();
  const double misses = s.at("cache_misses").as_double();
  const double coalesced = s.at("coalesced").as_double();
  daemon->stop();
  r.metric("serve.cache_hits", hits, "count");
  r.metric("serve.cache_misses", misses, "count");
  r.metric("serve.coalesced", coalesced, "count");
  r.metric("serve.hit_ratio", hits / (hits + misses + coalesced), "ratio");
  r.metric("serve.journal_bytes", static_cast<double>(std::filesystem::file_size(kJournal)),
           "bytes");
  r.metric("serve.replay_ms", median(replay_ms), "ms");
  r.metric("serve.generator_lag_ms", quantile(lag_s, 0.99) * 1e3, "ms");
  r.metric("serve.p99_ms", p99_ms, "ms");
  r.metric("serve.rps_at_slo", rps_at_slo, "1/s");
  r.metric("serve.hit_cpu_us", cost[0] * 1e6, "us");
  r.metric("serve.write_cpu_ms", cost[1] * 1e3, "ms");
  r.metric("serve.burst_cpu_ms", cost[2] * 1e3, "ms");
  r.metric("serve.ping_cpu_us", cost[3] * 1e6, "us");
}

}  // namespace pb
