// epxbench: the repository's end-to-end benchmark (README.md).
//
//   epxbench --workload flat8|geo_fanin|kv_split --seed N --seconds S
//            --trace 0|1 [--trace-out FILE]   (--trace-out with --trace 1 only)
//
// --trace 0 runs fresh rounds of the workload for S host seconds
// (at least six) and prints the end-to-end metrics; --trace 1 runs the
// separate traced run and prints the per-layer metrics. Either way the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}. A failed correctness check prints "CHECK FAILED <name>" on
// stderr and exits 3 without a result line.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/order_checker.h"
#include "host_spans.h"
#include "ledger.h"
#include "normalise.h"
#include "ref_kernel.h"
#include "util/logging.h"
#include "workloads.h"

namespace epxbench {
namespace {

using namespace epx;  // NOLINT(google-build-using-namespace)
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

uint64_t fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double to_ms(Tick t) { return static_cast<double>(t) / static_cast<double>(kMillisecond); }

/// Client-observed figures of the timed phase, in simulated time. They
/// are deterministic for a seed.
struct VirtualMetrics {
  uint64_t completed = 0;
  uint64_t retries = 0;
  uint64_t unanswered = 0;
  uint64_t latency_samples = 0;
  Tick lat_p50 = 0;
  Tick lat_p99 = 0;
  Tick gap = 0;
  double vsec = 0;

  double vops_per_s() const { return static_cast<double>(completed) / vsec; }
  /// Operations issued in the timed phase: answered, or still in flight.
  uint64_t attempted() const { return completed + unanswered; }
  /// Re-sent after a timeout, or unanswered when the phase ended. No
  /// operation fails outright: clients re-send until answered.
  double fail_share() const {
    return static_cast<double>(retries + unanswered) / static_cast<double>(attempted());
  }
  std::string fingerprint() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRId64
                  "/%" PRId64 "/%" PRId64, completed, retries, unanswered, latency_samples,
                  static_cast<int64_t>(lat_p50), static_cast<int64_t>(lat_p99),
                  static_cast<int64_t>(gap));
    return buf;
  }
};

/// Registry counter totals that the per-layer metrics are built from.
struct Counts {
  std::map<std::string, double> c;
  double operator[](const std::string& name) const {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  }
};

// Published registry names (tools/epx-lint/NAMES.md) read by the benchmark.
const char* const kCounterNames[] = {
    "coord.commands",     "coord.retries",       "coord.skips",        "acceptor.decisions",
    "acceptor.recoveries", "learner.delivered",  "learner.gap_repairs", "merge.scan_slots",
    "merge.discarded",    "net.messages_sent",   "net.bytes_sent",     "kv.executed",
    "kv.discarded",       "kv.signals",          "kv.snapshot_bytes",  "registry.puts",
    "registry.notifications", "trace.dropped"};

/// Sums a counter over all its label sets (all nodes).
uint64_t sum_counters(const obs::MetricsRegistry& metrics, const std::string& name) {
  uint64_t total = 0;
  const std::string prefix = name + "{";
  for (const auto& [key, counter] : metrics.counters()) {
    if (key == name || key.compare(0, prefix.size(), prefix) == 0) total += counter->total();
  }
  return total;
}

Counts snapshot_counts(Workload& w) {
  Counts out;
  const obs::MetricsRegistry& metrics = w.cluster().sim().metrics();
  for (const char* name : kCounterNames) {
    out.c[name] = static_cast<double>(sum_counters(metrics, name));
  }
  double delivered = 0;
  for (auto* r : w.replicas()) delivered += static_cast<double>(r->delivered());
  out.c["replica.delivered"] = delivered;
  out.c["events"] = static_cast<double>(w.cluster().sim().events_processed());
  out.c["far_inserts"] = static_cast<double>(w.cluster().sim().event_queue().far_inserts());
  const sim::EngineStats& es = w.cluster().sim().engine_stats();
  out.c["windows"] = static_cast<double>(es.windows);
  out.c["exchanges"] = static_cast<double>(es.exchanges);
  out.c["exchanges_skipped"] = static_cast<double>(es.exchanges_skipped);
  out.c["multi_partition_ops"] = static_cast<double>(w.multi_partition_ops());
  return out;
}

Counts delta(const Counts& end, const Counts& start) {
  Counts d;
  for (const auto& [k, v] : end.c) d.c[k] = v - start[k];
  return d;
}

/// Mean simulated CPU utilisation per role over the timed phase.
struct RoleUtil {
  double coord = 0;
  double acceptor = 0;
  double replica = 0;
  double client = 0;
};

/// Everything one round produced.
struct RoundResult {
  Round timing;
  VirtualMetrics v;
  Counts counts;             ///< timed-phase deltas
  uint64_t registry_digest;  ///< full metrics snapshot
  double rss_growth_mb = 0;  ///< peak-RSS growth over the timed phase
  RoleUtil util;
  double subs_per_replica = 0;         ///< streams merged, at the end
  std::map<std::string, Histogram> timers;  ///< span / merge timers (traced)
  std::string outcome;       ///< "" or the failed workload check
  std::string notes;
  std::string order_error;   ///< "" or the failed OrderChecker check
  std::string history_error;
  size_t history_ops = 0;
};

/// The part of a timer recorded inside the timed phase (its windows are
/// whole seconds, and so are the phase's bounds).
Histogram timed_part(const obs::Timer& t, const Plan& plan) {
  Histogram h;
  for (auto idx = static_cast<size_t>(plan.warm_end / t.window());
       idx < static_cast<size_t>(plan.end() / t.window()); ++idx) {
    if (const Histogram* w = t.window_at(idx)) h.merge(*w);
  }
  return h;
}

double mean_util(const std::vector<const sim::Process*>& procs, Tick from, Tick to) {
  if (procs.empty()) return 0;
  double sum = 0;
  for (const auto* p : procs) sum += p->utilization(from, to);
  return sum / static_cast<double>(procs.size());
}

std::string check_order(const checker::OrderChecker& order, const Workload& w) {
  std::string err = order.check_integrity();
  if (!err.empty()) return "order.integrity: " + err;
  for (const auto& group : w.agreement_groups()) {
    err = order.check_group_agreement(group, /*allow_prefix=*/true);
    if (!err.empty()) return "order.group_agreement: " + err;
  }
  err = order.check_pairwise_order();
  if (!err.empty()) return "order.pairwise: " + err;
  return "";
}

RoundResult run_round(const std::string& name, const BuildOptions& options, HostSpans& spans) {
  RoundResult out;
  Round& timing = out.timing;
  // One kernel copy per busy engine thread: under contention a 2-shard
  // run loses more than a single-threaded kernel would show. Spans put
  // the traced round on the serial fallback.
  const size_t copies = options.traced ? 1 : options.threads;
  timing.pre_kernel_ns = ref_kernel(copies);

  const auto setup_start = Clock::now();
  std::unique_ptr<Workload> w;
  {
    HostSpans::Scope scope(spans, name + ".build");
    w = make_workload(name, options);
  }
  checker::OrderChecker order;
  if (options.traced) {
    w->cluster().sim().spans().set_enabled(true);
    for (auto* r : w->replicas()) {
      r->set_delivery_listener([&order](net::NodeId node, const paxos::Command& cmd,
                                        paxos::StreamId) { order.record(node, cmd.id); });
    }
  }
  const Plan plan = w->plan();
  {
    HostSpans::Scope scope(spans, name + ".warm_up");
    w->cluster().run_until(plan.warm_end);
  }
  timing.setup_wall_ns = ns_since(setup_start);

  auto completed = [&] {
    uint64_t n = 0;
    for (auto* c : w->clients()) n += c->probe_completed();
    return n;
  };
  auto retries = [&] {
    uint64_t n = 0;
    for (auto* c : w->clients()) n += c->probe_retries();
    return n;
  };
  for (auto* c : w->clients()) c->begin_phase(plan.warm_end);
  const uint64_t completed0 = completed();
  const uint64_t retries0 = retries();
  const Counts counts0 = snapshot_counts(*w);
  const double rss0 = peak_rss_mb();
  const double vslice = static_cast<double>(plan.slice) / static_cast<double>(kSecond);

  for (size_t i = 0; i < plan.slices; ++i) {
    w->before_slice(i);
    timing.kernel_ns.push_back(ref_kernel(copies));
    const uint64_t before = completed();
    const auto t0 = Clock::now();
    {
      HostSpans::Scope scope(spans, name + ".run_until");
      w->cluster().run_until(plan.warm_end + plan.slice * static_cast<Tick>(i + 1));
    }
    timing.slices.push_back({ns_since(t0), vslice, completed() - before});
    w->after_slice(i);
  }
  timing.kernel_ns.push_back(ref_kernel(copies));
  out.rss_growth_mb = peak_rss_mb() - rss0;

  const Tick end = plan.end();
  VirtualMetrics& v = out.v;
  v.vsec = vslice * static_cast<double>(plan.slices);
  v.completed = completed() - completed0;
  v.retries = retries() - retries0;
  Histogram latency;
  for (auto* c : w->clients()) {
    v.unanswered += c->unanswered(end);
    v.gap = std::max(v.gap, c->longest_gap(end));
    latency.merge(timed_part(c->probe_latency(), plan));
  }
  v.latency_samples = latency.count();
  v.lat_p50 = latency.p50();
  v.lat_p99 = latency.quantile(0.99);

  out.counts = delta(snapshot_counts(*w), counts0);
  const obs::MetricsRegistry& metrics = w->cluster().sim().metrics();
  out.registry_digest = fnv1a(metrics.to_json(/*include_series=*/false));

  std::vector<const sim::Process*> coords, acceptors, replicas, clients;
  for (paxos::StreamId s : w->cluster().directory().stream_ids()) {
    if (auto* c = w->cluster().coordinator(s)) coords.push_back(c);
    for (auto* a : w->cluster().acceptors(s)) acceptors.push_back(a);
  }
  for (auto* r : w->replicas()) replicas.push_back(r);
  for (auto* c : w->clients()) clients.push_back(&c->probe_process());
  out.util.coord = mean_util(coords, plan.warm_end, end);
  out.util.acceptor = mean_util(acceptors, plan.warm_end, end);
  out.util.replica = mean_util(replicas, plan.warm_end, end);
  out.util.client = mean_util(clients, plan.warm_end, end);
  double subs = 0;
  for (auto* r : w->replicas()) subs += static_cast<double>(r->merger().subscriptions().size());
  out.subs_per_replica = subs / static_cast<double>(w->replicas().size());

  for (const auto& [key, timer] : metrics.timers()) {
    for (const char* tname : {"span.propose_wait", "span.quorum_wait", "span.durable_wait",
                              "span.learn_wait", "merge.skew_wait", "span.apply", "span.e2e"}) {
      if (key == tname) out.timers[tname] = timed_part(*timer, plan);
    }
    if (key.rfind("merge.subscribe_latency{", 0) == 0) {
      out.timers["merge.subscribe_latency"].merge(timed_part(*timer, plan));
    }
  }

  out.outcome = w->check_outcome();
  out.notes = w->notes();
  if (options.traced) {
    {
      HostSpans::Scope scope(spans, name + ".check_order");
      out.order_error = check_order(order, *w);
    }
    HostSpans::Scope scope(spans, name + ".check_linearizability");
    out.history_error = w->check_history();
    out.history_ops = w->history_size();
  }
  {
    HostSpans::Scope scope(spans, name + ".teardown");
    w.reset();
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* endp = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &endp, 10);
      have_seed = endp != val && *endp == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &endp);
      have_seconds = endp != val && *endp == '\0' && a.seconds > 0;
    } else if (key == "--trace") {
      a.trace = std::atoi(val);
      have_trace = (a.trace == 0 || a.trace == 1) && val[1] == '\0';
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0) return false;
  bool known = false;
  for (const auto& n : workload_names()) known = known || n == a.workload;
  // Only the traced run records the spans worth writing.
  const bool trace_out_ok = a.trace_out.empty() || a.trace == 1;
  return have_workload && have_seed && have_seconds && have_trace && known && trace_out_ok;
}

[[noreturn]] void fail_check(const std::string& check, const std::string& detail) {
  std::fprintf(stderr, "CHECK FAILED %s: %s\n", check.c_str(), detail.c_str());
  std::fflush(stdout);
  std::exit(3);
}

void check_round(const std::string& workload, const RoundResult& r) {
  if (!r.outcome.empty()) fail_check("workload_outcome", r.outcome);
  if (r.v.completed == 0) fail_check("progress", workload + ": no command completed");
  if (!r.order_error.empty()) fail_check("order_checker", r.order_error);
  if (!r.history_error.empty()) fail_check("kv_linearizability", r.history_error);
}

void check_same_virtual(const RoundResult& a, const RoundResult& b, const char* what) {
  if (a.v.fingerprint() != b.v.fingerprint() || a.registry_digest != b.registry_digest) {
    fail_check("virtual_repeat", std::string(what) + ": same seed, different virtual metrics (" +
                                     a.v.fingerprint() + " vs " + b.v.fingerprint() + ")");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<Metric>& metrics, uint64_t attempted, uint64_t failed) {
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("== %s\n", title.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

size_t threads_for(const std::string& workload) { return workload == "geo_fanin" ? 2 : 1; }

/// An untraced run cycles its rounds through this many simulator seeds
/// derived from --seed and reports each simulated-time metric as their
/// median, so one seed's quirks move the figures less. Every round must
/// repeat the earlier round of its seed exactly.
constexpr size_t kSeedsPerRun = 3;

uint64_t round_seed(uint64_t seed, size_t round) {
  return seed * kSeedsPerRun + round % kSeedsPerRun;
}

int run_untraced(const Args& args, HostSpans& spans) {
  std::vector<RoundResult> rounds;
  const auto start = Clock::now();
  double first_round_rss_mb = 0;
  while (rounds.size() < 2 * kSeedsPerRun || ns_since(start) < args.seconds * 1e9) {
    const size_t r = rounds.size();
    const BuildOptions options{round_seed(args.seed, r), threads_for(args.workload), false};
    rounds.push_back(run_round(args.workload, options, spans));
    // Later rounds only add allocator fragmentation and per-thread arenas
    // of fresh worker threads, so the high-water mark is the first one's.
    if (r == 0) first_round_rss_mb = peak_rss_mb();
    check_round(args.workload, rounds.back());
    if (r >= kSeedsPerRun) check_same_virtual(rounds[r - kSeedsPerRun], rounds[r], "round repeat");
  }
  std::vector<Round> timings;
  for (const auto& r : rounds) timings.push_back(r.timing);
  const HostSummary h = summarise(timings, kNominalKernelNs);
  auto seed_median = [&](auto metric) {
    std::vector<double> values;
    for (size_t i = 0; i < kSeedsPerRun; ++i) values.push_back(metric(rounds[i].v));
    return median(std::move(values));
  };
  uint64_t attempted = 0;
  for (size_t i = 0; i < kSeedsPerRun; ++i) attempted += rounds[i].v.attempted();

  std::printf("workload %s  seed %" PRIu64 "  rounds %zu  slices %zu (%zu beyond p90)  "
              "host cores %u\n",
              args.workload.c_str(), args.seed, rounds.size(), h.slice_count, h.beyond_p90,
              std::thread::hardware_concurrency());
  for (size_t i = 0; i < kSeedsPerRun; ++i) {
    const VirtualMetrics& v = rounds[i].v;
    std::printf("sim seed %" PRIu64 ": client latency samples %" PRIu64 "  completed %" PRIu64
                "  retried %" PRIu64 "  unanswered at end %" PRIu64 "\n",
                round_seed(args.seed, i), v.latency_samples, v.completed, v.retries,
                v.unanswered);
    if (!rounds[i].notes.empty()) std::printf("  note: %s\n", rounds[i].notes.c_str());
  }
  print_table("raw host time (not normalised, never gated)",
              {{"raw.cmds_per_wall_s", h.raw_cmds_per_wall_s, "1/s"},
               {"raw.ms_per_vsec_p50", h.raw_ms_per_vsec_p50, "ms"},
               {"raw.setup_s", h.raw_setup_s, "s"},
               {"raw.ref_kernel_ms", h.ref_kernel_ms, "ms"},
               {"raw.ref_spread_pct", h.ref_spread_pct, "%"}});
  if (h.host_unsteady) {
    std::printf("WARNING host speed moved %.1f%% within the run (> %.0f%%): "
                "host-time figures of this run are not to be trusted\n",
                h.ref_spread_pct, kUnsteadySpreadPct);
  }
  const std::vector<Metric> metrics{
      {"cmds_per_s", h.cmds_per_s, "1/s"},
      {"ms_per_vsec_p50", h.ms_per_vsec_p50, "ms"},
      {"ms_per_vsec_p90", h.ms_per_vsec_p90, "ms"},
      {"setup_s", h.setup_s, "s"},
      {"peak_rss_mb", first_round_rss_mb, "MB"},
      {"vops_per_s", seed_median([](const VirtualMetrics& v) { return v.vops_per_s(); }),
       "1/sim_s"},
      {"vlat_p50_ms", seed_median([](const VirtualMetrics& v) { return to_ms(v.lat_p50); }),
       "sim_ms"},
      {"vlat_p99_ms", seed_median([](const VirtualMetrics& v) { return to_ms(v.lat_p99); }),
       "sim_ms"},
      {"vgap_ms", seed_median([](const VirtualMetrics& v) { return to_ms(v.gap); }), "sim_ms"},
      {"fail_share", seed_median([](const VirtualMetrics& v) { return v.fail_share(); }),
       "ratio"},
  };
  print_table("end-to-end (host times normalised to the reference host)", metrics);
  print_result(metrics, attempted, 0);
  return 0;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double timer_ms(const RoundResult& r, const std::string& name, double q) {
  auto it = r.timers.find(name);
  if (it == r.timers.end() || it->second.count() == 0) return 0;
  return to_ms(q < 0 ? it->second.max() : it->second.quantile(q));
}

double timer_mean_ms(const RoundResult& r, const std::string& name) {
  auto it = r.timers.find(name);
  return it == r.timers.end() ? 0.0 : it->second.mean() / static_cast<double>(kMillisecond);
}

int run_traced(const Args& args, HostSpans& spans) {
  const std::string& wl = args.workload;
  const bool geo = threads_for(wl) > 1;
  // 1. Untraced reference rounds at the workload's own engine setting:
  //    host figures for the overhead and the ledger, and the repeat check.
  const uint64_t seed = round_seed(args.seed, 0);
  const BuildOptions untraced{seed, threads_for(wl), false};
  std::vector<RoundResult> ref;
  for (int i = 0; i < 2; ++i) {
    ref.push_back(run_round(wl, untraced, spans));
    check_round(wl, ref.back());
  }
  check_same_virtual(ref[0], ref[1], "round repeat");
  const HostSummary ref_host = summarise({ref[0].timing, ref[1].timing}, kNominalKernelNs);

  // 2. geo_fanin: the same seed on the serial engine must give the same
  //    metrics snapshot; it is also the speed-up baseline.
  HostSummary serial_host = ref_host;
  const RoundResult* serial = &ref[0];
  RoundResult serial_round;
  if (geo) {
    serial_round = run_round(wl, {seed, 1, false}, spans);
    check_round(wl, serial_round);
    if (serial_round.registry_digest != ref[0].registry_digest) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "2-thread digest %016" PRIx64 " != serial %016" PRIx64,
                    ref[0].registry_digest, serial_round.registry_digest);
      fail_check("geo_parallel_digest", buf);
    }
    check_same_virtual(ref[0], serial_round, "serial vs 2 threads");
    serial_host = summarise({serial_round.timing}, kNominalKernelNs);
    serial = &serial_round;
  }

  // 3. The traced round: spans armed, order checker on every delivery,
  //    KV history recorded and checked.
  const RoundResult traced = run_round(wl, {seed, threads_for(wl), true}, spans);
  check_round(wl, traced);
  const HostSummary traced_host = summarise({traced.timing}, kNominalKernelNs);

  // 4. The ledger, over the serial engine's counts.
  const Counts& n = serial->counts;
  const double vsec = serial->v.vsec;
  const double decisions = n["acceptor.decisions"];
  const double deliveries = n["replica.delivered"];
  KernelShape shape;
  shape.cmds_per_decision =
      std::max<size_t>(1, static_cast<size_t>(ratio(n["coord.commands"], decisions) + 0.5));
  shape.streams_per_replica =
      std::max<size_t>(1, static_cast<size_t>(serial->subs_per_replica + 0.5));
  const KernelCosts k = measure_kernels(shape, spans);
  LedgerCounts lc;
  lc.events = n["events"];
  lc.msgs = n["net.messages_sent"];
  lc.decisions = decisions;
  lc.deliveries = deliveries;
  lc.kv_ops = n["kv.executed"];
  // Instrument updates: one per message sent, per learner delivery, two
  // per replica delivery (total + per stream) and two per client
  // completion (latency + completions).
  lc.obs_records = lc.msgs + n["learner.delivered"] + 2 * deliveries +
                   2 * static_cast<double>(serial->v.completed);
  lc.vsec = vsec;
  const auto lines = ledger_lines(k, lc);
  double ledger_sum = 0;
  print_table("ledger kernels (host-normalised ns/op)", {});
  for (const auto& l : lines) {
    std::printf("  %-18s %10.1f ns/op x %12.0f ops = %8.3f ms per sim-second\n",
                l.layer.c_str(), l.ns_per_op, l.ops, l.ms_per_vsec);
    ledger_sum += l.ms_per_vsec;
  }
  const double measured = serial_host.ms_per_vsec_mean;
  const double residue_pct = ratio(measured - ledger_sum, measured) * 100.0;
  std::printf("  ledger sum %.3f ms vs measured %.3f ms per sim-second (serial engine): "
              "residue %.1f%%\n", ledger_sum, measured, residue_pct);

  const Counts& t = traced.counts;
  const double cmds = static_cast<double>(serial->v.completed);
  const double e2e = timer_mean_ms(traced, "span.e2e");
  double stages = 0;
  for (const char* s : {"span.propose_wait", "span.quorum_wait", "span.durable_wait",
                        "span.learn_wait", "merge.skew_wait", "span.apply"}) {
    stages += timer_mean_ms(traced, s);
  }
  const double windows = geo ? ref[0].counts["windows"] : 0.0;
  const double exchanges = ref[0].counts["exchanges"] + ref[0].counts["exchanges_skipped"];

  const std::vector<Metric> metrics{
      {"sim.events_per_cmd", ratio(n["events"], cmds), "count"},
      {"sim.far_insert_share", ratio(n["far_inserts"], n["events"]), "ratio"},
      {"sim.windows_per_vsec", windows / vsec, "1/sim_s"},
      {"sim.exchange_skip_share", geo ? ratio(ref[0].counts["exchanges_skipped"], exchanges) : 0.0,
       "ratio"},
      // Both rounds run seconds apart in one process, so raw wall time
      // compares them directly (their kernels differ in copies).
      {"sim.parallel_speedup",
       geo ? ratio(serial_host.raw_ms_per_vsec_p50, ref_host.raw_ms_per_vsec_p50) : 1.0, "x"},
      {"sim.host_ns_per_event", k.event_ns, "ns"},
      {"net.msgs_per_cmd", ratio(n["net.messages_sent"], cmds), "count"},
      {"net.bytes_per_cmd", ratio(n["net.bytes_sent"], cmds), "B"},
      {"net.host_ns_per_msg", k.msg_ns, "ns"},
      {"net.codec_ns_per_msg", k.codec_ns, "ns"},
      {"paxos.cmds_per_decision", ratio(n["coord.commands"], decisions), "count"},
      {"paxos.host_ns_per_decision", k.decision_ns, "ns"},
      {"paxos.skips_per_vsec", n["coord.skips"] / vsec, "1/sim_s"},
      {"paxos.retry_share",
       ratio(n["coord.retries"] + n["learner.gap_repairs"] + n["acceptor.recoveries"], decisions),
       "ratio"},
      {"paxos.propose_wait_ms_p50", timer_ms(traced, "span.propose_wait", 0.5), "sim_ms"},
      {"paxos.propose_wait_ms_p99", timer_ms(traced, "span.propose_wait", 0.99), "sim_ms"},
      {"paxos.quorum_wait_ms_p50", timer_ms(traced, "span.quorum_wait", 0.5), "sim_ms"},
      {"paxos.quorum_wait_ms_p99", timer_ms(traced, "span.quorum_wait", 0.99), "sim_ms"},
      {"paxos.learn_wait_ms_p50", timer_ms(traced, "span.learn_wait", 0.5), "sim_ms"},
      {"paxos.learn_wait_ms_p99", timer_ms(traced, "span.learn_wait", 0.99), "sim_ms"},
      {"paxos.coord_vcpu_util", serial->util.coord, "ratio"},
      {"paxos.acceptor_vcpu_util", serial->util.acceptor, "ratio"},
      {"multicast.host_ns_per_item", k.item_ns, "ns"},
      {"elastic.scan_per_delivery", ratio(n["merge.scan_slots"], deliveries), "count"},
      {"elastic.merge_ns_per_delivery", k.merge_ns, "ns"},
      {"elastic.skew_wait_ms_p50", timer_ms(traced, "merge.skew_wait", 0.5), "sim_ms"},
      {"elastic.skew_wait_ms_p99", timer_ms(traced, "merge.skew_wait", 0.99), "sim_ms"},
      {"elastic.subscribe_ms", timer_ms(traced, "merge.subscribe_latency", -1), "sim_ms"},
      {"elastic.replica_ns_per_delivery", k.replica_ns, "ns"},
      {"elastic.replica_vcpu_util", serial->util.replica, "ratio"},
      {"elastic.apply_ms_p50", timer_ms(traced, "span.apply", 0.5), "sim_ms"},
      {"elastic.discard_share", ratio(n["merge.discarded"], n["merge.discarded"] + deliveries),
       "ratio"},
      {"kvstore.host_ns_per_op", k.kv_ns, "ns"},
      {"kvstore.discard_share", ratio(n["kv.discarded"], n["kv.discarded"] + n["kv.executed"]),
       "ratio"},
      {"kvstore.signals_per_getrange", ratio(n["kv.signals"], n["multi_partition_ops"]), "count"},
      {"kvstore.snapshot_mb", n["kv.snapshot_bytes"] / 1e6, "MB"},
      {"registry.puts", n["registry.puts"], "count"},
      {"registry.notifications", n["registry.notifications"], "count"},
      {"harness.retry_share", ratio(static_cast<double>(serial->v.retries), cmds), "ratio"},
      {"harness.client_vcpu_util", serial->util.client, "ratio"},
      {"obs.host_ns_per_record", k.obs_ns, "ns"},
      {"obs.trace_overhead_pct",
       (ratio(traced_host.ms_per_vsec_p50, serial_host.ms_per_vsec_p50) - 1.0) * 100.0, "%"},
      {"obs.span_residue_pct", ratio(e2e - stages, e2e) * 100.0, "%"},
      {"obs.trace_dropped", t["trace.dropped"], "count"},
      {"ledger.sum_ms_per_vsec", ledger_sum, "ms"},
      {"ledger.residue_pct", residue_pct, "%"},
      {"mem.rss_mb_per_vsec", ref[0].rss_growth_mb / ref[0].v.vsec, "MB/sim_s"},
      {"raw.cmds_per_wall_s", ref_host.raw_cmds_per_wall_s, "1/s"},
      {"raw.ref_kernel_ms", ref_host.ref_kernel_ms, "ms"},
      {"raw.ref_spread_pct", ref_host.ref_spread_pct, "%"},
  };
  std::printf("traced round: %zu KV history ops checked, order checker passed\n",
              traced.history_ops);
  if (!traced.notes.empty()) std::printf("note: %s\n", traced.notes.c_str());
  print_table("per-layer (traced run; host times normalised)", metrics);
  if (!args.trace_out.empty() && !spans.write_chrome(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
  print_result(metrics, traced.v.attempted(), 0);
  return 0;
}

}  // namespace
}  // namespace epxbench

int main(int argc, char** argv) {
  epxbench::Args args;
  if (!epxbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: epxbench --workload flat8|geo_fanin|kv_split --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE (with --trace 1)]\n");
    return 2;
  }
  epx::log::set_level(epx::log::Level::kWarn);
  epxbench::HostSpans spans;
  return args.trace == 0 ? epxbench::run_untraced(args, spans)
                         : epxbench::run_traced(args, spans);
}
