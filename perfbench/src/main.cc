// pdbd end-to-end benchmark.
//
//   perfbench --workload read_mix|unsafe_deadline|ingest_race --seed N
//             --seconds S --trace 0|1
//
// Starts an in-process PdbServer with pdbd's defaults on a seeded ~58k-tuple
// database, drives the workload over loopback HTTP/1.1 keep-alive from 4
// closed-loop clients for S seconds, checks every answer, and prints one
// line per metric followed by a final JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same timed run is followed by the per-layer measurements: /metrics
// deltas, the server's own traces against client latency, and an
// in-process replay of a seeded request sample with one span per call into
// a layer's public function (spans written to .bench_out/).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "data.h"
#include "http_client.h"
#include "replay.h"
#include "scrape.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr int kSetups = 5;

struct Args {
  Workload workload = Workload::kReadMix;
  std::string name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->name = value;
      have_workload = ParseWorkload(value, &args->workload);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Linear-interpolated quantile of `values` (sorted in place).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Restarts the kernel's resident-set high-water mark, so the peak read
/// after the timed run is that run's own (set-up churn excluded). Returns
/// false where /proc does not allow it.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident set in MiB: VmHWM, or the process-lifetime peak from
/// getrusage when /proc/self/status is unreadable.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

/// Sends one request and fails the run when it is not answered 200.
void MustSend(HttpClient* http, const std::string& session,
              const std::string& target, const std::string& body) {
  HttpResponse response =
      http->Send("POST", target, {{"X-Client-Id", session}}, body);
  if (response.status != 200) {
    Fatal("warm-up request failed (" + std::to_string(response.status) +
          "): " + body);
  }
}

/// Brings the server to the state timing starts from: every client session
/// holds the hot set, and one-time lazy work (first grounding, first lifted
/// call, E created) is done. Cold and unsafe requests stay cold: their
/// groups are never asked before the timed run.
void Warm(Engine* engine, const GroupPlan& plan, Workload workload) {
  const int readers =
      workload == Workload::kIngestRace ? kClients - 1 : kClients;
  if (workload == Workload::kIngestRace) {
    HttpClient http(engine->port());
    std::string writer = "c";
    writer += std::to_string(kClients - 1);
    MustSend(&http, writer, kIngestTarget, "-1,0,0.5\n");
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      HttpClient http(engine->port());
      const std::string session = HotSession(workload, c);
      const int spare = plan.reserved[static_cast<size_t>(8 + c)];
      if (workload == Workload::kUnsafeDeadline) {
        MustSend(&http, session, "/query", H0Query(spare));
        return;
      }
      for (int group : plan.hot) {
        for (int form = 0; form < 4; ++form) {
          MustSend(&http, session, "/query",
                   HotQuery(static_cast<HotForm>(form), group));
        }
      }
      if (workload == Workload::kReadMix) {
        MustSend(&http, session, "/query", ColdQuery(spare));
        MustSend(&http, session, "/query", AnswersQuery(spare));
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

struct ClassStats {
  std::vector<double> latency_ms;
  double P(double q) const { return Quantile(latency_ms, q); }
};

void PrintMetric(const std::string& name, double value,
                 const std::string& unit) {
  std::printf("metric %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
}

std::string JsonMetrics(
    const std::vector<std::tuple<std::string, double, std::string>>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", std::get<0>(ms[i]).c_str(),
                  std::isfinite(std::get<1>(ms[i])) ? std::get<1>(ms[i]) : 0.0,
                  std::get<2>(ms[i]).c_str());
    out += buf;
  }
  return out + "}";
}

/// Requests for the coverage measurement: groups the timed run never used.
std::vector<Request> CoverageRequests(Cls cls, const GroupPlan& plan) {
  std::vector<Request> out;
  auto add = [&](int group, const std::string& body, uint64_t deadline) {
    Request r;
    r.cls = cls;
    r.group = group;
    r.body = body;
    r.deadline_ms = deadline;
    out.push_back(r);
  };
  switch (cls) {
    case Cls::kHot:  // asked once beforehand, so these are cache hits
      for (int group : plan.hot) add(group, ColdQuery(group), 0);
      break;
    case Cls::kCold:
      for (int i = 0; i < 8; ++i) add(plan.reserved[i], ColdQuery(plan.reserved[i]), 0);
      break;
    case Cls::kAnswers:
      for (int i = 0; i < 4; ++i) {
        add(plan.reserved[i], AnswersQuery(plan.reserved[i]), 0);
      }
      break;
    case Cls::kExact:
      for (int i = 0; i < 8; ++i) add(plan.reserved[i], H0Query(plan.reserved[i]), 0);
      break;
    case Cls::kDeadline:
      for (int i = 0; i < 3; ++i) {
        add(plan.reserved_hard[i], H0Query(plan.reserved_hard[i]), kDeadlineMs);
      }
      break;
    case Cls::kIngest:
      break;
  }
  return out;
}

/// Requests of one class sent one at a time on a dedicated session so its
/// ring of server traces holds exactly them: server trace time (the union
/// of its top-level phase spans) over client latency.
struct Coverage {
  double trace_ns = 0;
  double client_ns = 0;
  std::vector<double> client_us;  // per request
};

Coverage MeasureCoverage(Engine* engine, Cls cls, const GroupPlan& plan) {
  HttpClient http(engine->port());
  const std::string session = std::string("trace.") + ClassName(cls);
  Coverage coverage;
  if (cls == Cls::kHot) {
    for (int group : plan.hot) MustSend(&http, session, "/query", ColdQuery(group));
  }
  const std::vector<Request> requests = CoverageRequests(cls, plan);
  for (const Request& req : requests) {
    HttpClient::Headers headers = {{"X-Client-Id", session}};
    if (req.deadline_ms > 0) {
      headers.push_back({"X-Deadline-Ms", std::to_string(req.deadline_ms)});
    }
    Clock::time_point sent = Clock::now();
    HttpResponse response = http.Send("POST", req.target, headers, req.body);
    coverage.client_ns += Seconds(sent) * 1e9;
    coverage.client_us.push_back(Seconds(sent) * 1e6);
    if (response.status != 200) Fatal("coverage request failed");
  }
  auto traces = engine->server().sessions().ForClient(session)->recent_traces();
  for (size_t i = 0; i < traces.size() && i < requests.size(); ++i) {
    coverage.trace_ns += static_cast<double>(traces[i]->TopLevelNs());
  }
  return coverage;
}

/// The seeded replay sample: a prefix of a fresh request stream, capped
/// per class so the expensive classes stay affordable.
std::vector<Request> ReplaySample(Workload workload, const GroupPlan& plan,
                                  uint64_t seed) {
  std::vector<Request> sample;
  if (workload == Workload::kIngestRace) {
    RequestStream reader(workload, plan, MixSeed(seed, 7), 0, kClients);
    for (int round = 0; round < 4; ++round) {
      Request ingest;
      ingest.cls = Cls::kIngest;
      sample.push_back(ingest);
      for (int i = 0; i < 8; ++i) sample.push_back(reader.Next());
    }
    return sample;
  }
  const std::map<Cls, int> caps = {{Cls::kHot, 32},   {Cls::kCold, 12},
                                   {Cls::kAnswers, 4}, {Cls::kExact, 12},
                                   {Cls::kDeadline, 4}};
  std::map<Cls, int> taken;
  RequestStream stream(workload, plan, MixSeed(seed, 7), 0, kClients);
  for (int draw = 0; draw < 2000; ++draw) {
    Request r = stream.Next();
    if (taken[r.cls] < caps.at(r.cls)) {
      taken[r.cls] += 1;
      sample.push_back(r);
    }
  }
  return sample;
}

double MedianUs(std::vector<uint64_t> ns) {
  std::vector<double> us;
  for (uint64_t v : ns) us.push_back(static_cast<double>(v) / 1000.0);
  return Quantile(us, 0.5);
}

int Run(const Args& args) {
  const Dataset data = MakeDataset(args.seed);
  const GroupPlan plan = MakeGroupPlan(data, args.seed, kClients);
  const bool durable = args.workload == Workload::kIngestRace;
  const std::string scratch = ".bench_tmp/" + args.name + "-" +
                              std::to_string(::getpid());
  std::filesystem::create_directories(scratch);

  std::printf("workload %s seed %llu clients %d seconds %.3g tuples %zu "
              "groups %d (hard %d)\n",
              args.name.c_str(), static_cast<unsigned long long>(args.seed),
              kClients, args.seconds, data.TupleCount(), kGroups,
              kHardGroups);

  // Set-up, repeated: load the data into a fresh engine, start the server,
  // warm it. The last instance serves the timed run.
  std::unique_ptr<Engine> engine;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    Clock::time_point start = Clock::now();
    engine = std::make_unique<Engine>(data, durable,
                                      scratch + "/data" + std::to_string(i));
    Warm(engine.get(), plan, args.workload);
    setups.push_back(Seconds(start));
  }

  HttpClient admin(engine->port());
  const Scrape before = Scrape::Parse(admin.Get("/metrics").body);
  if (!ResetPeakRss()) {
    std::printf("note: peak RSS includes set-up (clear_refs unavailable)\n");
  }
  double elapsed_s = 0;
  std::vector<Record> records =
      RunClients(args.workload, plan, args.seed, kClients, engine->port(),
                 args.seconds, &elapsed_s);
  const Scrape after = Scrape::Parse(admin.Get("/metrics").body);
  const double peak_rss_mb = PeakRssMb();

  CheckResult checks = CheckRecords(data, records);
  if (durable) {
    // Every acknowledged row must be in E (plus the warm-up row).
    std::shared_lock<std::shared_mutex> lock(engine->durable()->read_mutex());
    auto e = engine->db().database().Get("E");
    size_t stored = e.ok() ? (*e)->size() : 0;
    if (stored != checks.ingest_rows + 1) {
      checks.failed += 1;
      checks.erroneous += 1;
      checks.attempted += 1;
      checks.violations.push_back(
          "ingest: E holds " + std::to_string(stored) + " rows, " +
          std::to_string(checks.ingest_rows + 1) + " acknowledged");
    }
  }
  for (const std::string& v : checks.violations) {
    std::printf("violation %s\n", v.c_str());
  }
  for (const std::string& b : checks.interval_breaks) {
    std::printf("interval_break %s\n", b.c_str());
  }

  std::map<Cls, ClassStats> classes;
  ClassStats queries;
  for (const Record& r : records) {
    double ms = static_cast<double>(r.latency_ns) / 1e6;
    classes[r.request.cls].latency_ms.push_back(ms);
    if (r.request.cls != Cls::kIngest) queries.latency_ms.push_back(ms);
  }
  for (const auto& [cls, stats] : classes) {
    std::printf("class %-8s n=%-6zu p50_ms=%.4f p90_ms=%.4f p99_ms=%.4f\n",
                ClassName(cls), stats.latency_ms.size(), stats.P(0.5),
                stats.P(0.9), stats.P(0.99));
  }

  const double setup_s = Quantile(setups, 0.5);
  const double throughput =
      static_cast<double>(queries.latency_ms.size()) / elapsed_s;
  const double error_ratio =
      Ratio(static_cast<double>(checks.erroneous),
            static_cast<double>(checks.attempted));
  const double ingest_rows_per_s =
      static_cast<double>(checks.ingest_rows) / elapsed_s;
  const double width_mean =
      Ratio(checks.width_sum, static_cast<double>(checks.inexact));
  const double miss_ratio = Ratio(static_cast<double>(checks.interval_misses),
                                  static_cast<double>(checks.inexact));
  const double break_ratio =
      Ratio(static_cast<double>(checks.interval_breaks.size()),
            static_cast<double>(checks.inexact));

  // Every metric of this workload by name, per class where it has the
  // class; the JSON below carries only the set every workload has.
  PrintMetric("setup_s", setup_s, "s");
  PrintMetric("peak_rss_mb", peak_rss_mb, "MB");
  PrintMetric("throughput_qps", throughput, "1/s");
  PrintMetric("error_ratio", error_ratio, "ratio");
  auto class_metric = [&](Cls cls, const char* prefix, double tail_q,
                          const char* tail) {
    if (!classes.count(cls)) return;
    PrintMetric(std::string(prefix) + "_p50_ms", classes[cls].P(0.5), "ms");
    PrintMetric(std::string(prefix) + "_" + tail + "_ms",
                classes[cls].P(tail_q), "ms");
  };
  class_metric(Cls::kHot, "hot", 0.99, "p99");
  class_metric(Cls::kCold, "cold", 0.9, "p90");
  class_metric(Cls::kAnswers, "answers", 0.9, "p90");
  class_metric(Cls::kExact, "exact", 0.9, "p90");
  class_metric(Cls::kDeadline, "deadline", 0.9, "p90");
  if (checks.inexact > 0) {
    PrintMetric("interval_width_mean", width_mean, "probability");
    PrintMetric("interval_break_ratio", break_ratio, "ratio");
  }
  if (durable) PrintMetric("ingest_rows_per_s", ingest_rows_per_s, "rows/s");

  std::vector<std::tuple<std::string, double, std::string>> out;
  if (!args.trace) {
    out = {{"setup_s", setup_s, "s"},
           {"peak_rss_mb", peak_rss_mb, "MB"},
           {"throughput_qps", throughput, "1/s"},
           {"p50_ms", queries.P(0.5), "ms"},
           {"p99_ms", queries.P(0.99), "ms"}};
  } else {
    // Per-layer run. 1. The server's own traces against client latency,
    // per class (the metric is their unweighted mean).
    // Cached requests sent one at a time on an idle server also give the
    // server's own overhead (client latency minus the session's cache hit),
    // on every workload.
    std::vector<double> coverage;
    double hot_client_us = 0;
    std::set<Cls> measured = {Cls::kHot};
    for (const auto& [cls, stats] : classes) measured.insert(cls);
    measured.erase(Cls::kIngest);  // ingest traces enter no session ring
    for (Cls cls : measured) {
      Coverage c = MeasureCoverage(engine.get(), cls, plan);
      if (cls == Cls::kHot) hot_client_us = Quantile(c.client_us, 0.5);
      PrintMetric(std::string("trace.coverage.") + ClassName(cls),
                  Ratio(c.trace_ns, c.client_ns), "ratio");
      if (classes.count(cls)) coverage.push_back(Ratio(c.trace_ns, c.client_ns));
    }
    double coverage_mean = 0;
    for (double c : coverage) coverage_mean += c / coverage.size();
    std::string profile = admin.Get("/debug/profile").body;
    for (size_t pos = 0; (pos = profile.find("{\"phase\":\"", pos)) !=
                         std::string::npos;) {
      size_t end = profile.find('}', pos);
      std::printf("server_profile %s\n",
                  profile.substr(pos, end + 1 - pos).c_str());
      pos = end;
    }

    // 2. Replay: untraced, then traced, on fresh in-process state.
    std::vector<Request> sample =
        ReplaySample(args.workload, plan, args.seed);
    // Request by request, alternating, so drift hits both passes alike.
    Replayer untraced(plan, engine.get(), false, int64_t{1} << 40);
    Replayer traced(plan, engine.get(), true,
                    (int64_t{1} << 40) + (int64_t{1} << 24));
    for (const Request& request : sample) {
      untraced.Replay(request);
      traced.Replay(request);
    }
    traced.Probe(scratch);
    const Tracer& tracer = traced.tracer();
    std::map<uint64_t, std::string> request_name;
    double untraced_ns = 0, traced_ns = 0, unattributed_ns = 0;
    for (const Tracer::Span& s : untraced.tracer().spans()) {
      if (s.parent == 0) untraced_ns += static_cast<double>(s.duration_ns);
    }
    std::map<std::string, std::vector<uint64_t>> route, probe;
    std::map<std::string, uint64_t> route_self;
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.parent == 0) {
        request_name[s.id] = s.name;
        if (s.name != "probe") traced_ns += static_cast<double>(s.duration_ns);
        continue;
      }
      bool is_probe = request_name[s.request] == "probe";
      (is_probe ? probe : route)[s.name].push_back(s.duration_ns);
      if (!is_probe) {
        route_self[s.name] += s.self_ns;
        if (s.name == "unattributed") {
          unattributed_ns += static_cast<double>(s.duration_ns);
        }
      }
    }
    for (const auto& [name, self] : route_self) {
      std::printf("replay_self %-40s %.3f ms total\n", name.c_str(),
                  static_cast<double>(self) / 1e6);
    }
    std::printf("replay accounting: max |request - sum(children)| = %llu ns\n",
                static_cast<unsigned long long>(tracer.MaxAccountingGapNs()));
    std::filesystem::create_directories(".bench_out");
    std::string spans_path = ".bench_out/spans-" + args.name + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(spans_path)) Fatal("writing " + spans_path);
    auto layer_us = [&](const std::string& fn) {
      auto it = route.find(fn);
      if (it != route.end()) return MedianUs(it->second);
      return MedianUs(probe[fn]);
    };

    // 3. /metrics deltas over the timed run.
    auto d = [&](const char* name) { return after.Delta(before, name); };
    Scrape storage_after = after, storage_before = before;
    if (!traced.probe_storage_metrics().empty()) {
      storage_after = Scrape::Parse(traced.probe_storage_metrics());
      storage_before = Scrape();
    }
    const double queries_total = d("pdb_queries_total");
    const double methods = d("pdb_queries_lifted_total") +
                           d("pdb_queries_grounded_exact_total") +
                           d("pdb_queries_monte_carlo_total");
    const double session_hit_us = layer_us("core.Session::QueryFo[hit]");
    std::vector<uint64_t> kl = traced.karp_luby_samples();
    std::vector<double> kl_d(kl.begin(), kl.end());
    out = {
        {"server.overhead_us", hot_client_us - session_hit_us, "us"},
        {"server.request_p50_us",
         after.DeltaQuantile(before, "pdb_http_request_latency_us", 0.5),
         "us"},
        {"admission.rejected", d("pdb_admission_rejected_total"), "count"},
        {"session.hit_us", session_hit_us, "us"},
        {"result_cache.hit_ratio",
         Ratio(d("pdb_result_cache_hits_total"),
               d("pdb_result_cache_hits_total") +
                   d("pdb_result_cache_misses_total")),
         "ratio"},
        {"logic.parse_us", layer_us("logic.ParseBooleanQuery"), "us"},
        {"sql.compile_us", layer_us("sql.ParseSql+CompileSql"), "us"},
        {"lifted.call_us", layer_us("lifted.LiftedProbabilityFo[safe]"), "us"},
        {"safety_check.us", layer_us("lifted.LiftedProbabilityFo[unsafe]"),
         "us"},
        {"answers.engine_us", layer_us("core.Session::QueryWithAnswers"),
         "us"},
        {"lineage.join_us", layer_us("boolean.EnumerateCqMatches"), "us"},
        {"lineage.dnf_us", layer_us("boolean.BuildUcqDnf"), "us"},
        {"lineage.build_us", layer_us("boolean.BuildUcqLineage"), "us"},
        {"lineage.matches",
         Ratio(d("pdb_lineage_matches_total"), queries_total), "count"},
        {"lineage.nodes", Ratio(d("pdb_lineage_nodes_total"), queries_total),
         "count"},
        {"dpll.us", layer_us("wmc.DpllCounter::Compute"), "us"},
        {"dpll.decisions",
         Ratio(d("pdb_dpll_decisions_total"), queries_total), "count"},
        {"wmc_cache.hit_ratio",
         Ratio(d("pdb_wmc_shared_hits_total"),
               d("pdb_wmc_shared_hits_total") +
                   d("pdb_wmc_shared_misses_total")),
         "ratio"},
        {"karp_luby.us", layer_us("wmc.KarpLubyDnf"), "us"},
        {"karp_luby.samples", Quantile(kl_d, 0.5), "count"},
        {"mc.samples_per_fallback",
         Ratio(d("pdb_mc_samples_total"), d("pdb_queries_monte_carlo_total")),
         "count"},
        {"interval_miss_ratio", miss_ratio, "ratio"},
        {"interval_break_ratio", break_ratio, "ratio"},
        {"interval_width_mean", width_mean, "probability"},
        {"plan_bounds.us", layer_us("plans.ComputePlanBounds"), "us"},
        {"durable.insert_many_us",
         layer_us("storage.DurableDatabase::InsertMany"), "us"},
        {"wal.mutations_per_sync",
         Ratio(storage_after.Delta(storage_before,
                                   "pdb_wal_batch_mutations_total"),
               storage_after.Delta(storage_before, "pdb_wal_syncs_total")),
         "count"},
        {"wal.sync_p50_us",
         storage_after.DeltaQuantile(storage_before, "pdb_wal_sync_seconds",
                                     0.5),
         "us"},
        {"index_cache.hit_ratio",
         Ratio(d("pdb_index_cache_hits_total"),
               d("pdb_index_cache_hits_total") + d("pdb_index_builds_total")),
         "ratio"},
        {"index.builds", d("pdb_index_builds_total"), "count"},
        {"ingest_rows_per_s", ingest_rows_per_s, "rows/s"},
        {"method.lifted_share", Ratio(d("pdb_queries_lifted_total"), methods),
         "ratio"},
        {"method.grounded_exact_share",
         Ratio(d("pdb_queries_grounded_exact_total"), methods), "ratio"},
        {"method.monte_carlo_share",
         Ratio(d("pdb_queries_monte_carlo_total"), methods), "ratio"},
        {"trace.coverage", coverage_mean, "ratio"},
        {"trace.overhead_ratio",
         Ratio(traced_ns - untraced_ns, untraced_ns), "ratio"},
        {"replay.unattributed_share", Ratio(unattributed_ns, traced_ns),
         "ratio"},
        {"error_ratio", error_ratio, "ratio"},
    };
    for (const auto& [name, value, unit] : out) PrintMetric(name, value, unit);
  }

  engine.reset();
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              JsonMetrics(out).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload read_mix|unsafe_deadline|ingest_race "
                 "--seed N --seconds S [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
