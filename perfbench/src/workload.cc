#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "core/session.h"
#include "http_client.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kTolerance = 1e-9;
// An unbiased estimate lands this far from the truth with probability
// about 2e-9 (normal tail), so a larger distance means a wrong estimate.
constexpr double kMaxSigmas = 6.0;

void Die(const std::string& what, const pdb::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

std::string Str(int v) { return std::to_string(v); }

void Shuffle(std::vector<int>* ids, SplitMix* rng) {
  for (size_t i = ids->size(); i > 1; --i) {
    std::swap((*ids)[i - 1], (*ids)[rng->Below(i)]);
  }
}

/// Deals `ids` round-robin into `n` slices.
std::vector<std::vector<int>> Deal(const std::vector<int>& ids, int n) {
  std::vector<std::vector<int>> slices(static_cast<size_t>(n));
  for (size_t i = 0; i < ids.size(); ++i) slices[i % n].push_back(ids[i]);
  return slices;
}

/// The number after "\"key\":" in a JSON line.
bool JsonNumber(const std::string& line, const std::string& key,
                double* out) {
  size_t pos = line.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos + key.size() + 3;
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

bool JsonTrue(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\":true") != std::string::npos;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The exact reference for an H0 answer on a small group: the engine's own
/// pipeline, run in-process on a database holding only that group, with no
/// deadline and no caches.
double ReferenceH0(const Dataset& data, int group) {
  std::unique_ptr<pdb::ProbDatabase> db = GroupDatabase(data, group);
  pdb::SessionOptions options;
  options.num_threads = 1;
  options.cache_results = false;
  pdb::Session session(db.get(), options);
  pdb::QueryOptions query;
  query.exec.num_threads = 1;
  auto answer = session.Query(H0Query(group), query);
  if (!answer.ok()) Die("reference H0", answer.status());
  return answer->probability;
}

/// CSV body of one /ingest request into E, keys from `first`.
std::string IngestBody(int64_t first, int rows) {
  std::string body;
  body.reserve(static_cast<size_t>(rows) * 24);
  for (int64_t key = first; key < first + rows; ++key) {
    body += std::to_string(key) + "," + std::to_string(key % 97) + ",0.5\n";
  }
  return body;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "read_mix") {
    *out = Workload::kReadMix;
  } else if (name == "unsafe_deadline") {
    *out = Workload::kUnsafeDeadline;
  } else if (name == "ingest_race") {
    *out = Workload::kIngestRace;
  } else {
    return false;
  }
  return true;
}

const char* ClassName(Cls cls) {
  switch (cls) {
    case Cls::kHot: return "hot";
    case Cls::kCold: return "cold";
    case Cls::kAnswers: return "answers";
    case Cls::kExact: return "exact";
    case Cls::kDeadline: return "deadline";
    case Cls::kIngest: return "ingest";
  }
  return "?";
}

std::string HotQuery(HotForm form, int group) {
  const std::string c = Str(group);
  switch (form) {
    case HotForm::kUcqRS: return ColdQuery(group);
    case HotForm::kUcqST: return "S(" + c + ",x,y), T(" + c + ",y)";
    case HotForm::kSqlRS:
      return "SELECT PROB() FROM R, S WHERE R.a0 = " + c + " AND S.a0 = " +
             c + " AND R.a1 = S.a1";
    case HotForm::kSqlT: return "SELECT PROB() FROM T WHERE T.a0 = " + c;
  }
  return "";
}

std::string ColdQuery(int group) {
  const std::string c = Str(group);
  return "R(" + c + ",x), S(" + c + ",x,y)";
}

std::string AnswersQuery(int group) {
  return "SELECT S.a1 FROM R, S WHERE R.a0 = S.a0 AND R.a1 = S.a1 AND "
         "R.a0 = " + Str(group);
}

std::string H0Query(int group) {
  const std::string c = Str(group);
  return "R(" + c + ",x), S(" + c + ",x,y), T(" + c + ",y)";
}

GroupPlan MakeGroupPlan(const Dataset& data, uint64_t seed, int clients) {
  GroupPlan plan;
  SplitMix rng(MixSeed(seed, 3));
  std::vector<int> small = data.small;
  std::vector<int> hard = data.hard;
  Shuffle(&small, &rng);
  Shuffle(&hard, &rng);
  auto take = [](std::vector<int>* from, size_t n) {
    std::vector<int> out(from->begin(), from->begin() + n);
    from->erase(from->begin(), from->begin() + n);
    return out;
  };
  plan.hot = take(&small, kHotGroups);
  plan.reserved = take(&small, 16);
  plan.reserved_hard = take(&hard, 8);
  plan.small = Deal(small, clients);
  plan.hard = Deal(hard, clients);
  std::vector<int> cold = small;
  cold.insert(cold.end(), hard.begin(), hard.end());
  Shuffle(&cold, &rng);
  plan.cold = Deal(cold, clients);
  return plan;
}

std::string HotSession(Workload workload, int client) {
  if (workload == Workload::kIngestRace) return "readers";
  return "c" + Str(client);
}

RequestStream::RequestStream(Workload workload, const GroupPlan& plan,
                             uint64_t seed, int client, int clients)
    : workload_(workload),
      plan_(plan),
      rng_(MixSeed(seed, 100 + static_cast<uint64_t>(client))),
      client_(client),
      writer_(workload == Workload::kIngestRace && client == clients - 1) {}

std::string RequestStream::SessionFor(int pass) const {
  std::string id = "c" + Str(client_);
  if (pass > 0) id += ".p" + Str(pass);
  return id;
}

int RequestStream::Take(const std::vector<int>& slice, size_t* cursor,
                        int* pass) {
  if (*cursor == slice.size()) {
    *cursor = 0;
    ++*pass;
  }
  return slice[(*cursor)++];
}

Cls RequestStream::NextClass() {
  if (dealt_ == deck_.size()) {
    deck_.clear();
    auto put = [&](Cls cls, int n) { deck_.insert(deck_.end(), n, cls); };
    if (workload_ == Workload::kUnsafeDeadline) {
      put(Cls::kExact, 4);     // 80%
      put(Cls::kDeadline, 1);  // 20%
    } else if (workload_ == Workload::kReadMix) {
      put(Cls::kHot, 17);     // 85%
      put(Cls::kCold, 2);     // 10%
      put(Cls::kAnswers, 1);  // 5%
    } else {
      put(Cls::kHot, 1);
    }
    for (size_t i = deck_.size(); i > 1; --i) {
      std::swap(deck_[i - 1], deck_[rng_.Below(i)]);
    }
    dealt_ = 0;
  }
  return deck_[dealt_++];
}

Request RequestStream::Next() {
  Request req;
  req.session = SessionFor(0);
  if (writer_) {
    req.cls = Cls::kIngest;
    req.target = kIngestTarget;
    req.body = IngestBody(next_key_, kIngestRowsPerRequest);
    next_key_ += kIngestRowsPerRequest;
    return req;
  }
  req.cls = NextClass();
  const size_t c = static_cast<size_t>(client_);
  switch (req.cls) {
    case Cls::kExact:
      req.group = Take(plan_.small[c], &small_cursor_, &small_pass_);
      req.session = SessionFor(small_pass_);
      req.body = H0Query(req.group);
      break;
    case Cls::kDeadline:
      req.group = Take(plan_.hard[c], &hard_cursor_, &hard_pass_);
      req.session = SessionFor(hard_pass_);
      req.deadline_ms = kDeadlineMs;
      req.body = H0Query(req.group);
      break;
    case Cls::kHot: {
      req.session = HotSession(workload_, client_);
      int pick = static_cast<int>(rng_.Below(kHotGroups * 4));
      req.group = plan_.hot[static_cast<size_t>(pick / 4)];
      req.form = static_cast<HotForm>(pick % 4);
      req.body = HotQuery(req.form, req.group);
      break;
    }
    case Cls::kCold:
    case Cls::kAnswers:
      req.group = Take(plan_.cold[c], &cold_cursor_, &cold_pass_);
      req.session = SessionFor(cold_pass_);
      req.body = req.cls == Cls::kCold ? ColdQuery(req.group)
                                       : AnswersQuery(req.group);
      break;
    case Cls::kIngest:
      break;
  }
  return req;
}

Engine::Engine(const Dataset& data, bool durable, const std::string& dir)
    : dir_(dir) {
  pdb::ServerOptions options;
  const pdb::ProbDatabase* db = nullptr;
  if (!durable) {
    memory_ = std::make_unique<pdb::ProbDatabase>();
    for (pdb::Relation& rel : BuildRelations(data)) {
      pdb::Status status = memory_->AddRelation(std::move(rel));
      if (!status.ok()) Die("load", status);
    }
    db = memory_.get();
  } else {
    // pdbd --data-dir with its defaults: fsync on every commit group, no
    // group-commit window, no automatic checkpoints, background
    // checkpointing on, and the process-wide WMC cache that pdbd spills.
    pdb::DurableOptions durable_options;
    durable_options.sync_mode = pdb::SyncMode::kAlways;
    durable_options.background_checkpoints = true;
    auto opened = pdb::DurableDatabase::Open(dir, durable_options);
    if (!opened.ok()) Die("open " + dir, opened.status());
    durable_ = std::move(*opened);
    warm_cache_ = std::make_shared<pdb::WmcCache>();
    auto loaded = durable_->LoadWmcCache(warm_cache_.get());
    if (!loaded.ok()) Die("load WMC store", loaded.status());
    for (pdb::Relation& rel : BuildRelations(data)) {
      pdb::Status status = durable_->AddRelation(std::move(rel));
      if (!status.ok()) Die("durable load", status);
    }
    options.sessions.session.external_wmc_cache = warm_cache_;
    options.extra_metrics = &durable_->metrics();
    options.data_dir_mode = "durable";
    options.io_trace = &durable_->io_trace();
    options.durable = durable_.get();
    db = &durable_->pdb();
  }
  server_ = std::make_unique<pdb::PdbServer>(db, options);
  pdb::Status started = server_->Start();
  if (!started.ok()) Die("server start", started);
  if (durable_) spill_thread_ = std::thread([this] { SpillLoop(); });
}

Engine::~Engine() {
  stop_.store(true);
  if (spill_thread_.joinable()) spill_thread_.join();
  server_->Shutdown();
  server_.reset();
  if (durable_) {
    pdb::Status closed = durable_->Close();
    if (!closed.ok()) Die("close", closed);
    durable_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
}

const pdb::ProbDatabase& Engine::db() const {
  return memory_ ? *memory_ : durable_->pdb();
}

void Engine::SpillLoop() {
  // pdbd's main loop: a 100 ms tick, and every 1000 ms (--wmc-spill-ms
  // default) a spill of the WMC cache when it gained entries.
  uint64_t since_ms = 0;
  uint64_t spilled_inserts = 0;
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    since_ms += 100;
    if (since_ms < 1000) continue;
    since_ms = 0;
    uint64_t inserts = warm_cache_->stats().inserts;
    if (inserts != spilled_inserts &&
        durable_->SpillWmcCache(*warm_cache_).ok()) {
      spilled_inserts = inserts;
    }
  }
}

std::vector<Record> RunClients(Workload workload, const GroupPlan& plan,
                               uint64_t seed, int clients, uint16_t port,
                               double seconds, double* elapsed_s) {
  std::vector<std::vector<Record>> per_client(static_cast<size_t>(clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient http(port);
      RequestStream stream(workload, plan, seed, c, clients);
      std::vector<Record>& out = per_client[static_cast<size_t>(c)];
      while (Clock::now() < stop) {
        Record record;
        record.request = stream.Next();
        HttpClient::Headers headers = {
            {"X-Client-Id", record.request.session}};
        if (record.request.deadline_ms > 0) {
          headers.push_back(
              {"X-Deadline-Ms", std::to_string(record.request.deadline_ms)});
        }
        Clock::time_point sent = Clock::now();
        HttpResponse response = http.Send("POST", record.request.target,
                                          headers, record.request.body);
        record.latency_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - sent)
                .count());
        record.status = response.status;
        record.body = std::move(response.body);
        if (record.request.cls == Cls::kIngest) record.request.body.clear();
        out.push_back(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  std::vector<Record> all;
  for (auto& records : per_client) {
    for (Record& r : records) all.push_back(std::move(r));
  }
  return all;
}

namespace {

/// Checks one Boolean answer body against `truth`; `reference`, when
/// non-null, must equal an exact answer bit for bit. Returns "" when the
/// answer is correct: a well-formed interval in [0, 1], an exact answer
/// that is a point on the truth, an estimate within kMaxSigmas standard
/// errors of the truth. An estimate outside its own [lower, upper] is
/// reported in `*interval_break` instead of failing the answer: the Monte
/// Carlo fallback tightens `upper` to the plan bound without clamping the
/// estimate (src/core/pdb.cc), a known engine defect whose rate is measured
/// (error_ratio, interval_break_ratio) until it is fixed. Updates the
/// interval counters of `result`.
std::string CheckBoolean(const std::string& body, double truth,
                         const double* reference, bool must_be_exact,
                         CheckResult* result, std::string* interval_break) {
  double p = 0, lower = 0, upper = 0, std_error = 0;
  if (!JsonNumber(body, "probability", &p) ||
      !JsonNumber(body, "lower", &lower) ||
      !JsonNumber(body, "upper", &upper) ||
      !JsonNumber(body, "std_error", &std_error)) {
    return "unparseable answer: " + body.substr(0, 120);
  }
  const bool exact = JsonTrue(body, "exact");
  std::string problem;
  auto note = [&](const std::string& what) {
    if (!problem.empty()) problem += "; ";
    problem += what;
  };
  if (!(0.0 <= lower && lower <= upper && upper <= 1.0)) {
    note("interval malformed: [" + Fmt(lower) + ", " + Fmt(upper) + "]");
  }
  if (!(lower <= p && p <= upper)) {
    *interval_break = "probability outside its interval: lower=" +
                      Fmt(lower) + " p=" + Fmt(p) + " upper=" + Fmt(upper);
  }
  if (exact && !(lower == p && p == upper)) {
    note("exact answer is not a point: [" + Fmt(lower) + ", " + Fmt(upper) +
         "] p=" + Fmt(p));
  }
  if (must_be_exact && !exact) note("inexact answer p=" + Fmt(p));
  if (exact) {
    if (std::fabs(p - truth) > kTolerance) {
      note("p=" + Fmt(p) + " but closed form=" + Fmt(truth));
    }
    if (reference != nullptr && p != *reference) {
      note("p=" + Fmt(p) + " differs from reference " + Fmt(*reference));
    }
  } else {
    if (std::fabs(p - truth) > kMaxSigmas * std_error + kTolerance) {
      note("estimate p=" + Fmt(p) + " (std_error " + Fmt(std_error) +
           ") is more than " + Str(static_cast<int>(kMaxSigmas)) +
           " standard errors from truth " + Fmt(truth));
    }
    result->inexact += 1;
    result->width_sum += upper - lower;
    if (truth < lower || truth > upper) result->interval_misses += 1;
  }
  return problem;
}

std::string CheckAnswers(const Group& group, const std::string& body) {
  std::map<int, double> rows;
  size_t start = 0;
  std::string problem;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    std::string line = body.substr(start, end - start);
    start = end + 1;
    size_t tuple = line.find("\"tuple\":[");
    if (tuple == std::string::npos) continue;
    int x = std::atoi(line.c_str() + tuple + 9);
    double p = 0;
    if (!JsonNumber(line, "probability", &p) || x < 0 || x >= group.k ||
        rows.count(x)) {
      return "bad answer row: " + line.substr(0, 120);
    }
    rows[x] = p;
    double truth = ProbAnswerX(group, x);
    if (!JsonTrue(line, "exact")) problem += "row " + Str(x) + " inexact; ";
    if (std::fabs(p - truth) > kTolerance) {
      problem += "row " + Str(x) + " p=" + Fmt(p) + " but closed form=" +
                 Fmt(truth) + "; ";
    }
  }
  if (static_cast<int>(rows.size()) != group.k) {
    problem += Str(static_cast<int>(rows.size())) + " rows, expected " +
               Str(group.k);
  }
  return problem;
}

}  // namespace

CheckResult CheckRecords(const Dataset& data,
                         const std::vector<Record>& records) {
  CheckResult result;
  for (const Record& record : records) {
    const Request& req = record.request;
    result.attempted += 1;
    std::string problem, interval_break;
    if (record.status != 200) {
      problem = "HTTP " + Str(record.status) + " " + record.body.substr(0, 120);
    } else if (req.cls == Cls::kIngest) {
      double rows = 0;
      if (!JsonNumber(record.body, "rows", &rows) ||
          rows != kIngestRowsPerRequest) {
        problem = "ingest acknowledged: " + record.body.substr(0, 120);
      } else {
        result.ingest_rows += kIngestRowsPerRequest;
      }
    } else {
      const Group& g = data.groups[static_cast<size_t>(req.group)];
      switch (req.cls) {
        case Cls::kHot: {
          double truth = ProbRS(g);
          if (req.form == HotForm::kUcqST) truth = ProbST(g);
          if (req.form == HotForm::kSqlT) truth = ProbT(g);
          problem = CheckBoolean(record.body, truth, nullptr, true, &result,
                                 &interval_break);
          break;
        }
        case Cls::kCold:
          problem = CheckBoolean(record.body, ProbRS(g), nullptr, true,
                                 &result, &interval_break);
          break;
        case Cls::kAnswers:
          problem = CheckAnswers(g, record.body);
          break;
        case Cls::kExact: {
          double reference = ReferenceH0(data, req.group);
          problem = CheckBoolean(record.body, ProbH0(g), &reference, true,
                                 &result, &interval_break);
          break;
        }
        case Cls::kDeadline:
          problem = CheckBoolean(record.body, ProbH0(g), nullptr, false,
                                 &result, &interval_break);
          break;
        case Cls::kIngest:
          break;
      }
    }
    const std::string who = std::string(ClassName(req.cls)) + " group " +
                            Str(req.group) + " [" + req.session + "]: ";
    if (!problem.empty()) {
      result.failed += 1;
      result.violations.push_back(who + problem);
    }
    if (!interval_break.empty()) {
      result.interval_breaks.push_back(who + interval_break);
    }
    if (!problem.empty() || !interval_break.empty()) result.erroneous += 1;
  }
  return result;
}

}  // namespace perfbench
