#include "replay.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "boolean/lineage.h"
#include "lifted/lifted.h"
#include "logic/cq.h"
#include "plans/bounds.h"
#include "sql/sql.h"
#include "wmc/dpll.h"
#include "wmc/montecarlo.h"
#include "wmc/weights.h"

namespace perfbench {

namespace {

constexpr const char* kParse = "logic.ParseBooleanQuery";
constexpr const char* kCompile = "sql.ParseSql+CompileSql";
constexpr const char* kToUcq = "logic.FoToUcq";
constexpr const char* kSessionHit = "core.Session::QueryFo[hit]";
constexpr const char* kSessionMiss = "core.Session::QueryFo[miss]";
constexpr const char* kLiftedSafe = "lifted.LiftedProbabilityFo[safe]";
constexpr const char* kLiftedUnsafe = "lifted.LiftedProbabilityFo[unsafe]";
constexpr const char* kAnswers = "core.Session::QueryWithAnswers";
constexpr const char* kJoin = "boolean.EnumerateCqMatches";
constexpr const char* kLineage = "boolean.BuildUcqLineage";
constexpr const char* kDnf = "boolean.BuildUcqDnf";
constexpr const char* kDpll = "wmc.DpllCounter::Compute";
constexpr const char* kKarpLuby = "wmc.KarpLubyDnf";
constexpr const char* kPlanBounds = "plans.ComputePlanBounds";
constexpr const char* kInsertMany = "storage.DurableDatabase::InsertMany";

template <typename T>
T Must(pdb::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: replay %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

void MustOk(const pdb::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: replay %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

/// The engine's session options as pdbd configures them.
pdb::SessionOptions ServerSessionOptions() {
  return pdb::DefaultServerSessions().session;
}

std::vector<std::pair<pdb::Tuple, double>> IngestRows(int64_t first,
                                                      int rows) {
  std::vector<std::pair<pdb::Tuple, double>> out;
  for (int64_t key = first; key < first + rows; ++key) {
    out.push_back({{pdb::Value(key), pdb::Value(key % 97)}, 0.5});
  }
  return out;
}

}  // namespace

const std::vector<std::string>& Replayer::LayerFunctions() {
  static const std::vector<std::string> names = {
      kParse,     kCompile, kSessionHit, kLiftedSafe, kLiftedUnsafe,
      kAnswers,   kJoin,    kLineage,    kDnf,        kDpll,
      kKarpLuby,  kPlanBounds, kInsertMany};
  return names;
}

Replayer::Replayer(const GroupPlan& plan, Engine* engine, bool layers,
                   int64_t ingest_key)
    : plan_(plan),
      engine_(engine),
      db_(engine->db()),
      tracer_(layers),
      ingest_key_(ingest_key) {
  options_.exec.num_threads = 1;  // as pdbd runs every query
}

void Replayer::WarmHot() {
  hot_session_ = std::make_unique<pdb::Session>(&db_, ServerSessionOptions());
  for (int group : plan_.hot) {
    for (int form = 0; form < 4; ++form) {
      std::string text = HotQuery(static_cast<HotForm>(form), group);
      if (form >= 2) {
        MustOk(hot_session_->QuerySqlBoolean(text, options_).status(),
               "warm");
      } else {
        MustOk(hot_session_->Query(text, options_).status(), "warm");
      }
    }
  }
}

void Replayer::SessionQuery(pdb::Session* session,
                            const pdb::FoPtr& sentence) {
  uint64_t hits = session->result_cache_hits();
  Must(tracer_.Call(kSessionMiss,
                    [&] { return session->QueryFo(sentence, options_); }),
       "session query");
  if (session->result_cache_hits() > hits) {
    tracer_.RenameLastChild(kSessionHit);
  }
}

void Replayer::Replay(const Request& request) {
  if (request.cls == Cls::kHot && hot_session_ == nullptr) WarmHot();
  // An answers request runs on a fresh session (its groups are never
  // repeated, so nothing it asks is cached).
  std::unique_ptr<pdb::Session> fresh;
  if (request.cls == Cls::kAnswers) {
    fresh = std::make_unique<pdb::Session>(&db_, ServerSessionOptions());
  }
  tracer_.BeginRequest(ClassName(request.cls));
  switch (request.cls) {
    case Cls::kHot:
      if (request.form == HotForm::kSqlRS || request.form == HotForm::kSqlT) {
        pdb::CompiledSql sql = Must(tracer_.Call(kCompile,
                                                 [&] {
                                                   return pdb::CompileSql(
                                                       request.body,
                                                       db_.database());
                                                 }),
                                    "compile");
        SessionQuery(hot_session_.get(), sql.cq.ToFo());
      } else {
        pdb::FoPtr fo = Must(tracer_.Call(kParse,
                                          [&] {
                                            return pdb::ParseBooleanQuery(
                                                request.body);
                                          }),
                             "parse");
        SessionQuery(hot_session_.get(), fo);
      }
      break;
    case Cls::kCold: {
      pdb::FoPtr fo = Must(tracer_.Call(kParse,
                                        [&] {
                                          return pdb::ParseBooleanQuery(
                                              request.body);
                                        }),
                           "parse");
      Must(tracer_.Call(kLiftedSafe,
                        [&] {
                          return pdb::LiftedProbabilityFo(fo,
                                                          db_.database());
                        }),
           "lifted");
      break;
    }
    case Cls::kAnswers: {
      pdb::CompiledSql sql = Must(tracer_.Call(kCompile,
                                               [&] {
                                                 return pdb::CompileSql(
                                                     request.body,
                                                     db_.database());
                                               }),
                                  "compile");
      Must(tracer_.Call(kAnswers,
                        [&] {
                          return fresh->QueryWithAnswers(
                              sql.cq, sql.head_vars, options_);
                        }),
           "answers");
      break;
    }
    case Cls::kExact:
    case Cls::kDeadline:
      Grounded(request.body, request.cls == Cls::kDeadline);
      grounded_texts_.push_back(request.body);
      break;
    case Cls::kIngest: {
      auto rows = IngestRows(ingest_key_, kIngestRowsPerBatch);
      ingest_key_ += kIngestRowsPerBatch;
      MustOk(tracer_.Call(kInsertMany,
                          [&] {
                            return engine_->durable()->InsertMany(
                                "E", std::move(rows));
                          }),
             "insert");
      break;
    }
  }
  tracer_.EndRequest();
}

void Replayer::Grounded(const std::string& text, bool deadline) {
  // The engine's unsafe route (ProbDatabase::QueryFoWithContext): a lifted
  // attempt that fails Unsupported, one grounding for DPLL and, when the
  // deadline kills DPLL, plan bounds plus a second grounding for
  // Karp-Luby.
  pdb::ExecContext ctx;
  ctx.set_index_cache(&index_cache_);
  ctx.set_wmc_cache(&wmc_cache_);
  if (deadline) ctx.SetDeadline(kDeadlineMs);
  pdb::FoPtr fo = Must(
      tracer_.Call(kParse, [&] { return pdb::ParseBooleanQuery(text); }),
      "parse");
  auto lifted = tracer_.Call(kLiftedUnsafe, [&] {
    return pdb::LiftedProbabilityFo(fo, db_.database());
  });
  if (lifted.ok() ||
      lifted.status().code() != pdb::StatusCode::kUnsupported) {
    std::fprintf(stderr, "perfbench: replay: H0 did not fail as unsafe\n");
    std::exit(1);
  }
  pdb::Ucq ucq =
      Must(tracer_.Call(kToUcq, [&] { return pdb::FoToUcq(fo); }), "ucq");
  pdb::GroundingOptions grounding;
  grounding.exec = &ctx;
  pdb::FormulaManager mgr;
  pdb::Lineage lineage = Must(tracer_.Call(kLineage,
                                           [&] {
                                             return pdb::BuildUcqLineage(
                                                 ucq, db_.database(), &mgr,
                                                 grounding);
                                           }),
                              "lineage");
  pdb::DpllOptions dpll;
  dpll.max_decisions = options_.max_dpll_decisions;
  dpll.exec = &ctx;
  dpll.shared_cache = &wmc_cache_;
  pdb::DpllCounter counter(&mgr, pdb::WeightsFromProbabilities(lineage.probs),
                           dpll);
  auto exact =
      tracer_.Call(kDpll, [&] { return counter.Compute(lineage.root); });
  if (exact.ok()) return;
  if (exact.status().code() != pdb::StatusCode::kDeadlineExceeded) {
    MustOk(exact.status(), "dpll");
  }
  ctx.ClearDeadline();
  Must(tracer_.Call(kPlanBounds,
                    [&] {
                      return pdb::ComputePlanBounds(ucq.disjuncts()[0],
                                                    db_.database());
                    }),
       "plan bounds");
  pdb::DnfLineage dnf = Must(tracer_.Call(kDnf,
                                          [&] {
                                            return pdb::BuildUcqDnf(
                                                ucq, db_.database(),
                                                grounding);
                                          }),
                             "dnf");
  pdb::Rng rng(options_.monte_carlo_seed);
  pdb::Estimate estimate = Must(tracer_.Call(kKarpLuby,
                                             [&] {
                                               return pdb::KarpLubyDnf(
                                                   dnf.terms, dnf.probs,
                                                   options_
                                                       .monte_carlo_samples,
                                                   &rng, &ctx);
                                             }),
                                "karp-luby");
  kl_samples_.push_back(estimate.samples);
}

bool Replayer::Called(const std::string& name) const {
  for (const Tracer::Span& span : tracer_.spans()) {
    if (span.name == name) return true;
  }
  return false;
}

void Replayer::Probe(const std::string& scratch_dir) {
  // The join is a step inside BuildUcqLineage, never a call of its own on
  // the route; it is probed on the route's grounded queries when there are
  // any.
  std::vector<std::string> join_texts = grounded_texts_;
  std::vector<int> groups(plan_.reserved.begin(), plan_.reserved.begin() + 4);
  if (join_texts.empty()) {
    for (int g : groups) join_texts.push_back(ColdQuery(g));
  }
  for (const std::string& text : join_texts) {
    pdb::Ucq ucq = Must(pdb::FoToUcq(Must(pdb::ParseBooleanQuery(text),
                                          "parse")),
                        "ucq");
    pdb::ExecContext ctx;
    ctx.set_index_cache(&index_cache_);
    pdb::GroundingOptions grounding;
    grounding.exec = &ctx;
    size_t matches = 0;
    tracer_.BeginRequest("probe");
    MustOk(tracer_.Call(kJoin,
                        [&] {
                          return pdb::EnumerateCqMatches(
                              ucq.disjuncts()[0], db_.database(),
                              [&](const pdb::CqMatch&) { ++matches; },
                              grounding);
                        }),
           "join");
    tracer_.EndRequest();
  }

  // Every other layer function the route skipped, on reserved groups:
  // safe queries for the session, SQL and lifted layers, R,S lineage for
  // grounding, DPLL, sampling and plan bounds (cheap and exact on every
  // group), H0 for the safety check.
  std::set<std::string> missing;
  for (const std::string& name : LayerFunctions()) {
    if (!Called(name)) missing.insert(name);
  }
  auto want = [&](const char* name) { return missing.count(name) > 0; };
  pdb::Session probe_session(&db_, ServerSessionOptions());
  for (int g : groups) {
    const std::string rs = ColdQuery(g);
    pdb::FoPtr rs_fo = Must(pdb::ParseBooleanQuery(rs), "parse");
    pdb::Ucq rs_ucq = Must(pdb::FoToUcq(rs_fo), "ucq");
    if (want(kSessionHit)) {
      MustOk(probe_session.QueryFo(rs_fo, options_).status(), "warm");
    }
    std::unique_ptr<pdb::Session> fresh;
    if (want(kAnswers)) {
      fresh = std::make_unique<pdb::Session>(&db_, ServerSessionOptions());
    }
    tracer_.BeginRequest("probe");
    if (want(kParse)) {
      Must(tracer_.Call(kParse, [&] { return pdb::ParseBooleanQuery(rs); }),
           "parse");
    }
    if (want(kCompile)) {
      Must(tracer_.Call(kCompile,
                        [&] {
                          return pdb::CompileSql(HotQuery(HotForm::kSqlRS, g),
                                                 db_.database());
                        }),
           "compile");
    }
    if (want(kSessionHit)) SessionQuery(&probe_session, rs_fo);
    if (want(kLiftedSafe)) {
      Must(tracer_.Call(kLiftedSafe,
                        [&] {
                          return pdb::LiftedProbabilityFo(rs_fo,
                                                          db_.database());
                        }),
           "lifted");
    }
    if (want(kLiftedUnsafe)) {
      pdb::FoPtr h0 = Must(pdb::ParseBooleanQuery(H0Query(g)), "parse");
      auto unsafe = tracer_.Call(kLiftedUnsafe, [&] {
        return pdb::LiftedProbabilityFo(h0, db_.database());
      });
      (void)unsafe;
    }
    if (want(kAnswers)) {
      pdb::CompiledSql sql =
          Must(pdb::CompileSql(AnswersQuery(g), db_.database()), "compile");
      Must(tracer_.Call(kAnswers,
                        [&] {
                          return fresh->QueryWithAnswers(
                              sql.cq, sql.head_vars, options_);
                        }),
           "answers");
    }
    pdb::ExecContext ctx;
    ctx.set_index_cache(&index_cache_);
    ctx.set_wmc_cache(&wmc_cache_);
    pdb::GroundingOptions grounding;
    grounding.exec = &ctx;
    pdb::FormulaManager mgr;
    pdb::Lineage lineage;
    if (want(kLineage) || want(kDpll)) {
      lineage = Must(tracer_.Call(kLineage,
                                  [&] {
                                    return pdb::BuildUcqLineage(
                                        rs_ucq, db_.database(), &mgr,
                                        grounding);
                                  }),
                     "lineage");
    }
    if (want(kDpll)) {
      pdb::DpllOptions dpll;
      dpll.exec = &ctx;
      dpll.shared_cache = &wmc_cache_;
      pdb::DpllCounter counter(
          &mgr, pdb::WeightsFromProbabilities(lineage.probs), dpll);
      Must(tracer_.Call(kDpll, [&] { return counter.Compute(lineage.root); }),
           "dpll");
    }
    if (want(kPlanBounds)) {
      Must(tracer_.Call(kPlanBounds,
                        [&] {
                          return pdb::ComputePlanBounds(rs_ucq.disjuncts()[0],
                                                        db_.database());
                        }),
           "plan bounds");
    }
    if (want(kDnf) || want(kKarpLuby)) {
      pdb::DnfLineage dnf = Must(tracer_.Call(kDnf,
                                              [&] {
                                                return pdb::BuildUcqDnf(
                                                    rs_ucq, db_.database(),
                                                    grounding);
                                              }),
                                 "dnf");
      if (want(kKarpLuby)) {
        pdb::Rng rng(options_.monte_carlo_seed);
        pdb::Estimate estimate = Must(
            tracer_.Call(kKarpLuby,
                         [&] {
                           return pdb::KarpLubyDnf(
                               dnf.terms, dnf.probs,
                               options_.monte_carlo_samples, &rng, &ctx);
                         }),
            "karp-luby");
        kl_samples_.push_back(estimate.samples);
      }
    }
    tracer_.EndRequest();
  }

  if (want(kInsertMany)) {
    // An in-memory workload has no durable store: probe a throwaway one
    // with pdbd's flush policy.
    std::string dir = scratch_dir + "/storage-probe";
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    pdb::DurableOptions options;
    options.sync_mode = pdb::SyncMode::kAlways;
    auto store = Must(pdb::DurableDatabase::Open(dir, options), "open");
    MustOk(store->CreateRelation("E", pdb::Schema::Anonymous(2)), "create");
    for (int i = 0; i < 8; ++i) {
      auto rows = IngestRows(ingest_key_, kIngestRowsPerBatch);
      ingest_key_ += kIngestRowsPerBatch;
      tracer_.BeginRequest("probe");
      MustOk(tracer_.Call(kInsertMany,
                          [&] {
                            return store->InsertMany("E", std::move(rows));
                          }),
             "insert");
      tracer_.EndRequest();
    }
    probe_storage_metrics_ = store->metrics().Snapshot().RenderPrometheus();
    MustOk(store->Close(), "close");
    store.reset();
    std::filesystem::remove_all(dir, ignored);
  }
}

}  // namespace perfbench
