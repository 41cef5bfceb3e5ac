// In-process replay of a seeded sample of a workload's requests for the
// traced run. Each replayed request is a sequence of calls into the engine
// layers' public functions, in the order the engine's own route makes them
// (parse, compile, session, lifted, lineage, DPLL, plan bounds, sampling,
// durable insert), each call one span of the request.
//
// A layer the workload's route never reaches is measured by a `probe`
// request on the same database (reserved groups, or the route's own
// grounded queries for the join), so every per-layer metric is a measured
// number on every workload; the route's spans are used whenever it has
// any.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "storage/index_cache.h"
#include "tracer.h"
#include "wmc/wmc_cache.h"
#include "workload.h"

namespace perfbench {

class Replayer {
 public:
  /// `layers` false records only request spans (the untraced pass).
  /// `ingest_key` is the first E key this replayer may insert.
  Replayer(const GroupPlan& plan, Engine* engine, bool layers,
           int64_t ingest_key);

  /// Replays one route request.
  void Replay(const Request& request);

  /// Runs probe requests for every layer function the route did not call.
  /// `scratch_dir` holds the throwaway durable store an in-memory
  /// workload's storage probe writes to.
  void Probe(const std::string& scratch_dir);

  Tracer& tracer() { return tracer_; }
  /// Samples drawn per replayed Karp-Luby call.
  const std::vector<uint64_t>& karp_luby_samples() const {
    return kl_samples_;
  }
  /// Prometheus text of the storage probe's own registry ("" when the
  /// workload's route wrote through the server's durable store instead).
  const std::string& probe_storage_metrics() const {
    return probe_storage_metrics_;
  }

  /// Span name of each per-layer function.
  static const std::vector<std::string>& LayerFunctions();

 private:
  /// Fills the hot session with the hot set, as the timed run's sessions
  /// are warm (on first use).
  void WarmHot();
  void Grounded(const std::string& text, bool deadline);
  bool Called(const std::string& name) const;
  /// A session call, named by whether it was answered from the cache.
  void SessionQuery(pdb::Session* session, const pdb::FoPtr& sentence);

  const GroupPlan& plan_;
  Engine* engine_;
  const pdb::ProbDatabase& db_;
  Tracer tracer_;
  pdb::QueryOptions options_;
  std::unique_ptr<pdb::Session> hot_session_;  // null until warmed
  pdb::IndexCache index_cache_;
  pdb::WmcCache wmc_cache_;
  int64_t ingest_key_;
  std::vector<std::string> grounded_texts_;
  std::vector<uint64_t> kl_samples_;
  std::string probe_storage_metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
