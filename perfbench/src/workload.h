// Workloads: the request classes, the seeded per-client request streams,
// the in-process server they run against, the closed-loop clients, and the
// answer checks.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data.h"
#include "server/server.h"
#include "storage/durable_db.h"
#include "wmc/wmc_cache.h"

namespace perfbench {

enum class Workload { kReadMix, kUnsafeDeadline, kIngestRace };

bool ParseWorkload(const std::string& name, Workload* out);

enum class Cls { kHot, kCold, kAnswers, kExact, kDeadline, kIngest };

const char* ClassName(Cls cls);

/// The query texts the benchmark sends, by group.
enum class HotForm { kUcqRS, kUcqST, kSqlRS, kSqlT };
std::string HotQuery(HotForm form, int group);
std::string ColdQuery(int group);     // R(c,x), S(c,x,y)
std::string AnswersQuery(int group);  // SELECT S.a1 FROM R, S ... R.a0 = c
std::string H0Query(int group);       // R(c,x), S(c,x,y), T(c,y)

inline constexpr int kHotGroups = 8;  // x 4 forms = 32 hot queries
inline constexpr uint64_t kDeadlineMs = 100;
inline constexpr const char* kIngestTarget =
    "/ingest?relation=E&schema=a0:int,a1:int";
inline constexpr int kIngestRowsPerRequest = 1024;
inline constexpr int kIngestRowsPerBatch = 512;  // pdbd's WriteBatch size

struct Request {
  Cls cls = Cls::kHot;
  int group = -1;
  HotForm form = HotForm::kUcqRS;
  /// Client id sent as X-Client-Id (selects the pooled session).
  std::string session;
  std::string target = "/query";
  std::string body;
  uint64_t deadline_ms = 0;
};

/// The X-Client-Id a client's hot requests use: its own session, except in
/// ingest_race, where the three readers share one (one application, three
/// connections), so a batch's invalidation costs one re-warm, not three.
std::string HotSession(Workload workload, int client);

/// Group ids a workload draws from, fixed by the seed.
struct GroupPlan {
  std::vector<int> hot;       // kHotGroups small groups
  std::vector<int> reserved;  // warm-up and probe groups, small
  std::vector<int> reserved_hard;
  /// Per-client slices of groups that are never repeated within a run.
  std::vector<std::vector<int>> cold;   // read_mix: cold + answers
  std::vector<std::vector<int>> small;  // unsafe_deadline: exact
  std::vector<std::vector<int>> hard;   // unsafe_deadline: deadline
};

GroupPlan MakeGroupPlan(const Dataset& data, uint64_t seed, int clients);

/// One client's seeded request stream.
class RequestStream {
 public:
  RequestStream(Workload workload, const GroupPlan& plan, uint64_t seed,
                int client, int clients);
  Request Next();

 private:
  /// Next group of a never-repeated slice; when the slice is used up the
  /// stream starts over on a fresh pooled session so no cache holds it.
  int Take(const std::vector<int>& slice, size_t* cursor, int* pass);
  std::string SessionFor(int pass) const;

  /// Next class from a shuffled deck holding each class in its exact
  /// share, so every run (and every client) sends the same mix.
  Cls NextClass();

  Workload workload_;
  const GroupPlan& plan_;
  SplitMix rng_;
  std::vector<Cls> deck_;
  size_t dealt_ = 0;
  int client_;
  bool writer_;
  size_t cold_cursor_ = 0, small_cursor_ = 0, hard_cursor_ = 0;
  int cold_pass_ = 0, small_pass_ = 0, hard_pass_ = 0;
  int64_t next_key_ = 0;
};

/// The program under test: an in-process PdbServer with pdbd's defaults,
/// in memory or (ingest_race) durable in a temporary directory with pdbd's
/// `--sync-mode always` and background checkpoints.
class Engine {
 public:
  Engine(const Dataset& data, bool durable, const std::string& dir);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  pdb::PdbServer& server() { return *server_; }
  const pdb::ProbDatabase& db() const;
  pdb::DurableDatabase* durable() { return durable_.get(); }
  uint16_t port() const { return server_->port(); }

 private:
  void SpillLoop();

  std::string dir_;
  std::unique_ptr<pdb::ProbDatabase> memory_;
  std::unique_ptr<pdb::DurableDatabase> durable_;
  std::shared_ptr<pdb::WmcCache> warm_cache_;
  std::unique_ptr<pdb::PdbServer> server_;
  std::atomic<bool> stop_{false};
  std::thread spill_thread_;  // pdbd's periodic WMC spill (durable only)
};

/// One completed request.
struct Record {
  Request request;
  uint64_t latency_ns = 0;
  int status = 0;
  std::string body;
};

/// Runs `clients` closed-loop clients for `seconds`; each waits for a reply
/// before sending its next request.
std::vector<Record> RunClients(Workload workload, const GroupPlan& plan,
                               uint64_t seed, int clients, uint16_t port,
                               double seconds, double* elapsed_s);

/// Answer checks, independent of the engine: closed forms for safe and
/// exact answers, bit-identity with an in-process reference for exact H0
/// answers, estimates within kMaxSigmas standard errors of the truth, and
/// the interval contract 0 <= lower <= p <= upper <= 1.
struct CheckResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  // one line per failed request
  /// Answers whose probability lies outside their own [lower, upper], one
  /// line each. They are counted in `erroneous`, not in `failed`: see
  /// CheckBoolean.
  std::vector<std::string> interval_breaks;
  /// Requests that failed or broke their interval: error_ratio's numerator.
  uint64_t erroneous = 0;
  /// Inexact answers: count, sum of widths, truths outside [lower, upper].
  uint64_t inexact = 0;
  double width_sum = 0;
  uint64_t interval_misses = 0;
  uint64_t ingest_rows = 0;  // rows acknowledged by /ingest
};

CheckResult CheckRecords(const Dataset& data,
                         const std::vector<Record>& records);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
