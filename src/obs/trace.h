/// \file trace.h
/// \brief Per-query phase tracing: RAII spans over the parse → safety/lift →
/// lineage → compile → DPLL / Monte Carlo pipeline.
///
/// The paper's central story (Suciu, PODS 2020) is that the *same* query can
/// be polynomial via lifted inference or exponential via grounded WMC; a
/// `QueryTrace` makes the regime visible per query: each pipeline phase
/// records a steady-clock span plus its counters (decisions, samples,
/// separator groundings, ...), and the finished trace rides on the
/// `QueryAnswer` and in the session's ring buffer of recent traces for
/// postmortems.
///
/// Tracing is opt-in (`QueryOptions::trace`) and adds work only when a trace
/// is attached to the `ExecContext`: `TraceSpan` against a null trace is
/// inert (two pointer stores), so the untraced hot path stays at its
/// always-on-counter cost. A trace may receive spans from several threads
/// concurrently (the per-tuple fan-out of QueryWithAnswers); recording takes
/// a short internal mutex, acceptable because tracing is opt-in.

#ifndef PDB_OBS_TRACE_H_
#define PDB_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace pdb {

/// Pipeline phases a span can cover.
enum class TracePhase {
  kParse,        ///< query text -> FO sentence / SQL AST
  kSafetyCheck,  ///< a lifted attempt that failed Unsupported (= unsafe)
  kLifted,       ///< successful lifted (extensional) inference
  kLineage,      ///< grounding the sentence into a Boolean lineage
  kCompile,      ///< SQL -> CQ compilation against the catalog
  kDpll,         ///< exact grounded WMC (DPLL search)
  kMonteCarlo,   ///< sampling fallback (naive MC or Karp-Luby)
  kCacheProbe,   ///< session result-cache lookup
  kWalAppend,    ///< write-ahead-log record append (durable storage)
  kWalSync,      ///< WAL fsync
  kCheckpoint,   ///< snapshot write + WAL roll + retention GC
  kRecovery,     ///< recovery replay during DurableDatabase::Open
  kAdmissionWait,  ///< queueing for an admission slot (server)
  kHttpParse,    ///< reading + parsing the HTTP request off the socket
  kHttpRespond,  ///< rendering + writing the HTTP response
};
inline constexpr size_t kNumTracePhases = 15;

const char* TracePhaseName(TracePhase phase);

/// Inverse of TracePhaseName. Returns false when `name` is not a phase.
bool TracePhaseFromName(std::string_view name, TracePhase* phase);

/// The recorded trace of one query execution. Create before the first
/// phase, `Finish()` when the query completes; spans in between come from
/// `TraceSpan`. All methods are thread-safe.
class QueryTrace {
 public:
  using Clock = std::chrono::steady_clock;

  struct SpanCounter {
    std::string name;
    uint64_t value = 0;
  };

  /// One completed phase span. Times are nanoseconds relative to the
  /// trace's creation.
  struct Span {
    TracePhase phase = TracePhase::kParse;
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;
    std::vector<SpanCounter> counters;
  };

  QueryTrace() : epoch_(Clock::now()) {}
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Latches the end-to-end duration. Idempotent (first call wins).
  void Finish();

  /// End-to-end nanoseconds: creation to `Finish()`, or to now while the
  /// query is still running.
  uint64_t total_ns() const;

  /// Completed spans, ordered by start time.
  std::vector<Span> spans() const;

  /// Total nanoseconds spent in `phase` (sum over its spans).
  uint64_t PhaseNs(TracePhase phase) const;

  /// Nanoseconds since the trace's creation on its steady clock. Pair with
  /// `RecordSpan` to note a start before the span's phase is known (e.g.
  /// the server marks request arrival, then records the parse span only
  /// once the request line has actually been read).
  uint64_t NowNs() const { return SinceEpochNs(); }

  /// Records an already-elapsed span retroactively: `[start_ns,
  /// start_ns + duration_ns)` on the trace's own clock (see `NowNs`).
  /// For phases whose extent is only known after the fact; live phases
  /// should prefer the RAII `TraceSpan`.
  void RecordSpan(TracePhase phase, uint64_t start_ns, uint64_t duration_ns,
                  std::vector<SpanCounter> counters = {});

  /// Sum over spans not strictly contained in any other span — the
  /// per-phase breakdown of the end-to-end latency (nested spans, e.g. the
  /// per-tuple phases inside a fan-out, are excluded so nothing is counted
  /// twice).
  uint64_t TopLevelNs() const;

  /// Human-readable rendering: one line per span, indented by nesting
  /// depth, with counters. E.g.
  ///   dpll          12.381ms  (decisions=40960, cache_hits=512)
  std::string ToString() const;

 private:
  friend class TraceSpan;

  void AddSpan(Span span);
  uint64_t SinceEpochNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;     // guarded by mu_
  uint64_t total_ns_ = 0;       // guarded by mu_
  bool finished_ = false;       // guarded by mu_
};

/// The plain data of a trace, decoupled from the live clock: what survives
/// a round trip through JSON. `FromTrace` snapshots a (finished or still
/// running) QueryTrace.
struct TraceData {
  uint64_t total_ns = 0;
  /// Spans ordered by start time (the order `QueryTrace::spans()` yields).
  std::vector<QueryTrace::Span> spans;

  static TraceData FromTrace(const QueryTrace& trace);

  /// {"total_ns":N,"spans":[{"phase":"dpll","start_ns":N,"duration_ns":N,
  /// "counters":[{"name":"decisions","value":N}]},...]}
  std::string ToJson() const;
};

/// JSON rendering of a trace (shorthand for FromTrace(...).ToJson()),
/// reused by the server's /debug/traces endpoint.
std::string TraceToJson(const QueryTrace& trace);

/// Parses `ToJson` output back into a TraceData. Strict: unknown phases,
/// missing fields, or malformed JSON are InvalidArgument.
Result<TraceData> TraceFromJson(const std::string& json);

/// RAII span: notes the start on construction, records the completed span
/// into the trace on destruction (or an explicit `End()`). A null trace
/// makes every operation a no-op, so call sites need no branches.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, TracePhase phase) : trace_(trace) {
    if (trace_ == nullptr) return;
    span_.phase = phase;
    span_.start_ns = trace_->SinceEpochNs();
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Reclassifies the span before it ends (e.g. a lifted attempt that
  /// failed Unsupported becomes the safety check).
  void SetPhase(TracePhase phase) {
    if (trace_) span_.phase = phase;
  }

  /// Attaches a named counter to the span.
  void AddCounter(std::string name, uint64_t value) {
    if (trace_) span_.counters.push_back({std::move(name), value});
  }

  /// Records the span now; later calls (and the destructor) do nothing.
  void End() {
    if (trace_ == nullptr) return;
    span_.duration_ns = trace_->SinceEpochNs() - span_.start_ns;
    trace_->AddSpan(std::move(span_));
    trace_ = nullptr;
  }

 private:
  QueryTrace* trace_;
  QueryTrace::Span span_;
};

}  // namespace pdb

#endif  // PDB_OBS_TRACE_H_
