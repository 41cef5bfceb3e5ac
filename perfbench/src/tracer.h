// Replay tracer: spans recorded from the benchmark's own code around calls
// into each engine layer's public functions. Spans of one replayed request
// share its id and name the request span as their parent; when a request
// ends, an `unattributed` span takes up the time no layer call covered, so
// a request's children always sum to its duration. Spans stay in memory
// until `WriteJsonLines`.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 for a request span
    uint64_t request = 0;  // id of the request span this belongs to
    std::string name;
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;
    /// duration minus the time covered by child spans.
    uint64_t self_ns = 0;
  };

  /// With `layers` false only request spans are recorded: the untraced
  /// pass that the tracing overhead is measured against.
  explicit Tracer(bool layers) : layers_(layers), epoch_(Clock::now()) {}

  /// Opens a request span; layer calls until `EndRequest` become its
  /// children.
  void BeginRequest(const std::string& name);
  /// Closes the open request span and adds its `unattributed` child.
  void EndRequest();

  /// Runs `fn` as a child span `name` of the open request.
  template <typename Fn>
  decltype(auto) Call(const std::string& name, Fn&& fn) {
    if (!layers_) return fn();
    uint64_t start = NowNs();
    struct Closer {
      Tracer* tracer;
      const std::string& name;
      uint64_t start;
      ~Closer() { tracer->AddChild(name, start, tracer->NowNs()); }
    } closer{this, name, start};
    return fn();
  }

  /// Renames the most recent layer span (e.g. by the call's outcome).
  void RenameLastChild(const std::string& name);

  const std::vector<Span>& spans() const { return spans_; }

  /// Largest |request duration - sum of its children| over all requests
  /// (0 when the accounting is exact).
  uint64_t MaxAccountingGapNs() const;

  /// Writes one JSON object per span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }
  void AddChild(const std::string& name, uint64_t start, uint64_t end);

  bool layers_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  size_t open_request_ = SIZE_MAX;  // index into spans_
  uint64_t children_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
