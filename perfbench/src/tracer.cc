#include "tracer.h"

#include <cstdio>
#include <map>

namespace perfbench {

void Tracer::BeginRequest(const std::string& name) {
  Span span;
  span.id = next_id_++;
  span.request = span.id;
  span.name = name;
  span.start_ns = NowNs();
  open_request_ = spans_.size();
  children_ns_ = 0;
  spans_.push_back(std::move(span));
}

void Tracer::EndRequest() {
  if (open_request_ == SIZE_MAX) return;
  uint64_t end = NowNs();
  Span& request = spans_[open_request_];
  request.duration_ns = end - request.start_ns;
  uint64_t children = children_ns_;
  uint64_t unattributed =
      request.duration_ns > children ? request.duration_ns - children : 0;
  request.self_ns = unattributed;
  if (layers_) {
    Span gap;
    gap.id = next_id_++;
    gap.parent = request.id;
    gap.request = request.id;
    gap.name = "unattributed";
    gap.start_ns = request.start_ns;
    gap.duration_ns = unattributed;
    gap.self_ns = unattributed;
    spans_.push_back(std::move(gap));
  }
  open_request_ = SIZE_MAX;
}

void Tracer::AddChild(const std::string& name, uint64_t start, uint64_t end) {
  if (open_request_ == SIZE_MAX) return;
  Span span;
  span.id = next_id_++;
  span.parent = spans_[open_request_].id;
  span.request = span.parent;
  span.name = name;
  span.start_ns = start;
  span.duration_ns = end - start;
  span.self_ns = span.duration_ns;  // layer calls have no children
  children_ns_ += span.duration_ns;
  spans_.push_back(std::move(span));
}

void Tracer::RenameLastChild(const std::string& name) {
  if (layers_ && !spans_.empty() && spans_.back().parent != 0) {
    spans_.back().name = name;
  }
}

uint64_t Tracer::MaxAccountingGapNs() const {
  std::map<uint64_t, uint64_t> child_sum;
  for (const Span& span : spans_) {
    if (span.parent != 0) child_sum[span.parent] += span.duration_ns;
  }
  uint64_t worst = 0;
  for (const Span& span : spans_) {
    if (span.parent != 0 || child_sum.count(span.id) == 0) continue;
    uint64_t sum = child_sum[span.id];
    uint64_t gap = sum > span.duration_ns ? sum - span.duration_ns
                                          : span.duration_ns - sum;
    if (gap > worst) worst = gap;
  }
  return worst;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%llu,\"duration_ns\":%llu,"
                 "\"self_ns\":%llu}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 span.name.c_str(),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.duration_ns),
                 static_cast<unsigned long long>(span.self_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
