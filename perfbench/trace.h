// Spans around the calls into each layer of the Serve path, recorded from
// the benchmark's own code (nothing under src/ is instrumented).
//
// TracedServe performs PlanService::Serve's stages one public call at a
// time — admission, graph build, model, fingerprint, cache probe and
// consistency check, single-flight join, routing, enumeration,
// serialization, materialization, cache insert — against the service's
// own cache, workspace pool, admission controller and single-flight table,
// with a span around each call. Spans live in memory (one recorder per
// client thread) and are written out when the run ends. A layer's self
// time is its span minus the time its child spans cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/optimizer.h"
#include "service/plan_service.h"

namespace perfbench {

/// One span name per public call; the prefix before ':' is the layer.
enum class Layer : uint8_t {
  kServe,              // service:Serve (root; self time = service overhead)
  kBuild,              // hypergraph:BuildHypergraph
  kModel,              // cost:CreateCardinalityModel
  kFingerprint,        // service.fingerprint:FingerprintHypergraph+Salt
  kLookup,             // service.plan_cache:Lookup
  kConsistency,        // service.plan_cache:PlanConsistentWithGraph
  kInsert,             // service.plan_cache:Insert
  kRoute,              // service.dispatch:ChooseRoute
  kEnumerate,          // core:OptimizationSession::Optimize
  kEnumerateParallel,  // core.parallel_dphyp:OptimizationSession::Optimize
  kSerialize,          // plan:SerializePlan
  kMaterialize,        // plan:MaterializePlan
  kExtract,            // plan:ExtractPlanTree (client side, after Serve)
};
inline constexpr int kLayerCount = 13;

const char* SpanName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same recorder; -1 for roots
  uint32_t request = 0;
  Layer layer = Layer::kServe;
};

/// Counts taken at the enumeration boundary of one traced request.
struct EnumerationRecord {
  uint32_t request = 0;
  const char* route = "";
  dphyp::OptimizerStats stats;
};

/// Per-thread span store. Not thread-safe: one per client thread.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span as a child of the innermost open span.
  int32_t Begin(Layer layer, uint32_t request);
  void End(int32_t index);

  void RecordEnumeration(const EnumerationRecord& record) {
    enumerations_.push_back(record);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<EnumerationRecord>& enumerations() const {
    return enumerations_;
  }
  /// Where the next request's spans start; Rollback drops everything
  /// recorded since (a request whose spans the caller does not keep).
  struct Mark {
    size_t spans = 0;
    size_t enumerations = 0;
  };
  Mark Position() const { return {spans_.size(), enumerations_.size()}; }
  void Rollback(Mark mark) {
    spans_.resize(mark.spans);
    enumerations_.resize(mark.enumerations);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<EnumerationRecord> enumerations_;
  int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, Layer layer, uint32_t request)
      : recorder_(recorder), index_(recorder.Begin(layer, request)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t index_;
};

/// Serve's stages through their public calls, each inside a span, under
/// one root span for `request_id`. Mirrors the options the benchmark sets
/// (default admission, no feedback store, no catalog, no deadline).
dphyp::ServiceResult TracedServe(dphyp::PlanService& service,
                                 const dphyp::QueryRequest& request,
                                 SpanRecorder& recorder, uint32_t request_id);

/// Self time per layer for one request, in nanoseconds (summed over the
/// request's spans of that layer); -1 where the request has none.
struct RequestSelfTimes {
  uint32_t request = 0;
  std::array<int64_t, kLayerCount> self_ns{};
  /// Full duration of the request's Serve root span.
  int64_t serve_ns = 0;
};

/// Groups one recorder's spans by request and subtracts child time.
std::vector<RequestSelfTimes> SelfTimesByRequest(const SpanRecorder& recorder);

/// Appends the recorder's spans as tab-separated rows:
/// request, span index, parent index, name, start_ns, end_ns.
void WriteSpans(const SpanRecorder& recorder, int thread, std::FILE* out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
