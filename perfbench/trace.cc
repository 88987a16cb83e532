#include "perfbench/trace.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "cost/model_registry.h"
#include "hypergraph/builder.h"
#include "service/dispatch.h"
#include "service/session.h"

namespace perfbench {

using dphyp::CachedPlan;
using dphyp::Fingerprint;
using dphyp::ServiceResult;

const char* SpanName(Layer layer) {
  switch (layer) {
    case Layer::kServe: return "service:Serve";
    case Layer::kBuild: return "hypergraph:BuildHypergraph";
    case Layer::kModel: return "cost:CreateCardinalityModel";
    case Layer::kFingerprint: return "service.fingerprint:FingerprintHypergraph";
    case Layer::kLookup: return "service.plan_cache:Lookup";
    case Layer::kConsistency: return "service.plan_cache:PlanConsistentWithGraph";
    case Layer::kInsert: return "service.plan_cache:Insert";
    case Layer::kRoute: return "service.dispatch:ChooseRoute";
    case Layer::kEnumerate: return "core:Optimize";
    case Layer::kEnumerateParallel: return "core.parallel_dphyp:Optimize";
    case Layer::kSerialize: return "plan:SerializePlan";
    case Layer::kMaterialize: return "plan:MaterializePlan";
    case Layer::kExtract: return "plan:ExtractPlanTree";
  }
  return "?";
}

int32_t SpanRecorder::Begin(Layer layer, uint32_t request) {
  Span span;
  span.layer = layer;
  span.request = request;
  span.parent = open_;
  span.start_ns = Now();
  spans_.push_back(span);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void SpanRecorder::End(int32_t index) {
  spans_[index].end_ns = Now();
  open_ = spans_[index].parent;
}

namespace {

/// Fills the result fields a hit (cached or coalesced) reports.
void ServeCachedPlan(const CachedPlan& plan, SpanRecorder& rec, uint32_t id,
                     ServiceResult& out) {
  {
    ScopedSpan span(rec, Layer::kMaterialize, id);
    out.result = dphyp::MaterializePlan(plan);
  }
  out.success = true;
  out.cost = plan.cost;
  out.cardinality = plan.cardinality;
  out.algorithm = plan.stats.algorithm;
}

}  // namespace

ServiceResult TracedServe(dphyp::PlanService& service,
                          const dphyp::QueryRequest& request,
                          SpanRecorder& rec, uint32_t id) {
  ScopedSpan root(rec, Layer::kServe, id);
  ServiceResult out;
  const dphyp::ServiceOptions& options = service.options();

  dphyp::AdmissionDecision decision =
      service.admission().Admit(request.tenant);
  if (decision.verdict == dphyp::AdmissionVerdict::kReject) {
    out.rejected = true;
    out.error = decision.reason;
    out.retry_after_ms = decision.retry_after_ms;
    return out;
  }
  dphyp::AdmissionSlot slot(service.admission(), decision);
  const dphyp::QuerySpec& spec = *request.spec;

  std::optional<dphyp::Result<dphyp::Hypergraph>> built;
  {
    ScopedSpan span(rec, Layer::kBuild, id);
    built.emplace(dphyp::BuildHypergraph(spec));
  }
  if (!built->ok()) {
    out.error = built->error().message;
    return out;
  }
  const dphyp::Hypergraph& graph = built->value();

  std::optional<dphyp::Result<std::unique_ptr<dphyp::CardinalityModel>>> model;
  {
    ScopedSpan span(rec, Layer::kModel, id);
    dphyp::CardinalityModelInputs inputs;
    inputs.graph = &graph;
    inputs.spec = &spec;
    inputs.catalog = options.catalog != nullptr ? options.catalog.get()
                                                : spec.catalog.get();
    inputs.feedback = options.feedback.get();
    std::string_view name =
        request.model.empty() ? std::string_view(options.cardinality_model)
                              : std::string_view(request.model);
    model.emplace(dphyp::CreateCardinalityModel(name, inputs));
  }
  if (!model->ok()) {
    out.error = model->error().message;
    return out;
  }
  const dphyp::CardinalityModel& est = *model->value();
  out.model = est.name();

  const bool cache_enabled = options.cache_byte_budget > 0;
  Fingerprint key;
  if (cache_enabled) {
    {
      ScopedSpan span(rec, Layer::kFingerprint, id);
      key = dphyp::SaltFingerprint(
          dphyp::SaltFingerprint(dphyp::FingerprintHypergraph(graph),
                                 est.Fingerprint()),
          service.stats_version());
    }
    CachedPlan cached;
    bool hit = false;
    {
      ScopedSpan span(rec, Layer::kLookup, id);
      hit = service.cache().Lookup(key, &cached);
    }
    if (hit) {
      bool consistent = false;
      {
        ScopedSpan span(rec, Layer::kConsistency, id);
        consistent = dphyp::PlanConsistentWithGraph(cached, graph, est);
      }
      if (consistent) {
        ServeCachedPlan(cached, rec, id, out);
        out.cache_hit = true;
        return out;
      }
    }
  }

  std::optional<dphyp::SingleFlightTable::Ticket> ticket;
  if (cache_enabled && options.coalesce) {
    ticket.emplace(service.inflight().Join(key));
    if (!ticket->leader()) {
      std::shared_ptr<const dphyp::FlightOutcome> shared = ticket->Wait();
      bool consistent = false;
      if (shared->success) {
        ScopedSpan span(rec, Layer::kConsistency, id);
        consistent = dphyp::PlanConsistentWithGraph(shared->plan, graph, est);
      }
      if (consistent) {
        ServeCachedPlan(shared->plan, rec, id, out);
        out.coalesced = true;
        return out;
      }
      ticket.reset();
    }
  }

  dphyp::WorkspacePool::Lease lease = service.workspaces().Acquire();
  dphyp::OptimizationSession session(lease.get());
  dphyp::OptimizationRequest optimize;
  optimize.graph = &graph;
  optimize.estimator = &est;
  optimize.cost_model = &dphyp::DefaultCostModel();
  optimize.policy = options.dispatch;
  optimize.deadline_ms = options.deadline_ms;
  optimize.options.parallel_threads = options.parallel_threads;
  {
    // The session's own auction, made explicit so routing gets a span.
    ScopedSpan span(rec, Layer::kRoute, id);
    dphyp::DispatchPolicy policy = optimize.policy;
    if (optimize.options.parallel_threads > 0) {
      policy.parallel_workers_hint = optimize.options.parallel_threads;
    }
    optimize.enumerator = dphyp::ChooseRoute(graph, policy).Name();
  }
  const Layer enumerate_layer = optimize.enumerator == "dphyp-par"
                                    ? Layer::kEnumerateParallel
                                    : Layer::kEnumerate;
  std::optional<dphyp::Result<dphyp::OptimizeResult>> optimized;
  {
    ScopedSpan span(rec, enumerate_layer, id);
    optimized.emplace(session.Optimize(optimize));
  }
  if (!optimized->ok()) {
    out.error = optimized->error().message;
    if (ticket) {
      dphyp::FlightOutcome failure;
      failure.error = out.error;
      ticket->Publish(std::move(failure));
    }
    return out;
  }
  dphyp::OptimizeResult& result = optimized->value();
  rec.RecordEnumeration({id, result.stats.algorithm, result.stats});

  out.success = result.success;
  out.error = result.error;
  out.cost = result.cost;
  out.cardinality = result.cardinality;
  out.algorithm = result.stats.algorithm;
  if (!result.success) {
    out.result = std::move(result);
    out.result.DropTable();
    if (ticket) {
      dphyp::FlightOutcome failure;
      failure.error = out.error;
      ticket->Publish(std::move(failure));
    }
    return out;
  }
  CachedPlan serialized;
  {
    ScopedSpan span(rec, Layer::kSerialize, id);
    serialized = dphyp::SerializePlan(result);
  }
  {
    ScopedSpan span(rec, Layer::kMaterialize, id);
    out.result = dphyp::MaterializePlan(serialized);
  }
  if (cache_enabled && !result.stats.aborted) {
    ScopedSpan span(rec, Layer::kInsert, id);
    service.cache().Insert(key, serialized);
  }
  if (ticket) {
    dphyp::FlightOutcome outcome;
    outcome.success = true;
    outcome.plan = std::move(serialized);
    outcome.model = out.model;
    ticket->Publish(std::move(outcome));
  }
  return out;
}

std::vector<RequestSelfTimes> SelfTimesByRequest(const SpanRecorder& recorder) {
  const std::vector<Span>& spans = recorder.spans();
  // Child time per span. Children of one span ran one after another on
  // the recorder's thread, so their summed durations are the part of the
  // parent's interval they cover.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<RequestSelfTimes> out;
  std::unordered_map<uint32_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto [it, inserted] = index.try_emplace(s.request, out.size());
    if (inserted) {
      RequestSelfTimes r;
      r.request = s.request;
      r.self_ns.fill(-1);
      out.push_back(r);
    }
    RequestSelfTimes& r = out[it->second];
    int64_t& slot = r.self_ns[static_cast<int>(s.layer)];
    slot = std::max<int64_t>(slot, 0) + (s.end_ns - s.start_ns - child_ns[i]);
    if (s.layer == Layer::kServe) r.serve_ns += s.end_ns - s.start_ns;
  }
  return out;
}

void WriteSpans(const SpanRecorder& recorder, int thread, std::FILE* out) {
  const std::vector<Span>& spans = recorder.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%d\t%u\t%zu\t%d\t%s\t%lld\t%lld\n", thread, s.request,
                 i, s.parent, SpanName(s.layer),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
}

}  // namespace perfbench
