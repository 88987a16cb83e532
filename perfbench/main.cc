// The Serve-path benchmark: seeded closed-loop clients send
// QueryRequests through PlanService::Serve, every served plan is checked,
// and one JSON line of metrics ends the output.
//
//   perfbench --workload cold-mix|hot-zipf|dense-parallel --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//             [--git-commit ID] [--source-digest HEX]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// and a traced phase (half of --seconds each) and reports the per-layer
// metrics from the traced one. README.md lists every metric.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/load_harness.h"
#include "core/enumerator.h"
#include "cost/model_registry.h"
#include "hypergraph/builder.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "plan/validate.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dphyp::Hypergraph;
using dphyp::PlanService;
using dphyp::QueryRequest;
using dphyp::ServiceResult;

/// The timed phase is cut into windows: one pass over the pool for pass
/// workloads, this many seconds for the Zipf workload. On a shared machine
/// the same single-threaded job runs 1.5x slower on one vCPU than another,
/// and which vCPU is fast changes every few seconds (README.md), so the
/// end-to-end figures keep the fastest observation: each pool query's
/// fastest pass on pass workloads, each client's fastest window on the
/// Zipf one.
constexpr double kZipfWindowS = 0.5;
/// Every timed phase covers at least this many whole windows.
constexpr int kMinWindows = 3;
/// Latency samples a client keeps per window; past it a seeded reservoir
/// keeps a uniform sample, so memory does not grow with throughput.
constexpr size_t kWindowSamples = 8192;
/// The Zipf workload fully validates a client's first plan per template
/// and every this-many-th request after it; every request is still checked
/// for success, cost and route.
constexpr uint64_t kZipfValidateEvery = 64;
/// Traced Zipf clients trace every request but keep the spans of only
/// every this-many-th one (the requests they fully validate), bounding
/// span memory.
constexpr uint64_t kZipfKeepSpansEvery = 4 * kZipfValidateEvery;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;
/// Percentiles the tail metric may report, highest last; the highest one
/// with at least ten of a window's samples beyond it is reported. The
/// ladder stops at p99: past it, on a shared machine, scheduler preemptions
/// of tens of microseconds decide the hot-zipf tail, not the service.
constexpr double kTailLadder[] = {0.5, 0.75, 0.9, 0.95, 0.99};
/// dense-parallel: distinct queries re-timed for the parallel ratios.
constexpr int kParallelProbeQueries = 6;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
      if (!(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag == "--git-commit") {
      args->git_commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

int Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<int>(n);
}

/// Peak resident memory of this process image. getrusage's ru_maxrss
/// survives exec, so under a launcher it reports the launcher's own peak
/// when that is larger; /proc/self/status's VmHWM starts afresh at exec.
/// getrusage is the fallback where /proc is missing.
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
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

bool SameCost(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// --- per-entry facts and per-client observations ---------------------------

/// What the checks and the property shares need to know about a pool entry.
struct EntryInfo {
  Hypergraph graph;
  int relations = 0;
  int edges = 0;
  bool non_inner = false;
};

/// What one client saw served for one pool entry.
struct Observation {
  bool served = false;
  double cost = 0.0;
  std::string route;
  uint64_t ccp_pairs = 0;
  uint64_t requests = 0;
  uint64_t failures = 0;
};

/// One client's requests within one window.
struct Window {
  uint64_t requests = 0;
  /// Serve calls plus loop overhead; the client's checks are excluded.
  double busy_s = 0.0;
  /// Kept latency samples while the window is open; dropped when it
  /// closes, so memory does not grow with the run's length.
  std::vector<double> latencies_ms;
  /// Set when the window closes.
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  size_t samples = 0;
  /// Kept samples above the tail value.
  size_t beyond = 0;

  void Close(double tail_q) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    p50_ms = Quantile(latencies_ms, 0.5);
    tail_ms = Quantile(latencies_ms, tail_q);
    samples = latencies_ms.size();
    beyond = static_cast<size_t>(
        latencies_ms.end() - std::upper_bound(latencies_ms.begin(), latencies_ms.end(), tail_ms));
    std::vector<double>().swap(latencies_ms);
  }
};

struct ClientLog {
  ClientLog(size_t entries, uint64_t seed, double tail_q)
      : observations(entries),
        best_ms(entries, std::numeric_limits<double>::infinity()),
        rng(seed),
        tail_q(tail_q) {}

  std::vector<Observation> observations;
  std::vector<Window> windows;
  /// Pass workloads: each pool entry's fastest latency in this phase.
  std::vector<double> best_ms;
  /// Every request of the phase, for the report's percentile ladder.
  dphyp::bench::LatencyHistogram histogram;
  dphyp::Rng rng;
  /// The workload's tail percentile (TailQuantile).
  double tail_q;
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t hits = 0;
  uint64_t coalesced = 0;
  /// When the client's loop ended, in seconds from the phase start.
  double end_s = 0.0;
  std::string first_error;
  /// Traced runs: the pool entry of each request id (ids count from 0).
  std::vector<int> request_entry;

  void Record(size_t window, double ms, double busy_s) {
    if (windows.size() <= window) {
      if (!windows.empty()) windows.back().Close(tail_q);
      windows.resize(window + 1);
    }
    Window& win = windows[window];
    ++win.requests;
    win.busy_s += busy_s;
    histogram.Record(ms);
    if (win.latencies_ms.size() < kWindowSamples) {
      win.latencies_ms.push_back(ms);
    } else {
      uint64_t slot = rng.Uniform(win.requests);
      if (slot < kWindowSamples) win.latencies_ms[slot] = ms;
    }
  }
};

/// Checks one served result: success, a valid plan tree (when `validate`),
/// and the same cost and route as this client's earlier plans for the
/// entry. The tree is extracted under a span when a recorder is given.
void CheckServed(const ServiceResult& res, int entry, const EntryInfo& info,
                 bool validate, SpanRecorder* rec, uint32_t id,
                 ClientLog& log) {
  Observation& obs = log.observations[entry];
  ++obs.requests;
  std::string error;
  if (!res.success) {
    error = (res.rejected ? "rejected: " : "failed: ") + res.error;
  } else {
    if (validate || !obs.served) {
      std::optional<dphyp::PlanTree> plan;
      {
        std::optional<ScopedSpan> span;
        if (rec != nullptr) span.emplace(*rec, Layer::kExtract, id);
        plan.emplace(res.result.ExtractPlan(info.graph));
      }
      dphyp::Result<bool> valid = dphyp::ValidatePlanTree(info.graph, *plan);
      if (!valid.ok()) {
        error = "invalid plan: " + valid.error().message;
      } else if (plan->root() == nullptr ||
                 !SameCost(plan->root()->cost, res.cost)) {
        error = "plan tree cost differs from the served cost";
      }
    }
    if (error.empty()) {
      if (!obs.served) {
        obs.served = true;
        obs.cost = res.cost;
        obs.route = res.algorithm;
        obs.ccp_pairs = res.result.stats.ccp_pairs;
      } else if (res.cost != obs.cost || res.algorithm != obs.route) {
        error = "served plan changed between requests";
      }
    }
  }
  if (res.cache_hit) ++log.hits;
  if (res.coalesced) ++log.coalesced;
  if (!error.empty()) {
    ++obs.failures;
    ++log.failures;
    if (log.first_error.empty()) log.first_error = error;
  }
}

// --- set-up ----------------------------------------------------------------

struct Instance {
  Workload workload;
  std::unique_ptr<PlanService> service;
  /// Results of the set-up requests that served pool entries (Zipf
  /// warm-up), checked after set-up is timed.
  std::vector<ServiceResult> warm_results;
};

/// Generates inputs, builds the service and warms it. With a recorder the
/// warm-up requests are traced (request ids from 0).
bool SetUp(const Args& args, int nproc, Instance* inst, SpanRecorder* rec,
           std::string* error) {
  if (!MakeWorkload(args.workload, args.seed, nproc, &inst->workload)) {
    *error = "unknown workload '" + args.workload + "'";
    return false;
  }
  Workload& w = inst->workload;
  inst->service = std::make_unique<PlanService>(w.options);
  const bool warm_pool = w.warmup.empty();
  const std::vector<PoolQuery>& warm = warm_pool ? w.pool : w.warmup;
  for (size_t i = 0; i < warm.size(); ++i) {
    QueryRequest request;
    request.spec = &warm[i].spec;
    ServiceResult res =
        rec != nullptr
            ? TracedServe(*inst->service, request, *rec,
                          static_cast<uint32_t>(i))
            : inst->service->Serve(request);
    if (!res.success) {
      *error = "warm-up request failed: " + res.error;
      return false;
    }
    if (warm_pool) inst->warm_results.push_back(std::move(res));
  }
  return true;
}

// --- timed phases ----------------------------------------------------------

/// The tail percentile for a workload: the highest ladder rung with at
/// least ten samples beyond it in the reported distribution (the pool's
/// queries, or one client's kept samples of one Zipf window). Fixed per
/// workload, so it does not drift with throughput.
double TailQuantile(const Workload& w) {
  const double samples = w.sequences.empty()
                             ? static_cast<double>(w.pool.size())
                             : static_cast<double>(kWindowSamples);
  double best = kTailLadder[0];
  for (double q : kTailLadder) {
    if (samples * (1.0 - q) >= 10.0 - 1e-9) best = q;
  }
  return best;
}

/// End-to-end figures of one window, merged over the clients.
struct WindowStats {
  size_t index = 0;
  uint64_t requests = 0;
  /// Sum over clients of their requests per busy second.
  double throughput = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  /// Kept samples above the tail value.
  size_t beyond = 0;
  size_t samples = 0;
};

struct Phase {
  /// Pass workload (else Zipf).
  bool passes = true;
  std::vector<ClientLog> clients;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;  // traced only
  dphyp::PlanCache::Stats cache_before;
  dphyp::PlanCache::Stats cache_after;
  double wall_s = 0.0;
  /// Whole windows every client completed.
  size_t complete_windows = 0;

  uint64_t Requests() const {
    uint64_t n = 0;
    for (const ClientLog& c : clients) n += c.requests;
    return n;
  }

  /// Every whole window; with several clients the latencies are the
  /// median client's.
  std::vector<WindowStats> Windows() const {
    std::vector<WindowStats> out;
    for (size_t w = 0; w < complete_windows; ++w) {
      WindowStats s;
      s.index = w;
      std::vector<double> p50s;
      std::vector<double> tails;
      for (const ClientLog& c : clients) {
        if (w >= c.windows.size() || c.windows[w].samples == 0) continue;
        const Window& win = c.windows[w];
        s.requests += win.requests;
        if (win.busy_s > 0.0) s.throughput += static_cast<double>(win.requests) / win.busy_s;
        p50s.push_back(win.p50_ms);
        tails.push_back(win.tail_ms);
        s.samples += win.samples;
        s.beyond += win.beyond;
      }
      s.p50_ms = Median(p50s);
      s.tail_ms = Median(tails);
      out.push_back(s);
    }
    return out;
  }

  /// The end-to-end figures. Pass workloads (one client): each pool
  /// query's fastest latency over the phase's passes gives the latency
  /// distribution, and throughput is requests per second of a pass served
  /// at those latencies. Zipf: each client's own fastest observations
  /// over its whole windows (highest throughput, lowest p50, lowest tail,
  /// each from whichever window gave it); throughput sums them over the
  /// clients, the latencies take the median client.
  WindowStats Summary(double tail_q) const {
    WindowStats best;
    if (passes) {
      std::vector<double> samples = clients[0].best_ms;
      std::sort(samples.begin(), samples.end());
      double total_ms = 0.0;
      for (double ms : samples) total_ms += ms;
      best.requests = samples.size();
      best.throughput = total_ms > 0.0 ? 1e3 * static_cast<double>(samples.size()) / total_ms : 0.0;
      best.p50_ms = Quantile(samples, 0.5);
      best.tail_ms = Quantile(samples, tail_q);
      best.beyond = static_cast<size_t>(
          samples.end() - std::upper_bound(samples.begin(), samples.end(), best.tail_ms));
      best.samples = samples.size();
      return best;
    }
    std::vector<double> p50s;
    std::vector<double> tails;
    best.samples = kWindowSamples;
    best.beyond = kWindowSamples;
    for (const ClientLog& c : clients) {
      double qps = 0.0;
      double p50 = std::numeric_limits<double>::infinity();
      double tail = std::numeric_limits<double>::infinity();
      for (size_t w = 0; w < complete_windows && w < c.windows.size(); ++w) {
        const Window& win = c.windows[w];
        if (win.samples == 0) continue;
        if (win.busy_s > 0.0) qps = std::max(qps, static_cast<double>(win.requests) / win.busy_s);
        p50 = std::min(p50, win.p50_ms);
        if (win.tail_ms < tail) {
          tail = win.tail_ms;
          best.samples = std::min(best.samples, win.samples);
          best.beyond = std::min(best.beyond, win.beyond);
        }
      }
      best.throughput += qps;
      p50s.push_back(p50);
      tails.push_back(tail);
    }
    best.p50_ms = Median(p50s);
    best.tail_ms = Median(tails);
    return best;
  }
};

/// The calling thread's CPU affinity while a workload rotates it.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (pthread_getaffinity_np(pthread_self(), sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) pthread_setaffinity_np(pthread_self(), sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the k-th usable CPU (round robin).
  void PinTo(size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// One client's closed loop. Pass workloads (one client) serve the pool
/// in order, one pass per window, and stop only at a pass boundary; Zipf
/// clients replay their sequence. Both stop once `seconds` have passed and
/// at least kMinWindows windows are complete. With CPU rotation, pass k
/// runs on the k-th CPU, and Zipf client c serves window k on CPU c + k,
/// so every client is timed on every CPU and no two share one.
void RunClient(Instance& inst, const std::vector<EntryInfo>& infos, int c,
               double seconds, Clock::time_point start, ClientLog& log,
               SpanRecorder* rec) {
  const Workload& w = inst.workload;
  const bool zipf = !w.sequences.empty();
  const double min_s = zipf ? std::max(seconds, kMinWindows * kZipfWindowS) : seconds;
  std::optional<CpuRotation> rotation;
  if (w.rotate_cpus) rotation.emplace();
  uint64_t position = 0;
  size_t pinned = std::numeric_limits<size_t>::max();
  Clock::time_point last = Clock::now();
  for (;;) {
    const int entry =
        zipf ? w.sequences[c][position % w.sequences[c].size()]
             : static_cast<int>(position % w.pool.size());
    const size_t pass = position / w.pool.size();
    if (rotation && !zipf && position % w.pool.size() == 0) rotation->PinTo(pass);
    ++position;
    QueryRequest request;
    request.spec = &w.pool[entry].spec;
    const uint64_t index = log.requests;
    const uint32_t id = static_cast<uint32_t>(index);
    const bool validate = !zipf || index % kZipfValidateEvery == 0;
    const SpanRecorder::Mark mark =
        rec != nullptr ? rec->Position() : SpanRecorder::Mark{};
    const Clock::time_point t0 = Clock::now();
    ServiceResult res = rec != nullptr
                            ? TracedServe(*inst.service, request, *rec, id)
                            : inst.service->Serve(request);
    const Clock::time_point t1 = Clock::now();
    ++log.requests;
    const size_t window =
        zipf ? static_cast<size_t>(Seconds(t1 - start) / kZipfWindowS) : pass;
    if (rotation && zipf && window != pinned) {
      rotation->PinTo(c + window);
      pinned = window;
    }
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    log.Record(window, ms, Seconds(t1 - last));
    log.best_ms[entry] = std::min(log.best_ms[entry], ms);
    CheckServed(res, entry, infos[entry], validate, rec, id, log);
    if (rec != nullptr) {
      log.request_entry.push_back(entry);
      if (zipf && index % kZipfKeepSpansEvery != 0) rec->Rollback(mark);
    }
    last = Clock::now();

    const bool pass_done = position % w.pool.size() == 0;
    if (!zipf && !pass_done) continue;
    const double elapsed = Seconds(last - start);
    if (zipf ? elapsed >= min_s
             : elapsed >= seconds && pass + 1 >= static_cast<size_t>(kMinWindows)) {
      break;
    }
  }
  if (!log.windows.empty()) log.windows.back().Close(log.tail_q);
  log.end_s = Seconds(Clock::now() - start);
}

Phase RunPhase(Instance& inst, const std::vector<EntryInfo>& infos,
               double seconds, bool traced, uint64_t seed,
               Clock::time_point epoch, int clients) {
  const Workload& w = inst.workload;
  Phase phase;
  phase.passes = w.sequences.empty();
  for (int c = 0; c < clients; ++c) {
    phase.clients.emplace_back(w.pool.size(), seed * 131 + c, TailQuantile(w));
    if (traced) {
      phase.recorders.push_back(std::make_unique<SpanRecorder>(epoch));
    }
  }
  phase.cache_before = inst.service->cache().GetStats();
  const Clock::time_point start = Clock::now();
  auto run = [&](int c) {
    RunClient(inst, infos, c, seconds, start, phase.clients[c],
              traced ? phase.recorders[c].get() : nullptr);
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(run, c);
  run(0);
  for (std::thread& t : threads) t.join();
  phase.wall_s = Seconds(Clock::now() - start);
  phase.cache_after = inst.service->cache().GetStats();
  if (phase.passes) {
    phase.complete_windows = phase.clients[0].windows.size();
  } else {
    double first_end = phase.wall_s;
    for (const ClientLog& c : phase.clients) first_end = std::min(first_end, c.end_s);
    phase.complete_windows = static_cast<size_t>(first_end / kZipfWindowS);
  }
  return phase;
}

// --- reference checks ------------------------------------------------------

/// One pool entry's served plan, merged over every client, and its checks.
struct EntryVerdict {
  Observation served;
  double goo_cost = 0.0;
  std::string reference;  // enumerator the cost was checked against
  std::string error;
};

/// The exact enumerator a served cost is compared with: never the one
/// that was routed.
std::string ReferenceFor(const std::string& route, const Hypergraph& graph) {
  if (route != "DPhyp") return "DPhyp";
  if (graph.complex_edge_ids().empty()) return "DPccp";
  if (graph.NumNodes() <= 14) return "DPsub";
  return "dphyp-par";
}

std::vector<EntryVerdict> VerifyEntries(
    const Instance& inst, const std::vector<EntryInfo>& infos,
    const std::vector<const ClientLog*>& logs, int nproc) {
  const Workload& w = inst.workload;
  std::vector<EntryVerdict> verdicts(w.pool.size());
  for (size_t i = 0; i < w.pool.size(); ++i) {
    EntryVerdict& v = verdicts[i];
    for (const ClientLog* log : logs) {
      const Observation& o = log->observations[i];
      if (!o.served) continue;
      if (!v.served.served) {
        v.served = o;
      } else if (o.cost != v.served.cost || o.route != v.served.route) {
        v.error = "clients were served different plans";
      }
    }
    if (!v.served.served) continue;
    const Hypergraph& graph = infos[i].graph;
    dphyp::CardinalityModelInputs inputs;
    inputs.graph = &graph;
    inputs.spec = &w.pool[i].spec;
    auto model = dphyp::CreateCardinalityModel(
        dphyp::kDefaultCardinalityModel, inputs);
    if (!model.ok()) {
      v.error = model.error().message;
      continue;
    }
    const dphyp::CardinalityModel& est = *model.value();
    dphyp::OptimizerOptions options;
    options.enable_pruning = true;
    options.parallel_threads = nproc;
    auto goo = dphyp::OptimizeByName("GOO", graph, est,
                                     dphyp::DefaultCostModel(), options);
    if (!goo.ok() || !goo.value().success) {
      v.error = "GOO failed";
      continue;
    }
    v.goo_cost = goo.value().cost;
    const dphyp::Enumerator* routed =
        dphyp::EnumeratorRegistry::Global().FindOrNull(v.served.route);
    if (routed == nullptr) {
      v.error = "unknown route '" + v.served.route + "'";
    } else if (routed->Exact()) {
      v.reference = ReferenceFor(v.served.route, graph);
      auto ref = dphyp::OptimizeByName(v.reference, graph, est,
                                       dphyp::DefaultCostModel(), options);
      if (!ref.ok() || !ref.value().success) {
        v.error = "reference " + v.reference + " failed";
      } else if (!SameCost(ref.value().cost, v.served.cost)) {
        v.error = "served cost " + Num(v.served.cost) + " != " + v.reference +
                  " cost " + Num(ref.value().cost);
      }
    } else {
      v.reference = "GOO";
      if (v.served.cost > v.goo_cost * (1.0 + 1e-9)) {
        v.error = "heuristic plan costs more than GOO's";
      }
    }
  }
  return verdicts;
}

// --- metrics ---------------------------------------------------------------

using MetricList = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void Add(MetricList& m, const std::string& name, double value,
         const std::string& unit) {
  m.push_back({name, {value, unit}});
}

/// The routing ledger's enumerators, in report order.
const std::vector<std::string>& RouteNames() {
  static const std::vector<std::string> names = {
      "DPhyp", "DPccp", "DPsub", "dphyp-par", "idp-k", "anneal", "GOO"};
  return names;
}

/// Pool indices making up one cycle of the workload's request stream.
std::vector<int> OneCycle(const Workload& w) {
  std::vector<int> cycle;
  if (w.sequences.empty()) {
    for (size_t i = 0; i < w.pool.size(); ++i) cycle.push_back(static_cast<int>(i));
  } else {
    for (int c = 0; c < w.clients; ++c) {
      cycle.insert(cycle.end(), w.sequences[c].begin(), w.sequences[c].end());
    }
  }
  return cycle;
}

std::string PercentileName(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

/// Per-layer metrics of a traced phase (plus the traced warm-up).
struct LayerReport {
  MetricList common;    // reported on every workload (BENCHMARK.json)
  MetricList specific;  // only where the workload reaches the layer
};

LayerReport BuildLayerReport(const Instance& inst,
                             const std::vector<EntryInfo>& infos,
                             const SpanRecorder& warm_rec,
                             const Phase& untraced, const Phase& traced,
                             const Phase* contention, int nproc) {
  const Workload& w = inst.workload;
  // Self times per layer over all traced requests (warm-up included: on
  // hot-zipf it is where the enumeration layers run).
  std::vector<std::vector<double>> self_us(kLayerCount);
  double serve_total_ns = 0.0;
  double stage_total_ns = 0.0;
  double enumerate_total_ns = 0.0;
  struct Enum {
    EnumerationRecord record;
    double ns;
    bool non_inner;
  };
  std::vector<Enum> enums;
  // `non_inner_of(request)` says whether the request's query has non-inner
  // joins.
  auto absorb = [&](const SpanRecorder& rec, auto non_inner_of) {
    std::vector<RequestSelfTimes> times = SelfTimesByRequest(rec);
    std::map<uint32_t, const RequestSelfTimes*> by_id;
    for (const RequestSelfTimes& t : times) {
      by_id[t.request] = &t;
      for (int l = 0; l < kLayerCount; ++l) {
        if (t.self_ns[l] >= 0) self_us[l].push_back(t.self_ns[l] / 1e3);
      }
      serve_total_ns += static_cast<double>(t.serve_ns);
      int64_t serve_self = t.self_ns[static_cast<int>(Layer::kServe)];
      if (t.serve_ns > 0) stage_total_ns += static_cast<double>(t.serve_ns - serve_self);
      for (Layer l : {Layer::kEnumerate, Layer::kEnumerateParallel}) {
        if (t.self_ns[static_cast<int>(l)] > 0) {
          enumerate_total_ns += static_cast<double>(t.self_ns[static_cast<int>(l)]);
        }
      }
    }
    for (const EnumerationRecord& r : rec.enumerations()) {
      const RequestSelfTimes* t = by_id[r.request];
      double ns = 0.0;
      for (Layer l : {Layer::kEnumerate, Layer::kEnumerateParallel}) {
        ns += std::max<int64_t>(0, t->self_ns[static_cast<int>(l)]);
      }
      enums.push_back({r, ns, non_inner_of(r.request)});
    }
  };
  // Warm-up request ids index the warm-up list (the pool on hot-zipf).
  const std::vector<PoolQuery>& warm = w.warmup.empty() ? w.pool : w.warmup;
  absorb(warm_rec, [&](uint32_t id) {
    return warm[id].spec.HasNonInnerPredicates();
  });
  for (size_t c = 0; c < traced.recorders.size(); ++c) {
    const std::vector<int>& entry_of = traced.clients[c].request_entry;
    absorb(*traced.recorders[c],
           [&](uint32_t id) { return infos[entry_of[id]].non_inner; });
  }

  auto layer_median = [&](Layer l) {
    return Median(self_us[static_cast<int>(l)]);
  };
  LayerReport report;
  MetricList& m = report.common;
  Add(m, "hypergraph.build_us", layer_median(Layer::kBuild), "us");
  Add(m, "model.create_us", layer_median(Layer::kModel), "us");
  Add(m, "fingerprint.us", layer_median(Layer::kFingerprint), "us");
  Add(m, "plan_cache.lookup_us", layer_median(Layer::kLookup), "us");
  Add(m, "plan.materialize_us", layer_median(Layer::kMaterialize), "us");
  Add(m, "plan.extract_us", layer_median(Layer::kExtract), "us");
  Add(m, "service.overhead_us", layer_median(Layer::kServe), "us");
  Add(m, "service.stage_share",
      serve_total_ns > 0 ? stage_total_ns / serve_total_ns : 0.0, "fraction");
  Add(m, "dispatch.route_us", layer_median(Layer::kRoute), "us");

  std::vector<double> enum_ms, pairs, ns_per_pair, ns_inner, ns_noninner,
      evals, pruned_share, entries, table_bytes;
  std::map<std::string, double> route_count;
  for (const Enum& e : enums) {
    const dphyp::OptimizerStats& s = e.record.stats;
    enum_ms.push_back(e.ns / 1e6);
    pairs.push_back(static_cast<double>(s.ccp_pairs));
    evals.push_back(static_cast<double>(s.cost_evaluations));
    entries.push_back(static_cast<double>(s.dp_entries));
    table_bytes.push_back(static_cast<double>(s.table_bytes));
    route_count[e.record.route] += 1.0;
    // Per-pair cost of the combine step: exact DP routes only (idp-k and
    // anneal spend most of their time outside csg-cmp pairs).
    const dphyp::Enumerator* route =
        dphyp::EnumeratorRegistry::Global().FindOrNull(e.record.route);
    if (s.ccp_pairs > 0 && route != nullptr && route->Exact()) {
      double npp = e.ns / static_cast<double>(s.ccp_pairs);
      ns_per_pair.push_back(npp);
      (e.non_inner ? ns_noninner : ns_inner).push_back(npp);
      pruned_share.push_back(static_cast<double>(s.pruned + s.dominated) /
                             static_cast<double>(s.ccp_pairs));
    }
  }
  Add(m, "enumerate.ms", Median(enum_ms), "ms");
  Add(m, "enumerate.latency_share",
      serve_total_ns > 0 ? enumerate_total_ns / serve_total_ns : 0.0, "fraction");
  Add(m, "enumerate.ccp_pairs", Median(pairs), "count");
  Add(m, "enumerate.ns_per_pair", Median(ns_per_pair), "ns");
  Add(m, "enumerate.ns_per_pair.inner", Median(ns_inner), "ns");
  Add(m, "enumerate.ns_per_pair.noninner", Median(ns_noninner), "ns");
  Add(m, "enumerate.cost_evaluations", Median(evals), "count");
  Add(m, "enumerate.pruned_share", Median(pruned_share), "fraction");
  Add(m, "enumerate.dp_entries", Median(entries), "count");
  Add(m, "enumerate.table_bytes", Median(table_bytes), "bytes");
  Add(m, "plan.serialize_us", layer_median(Layer::kSerialize), "us");
  Add(m, "plan_cache.insert_us", layer_median(Layer::kInsert), "us");

  const dphyp::PlanCache::Stats& a = traced.cache_after;
  const dphyp::PlanCache::Stats& b = traced.cache_before;
  const double traced_requests = static_cast<double>(traced.Requests());
  const double lookups = static_cast<double>((a.hits - b.hits) + (a.misses - b.misses));
  Add(m, "plan_cache.evictions",
      traced_requests > 0 ? static_cast<double>(a.evictions - b.evictions) / traced_requests : 0.0,
      "1/req");
  Add(m, "plan_cache.hit_ratio",
      lookups > 0 ? static_cast<double>(a.hits - b.hits) / lookups : 0.0, "fraction");
  Add(m, "plan_cache.bytes_per_plan",
      a.entries > 0 ? static_cast<double>(a.bytes) / static_cast<double>(a.entries) : 0.0,
      "bytes");
  for (const std::string& route : RouteNames()) {
    Add(m, "dispatch.share." + route,
        enums.empty() ? 0.0 : route_count[route] / static_cast<double>(enums.size()),
        "fraction");
  }
  const double tail_q = TailQuantile(w);
  const double untraced_qps = untraced.Summary(tail_q).throughput;
  Add(m, "trace.qps_ratio",
      untraced_qps > 0 ? traced.Summary(tail_q).throughput / untraced_qps : 0.0,
      "ratio");

  // Workload-specific layers.
  if (!self_us[static_cast<int>(Layer::kConsistency)].empty()) {
    Add(report.specific, "plan_cache.consistency_us",
        layer_median(Layer::kConsistency), "us");
  }
  if (contention != nullptr && untraced_qps > 0) {
    // Untraced throughput with contention_clients clients against as many
    // copies of the untraced phase's own: 1 means the hit path scales
    // perfectly across CPUs.
    Add(report.specific, "service.scaling_efficiency",
        contention->Summary(tail_q).throughput /
            (untraced_qps * static_cast<double>(contention->clients.size()) /
             static_cast<double>(untraced.clients.size())),
        "ratio");
  }
  if (route_count["dphyp-par"] > 0) {
    // Re-time distinct dphyp-par queries at nproc and 1 thread, and under
    // sequential DPhyp, outside any timed phase.
    std::vector<double> speedup, overhead;
    for (size_t i = 0; i < w.pool.size() &&
                       static_cast<int>(speedup.size()) < kParallelProbeQueries;
         ++i) {
      const Hypergraph& graph = infos[i].graph;
      dphyp::CardinalityModelInputs inputs;
      inputs.graph = &graph;
      inputs.spec = &w.pool[i].spec;
      auto model = dphyp::CreateCardinalityModel(dphyp::kDefaultCardinalityModel, inputs);
      dphyp::DispatchPolicy policy;
      policy.parallel_workers_hint = nproc;
      if (!model.ok() || dphyp::ChooseRoute(graph, policy).Name() != std::string("dphyp-par")) {
        continue;
      }
      auto time_ms = [&](const char* name, int threads) {
        dphyp::OptimizerOptions options;
        options.enable_pruning = true;
        options.parallel_threads = threads;
        const Clock::time_point t0 = Clock::now();
        auto r = dphyp::OptimizeByName(name, graph, *model.value(),
                                       dphyp::DefaultCostModel(), options);
        (void)r;
        return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      };
      const double par = time_ms("dphyp-par", nproc);
      const double one = time_ms("dphyp-par", 1);
      const double seq = time_ms("DPhyp", 1);
      speedup.push_back(one / par);
      overhead.push_back(one / seq);
    }
    Add(report.specific, "parallel.speedup_vs_1thread", Median(speedup), "x");
    Add(report.specific, "parallel.one_thread_vs_dphyp", Median(overhead), "x");
  }
  return report;
}

void PrintMetrics(const char* title, const MetricList& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-32s %16.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
}

std::string MetricsJson(const MetricList& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + Num(metrics[i].second.first) +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  return out + "}";
}

std::string SharesJson(const std::map<std::string, double>& shares) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : shares) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(k) + "\": " + Num(v);
  }
  return out + "}";
}

int Run(const Args& args, Clock::time_point process_start) {
  const int nproc = Nproc();
  const Clock::time_point epoch = process_start;
  std::string error;

  // Set-up, repeated; the last instance is the one measured.
  Instance inst;
  SpanRecorder warm_rec(epoch);
  std::vector<double> setup_times;
  const int setups = args.trace ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    inst = Instance();
    const Clock::time_point t0 = k == 0 ? process_start : Clock::now();
    if (!SetUp(args, nproc, &inst, args.trace ? &warm_rec : nullptr, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 2;
    }
    setup_times.push_back(Seconds(Clock::now() - t0));
  }
  const Workload& w = inst.workload;

  // The benchmark's own bookkeeping, outside set-up.
  std::vector<EntryInfo> infos(w.pool.size());
  for (size_t i = 0; i < w.pool.size(); ++i) {
    infos[i].graph = dphyp::BuildHypergraphOrDie(w.pool[i].spec);
    infos[i].relations = w.pool[i].spec.NumRelations();
    infos[i].edges = static_cast<int>(infos[i].graph.edges().size());
    infos[i].non_inner = w.pool[i].spec.HasNonInnerPredicates();
  }
  ClientLog warm_log(w.pool.size(), args.seed, TailQuantile(w));
  for (size_t i = 0; i < inst.warm_results.size(); ++i) {
    CheckServed(inst.warm_results[i], static_cast<int>(i), infos[i],
                /*validate=*/true, nullptr, 0, warm_log);
  }
  inst.warm_results.clear();

  std::optional<Phase> untraced;
  std::optional<Phase> traced;
  std::optional<Phase> contention;
  if (!args.trace) {
    untraced.emplace(RunPhase(inst, infos, args.seconds, false, args.seed, epoch, w.clients));
  } else {
    untraced.emplace(RunPhase(inst, infos, args.seconds / 2, false, args.seed, epoch, w.clients));
    traced.emplace(RunPhase(inst, infos, args.seconds / 2, true, args.seed + 1, epoch, w.clients));
    if (w.contention_clients > 0) {
      contention.emplace(RunPhase(inst, infos, args.seconds / 2, false, args.seed + 2, epoch,
                                  w.contention_clients));
    }
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<const ClientLog*> logs = {&warm_log};
  for (const Phase* p : {untraced ? &*untraced : nullptr, traced ? &*traced : nullptr,
                         contention ? &*contention : nullptr}) {
    if (p == nullptr) continue;
    for (const ClientLog& c : p->clients) logs.push_back(&c);
  }
  std::vector<EntryVerdict> verdicts = VerifyEntries(inst, infos, logs, nproc);

  // Requests and failures over the timed phases (set-up is not attempted).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  for (const ClientLog* log : logs) {
    if (log == &warm_log) {
      if (log->failures > 0 && first_error.empty()) first_error = "warm-up: " + log->first_error;
      continue;
    }
    attempted += log->requests;
    failed += log->failures;
    if (first_error.empty()) first_error = log->first_error;
    for (size_t i = 0; i < verdicts.size(); ++i) {
      if (!verdicts[i].error.empty()) {
        const Observation& o = log->observations[i];
        failed += o.requests - o.failures;
      }
    }
  }
  size_t bad_entries = 0;
  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].error.empty()) continue;
    ++bad_entries;
    if (first_error.empty()) {
      first_error = "entry " + std::to_string(i) + " (" + w.pool[i].family + "): " + verdicts[i].error;
    }
  }
  const bool correct = failed == 0 && warm_log.failures == 0 && bad_entries == 0;

  // One cycle of the request stream: the deterministic quantities.
  std::map<std::string, double> cycle_routes;
  double cycle_log_ratio = 0.0;
  double cycle_pairs = 0.0;
  const std::vector<int> cycle = OneCycle(w);
  for (int i : cycle) {
    const EntryVerdict& v = verdicts[i];
    cycle_routes[v.served.route] += 1.0;
    cycle_pairs += static_cast<double>(v.served.ccp_pairs);
    if (v.goo_cost > 0 && v.served.cost > 0) cycle_log_ratio += std::log(v.served.cost / v.goo_cost);
  }
  for (auto& [route, share] : cycle_routes) share /= static_cast<double>(cycle.size());
  const double plan_cost_vs_goo = std::exp(cycle_log_ratio / static_cast<double>(cycle.size()));

  // Workload-property shares over the timed requests.
  const Phase& main_phase = *untraced;
  std::map<std::string, double> route_share;
  double requests = 0, non_inner = 0, relations = 0, edges = 0, hits = 0, coalesced = 0;
  for (const ClientLog& c : main_phase.clients) {
    hits += static_cast<double>(c.hits);
    coalesced += static_cast<double>(c.coalesced);
    for (size_t i = 0; i < c.observations.size(); ++i) {
      const double n = static_cast<double>(c.observations[i].requests);
      if (n == 0) continue;
      requests += n;
      route_share[verdicts[i].served.route] += n;
      if (infos[i].non_inner) non_inner += n;
      relations += n * infos[i].relations;
      edges += n * infos[i].edges;
    }
  }
  for (auto& [k, v] : route_share) v /= requests;
  const dphyp::PlanCache::Stats& ca = main_phase.cache_after;
  const dphyp::PlanCache::Stats& cb = main_phase.cache_before;

  // Latency and throughput: the untraced phase's fastest observations.
  const double tail_q = TailQuantile(w);
  const std::vector<WindowStats> windows = main_phase.Windows();
  const WindowStats best = main_phase.Summary(tail_q);
  const bool zipf = !w.sequences.empty();
  dphyp::bench::LatencyHistogram histogram;
  for (const ClientLog& c : main_phase.clients) histogram.Merge(c.histogram);

  // --- report ---
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("environment: nproc=%d compiler=\"%s\" build_type=%s git_commit=%s source_digest=%s\n",
              nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.git_commit.c_str(),
              args.source_digest.c_str());
  std::printf("workload: pool=%zu clients=%d requests=%llu wall_s=%.3f windows=%zu\n",
              w.pool.size(), w.clients, static_cast<unsigned long long>(main_phase.Requests()),
              main_phase.wall_s, windows.size());
  for (const WindowStats& ws : windows) {
    std::printf("  %s %2zu: requests=%llu qps=%.6g p50_ms=%.6g %s_ms=%.6g%s\n",
                zipf ? "window" : "pass", ws.index,
                static_cast<unsigned long long>(ws.requests), ws.throughput, ws.p50_ms,
                PercentileName(tail_q).c_str(), ws.tail_ms,
                "");
  }
  std::printf("  reported: %s: qps=%.6g p50_ms=%.6g %s_ms=%.6g\n",
              zipf ? "each client's fastest window, qps summed, latencies of the median client"
                   : "each query's fastest pass",
              best.throughput, best.p50_ms, PercentileName(tail_q).c_str(), best.tail_ms);
  std::printf("whole phase (LatencyHistogram, 5%% buckets): p50=%.4g p90=%.4g p99=%.4g p99.9=%.4g max=%.4g ms\n",
              histogram.Percentile(0.5), histogram.Percentile(0.9), histogram.Percentile(0.99),
              histogram.Percentile(0.999), histogram.max_ms());
  std::printf("latency_tail_ms is %s, with %zu of %zu samples beyond it\n",
              PercentileName(tail_q).c_str(), best.beyond, best.samples);
  std::printf("checks: attempted=%llu failed=%llu bad_entries=%zu%s%s\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              bad_entries, first_error.empty() ? "" : " first_error=", first_error.c_str());

  MetricList end_to_end;
  Add(end_to_end, "setup_s", Median(setup_times), "s");
  Add(end_to_end, "throughput_qps", best.throughput, "req/s");
  Add(end_to_end, "latency_p50_ms", best.p50_ms, "ms");
  Add(end_to_end, "latency_tail_ms", best.tail_ms, "ms");
  const double error_rate = attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  Add(end_to_end, "success_rate", 1.0 - error_rate, "fraction");
  Add(end_to_end, "plan_cost_vs_goo", plan_cost_vs_goo, "ratio");
  Add(end_to_end, "peak_rss_mb", peak_rss_mb, "MB");
  PrintMetrics("end-to-end:", end_to_end);
  std::printf("  %-32s %16.6g fraction\n", "error_rate", error_rate);

  std::printf("{\"environment\": {\"nproc\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"git_commit\": \"%s\", \"source_digest\": \"%s\"}, "
              "\"properties\": {\"route_share\": %s, \"cache_hit_share\": %s, "
              "\"cache_coalesced_share\": %s, \"cache_miss_share\": %s, "
              "\"cache_evictions_per_request\": %s, \"non_inner_share\": %s, "
              "\"mean_relations\": %s, \"mean_edges\": %s, \"latency_tail_percentile\": \"%s\", "
              "\"latency_tail_samples_beyond\": %llu, \"latency_samples\": %llu, \"error_rate\": %s}, "
              "\"deterministic\": {\"route_share\": %s, \"ccp_pairs_total\": %s, "
              "\"plan_cost_vs_goo\": %s}}\n",
              nproc, JsonEscape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
              JsonEscape(args.git_commit).c_str(), JsonEscape(args.source_digest).c_str(),
              SharesJson(route_share).c_str(), Num(hits / requests).c_str(),
              Num(coalesced / requests).c_str(), Num(1.0 - (hits + coalesced) / requests).c_str(),
              Num(static_cast<double>(ca.evictions - cb.evictions) / requests).c_str(),
              Num(non_inner / requests).c_str(), Num(relations / requests).c_str(),
              Num(edges / requests).c_str(), PercentileName(tail_q).c_str(),
              static_cast<unsigned long long>(best.beyond),
              static_cast<unsigned long long>(best.samples), Num(error_rate).c_str(),
              SharesJson(cycle_routes).c_str(), Num(cycle_pairs).c_str(),
              Num(plan_cost_vs_goo).c_str());

  MetricList reported = end_to_end;
  if (args.trace) {
    LayerReport layers = BuildLayerReport(inst, infos, warm_rec, *untraced, *traced,
                                          contention ? &*contention : nullptr, nproc);
    PrintMetrics("per-layer (traced run):", layers.common);
    PrintMetrics("per-layer, this workload only:", layers.specific);
    std::printf("tracing: untraced_qps=%.6g traced_qps=%.6g traced_requests=%llu\n",
                untraced->Summary(tail_q).throughput, traced->Summary(tail_q).throughput,
                static_cast<unsigned long long>(traced->Requests()));
    if (!args.spans_path.empty()) {
      std::FILE* f = std::fopen(args.spans_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
      } else {
        std::fprintf(f, "thread\trequest\tspan\tparent\tname\tstart_ns\tend_ns\n");
        WriteSpans(warm_rec, -1, f);
        for (size_t c = 0; c < traced->recorders.size(); ++c) {
          WriteSpans(*traced->recorders[c], static_cast<int>(c), f);
        }
        std::fclose(f);
        std::printf("spans written to %s\n", args.spans_path.c_str());
      }
      // Per-layer summary beside the spans.
      std::string summary = args.spans_path + ".summary.json";
      std::FILE* s = std::fopen(summary.c_str(), "w");
      if (s != nullptr) {
        MetricList all = layers.common;
        all.insert(all.end(), layers.specific.begin(), layers.specific.end());
        std::fprintf(s, "%s\n", MetricsJson(all).c_str());
        std::fclose(s);
      }
    }
    reported = layers.common;
  }
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold-mix|hot-zipf|dense-parallel "
                 "--seed N --seconds S --trace 0|1 [--spans FILE] "
                 "[--git-commit ID] [--source-digest HEX]\n");
    return 2;
  }
  return perfbench::Run(args, process_start);
}
