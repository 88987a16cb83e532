// The benchmark's workloads: seeded query pools plus the service settings
// and client layout each one is served with. README.md in this directory
// says why each workload exists and what it should (and should not) move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/query_spec.h"
#include "service/plan_service.h"

namespace perfbench {

/// One pool entry: a query plus the family it was drawn from (for the
/// report only; the service sees just the spec).
struct PoolQuery {
  dphyp::QuerySpec spec;
  std::string family;
};

struct Workload {
  std::string name;
  /// Distinct queries. Pass workloads serve them in this order, over and
  /// over; the Zipf workload draws templates from it.
  std::vector<PoolQuery> pool;
  /// Queries served during set-up to warm the service (never timed, never
  /// in the pool). Empty for the Zipf workload, whose warm-up serves the
  /// pool itself so the cache holds every template.
  std::vector<PoolQuery> warmup;
  dphyp::ServiceOptions options;
  /// Closed-loop client threads (the first runs on the main thread).
  int clients = 1;
  /// Zipf workload: clients of the traced run's extra contention phase,
  /// which measures how the hit path scales across CPUs (0: no such
  /// phase).
  int contention_clients = 0;
  /// Pin each client to one CPU the process may use and move it on every
  /// window (pass k on the k-th CPU; Zipf client c's window k on CPU
  /// c + k), so every client is timed on every CPU (README.md: the CPUs
  /// of a shared machine differ by 1.5x and swap roles every few
  /// seconds). Off where the library spawns threads for the request,
  /// which would inherit the pin.
  bool rotate_cpus = false;
  /// Zipf workload: per-client request sequences of pool indices, replayed
  /// cyclically, enough for `clients` and `contention_clients`. Empty for
  /// pass workloads.
  std::vector<std::vector<int>> sequences;
};

/// Builds the named workload for `seed`; the same (name, seed, nproc)
/// gives the same pool, sequences and options. Returns false on an
/// unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, int nproc,
                  Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
