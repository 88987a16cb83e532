#include "perfbench/workloads.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/rng.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using dphyp::OpType;
using dphyp::QuerySpec;
using dphyp::Rng;
using dphyp::WorkloadOptions;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

WorkloadOptions Opts(uint64_t qseed) {
  WorkloadOptions w;
  w.seed = qseed;
  return w;
}

/// Turns `count` distinct simple predicates into non-inner ones: an
/// antijoin when the right relation appears in no other predicate (so the
/// relations it hides are referenced nowhere above it), else a left outer
/// join. Callers pass count 1 for cyclic graphs, where two non-inner edges
/// could cross one csg-cmp pair.
void AddNonInner(QuerySpec& spec, uint64_t qseed, int count) {
  Rng rng(Mix(qseed, 0xa11));
  std::vector<int> degree(spec.NumRelations(), 0);
  std::vector<int> simple;
  for (int i = 0; i < static_cast<int>(spec.predicates.size()); ++i) {
    const dphyp::Predicate& p = spec.predicates[i];
    for (int v : p.AllTables()) ++degree[v];
    if (p.IsSimple()) simple.push_back(i);
  }
  for (int c = 0; c < count && !simple.empty(); ++c) {
    size_t pick = rng.Uniform(simple.size());
    dphyp::Predicate& p = spec.predicates[simple[pick]];
    simple.erase(simple.begin() + static_cast<std::ptrdiff_t>(pick));
    const bool leaf_right = degree[p.right.Min()] == 1;
    p.op = leaf_right && rng.Bernoulli(0.5) ? OpType::kLeftAntijoin
                                            : OpType::kLeftOuterjoin;
  }
}

/// Random graphs whose shape is part of the workload: the structure comes
/// from a fixed per-slot seed, and `qseed` redraws every cardinality and
/// selectivity (over the generators' default ranges). Structure alone
/// swings a 16-relation sparse graph's DPccp time from 0.05 to 0.4 s, so
/// a seed-drawn structure would make the run's totals depend mostly on
/// which few graphs the seed happened to pick.
QuerySpec WithSeededStatistics(QuerySpec spec, uint64_t qseed) {
  const WorkloadOptions ranges;
  Rng rng(Mix(qseed, 0x57a7));
  for (dphyp::RelationInfo& r : spec.relations) {
    r.cardinality = rng.UniformDouble(ranges.min_cardinality, ranges.max_cardinality);
  }
  for (dphyp::Predicate& p : spec.predicates) {
    p.selectivity = rng.UniformDouble(ranges.min_selectivity, ranges.max_selectivity);
    p.refs.clear();
  }
  spec.FillDefaultPayloads();
  return spec;
}

/// A family contributes `count` pool slots; slot k of the family gets the
/// query `make(qseed, k)`.
struct Family {
  const char* name;
  int count;
  std::function<QuerySpec(uint64_t, int)> make;
};

/// Evenly spaced size for slot k of `count` over [lo, hi].
int Spread(int k, int count, int lo, int hi) {
  return count <= 1 ? lo : lo + (k * (hi - lo)) / (count - 1);
}

/// Interleaves the families' slots (slot k of every family, then k + 1)
/// so a pass mixes shapes instead of serving them in blocks.
std::vector<PoolQuery> BuildPool(const std::vector<Family>& families,
                                 uint64_t seed, uint64_t salt) {
  std::vector<PoolQuery> pool;
  int most = 0;
  for (const Family& f : families) most = std::max(most, f.count);
  for (int k = 0; k < most; ++k) {
    for (size_t f = 0; f < families.size(); ++f) {
      if (k >= families[f].count) continue;
      const uint64_t qseed = Mix(seed, salt + f * 1000 + k);
      pool.push_back({families[f].make(qseed, k), families[f].name});
    }
  }
  return pool;
}

// --- cold-mix --------------------------------------------------------------

std::vector<Family> ColdMixFamilies() {
  return {
      {"chain", 24,
       [](uint64_t s, int k) {
         QuerySpec q = dphyp::MakeChainQuery(Spread(k, 24, 20, 60), Opts(s));
         if (k % 3 == 0) AddNonInner(q, s, 2);
         return q;
       }},
      {"cycle", 18,
       [](uint64_t s, int k) {
         QuerySpec q = dphyp::MakeCycleQuery(Spread(k, 18, 16, 24), Opts(s));
         if (k % 3 == 1) AddNonInner(q, s, 1);
         return q;
       }},
      {"star", 20,
       [](uint64_t s, int k) {
         // 12..16 relations: the hub plus 11..15 satellites.
         QuerySpec q = dphyp::MakeStarQuery(Spread(k, 20, 11, 15), Opts(s));
         if (k % 3 == 2) AddNonInner(q, s, 2);
         return q;
       }},
      {"clique", 20,
       [](uint64_t s, int k) {
         return dphyp::MakeCliqueQuery(Spread(k, 20, 8, 12), Opts(s));
       }},
      // Fig. 5: the 16-cycle with its hyperedge split 0..7 times.
      {"cycle-hyper", 16,
       [](uint64_t s, int k) {
         return dphyp::MakeCycleHypergraphQuery(16, k % 8, Opts(s));
       }},
      // Fig. 6: stars with 8 satellites (splits 0..3) and 16 satellites
      // (splits 0, 2, 4, 6).
      {"star-hyper", 16,
       [](uint64_t s, int k) {
         const int j = k % 8;
         return j < 4 ? dphyp::MakeStarHypergraphQuery(8, j, Opts(s))
                      : dphyp::MakeStarHypergraphQuery(16, 2 * (j - 4),
                                                       Opts(s));
       }},
      {"random-hyper", 20,
       [](uint64_t s, int k) {
         return dphyp::MakeRandomHypergraphQuery(
             Spread(k, 20, 12, 16), 3 + k % 4, s, Opts(s));
       }},
      // The routing cliff: sparse random graphs of 16 relations go to DPccp
      // and cost 0.05-0.4 s each; each graph's time swings 8x with its
      // structure and +-50% with its statistics.
      {"random-sparse", 12,
       [](uint64_t, int k) {
         return dphyp::MakeRandomGraphQuery(16, 0.15, 0x5000 + k);
       }},
      // Past the exact frontier, inner joins only: routed to idp-k.
      {"past-frontier", 16,
       [](uint64_t s, int k) {
         const int j = k % 8;
         return j % 2 == 0 ? dphyp::MakeCliqueQuery(13 + j / 2, Opts(s))
                           : dphyp::MakeStarQuery(17 + j, Opts(s));
       }},
      // Past the frontier with non-inner joins, which idp-k cannot take:
      // routed to anneal.
      {"past-frontier-noninner", 16,
       [](uint64_t s, int k) {
         const int j = k % 8;
         QuerySpec q = j % 2 == 0 ? dphyp::MakeCliqueQuery(13 + j / 2, Opts(s))
                                  : dphyp::MakeStarQuery(17 + j, Opts(s));
         AddNonInner(q, s, j % 2 == 0 ? 1 : 2);
         return q;
       }},
  };
}

std::vector<Family> ColdMixWarmupFamilies() {
  return {
      {"chain", 1, [](uint64_t s, int) { return dphyp::MakeChainQuery(24, Opts(s)); }},
      {"star", 1, [](uint64_t s, int) { return dphyp::MakeStarQuery(11, Opts(s)); }},
      {"clique", 1, [](uint64_t s, int) { return dphyp::MakeCliqueQuery(10, Opts(s)); }},
      {"cycle-hyper", 1,
       [](uint64_t s, int) { return dphyp::MakeCycleHypergraphQuery(16, 3, Opts(s)); }},
      {"random-sparse", 1,
       [](uint64_t s, int) { return dphyp::MakeRandomGraphQuery(14, 0.15, s, Opts(s)); }},
      {"past-frontier", 1, [](uint64_t s, int) { return dphyp::MakeStarQuery(19, Opts(s)); }},
  };
}

// --- hot-zipf --------------------------------------------------------------

constexpr int kHotTemplates = 128;
constexpr int kHotSequenceLength = 1 << 16;
constexpr double kHotZipfS = 1.1;

/// Template `r` (also its Zipf rank) is the same under every seed: family,
/// size, structure, statistics and which joins are non-inner. The seed
/// draws the clients' request sequences. With seed-drawn statistics the
/// p99 spread 14% over five seeds on a 4-vCPU machine, with fixed ones
/// 6%: the tail sits on the few largest templates and followed their
/// draws.
PoolQuery HotTemplate(int r) {
  const uint64_t s = Mix(0, 0x40000 + r);
  const int step = r / 6;
  QuerySpec q;
  const char* family = "";
  switch (r % 6) {
    case 0:
      q = dphyp::MakeChainQuery(6 + step % 11, Opts(s));
      family = "chain";
      break;
    case 1:
      q = dphyp::MakeCycleQuery(6 + step % 9, Opts(s));
      family = "cycle";
      break;
    case 2:
      q = dphyp::MakeStarQuery(4 + step % 6, Opts(s));
      family = "star";
      break;
    case 3:
      q = dphyp::MakeCliqueQuery(5 + step % 4, Opts(s));
      family = "clique";
      break;
    case 4:
      q = dphyp::MakeCycleHypergraphQuery(8, step % 4, Opts(s));
      family = "cycle-hyper";
      break;
    default:
      q = dphyp::MakeRandomHypergraphQuery(8 + step % 5, 2, s, Opts(s));
      family = "random-hyper";
      break;
  }
  // Every fourth template carries a non-inner join (chains, stars and
  // cycles only: one edge, so no csg-cmp pair crosses two of them).
  if (r % 4 == 0 && r % 6 <= 2) AddNonInner(q, s, 1);
  return {std::move(q), family};
}

// --- dense-parallel --------------------------------------------------------

std::vector<Family> DenseFamilies() {
  return {
      {"clique-14", 44,
       [](uint64_t s, int k) {
         QuerySpec q = dphyp::MakeCliqueQuery(14, Opts(s));
         if (k % 2 == 1) AddNonInner(q, s, 1);
         return q;
       }},
      {"clique-15", 16,
       [](uint64_t s, int) { return dphyp::MakeCliqueQuery(15, Opts(s)); }},
      {"star-16", 24,
       [](uint64_t s, int k) {
         QuerySpec q = dphyp::MakeStarQuery(15, Opts(s));
         if (k % 2 == 1) AddNonInner(q, s, 2);
         return q;
       }},
      {"random-dense-14", 16,
       [](uint64_t s, int k) {
         return WithSeededStatistics(
             dphyp::MakeRandomGraphQuery(14, 0.6, 0x6000 + k), s);
       }},
  };
}

std::vector<Family> DenseWarmupFamilies() {
  return {
      {"clique-14", 1, [](uint64_t s, int) { return dphyp::MakeCliqueQuery(14, Opts(s)); }},
      {"star-16", 1, [](uint64_t s, int) { return dphyp::MakeStarQuery(15, Opts(s)); }},
  };
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, int nproc,
                  Workload* out) {
  Workload w;
  w.name = name;
  w.options.num_threads = 1;  // Serve runs on the calling client thread
  if (name == "cold-mix") {
    // The pool is the same under every seed, which only orders it. With
    // seed-drawn statistics and structures the p50 query changed with the
    // seed (1.36 vs 0.90 ms for two seeds, each steady within 3% on
    // reruns), so runs on different seeds measured the seed, not the code.
    w.pool = BuildPool(ColdMixFamilies(), 0, 0x10000);
    Rng order(Mix(seed, 0x10001));
    for (size_t i = w.pool.size(); i > 1; --i) {
      std::swap(w.pool[i - 1], w.pool[order.Uniform(i)]);
    }
    // The warm-up set is the same under every seed, so set-up time does
    // not depend on which queries a seed draws.
    w.warmup = BuildPool(ColdMixWarmupFamilies(), 0, 0x20000);
    // Far below the pool's plan bytes: served cyclically, every request
    // misses under LRU, and every insert evicts.
    w.options.cache_byte_budget = 32 << 10;
    w.rotate_cpus = true;
  } else if (name == "hot-zipf") {
    for (int r = 0; r < kHotTemplates; ++r) w.pool.push_back(HotTemplate(r));
    // Default 8 MiB budget: the whole pool fits, so after warm-up every
    // request can hit.
    // One client times the hit path: with nproc clients every figure
    // followed the shared machine's load (README.md). The traced run's
    // contention phase serves the same stream from nproc clients.
    w.clients = 1;
    w.contention_clients = nproc;
    w.rotate_cpus = true;
    dphyp::ZipfSampler zipf(kHotTemplates, kHotZipfS);
    for (int c = 0; c < std::max(w.clients, w.contention_clients); ++c) {
      Rng rng(Mix(seed, 0x50000 + c));
      std::vector<int> sequence(kHotSequenceLength);
      for (int& rank : sequence) rank = zipf.Sample(rng);
      w.sequences.push_back(std::move(sequence));
    }
  } else if (name == "dense-parallel") {
    w.pool = BuildPool(DenseFamilies(), seed, 0x30000);
    w.warmup = BuildPool(DenseWarmupFamilies(), 0, 0x60000);
    w.options.parallel_threads = nproc;
    // One shard holding a handful of plans: the cyclic pass misses on
    // every request.
    w.options.cache_shards = 1;
    w.options.cache_byte_budget = 8 << 10;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
