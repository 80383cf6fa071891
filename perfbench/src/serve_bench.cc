// The repo benchmark: one open-loop serving workload over an index built by
// the system's own distributed offline phase.
//
//   perfbench_serve --workload hot-mem|wire-tcp|cold-disk --seed N
//                   --seconds S --trace 0|1 --rate R
//                   --result-cache-bytes B --residency-bytes B
//                   --setups K --work-dir DIR
//
// Untraced (--trace 0): K full set-ups (graph generation through a server
// ready to accept requests; the median is reported), a warm-up, then a timed
// open-loop phase of S seconds at R requests/s. Prints the end-to-end
// metrics. Traced (--trace 1): one set-up timed phase by phase, a timed phase
// split into an untraced and a traced half (their CPU-per-query ratio is the
// tracing overhead), then the layer probes. Prints the per-layer metrics.
// Both check a sample of served answers bit for bit against a solo engine
// query and a few sources against power iteration.
//
// The last stdout line is one JSON object (see harness.h); lines before it
// are a human-readable report. Exit code 1 means a wrong answer was served.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dppr/common/timer.h"
#include "dppr/core/dist_precompute.h"
#include "dppr/core/hgpa.h"
#include "dppr/graph/datasets.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"
#include "dppr/partition/hierarchy.h"
#include "dppr/ppr/power_iteration.h"
#include "dppr/serve/query_server.h"
#include "harness.h"

namespace {

using namespace dppr;
using perfbench::Metric;

/// WebLike(3.0): a web-like R-MAT graph with 32,768 node ids and 163,511
/// edges, served by 6 simulated machines.
constexpr double kGraphScale = 3.0;
constexpr size_t kMachines = 6;
/// The timed phase is cut into this many equal slices, each with its own
/// steal share (/proc/stat). The gated latency percentiles and CPU per query
/// are medians over the least-stolen half of the slices of each slice's own
/// figure, so neighbours taking the host's CPU for part of a run do not set
/// them. At the configured rates a slice holds at least 199 queries, so its
/// p90 rests on 19 or more samples.
constexpr size_t kSlices = 5;
constexpr double kWarmupSeconds = 1.5;
/// Every kAnswerSampleEvery-th request keeps a digest of its answer for the
/// bit-for-bit check, capped at kMaxAnswerChecks solo re-queries per run.
constexpr size_t kAnswerSampleEvery = 8;
constexpr size_t kMaxAnswerChecks = 48;
/// Sources per run checked against power iteration converged to 1e-10. The
/// index pushes every stored vector to a per-entry residual of 1e-4 (§6.1),
/// and the residual left behind is mass the served PPV misses: the served
/// vector may fall short of the exact one (by at most kPowerL1Bound in L1 on
/// this graph, where the observed worst case is about 0.26 for the
/// highest-degree sources) but never exceed it at any node by more than
/// kPowerOvershootBound — an overshoot means mass was counted twice.
constexpr size_t kPowerChecks = 3;
constexpr double kPowerL1Bound = 0.35;
constexpr double kPowerOvershootBound = 1e-9;
constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Command line.

enum class Workload { kHotMem, kWireTcp, kColdDisk };

struct Config {
  Workload workload = Workload::kHotMem;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double rate = 0.0;
  size_t result_cache_bytes = 0;
  size_t residency_bytes = 0;
  int setups = 1;
  std::string work_dir;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "perfbench_serve: %s\n", message);
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Usage("arguments come in --key value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) Usage("arguments come in --key value pairs");
  auto need = [&](const char* key) {
    auto it = args.find(key);
    if (it == args.end()) {
      std::fprintf(stderr, "perfbench_serve: missing --%s\n", key);
      std::exit(2);
    }
    return it->second;
  };
  Config config;
  config.workload_name = need("workload");
  if (config.workload_name == "hot-mem") {
    config.workload = Workload::kHotMem;
  } else if (config.workload_name == "wire-tcp") {
    config.workload = Workload::kWireTcp;
  } else if (config.workload_name == "cold-disk") {
    config.workload = Workload::kColdDisk;
  } else {
    Usage("unknown workload");
  }
  config.seed = std::stoull(need("seed"));
  config.seconds = std::stod(need("seconds"));
  config.trace = need("trace") == "1";
  config.rate = std::stod(need("rate"));
  config.result_cache_bytes = std::stoull(need("result-cache-bytes"));
  config.residency_bytes = std::stoull(need("residency-bytes"));
  config.setups = std::stoi(need("setups"));
  config.work_dir = need("work-dir");
  if (config.seconds <= 0 || config.rate <= 0 || config.setups < 1) {
    Usage("--seconds, --rate and --setups must be positive");
  }
  return config;
}

// ---------------------------------------------------------------------------
// Set-up: graph → Hierarchy::Build → DistributedPrecompute::Run →
// HgpaIndex::FromDistributed → HgpaQueryEngine → QueryServer.

struct SetupCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double hierarchy_s = 0.0;
  double precompute_s = 0.0;
  double precompute_cpu_s = 0.0;
  double adopt_s = 0.0;
  MultiRoundStats offline;
  size_t max_machine_bytes = 0;
};

struct Deployment {
  std::unique_ptr<Graph> graph;  // outlives the index that points into it
  std::unique_ptr<QueryServer> server;
  SetupCost cost;
};

/// QueryServer labels its registry series {server="N"} with N counting
/// servers constructed in this process; the benchmark is the only code here
/// that constructs them, so it can name its server's series.
size_t g_servers_built = 0;

TransportOptions TransportFor(Workload workload) {
  TransportOptions transport;
  transport.backend = workload == Workload::kWireTcp ? TransportBackend::kTcp
                                                     : TransportBackend::kInProcess;
  return transport;
}

Deployment SetUp(const Config& config) {
  Deployment d;
  WallTimer wall;
  const double cpu0 = perfbench::ProcessCpuSeconds();
  {
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.graph_generate");
    d.graph = std::make_unique<Graph>(WebLike(kGraphScale));
  }
  const HgpaOptions options;
  Hierarchy hierarchy;
  {
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.hierarchy_build");
    WallTimer t;
    hierarchy = Hierarchy::Build(*d.graph, options.hierarchy);
    d.cost.hierarchy_s = t.ElapsedSeconds();
  }
  DistPrecomputeOptions dist;
  dist.num_machines = kMachines;
  dist.transport = TransportFor(config.workload);
  dist.locality = OfflinePlacement::kLocality;
  dist.storage.backend = StorageBackend::kMemoryOwned;
  if (config.workload == Workload::kColdDisk) {
    dist.storage.backend = StorageBackend::kDisk;
    dist.storage.cache_bytes = config.residency_bytes;
    dist.storage.spill_dir = config.work_dir;
  }
  DistributedPrecompute::Result result;
  {
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.precompute");
    WallTimer t;
    const double c = perfbench::ProcessCpuSeconds();
    result = DistributedPrecompute::Run(*d.graph, std::move(hierarchy), options,
                                        dist);
    d.cost.precompute_s = t.ElapsedSeconds();
    d.cost.precompute_cpu_s = perfbench::ProcessCpuSeconds() - c;
  }
  d.cost.offline = result.offline;
  d.cost.max_machine_bytes = result.MaxMachineBytes();
  {
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.index_adopt");
    WallTimer t;
    HgpaIndex index =
        HgpaIndex::FromDistributed(std::move(result), ReplicationOptions{});
    HgpaQueryEngine engine(std::move(index), NetworkModel{},
                           TransportFor(config.workload),
                           RoutingOptions{RoutingMode::kRoute});
    ServeOptions serve;
    serve.max_batch = 16;
    serve.thread_cpu_timer = true;
    serve.max_pending = 64;
    serve.shed_on_overload = true;
    serve.result_cache_bytes = config.result_cache_bytes;
    serve.slow_query_us = -1;
    d.server = std::make_unique<QueryServer>(std::move(engine), serve);
    ++g_servers_built;
    d.cost.adopt_s = t.ElapsedSeconds();
  }
  d.cost.wall_s = wall.ElapsedSeconds();
  d.cost.cpu_s = perfbench::ProcessCpuSeconds() - cpu0;
  return d;
}

// ---------------------------------------------------------------------------
// Request stream: generated from the seed alone; the server only ever sees
// the generated requests.

enum class Kind { kQuery, kTopK, kPreferenceSet, kInvalidate };

struct Request {
  Kind kind = Kind::kQuery;
  std::vector<QueryServer::Preference> preferences;  // one entry unless kPreferenceSet
};

class RequestGenerator {
 public:
  RequestGenerator(const Graph& graph, Workload workload) : workload_(workload) {
    if (workload == Workload::kHotMem) {
      // Zipf(1.0) over nodes ranked by out-degree (rank 0 = highest).
      ranked_.resize(graph.num_nodes());
      std::iota(ranked_.begin(), ranked_.end(), NodeId{0});
      std::stable_sort(ranked_.begin(), ranked_.end(), [&](NodeId a, NodeId b) {
        return graph.out_degree(a) > graph.out_degree(b);
      });
      double total = 0.0;
      cumulative_.reserve(ranked_.size());
      for (size_t r = 0; r < ranked_.size(); ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cumulative_.push_back(total);
      }
    } else {
      // Uniform over nodes with a real out-neighbourhood (out-degree >= 2,
      // no self-loop): the rule the repo's benches use to sample queries.
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        if (graph.out_degree(u) >= 2 && !graph.HasEdge(u, u)) ranked_.push_back(u);
      }
    }
  }

  NodeId Source(std::mt19937_64& rng) const {
    if (workload_ != Workload::kHotMem) {
      return ranked_[std::uniform_int_distribution<size_t>(0, ranked_.size() - 1)(rng)];
    }
    const double u =
        std::uniform_real_distribution<double>(0.0, cumulative_.back())(rng);
    const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    return ranked_[std::min<size_t>(static_cast<size_t>(it - cumulative_.begin()),
                                    ranked_.size() - 1)];
  }

  /// hot-mem: ~1% invalidations, then 80% Query / 15% QueryTopK(10) / 5%
  /// three-source preference sets. The uniform workloads: Query only.
  std::vector<Request> Generate(size_t count, uint64_t seed) const {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::vector<Request> requests(count);
    for (Request& r : requests) {
      if (workload_ == Workload::kHotMem) {
        const double c = coin(rng);
        if (c < 0.01) {
          r.kind = Kind::kInvalidate;
        } else if (c < 0.01 + 0.99 * 0.80) {
          r.kind = Kind::kQuery;
        } else if (c < 0.01 + 0.99 * 0.95) {
          r.kind = Kind::kTopK;
        } else {
          r.kind = Kind::kPreferenceSet;
        }
      }
      if (r.kind == Kind::kPreferenceSet) {
        static constexpr double kWeights[3] = {0.5, 0.3, 0.2};
        for (double w : kWeights) {
          NodeId node = Source(rng);
          while (std::any_of(r.preferences.begin(), r.preferences.end(),
                             [&](const auto& p) { return p.node == node; })) {
            node = Source(rng);
          }
          r.preferences.push_back({node, w});
        }
      } else {
        r.preferences.push_back({Source(rng), 1.0});
      }
    }
    return requests;
  }

 private:
  Workload workload_;
  std::vector<NodeId> ranked_;
  std::vector<double> cumulative_;
};

/// Seed of one request stream of a run: 0 warm-up, 1 timed, 2 traced half.
uint64_t StreamSeed(const Config& config, uint64_t stream) {
  return config.seed * 4 + stream;
}

// ---------------------------------------------------------------------------
// One open-loop phase.

constexpr size_t kTopK = 10;

struct Outcome {
  bool failed = false;  // shed, or the call threw
  double server_latency_s = 0.0;
  bool ran_round = false;
  double max_machine_s = 0.0;
  double coordinator_s = 0.0;
  uint64_t comm_bytes = 0;
  size_t machines = 0;
  /// Digest of the answer, kept for every kAnswerSampleEvery-th request for
  /// the bit-for-bit check (keeping the answers themselves would add their
  /// bytes to peak_rss_mb).
  bool sampled = false;
  uint64_t digest = 0;
};

struct Phase {
  double seconds = 0.0;  // planned length
  std::vector<Request> requests;
  std::vector<perfbench::Dispatch> dispatches;
  std::vector<Outcome> outcomes;
  std::vector<perfbench::SliceRecorder::Slice> slices;
  /// perfbench::LeastStolenHalf(slices).
  std::vector<size_t> chosen;
  /// Median over the chosen slices of process CPU ÷ queries answered.
  double cpu_s_per_query = 0.0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double steal_frac = 0.0;
  ServerStats stats;
};

/// FNV-1a over the (index, value) bytes of `entries`: equal digests mean
/// bit-identical answers, up to a 2^-64 collision chance.
uint64_t Digest(std::span<const SparseVector::Entry> entries) {
  uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001B3ull;
  };
  for (const SparseVector::Entry& e : entries) {
    mix(&e.index, sizeof(e.index));
    mix(&e.value, sizeof(e.value));
  }
  return h;
}

std::vector<SparseVector::Entry> TopKOf(const SparseVector& ppv) {
  std::vector<SparseVector::Entry> entries(ppv.entries().begin(),
                                           ppv.entries().end());
  const size_t keep = std::min(kTopK, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + keep, entries.end(),
                    [](const SparseVector::Entry& a, const SparseVector::Entry& b) {
                      if (a.value != b.value) return a.value > b.value;
                      return a.index < b.index;
                    });
  entries.resize(keep);
  return entries;
}

/// Copies what the phase summaries need out of a Response or TopKResponse.
template <typename Response>
void Record(const Response& r, obs::TraceSpan& span, Outcome& out) {
  span.Arg("request_trace", r.trace_id);
  out.failed = r.shed;
  out.server_latency_s = r.latency_seconds;
  out.ran_round = !r.shed && !r.cache_hit;
  out.max_machine_s = r.metrics.max_machine_seconds;
  out.coordinator_s = r.metrics.coordinator_seconds;
  out.comm_bytes = r.metrics.comm.bytes;
  out.machines = r.metrics.machines_contacted;
}

void Issue(QueryServer& server, const Request& request, bool keep_answer,
           Outcome& out) {
  const NodeId source = request.preferences[0].node;
  try {
    if (request.kind == Kind::kInvalidate) {
      obs::TraceSpan span(obs::kCoordinatorLane, "bench.invalidate");
      server.Invalidate(source);
    } else if (request.kind == Kind::kTopK) {
      obs::TraceSpan span(obs::kCoordinatorLane, "bench.query_topk");
      QueryServer::TopKResponse r = server.QueryTopK(source, kTopK);
      Record(r, span, out);
      out.sampled = keep_answer && !r.shed;
      if (out.sampled) out.digest = Digest(r.top);
    } else if (request.kind == Kind::kQuery) {
      obs::TraceSpan span(obs::kCoordinatorLane, "bench.query");
      QueryServer::Response r = server.Query(source);
      Record(r, span, out);
      out.sampled = keep_answer && !r.shed;
      if (out.sampled) out.digest = Digest(r.ppv.entries());
    } else {
      obs::TraceSpan span(obs::kCoordinatorLane, "bench.query_preference_set");
      QueryServer::Response r = server.QueryPreferenceSet(request.preferences);
      Record(r, span, out);
      out.sampled = keep_answer && !r.shed;
      if (out.sampled) out.digest = Digest(r.ppv.entries());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request failed: %s\n", e.what());
    out.failed = true;
  }
}

size_t SenderThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

Phase RunPhase(QueryServer& server, const RequestGenerator& generator,
               double rate, double seconds, uint64_t seed) {
  Phase phase;
  phase.seconds = seconds;
  const std::vector<double> schedule = perfbench::FixedRateSchedule(rate, seconds);
  phase.requests = generator.Generate(schedule.size(), seed);
  phase.outcomes.resize(schedule.size());
  server.ResetStats();
  const perfbench::CpuTicks ticks0 = perfbench::ReadCpuTicks();
  const double cpu0 = perfbench::ProcessCpuSeconds();
  WallTimer wall;
  perfbench::SliceRecorder recorder(seconds / kSlices, kSlices);
  phase.dispatches = perfbench::RunOpenLoop(schedule, SenderThreads(), [&](size_t i) {
    Outcome& out = phase.outcomes[i];
    Issue(server, phase.requests[i], i % kAnswerSampleEvery == 0, out);
    if (phase.requests[i].kind != Kind::kInvalidate && !out.failed) {
      recorder.Complete(wall.ElapsedSeconds());
    }
  });
  recorder.Close();
  phase.slices = recorder.Slices();
  phase.chosen = perfbench::LeastStolenHalf(phase.slices);
  std::vector<double> cpu;
  for (size_t k : phase.chosen) {
    if (phase.slices[k].completions > 0) cpu.push_back(phase.slices[k].cpu_s_per_completion);
  }
  phase.cpu_s_per_query = perfbench::Percentile(std::move(cpu), 0.5);
  phase.wall_s = wall.ElapsedSeconds();
  phase.cpu_s = perfbench::ProcessCpuSeconds() - cpu0;
  phase.steal_frac = perfbench::StealFraction(ticks0, perfbench::ReadCpuTicks());
  phase.stats = server.Stats();
  return phase;
}

// Phase summaries -----------------------------------------------------------

struct Summary {
  size_t attempted = 0;      // every request, invalidations included
  size_t queries = 0;        // query requests (no invalidations)
  size_t failed = 0;         // shed or errored
  size_t completed = 0;      // queries answered
  size_t round_queries = 0;  // answered by a cluster round (not the cache)
  std::vector<double> latency_ms;  // per query; failures are +inf
  /// latency_ms split by the slice the request was scheduled in.
  std::vector<std::vector<double>> latency_by_slice;
  std::vector<double> lateness_ms;
  uint64_t comm_bytes = 0;
  uint64_t fragment_messages = 0;
};

size_t SliceOf(const Phase& phase, double scheduled_s) {
  const auto k = static_cast<size_t>(scheduled_s / phase.seconds * kSlices);
  return std::min(k, kSlices - 1);
}

Summary Summarize(const Phase& phase) {
  Summary s;
  s.latency_by_slice.resize(kSlices);
  s.attempted = phase.requests.size();
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    s.lateness_ms.push_back(phase.dispatches[i].Lateness() * 1e3);
    if (phase.requests[i].kind == Kind::kInvalidate) continue;
    const Outcome& o = phase.outcomes[i];
    ++s.queries;
    const double latency_ms = o.failed ? INFINITY : phase.dispatches[i].Latency() * 1e3;
    s.latency_ms.push_back(latency_ms);
    s.latency_by_slice[SliceOf(phase, phase.dispatches[i].scheduled)].push_back(latency_ms);
    if (o.failed) {
      ++s.failed;
      continue;
    }
    ++s.completed;
    if (o.ran_round) {
      ++s.round_queries;
      s.comm_bytes += o.comm_bytes;
      s.fragment_messages += o.machines;
    }
  }
  return s;
}

// Answer checks ---------------------------------------------------------------

struct CheckResult {
  size_t checked = 0;
  size_t wrong = 0;
  size_t power_checked = 0;
  size_t power_wrong = 0;
  double power_max_l1 = 0.0;
  double power_max_overshoot = 0.0;
};

/// Re-queries sampled answers on the engine directly (no batching, cache,
/// or admission) and demands bit-identical results.
void CheckServedAnswers(const QueryServer& server, const Phase& phase,
                        CheckResult& result) {
  std::vector<size_t> sampled;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    if (phase.outcomes[i].sampled) sampled.push_back(i);
  }
  const size_t stride = std::max<size_t>(1, (sampled.size() + kMaxAnswerChecks - 1) /
                                                kMaxAnswerChecks);
  const HgpaQueryEngine& engine = server.engine();
  for (size_t j = 0; j < sampled.size(); j += stride) {
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.check_answer");
    const Request& request = phase.requests[sampled[j]];
    const Outcome& served = phase.outcomes[sampled[j]];
    uint64_t expected = 0;
    switch (request.kind) {
      case Kind::kQuery:
        expected = Digest(engine.Query(request.preferences[0].node).entries());
        break;
      case Kind::kTopK:
        expected = Digest(TopKOf(engine.Query(request.preferences[0].node)));
        break;
      case Kind::kPreferenceSet:
        expected = Digest(engine.QueryPreferenceSet(request.preferences).entries());
        break;
      case Kind::kInvalidate:
        continue;
    }
    const bool ok = served.digest == expected;
    ++result.checked;
    if (!ok) {
      ++result.wrong;
      std::fprintf(stderr, "WRONG ANSWER: request %zu (source %u)\n", sampled[j],
                   request.preferences[0].node);
    }
  }
}

/// Served PPVs of a few sources against power iteration on the whole graph.
void CheckAgainstPowerIteration(const QueryServer& server, const Graph& graph,
                                const std::vector<NodeId>& sources,
                                CheckResult& result) {
  PowerIterationOptions options;
  options.ppr = server.engine().index().options().ppr;
  options.ppr.tolerance = 1e-10;
  options.ppr.max_iterations = std::max<size_t>(options.ppr.max_iterations, 1000);
  for (NodeId source : sources) {
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.check_power_iteration");
    const std::vector<double> exact = PowerIterationPpv(graph, source, options).ppv;
    const std::vector<double> served = server.engine().QueryDense(source);
    double l1 = 0.0;
    double overshoot = 0.0;
    for (size_t v = 0; v < exact.size(); ++v) {
      l1 += std::abs(exact[v] - served[v]);
      overshoot = std::max(overshoot, served[v] - exact[v]);
    }
    ++result.power_checked;
    result.power_max_l1 = std::max(result.power_max_l1, l1);
    result.power_max_overshoot = std::max(result.power_max_overshoot, overshoot);
    if (!(l1 <= kPowerL1Bound) || !(overshoot <= kPowerOvershootBound)) {
      ++result.power_wrong;
      std::fprintf(stderr,
                   "POWER ITERATION MISMATCH: source %u L1 %.6g (bound %.3g), "
                   "overshoot %.3g (bound %.3g)\n",
                   source, l1, kPowerL1Bound, overshoot, kPowerOvershootBound);
    }
  }
}

std::vector<NodeId> PowerCheckSources(const Phase& phase) {
  std::vector<NodeId> sources;
  for (const Request& r : phase.requests) {
    if (sources.size() == kPowerChecks) break;
    if (r.kind == Kind::kInvalidate) continue;
    const NodeId s = r.preferences[0].node;
    if (std::find(sources.begin(), sources.end(), s) == sources.end()) {
      sources.push_back(s);
    }
  }
  return sources;
}

// Output --------------------------------------------------------------------

double Median(std::vector<double> v) { return perfbench::Percentile(std::move(v), 0.5); }

void Report(const char* name, double value, const char* unit) {
  std::printf("  %-32s %14.6g %s\n", name, value, unit);
}

double PerQuery(double total, size_t queries) {
  return queries > 0 ? total / static_cast<double>(queries) : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void PrintHarnessHealth(const Summary& s, const Phase& phase) {
  std::printf("harness health:\n");
  Report("latency samples", static_cast<double>(s.latency_ms.size()), "count");
  Report("samples beyond p90",
         static_cast<double>(perfbench::SamplesBeyond(s.latency_ms.size(), 0.90)),
         "count");
  Report("samples beyond p99",
         static_cast<double>(perfbench::SamplesBeyond(s.latency_ms.size(), 0.99)),
         "count");
  Report("whole-phase p50", perfbench::Percentile(s.latency_ms, 0.50), "ms");
  Report("whole-phase p90", perfbench::Percentile(s.latency_ms, 0.90), "ms");
  Report("whole-phase p95", perfbench::Percentile(s.latency_ms, 0.95), "ms");
  Report("whole-phase p99 (not gated)", perfbench::Percentile(s.latency_ms, 0.99),
         "ms");
  Report("bench.gen_late_p99_ms", perfbench::Percentile(s.lateness_ms, 0.99), "ms");
  Report("bench.steal_frac", phase.steal_frac, "ratio");
  Report("offered rate", Ratio(static_cast<double>(s.attempted), phase.wall_s),
         "1/s");
  Report("cpu per query, whole phase", PerQuery(phase.cpu_s * 1e3, s.completed),
         "ms");
}

void PrintChecks(const CheckResult& check) {
  std::printf("answer checks: %zu/%zu bit-identical to a solo engine query; "
              "%zu/%zu within power-iteration bounds (max L1 %.3g, max "
              "overshoot %.3g)\n",
              check.checked - check.wrong, check.checked,
              check.power_checked - check.power_wrong, check.power_checked,
              check.power_max_l1, check.power_max_overshoot);
}

int Finish(bool correct, const Summary& s, size_t wrong,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!perfbench::ValidMetricName(m.name)) {
      std::fprintf(stderr, "invalid metric name: %s\n", m.name.c_str());
      return 3;
    }
  }
  std::printf("%s\n", perfbench::RenderResultJson(correct, s.attempted,
                                                  s.failed + wrong, metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

int RunEndToEnd(const Config& config) {
  std::vector<double> setup_wall, setup_cpu;
  Deployment d;
  for (int k = 0; k < config.setups; ++k) {
    // Free the previous deployment (server before the graph it points into)
    // so set-ups never overlap in memory.
    d.server.reset();
    d.graph.reset();
    // Hand the freed heap back so every set-up starts from the same
    // footprint; otherwise peak_rss_mb depends on how the allocator's arenas
    // fragmented during the previous one.
    malloc_trim(0);
    d = SetUp(config);
    setup_wall.push_back(d.cost.wall_s);
    setup_cpu.push_back(d.cost.cpu_s);
    std::printf("set-up %d: %.3f s wall, %.3f s cpu\n", k, d.cost.wall_s,
                d.cost.cpu_s);
  }
  QueryServer& server = *d.server;
  const RequestGenerator generator(*d.graph, config.workload);
  RunPhase(server, generator, config.rate, kWarmupSeconds, StreamSeed(config, 0));
  const Phase phase =
      RunPhase(server, generator, config.rate, config.seconds, StreamSeed(config, 1));
  const Summary s = Summarize(phase);
  // Serving holds the whole index plus in-flight answers, so this peak is
  // the process peak; the answer checks below are left out of it.
  const double peak_rss_mb = perfbench::PeakRssMb();

  CheckResult check;
  CheckServedAnswers(server, phase, check);
  CheckAgainstPowerIteration(server, *d.graph, PowerCheckSources(phase), check);
  const size_t wrong = check.wrong + check.power_wrong;
  const bool correct = wrong == 0;

  std::printf("workload %s seed %llu: %zu requests (%zu queries) in %.2f s\n",
              config.workload_name.c_str(),
              static_cast<unsigned long long>(config.seed), s.attempted, s.queries,
              phase.wall_s);
  PrintHarnessHealth(s, phase);
  PrintChecks(check);
  const double fail_frac =
      Ratio(static_cast<double>(s.failed + wrong), static_cast<double>(s.attempted));
  size_t slice_samples = s.latency_ms.size();
  std::printf("slices (steal share; * = among the least-stolen half the gated "
              "figures use):");
  for (size_t k = 0; k < kSlices; ++k) {
    const bool chosen = std::count(phase.chosen.begin(), phase.chosen.end(), k) > 0;
    std::printf(" %.3f%s", phase.slices[k].steal_frac, chosen ? "*" : "");
    if (chosen) slice_samples = std::min(slice_samples, s.latency_by_slice[k].size());
  }
  std::printf("\n");
  Report("smallest used slice: samples", static_cast<double>(slice_samples), "count");
  Report("smallest used slice: beyond p90",
         static_cast<double>(perfbench::SamplesBeyond(slice_samples, 0.90)), "count");
  // Latency is reported, not gated: when the hypervisor steals a few percent
  // of the host for minutes, it rises 5-400x while CPU per query holds, so no
  // bound a metric may carry separates a regression from the neighbours.
  Report("p50_ms (reported, not gated)",
         perfbench::MedianOfSlicePercentiles(s.latency_by_slice, phase.chosen, 0.50), "ms");
  Report("p90_ms (reported, not gated)",
         perfbench::MedianOfSlicePercentiles(s.latency_by_slice, phase.chosen, 0.90), "ms");
  std::vector<Metric> metrics = {
      {"cpu_ms_per_query", phase.cpu_s_per_query * 1e3, "ms"},
      {"ok_frac", 1.0 - fail_frac, "ratio"},
      {"comm_kb_per_query",
       PerQuery(static_cast<double>(s.comm_bytes) / 1024.0, s.round_queries), "KB"},
      {"setup_s", Median(setup_wall), "s"},
      {"setup_cpu_s", Median(setup_cpu), "s"},
      {"index_mb", static_cast<double>(d.cost.max_machine_bytes) / kMiB, "MB"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::printf("end-to-end metrics:\n");
  Report("fail_frac", fail_frac, "ratio");
  for (const Metric& m : metrics) Report(m.name.c_str(), m.value, m.unit.c_str());
  return Finish(correct, s, wrong, metrics);
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics.

struct RegistryProbe {
  explicit RegistryProbe(Workload workload) {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    const bool tcp = workload == Workload::kWireTcp;
    net_bytes = r.GetCounter(tcp ? "net.tcp.bytes_sent" : "net.inproc.bytes_sent");
    net_frames = r.GetCounter(tcp ? "net.tcp.frames_sent" : "net.inproc.frames_sent");
    miss_read_us = r.GetHistogram("store.disk.miss_extent_read_us");
    admission_wait_us = r.GetHistogram("serve.admission_wait_us{server=\"" +
                                       std::to_string(g_servers_built - 1) + "\"}");
  }
  obs::Counter* net_bytes;
  obs::Counter* net_frames;
  obs::Histogram* miss_read_us;
  obs::Histogram* admission_wait_us;
};

struct LayerWindow {
  uint64_t net_bytes = 0;
  uint64_t net_frames = 0;
  obs::Histogram::Snapshot miss_read_us;
  obs::Histogram::Snapshot admission_wait_us;
  StorageStats storage;
};

LayerWindow Capture(const RegistryProbe& probe, const QueryServer& server) {
  return {probe.net_bytes->Value(), probe.net_frames->Value(),
          probe.miss_read_us->TakeSnapshot(), probe.admission_wait_us->TakeSnapshot(),
          server.engine().index().StorageStatsTotal()};
}

std::vector<double> Collect(const Phase& phase, double Outcome::*field,
                            bool rounds_only) {
  std::vector<double> values;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    if (phase.requests[i].kind == Kind::kInvalidate || o.failed) continue;
    if (rounds_only && !o.ran_round) continue;
    values.push_back(o.*field * 1e3);
  }
  return values;
}

template <typename Fn>
double TimeMicros(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

struct ProbeResults {
  double solo_query_ms_p50 = 0.0;
  double batch16_ms_per_query = 0.0;
  double fold_ns_per_entry = 0.0;
  double findpair_us_p50 = 0.0;
  double dist_round_us_p50 = 0.0;
  double net_round_us_p50 = 0.0;
};

/// Layer probes: each calls one module's public functions directly,
/// bypassing the layers above it.
ProbeResults RunProbes(const Config& config, const QueryServer& server,
                       const std::vector<NodeId>& sources, size_t fragment_bytes) {
  ProbeResults out;
  const HgpaQueryEngine& engine = server.engine();
  const HgpaIndex& index = engine.index();

  {  // core: serial solo queries, and one-round batches of 16.
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.probe.core");
    std::vector<double> solo_ms;
    for (size_t i = 0; i < std::min<size_t>(sources.size(), 24); ++i) {
      solo_ms.push_back(TimeMicros([&] { engine.Query(sources[i]); }) / 1e3);
    }
    out.solo_query_ms_p50 = Median(solo_ms);
    std::vector<std::vector<HgpaQueryEngine::Preference>> batch;
    for (size_t i = 0; i < 16; ++i) {
      batch.push_back({{sources[i % sources.size()], 1.0}});
    }
    std::vector<double> per_query_ms;
    for (int rep = 0; rep < 3; ++rep) {
      per_query_ms.push_back(
          TimeMicros([&] { engine.QueryPreferenceSetMany(batch); }) / 1e3 / 16.0);
    }
    out.batch16_ms_per_query = Median(per_query_ms);
  }

  {  // store + ppr: FindPair on the hub keys of sample sources' chains, then
     // fold the vectors it returned.
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.probe.store_fold");
    std::vector<double> findpair_us;
    std::vector<PpvRef> vectors;
    for (size_t i = 0; i < std::min<size_t>(sources.size(), 8); ++i) {
      for (SubgraphId sub : index.hierarchy().Chain(sources[i])) {
        for (size_t m = 0; m < index.num_machines(); ++m) {
          const auto& hubs = index.hubs_on_machine(m);
          const auto it = hubs.find(sub);
          if (it == hubs.end()) continue;
          for (NodeId hub : it->second) {
            if (findpair_us.size() >= 4096) break;
            PpvPair pair;
            findpair_us.push_back(
                TimeMicros([&] { pair = index.store(m).FindPair(sub, hub); }));
            if (vectors.size() < 512) {
              if (pair.skeleton) vectors.push_back(pair.skeleton);
              if (pair.partial) vectors.push_back(pair.partial);
            }
          }
        }
      }
    }
    out.findpair_us_p50 = Median(findpair_us);
    DenseAccumulator acc(index.graph().num_nodes());
    size_t entries = 0;
    double fold_us = 0.0;
    for (int rep = 0; rep < 20; ++rep) {
      fold_us += TimeMicros([&] {
        for (const PpvRef& v : vectors) {
          acc.AddVector(*v, 0.5);
          entries += v->size();
        }
      });
      acc.Clear();
    }
    out.fold_ns_per_entry = entries > 0 ? fold_us * 1e3 / static_cast<double>(entries) : 0.0;
  }

  {  // dist + net: rounds over all machines, empty and with fragment-sized
     // payloads, on a cluster of the workload's transport.
    obs::TraceSpan span(obs::kCoordinatorLane, "bench.probe.dist_net");
    SimCluster cluster(kMachines, NetworkModel{}, /*sequential=*/false,
                       TransportFor(config.workload));
    std::vector<size_t> all(kMachines);
    std::iota(all.begin(), all.end(), size_t{0});
    std::vector<double> empty_us, payload_us;
    const std::vector<uint8_t> payload(std::max<size_t>(fragment_bytes, 1), 0x5A);
    for (int rep = 0; rep < 200; ++rep) {
      empty_us.push_back(TimeMicros([&] {
        cluster.RunRoundOn(all, [](size_t) { return std::vector<uint8_t>(); });
      }));
      payload_us.push_back(TimeMicros([&] {
        cluster.RunRound([&](size_t) { return payload; });
      }));
    }
    out.dist_round_us_p50 = Median(empty_us);
    out.net_round_us_p50 = Median(payload_us);
  }
  return out;
}

int RunTraced(const Config& config) {
  obs::Tracer& tracer = obs::Tracer::Global();
  Deployment d = SetUp(config);
  QueryServer& server = *d.server;
  const RequestGenerator generator(*d.graph, config.workload);
  const RegistryProbe probe(config.workload);
  RunPhase(server, generator, config.rate, kWarmupSeconds, StreamSeed(config, 0));

  // Untraced half, then the traced half on a fresh stream from the same seed.
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(false);
  const Phase plain =
      RunPhase(server, generator, config.rate, config.seconds / 2, StreamSeed(config, 1));
  tracer.set_enabled(was_enabled);
  const LayerWindow before = Capture(probe, server);
  const Phase phase = RunPhase(server, generator, config.rate, config.seconds / 2,
                               StreamSeed(config, 2));
  const LayerWindow after = Capture(probe, server);
  const Summary s = Summarize(phase);

  std::vector<NodeId> sources;
  for (const Request& r : phase.requests) {
    if (r.kind != Kind::kInvalidate) sources.push_back(r.preferences[0].node);
    if (sources.size() == 32) break;
  }
  const size_t fragment_bytes = static_cast<size_t>(
      Ratio(static_cast<double>(s.comm_bytes), static_cast<double>(s.fragment_messages)));
  const ProbeResults probes = RunProbes(config, server, sources, fragment_bytes);

  CheckResult check;
  CheckServedAnswers(server, phase, check);
  CheckAgainstPowerIteration(server, *d.graph, PowerCheckSources(phase), check);
  const size_t wrong = check.wrong + check.power_wrong;

  const ServerStats& st = phase.stats;
  const StorageStats storage = after.storage.Since(before.storage);
  const obs::Histogram::Snapshot miss_read = after.miss_read_us.Since(before.miss_read_us);
  const obs::Histogram::Snapshot wait =
      after.admission_wait_us.Since(before.admission_wait_us);
  const double served = static_cast<double>(s.completed);
  const uint64_t lookups = storage.cache_hits + storage.cache_misses;
  const uint64_t preads = miss_read.total + storage.prefetch_coalesced_reads;
  const double cpu_traced = phase.cpu_s_per_query;
  const double cpu_plain = plain.cpu_s_per_query;
  const std::vector<double> machine_ms = Collect(phase, &Outcome::max_machine_s, true);
  const std::vector<double> coord_ms = Collect(phase, &Outcome::coordinator_s, true);
  const std::vector<double> server_ms = Collect(phase, &Outcome::server_latency_s, false);
  const SetupCost& c = d.cost;

  std::vector<Metric> metrics = {
      {"serve.server_p50_ms", perfbench::Percentile(server_ms, 0.50), "ms"},
      {"serve.server_p99_ms", perfbench::Percentile(server_ms, 0.99), "ms"},
      {"serve.wait_p50_ms", static_cast<double>(wait.Quantile(0.50)) / 1e3, "ms"},
      {"serve.wait_p99_ms", static_cast<double>(wait.Quantile(0.99)) / 1e3, "ms"},
      {"serve.mean_batch", st.mean_batch, "count"},
      {"serve.rounds_per_query", Ratio(static_cast<double>(st.rounds), served), "count"},
      {"serve.cache_hit_rate",
       Ratio(static_cast<double>(st.result_cache_hits),
             static_cast<double>(st.result_cache_hits + st.result_cache_misses)),
       "ratio"},
      {"serve.shed_frac", Ratio(static_cast<double>(st.shed), static_cast<double>(s.queries)),
       "ratio"},
      {"core.machine_ms_p50", perfbench::Percentile(machine_ms, 0.50), "ms"},
      {"core.machine_ms_p99", perfbench::Percentile(machine_ms, 0.99), "ms"},
      {"core.machines_per_query", st.machines_per_query_mean, "count"},
      {"dist.machine_rounds_per_query",
       Ratio(static_cast<double>(st.routing_machine_rounds), served), "count"},
      {"core.coord_ms_p50", perfbench::Percentile(coord_ms, 0.50), "ms"},
      {"core.coord_ms_p99", perfbench::Percentile(coord_ms, 0.99), "ms"},
      {"core.solo_query_ms_p50", probes.solo_query_ms_p50, "ms"},
      {"core.batch16_ms_per_query", probes.batch16_ms_per_query, "ms"},
      {"ppr.fold_ns_per_entry", probes.fold_ns_per_entry, "ns"},
      {"dist.round_us_p50", probes.dist_round_us_p50, "us"},
      {"net.round_us_p50", probes.net_round_us_p50, "us"},
      {"net.bytes_per_query",
       Ratio(static_cast<double>(after.net_bytes - before.net_bytes), served), "B"},
      {"net.frames_per_query",
       Ratio(static_cast<double>(after.net_frames - before.net_frames), served), "count"},
      {"store.hit_rate",
       Ratio(static_cast<double>(storage.cache_hits), static_cast<double>(lookups)),
       "ratio"},
      {"store.disk_mb_per_query",
       Ratio(static_cast<double>(storage.disk_bytes_read) / kMiB, served), "MB"},
      {"store.reads_per_query", Ratio(static_cast<double>(preads), served), "count"},
      {"store.miss_read_us_p99", static_cast<double>(miss_read.Quantile(0.99)), "us"},
      {"store.resident_mb",
       static_cast<double>(server.engine().index().ResidentBytesTotal()) / kMiB, "MB"},
      {"store.findpair_us_p50", probes.findpair_us_p50, "us"},
      {"partition.hierarchy_s", c.hierarchy_s, "s"},
      {"core.precompute_s", c.precompute_s, "s"},
      {"core.precompute_parallelism", Ratio(c.precompute_cpu_s, c.precompute_s), "cores"},
      {"core.precompute_max_machine_s", c.offline.max_machine_seconds, "s"},
      {"core.precompute_shuffle_mb", c.offline.shuffled.megabytes(), "MB"},
      {"core.precompute_rounds", static_cast<double>(c.offline.rounds), "count"},
      {"core.index_adopt_s", c.adopt_s, "s"},
      {"bench.gen_late_p99_ms", perfbench::Percentile(s.lateness_ms, 0.99), "ms"},
      {"bench.steal_frac", phase.steal_frac, "ratio"},
      {"bench.client_p50_ms",
       perfbench::MedianOfSlicePercentiles(s.latency_by_slice, phase.chosen, 0.50), "ms"},
      {"bench.client_p90_ms",
       perfbench::MedianOfSlicePercentiles(s.latency_by_slice, phase.chosen, 0.90), "ms"},
      {"bench.p99_ms", perfbench::Percentile(s.latency_ms, 0.99), "ms"},
      {"bench.latency_samples", static_cast<double>(s.latency_ms.size()), "count"},
      {"bench.p99_tail_samples",
       static_cast<double>(perfbench::SamplesBeyond(s.latency_ms.size(), 0.99)), "count"},
      {"bench.fail_frac",
       Ratio(static_cast<double>(s.failed + wrong), static_cast<double>(s.attempted)),
       "ratio"},
      {"obs.trace_overhead_frac", cpu_plain > 0 ? cpu_traced / cpu_plain - 1.0 : 0.0,
       "ratio"},
  };
  std::printf("workload %s seed %llu (traced half): %zu requests in %.2f s\n",
              config.workload_name.c_str(),
              static_cast<unsigned long long>(config.seed), s.attempted, phase.wall_s);
  PrintHarnessHealth(s, phase);
  std::printf("percentile samples: serve.server_* %zu, serve.wait_* %llu, "
              "core.machine_ms_* and core.coord_ms_* %zu, store.miss_read_us_p99 %llu\n",
              server_ms.size(), static_cast<unsigned long long>(wait.total),
              machine_ms.size(), static_cast<unsigned long long>(miss_read.total));
  PrintChecks(check);
  std::printf("per-layer metrics:\n");
  for (const Metric& m : metrics) Report(m.name.c_str(), m.value, m.unit.c_str());
  return Finish(wrong == 0, s, wrong, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = ParseArgs(argc, argv);
  return config.trace ? RunTraced(config) : RunEndToEnd(config);
}
