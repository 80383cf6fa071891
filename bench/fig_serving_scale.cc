// Open-loop serving scale: a fixed-rate zipf workload against ONE shared
// engine through the QueryServer front door. Unlike fig_serving_throughput's
// closed loop (clients wait for each answer, so a slow server throttles its
// own load), arrivals here are scheduled on a fixed clock and latency is
// measured from the *scheduled* arrival time — queueing delay from a server
// falling behind is charged to the requests, not hidden (no coordinated
// omission). Sources are zipf-sampled over degree-ranked nodes, the skew
// that makes the result cache earn its keep.
//
// Rows: a closed-loop calibration row (capacity estimate the arrival rates
// are derived from), then route vs. broadcast at a comfortable rate (~50%
// of capacity) and a saturating rate (~200%, shedding on), plus a routed row
// with the front-door result cache. Broadcast is the trivial all-machines
// routing plan. Counters
// report goodput, shed rate, scheduled-arrival latency percentiles
// (p50/p95/p99/p999), machine-rounds and coordinator bytes per query, bytes
// routing saved, and the cache hit rate.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dppr/serve/query_server.h"

namespace {

using namespace dppr;
using namespace dppr::bench;

constexpr double kWebScale = 0.3;
constexpr size_t kMachines = 6;
constexpr size_t kWorkers = 8;
constexpr size_t kArrivals = 320;
constexpr size_t kMaxPending = 4;
constexpr double kZipfExponent = 1.0;

std::shared_ptr<const HgpaPrecomputation> SharedPrecomputation() {
  static auto holder = [] {
    auto graph = std::make_shared<Graph>(LoadDataset("web", kWebScale));
    auto pre = HgpaPrecomputation::RunHgpa(*graph, HgpaOptions{});
    return std::pair{graph, pre};
  }();
  return holder.second;
}

/// Zipf(kZipfExponent) over nodes ranked by out-degree: rank 0 is the
/// highest-degree node. Deterministic per-row via the seed.
std::vector<NodeId> ZipfSources(size_t count, uint64_t seed) {
  const Graph& graph = SharedPrecomputation()->graph();
  static auto tables = [&] {
    std::vector<NodeId> ranked(graph.num_nodes());
    for (NodeId u = 0; u < graph.num_nodes(); ++u) ranked[u] = u;
    std::sort(ranked.begin(), ranked.end(), [&](NodeId a, NodeId b) {
      size_t da = graph.out_degree(a), db = graph.out_degree(b);
      if (da != db) return da > db;
      return a < b;
    });
    std::vector<double> cumulative(ranked.size());
    double total = 0.0;
    for (size_t r = 0; r < ranked.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cumulative[r] = total;
    }
    return std::pair{ranked, cumulative};
  }();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, tables.second.back());
  std::vector<NodeId> sources;
  sources.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto it = std::lower_bound(tables.second.begin(), tables.second.end(),
                               uniform(rng));
    sources.push_back(
        tables.first[static_cast<size_t>(it - tables.second.begin())]);
  }
  return sources;
}

struct ServingConfig {
  RoutingMode mode = RoutingMode::kRoute;
  size_t cache_bytes = 0;
};

std::unique_ptr<QueryServer> MakeServer(const ServingConfig& config) {
  auto pre = SharedPrecomputation();
  HgpaQueryEngine engine(HgpaIndex::Distribute(pre, kMachines),
                         NetworkModel{}, TransportOptions::FromEnv(),
                         RoutingOptions{config.mode});
  ServeOptions options;
  options.max_pending = kMaxPending;
  options.shed_on_overload = true;
  options.result_cache_bytes = config.cache_bytes;
  return std::make_unique<QueryServer>(std::move(engine), options);
}

/// Closed-loop capacity estimate (QPS at 8 saturating clients); the
/// open-loop rows pitch their arrival rates relative to this.
double CalibratedCapacityQps() {
  static double capacity = [] {
    std::unique_ptr<QueryServer> holder = MakeServer(ServingConfig{});
    QueryServer& server = *holder;
    std::vector<NodeId> sources = ZipfSources(kWorkers * 24, /*seed=*/7);
    server.ResetStats();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kWorkers; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < 24; ++i) {
          server.Query(sources[c * 24 + i]);
        }
      });
    }
    for (auto& t : clients) t.join();
    double qps = server.Stats().qps;
    return qps > 1.0 ? qps : 1.0;
  }();
  return capacity;
}

double QuantileMs(std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(
                                           sorted_seconds.size() - 1));
  return sorted_seconds[idx] * 1e3;
}

Counters MeasureOpenLoop(const ServingConfig& config, double rate_factor) {
  using Clock = std::chrono::steady_clock;
  std::unique_ptr<QueryServer> holder = MakeServer(config);
  QueryServer& server = *holder;
  const double rate_qps = CalibratedCapacityQps() * rate_factor;
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / rate_qps));
  std::vector<NodeId> sources = ZipfSources(kArrivals, /*seed=*/11);

  server.ResetStats();
  std::vector<std::vector<double>> latencies(kWorkers);
  std::vector<uint64_t> shed(kWorkers, 0), hits(kWorkers, 0);
  // Small lead-in so worker 0's first arrival isn't already late.
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = w; i < kArrivals; i += kWorkers) {
        const auto scheduled = start + interval * static_cast<int64_t>(i);
        std::this_thread::sleep_until(scheduled);
        QueryServer::Response response = server.Query(sources[i]);
        const double latency =
            std::chrono::duration<double>(Clock::now() - scheduled).count();
        if (response.shed) {
          ++shed[w];
        } else {
          latencies[w].push_back(latency);
          if (response.cache_hit) ++hits[w];
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  uint64_t total_shed = 0, total_hits = 0;
  for (size_t w = 0; w < kWorkers; ++w) {
    all.insert(all.end(), latencies[w].begin(), latencies[w].end());
    total_shed += shed[w];
    total_hits += hits[w];
  }
  std::sort(all.begin(), all.end());
  ServerStats stats = server.Stats();

  const double served = static_cast<double>(all.size());
  const double cache_lookups = static_cast<double>(stats.result_cache_hits +
                                                   stats.result_cache_misses);
  return {
      {"offered_qps", rate_qps},
      {"goodput_qps", wall > 0.0 ? served / wall : 0.0},
      {"shed_rate", static_cast<double>(total_shed) / kArrivals},
      {"p50_ms", QuantileMs(all, 0.5)},
      {"p95_ms", QuantileMs(all, 0.95)},
      {"p99_ms", QuantileMs(all, 0.99)},
      {"p999_ms", QuantileMs(all, 0.999)},
      {"machines_per_query", stats.machines_per_query_mean},
      {"machine_rounds", static_cast<double>(stats.routing_machine_rounds)},
      {"comm_kb_per_query",
       stats.queries > 0
           ? stats.comm.kilobytes() / static_cast<double>(stats.queries)
           : 0.0},
      {"routing_saved_kb",
       static_cast<double>(stats.routing_bytes_saved) / 1024.0},
      {"cache_hit_rate",
       cache_lookups > 0.0
           ? static_cast<double>(total_hits) / cache_lookups
           : 0.0},
  };
}

void RegisterRows() {
  AddRow("serving_scale/web/calibrate", [] {
    return Counters{{"capacity_qps", CalibratedCapacityQps()}};
  });
  AddRow("serving_scale/web/route/load=0.5", [] {
    return MeasureOpenLoop(ServingConfig{RoutingMode::kRoute}, 0.5);
  });
  AddRow("serving_scale/web/broadcast/load=0.5", [] {
    return MeasureOpenLoop(ServingConfig{RoutingMode::kBroadcast}, 0.5);
  });
  // Saturating rows: offered load ~2x capacity; admission control sheds
  // instead of letting the queue (and every latency percentile) run away.
  AddRow("serving_scale/web/route/load=2.0", [] {
    return MeasureOpenLoop(ServingConfig{RoutingMode::kRoute}, 2.0);
  });
  AddRow("serving_scale/web/broadcast/load=2.0", [] {
    return MeasureOpenLoop(ServingConfig{RoutingMode::kBroadcast}, 2.0);
  });
  AddRow("serving_scale/web/route+cache/load=0.5", [] {
    return MeasureOpenLoop(
        ServingConfig{RoutingMode::kRoute, /*cache_bytes=*/4 << 20}, 0.5);
  });
}

}  // namespace

DPPR_BENCH_MAIN(RegisterRows)
