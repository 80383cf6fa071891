#ifndef DPPR_SERVE_QUERY_SERVER_H_
#define DPPR_SERVE_QUERY_SERVER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "dppr/common/timer.h"
#include "dppr/core/hgpa.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"
#include "dppr/serve/query_profile.h"
#include "dppr/serve/result_cache.h"

namespace dppr {

/// Serving configuration.
struct ServeOptions {
  /// Upper bound on queries folded into one cluster round. 1 disables
  /// batching: every request pays its own round (and its own per-machine
  /// message latency).
  size_t max_batch = 16;
  /// Charge machine compute in per-thread CPU time instead of wall time, so
  /// concurrent rounds contending for cores don't inflate each other's
  /// machine_seconds (SimCluster::TimerKind::kThreadCpu).
  bool thread_cpu_timer = true;
  /// Admission bound: maximum requests waiting in the pending queue. 0 means
  /// unbounded (the historical behavior). With a bound, an arrival finding
  /// the queue full is shed (Response::shed, counted in `serve.shed`) or
  /// blocks until space frees, per shed_on_overload.
  size_t max_pending = 0;
  /// Full-queue policy: true sheds (degrade gracefully, keep latency
  /// bounded), false blocks the caller (backpressure instead of loss).
  bool shed_on_overload = true;
  /// Front-door result cache budget in bytes; 0 disables. Cacheable
  /// requests are single-source weight-1.0 queries (Query / QueryTopK);
  /// preference sets always recompute.
  size_t result_cache_bytes = 0;
  /// Slow-query threshold in microseconds: a completed request at or over it
  /// is written to the structured JSONL slow-query log and retained in the
  /// slow ring. < 0 disables the log (profiles still enter the recent ring);
  /// 0 logs every request.
  int64_t slow_query_us = -1;
  /// Slow-query JSONL sink (appended); empty logs to stderr.
  std::string slow_query_log_path;

  /// Env-tunable serving knobs: DPPR_MAX_PENDING (count; 0 unbounded),
  /// DPPR_ADMISSION ("shed" | "block"; a typo dies),
  /// DPPR_RESULT_CACHE_BYTES (bytes; 0 off), DPPR_SLOW_QUERY_US (µs; unset
  /// off, 0 logs everything), and DPPR_SLOW_QUERY_LOG (path; empty stderr).
  /// max_batch/thread_cpu_timer keep their defaults — they are call-site
  /// decisions.
  static ServeOptions FromEnv();
};

/// Aggregate serving statistics since construction or the last ResetStats().
///
/// Every number is a windowed view over this server's metric series in the
/// process-wide obs::MetricsRegistry (each server registers its own
/// `serve.*{server="N"}` series at construction): Stats() reads the live
/// registry values and subtracts the window baseline, so ServerStats and a
/// DPPR_METRICS_DUMP snapshot can never disagree — there is exactly one set
/// of counters, and the latency percentiles are exact quantile queries over
/// the same `serve.query_latency_us` histogram the dump renders.
struct ServerStats {
  uint64_t queries = 0;
  /// Cluster rounds run; queries/rounds is the realized mean batch size.
  uint64_t rounds = 0;
  /// Observation window (wall time since construction / ResetStats).
  double wall_seconds = 0.0;
  /// queries / wall_seconds.
  double qps = 0.0;
  double mean_batch = 0.0;
  /// Request latency percentiles in milliseconds: admission to completion,
  /// so queueing and batching delay are included. Quantiles of the server's
  /// registry histogram over the whole stats window, at the histogram's
  /// log-bucket resolution (<= 3.125% relative error; see obs::Histogram).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double p999_latency_ms = 0.0;
  /// Coordinator ingress across all rounds (bytes shipped).
  CommStats comm;
  /// Residency view over the window, summed across machine stores: lookups
  /// served from RAM vs. spill-file reads (cold vs. warm serving). In-memory
  /// backends only ever count hits; nonzero misses / disk bytes mean the
  /// disk backend's cache budget is doing real eviction work.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t disk_bytes_read = 0;
  /// Batched extent prefetch over the window (disk backend with
  /// DPPR_PREFETCH=on; zero otherwise): loads started by Prefetch, keys
  /// already resident when examined, coalesced preads issued, and bytes
  /// those reads pulled in.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_coalesced_reads = 0;
  uint64_t prefetch_bytes = 0;
  /// Requests rejected by admission control (queue full under
  /// ServeOptions::max_pending with shed_on_overload).
  uint64_t shed = 0;
  /// Front-door result cache over the window (serve.cache.*; all zero when
  /// ServeOptions::result_cache_bytes is 0). `result_cache_bytes` is the
  /// current resident size, not a windowed delta.
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_evictions = 0;
  uint64_t result_cache_bytes = 0;
  /// Shard routing over the window: mean machines per served query (n under
  /// broadcast), total machine-rounds (Σ machines contacted), and bytes the
  /// routed rounds did not ship versus a broadcast fan-out.
  double machines_per_query_mean = 0.0;
  uint64_t routing_machine_rounds = 0;
  uint64_t routing_bytes_saved = 0;
};

/// Concurrent query front-end over one shared HgpaIndex/HgpaQueryEngine.
///
/// Many client threads call Query / QueryPreferenceSet / QueryTopK
/// concurrently; each call blocks until its answer is ready. Compatible
/// in-flight requests are folded into shared SimCluster rounds: the first
/// thread to find no round in progress becomes the batch leader, serves
/// FIFO chunks of at most ServeOptions::max_batch through
/// HgpaQueryEngine::QueryPreferenceSetMany (one communication round per
/// chunk) until its own request is answered, then hands leadership to a
/// waiting thread — so every caller's latency stays bounded under sustained
/// load. Threads arriving while a leader is active enqueue and sleep.
/// Answers are bit-identical to unbatched queries — batching changes only
/// cost sharing, never results.
///
/// With DPPR_TRACE set, every request contributes spans to the process
/// trace: `serve.request` (admission to completion, on the caller's
/// thread), `serve.wait` (time parked in the admission queue), and
/// `serve.round` around each leader batch — plus the per-machine
/// `cluster.machine` spans of the round itself.
class QueryServer {
 public:
  using Preference = HgpaQueryEngine::Preference;

  /// Takes the engine by value (an engine is a cheap handle over the shared
  /// precomputation) and owns it for the server's lifetime. The default
  /// options pick up the serving env knobs (DPPR_MAX_PENDING,
  /// DPPR_ADMISSION, DPPR_RESULT_CACHE_BYTES).
  explicit QueryServer(HgpaQueryEngine engine,
                       ServeOptions options = ServeOptions::FromEnv());

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  struct Response {
    SparseVector ppv;
    /// Per-query view of the round that served it: comm is this query's own
    /// fragment traffic; compute/latency fields are the shared round's.
    QueryMetrics metrics;
    /// Admission to completion (includes queueing + batching delay).
    double latency_seconds = 0.0;
    /// Rejected by admission control: ppv is empty and no round ran. Callers
    /// are expected to retry with backoff.
    bool shed = false;
    /// Served from the front-door result cache: no round ran, metrics.comm
    /// is zero.
    bool cache_hit = false;
    /// Trace id minted for this request — the id its spans, frame headers,
    /// and QueryProfile carry (0 only for default-constructed responses).
    uint64_t trace_id = 0;
  };

  /// Single-node PPV.
  Response Query(NodeId node);

  /// PPV of an arbitrary Jeh–Widom preference set.
  Response QueryPreferenceSet(std::vector<Preference> preferences);

  struct TopKResponse {
    /// The k highest-scoring (node, value) pairs, descending by value, ties
    /// broken by node id.
    std::vector<SparseVector::Entry> top;
    QueryMetrics metrics;
    double latency_seconds = 0.0;
    bool shed = false;
    bool cache_hit = false;
    uint64_t trace_id = 0;
  };

  /// Top-k nodes of `node`'s PPV (k = 0 returns the full ranking header,
  /// i.e. an empty list).
  TopKResponse QueryTopK(NodeId node, size_t k);

  /// Drops `source`'s cached result so the next query recomputes — the hook
  /// the incremental-refresh path calls when an update touches a source's
  /// PPV. No-ops when the cache is disabled.
  void Invalidate(NodeId source);
  void InvalidateAll();

  /// Snapshot of the aggregate stats; safe to call while serving.
  ServerStats Stats() const;
  void ResetStats();

  /// Newest-first per-query cost profiles (bounded rings; see ProfileLog).
  /// Safe to call while serving.
  std::vector<QueryProfile> RecentProfiles() const;
  std::vector<QueryProfile> RecentSlowQueries() const;

  /// Live introspection JSON for the admin plane's /statusz: placement
  /// summary, serving stats, result-cache occupancy, and the
  /// recent slow queries. Safe to call while serving.
  std::string StatusJson() const;

  const HgpaQueryEngine& engine() const { return engine_; }
  const ServeOptions& options() const { return options_; }

 private:
  struct Request {
    std::vector<Preference> preferences;
    SparseVector result;
    QueryMetrics metrics;
    double latency_seconds = 0.0;
    bool done = false;
    /// Server-unique request id; trace spans carry it so a request's wait,
    /// round, and completion line up in the timeline.
    uint64_t id = 0;
    /// Trace context minted at admission; the leader re-establishes it
    /// around the round and stamps it on spans recorded on the request's
    /// behalf.
    obs::TraceContext trace;
    /// Admission-queue time, recorded when a leader picks the request up.
    double wait_seconds = 0.0;
    /// Insert the result into the result cache under cache_key when done
    /// (single-source weight-1.0 queries with the cache enabled).
    bool cacheable = false;
    uint64_t cache_key = 0;
    WallTimer admitted;
  };

  /// This server's registry series (`serve.*{server="N"}`). Resolved once
  /// at construction; pointers live for the process lifetime.
  struct Series {
    obs::Counter* queries;
    obs::Counter* rounds;
    obs::Counter* comm_bytes;
    obs::Counter* comm_messages;
    obs::Histogram* latency_us;
    obs::Histogram* admission_wait_us;
    obs::Histogram* batch_size;
    obs::Counter* shed;
    obs::Counter* routing_machine_rounds;
    obs::Counter* routing_bytes_saved;
    obs::Histogram* machines_per_query;
  };

  /// Registry values at the start of the stats window; Stats() reports
  /// deltas from here (the registry series are monotonic process-wide).
  struct WindowBaseline {
    uint64_t queries = 0;
    uint64_t rounds = 0;
    uint64_t comm_bytes = 0;
    uint64_t comm_messages = 0;
    obs::Histogram::Snapshot latency;
    uint64_t shed = 0;
    uint64_t routing_machine_rounds = 0;
    uint64_t routing_bytes_saved = 0;
    obs::Histogram::Snapshot machines_per_query;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_evictions = 0;
  };

  /// Cache key for a single-source full-PPV query: the source mixed with
  /// the index's prune tolerance and the query kind, so a future
  /// multi-tolerance server never collides entries.
  uint64_t CacheKey(NodeId source) const;

  Response Submit(std::vector<Preference> preferences);
  /// Leader: takes up to max_batch requests off the queue, runs one cluster
  /// round, publishes results. `lock` is held on entry and exit.
  void RunOneBatch(std::unique_lock<std::mutex>& lock);
  /// Call with mu_ held.
  WindowBaseline CaptureBaseline() const;

  HgpaQueryEngine engine_;
  ServeOptions options_;
  /// Registry label suffix of this server (`{server="N"}`); declared before
  /// cache_, which registers its series under it.
  std::string label_;
  ResultCache cache_;
  Series series_;
  /// Per-query cost profiles + the slow-query JSONL log. Internally locked
  /// (never under mu_ — Observe may do file I/O).
  ProfileLog profiles_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::deque<Request*> pending_;
  bool leader_active_ = false;
  uint64_t next_request_id_ = 0;

  // Stats window state, guarded by mu_ (the registry series themselves are
  // atomic; the baseline and wall timer define this server's window).
  WindowBaseline window_baseline_;
  /// Storage counters at the window start (the stores' own counters are
  /// monotonic for their whole lifetime).
  StorageStats storage_baseline_;
  WallTimer window_;
};

}  // namespace dppr

#endif  // DPPR_SERVE_QUERY_SERVER_H_
