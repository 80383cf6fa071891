#include "dppr/serve/query_server.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <string>
#include <utility>

#include "dppr/common/env.h"
#include "dppr/common/macros.h"
#include "dppr/obs/trace.h"

namespace dppr {
namespace {

/// Distinct label per server instance, so several servers in one process
/// (equivalence tests run an inproc and a tcp server side by side) keep
/// independent series and windowed stats never bleed across servers.
std::string ServerLabel() {
  static std::atomic<uint64_t> next_id{0};
  return "{server=\"" +
         std::to_string(next_id.fetch_add(1, std::memory_order_relaxed)) +
         "\"}";
}

}  // namespace

ServeOptions ServeOptions::FromEnv() {
  ServeOptions options;
  int64_t max_pending = GetEnvInt("DPPR_MAX_PENDING", 0);
  DPPR_CHECK_GE(max_pending, 0);
  options.max_pending = static_cast<size_t>(max_pending);
  std::string admission = GetEnvString("DPPR_ADMISSION", "");
  if (admission == "shed") {
    options.shed_on_overload = true;
  } else if (admission == "block") {
    options.shed_on_overload = false;
  } else if (!admission.empty()) {
    // Same policy as the other knobs: a typo must not silently pick a
    // different overload behavior than the operator asked for.
    std::fprintf(stderr, "unknown DPPR_ADMISSION value: %s\n",
                 admission.c_str());
    DPPR_CHECK(admission == "shed" || admission == "block");
  }
  int64_t cache_bytes = GetEnvInt("DPPR_RESULT_CACHE_BYTES", 0);
  DPPR_CHECK_GE(cache_bytes, 0);
  options.result_cache_bytes = static_cast<size_t>(cache_bytes);
  options.slow_query_us = GetEnvInt("DPPR_SLOW_QUERY_US", -1);
  options.slow_query_log_path = GetEnvString("DPPR_SLOW_QUERY_LOG", "");
  return options;
}

QueryServer::QueryServer(HgpaQueryEngine engine, ServeOptions options)
    : engine_(std::move(engine)),
      options_(options),
      label_(ServerLabel()),
      cache_(ResultCache::Options{options.result_cache_bytes, 16}, label_),
      profiles_(ProfileLog::Options{options.slow_query_us,
                                    options.slow_query_log_path, 64, 32}) {
  DPPR_CHECK_GE(options_.max_batch, 1u);
  if (options_.thread_cpu_timer) {
    engine_.set_machine_timer(SimCluster::TimerKind::kThreadCpu);
  }
  auto& registry = obs::MetricsRegistry::Global();
  series_ = Series{registry.GetCounter("serve.queries" + label_),
                   registry.GetCounter("serve.rounds" + label_),
                   registry.GetCounter("serve.comm_bytes" + label_),
                   registry.GetCounter("serve.comm_messages" + label_),
                   registry.GetHistogram("serve.query_latency_us" + label_),
                   registry.GetHistogram("serve.admission_wait_us" + label_),
                   registry.GetHistogram("serve.batch_size" + label_),
                   registry.GetCounter("serve.shed" + label_),
                   registry.GetCounter("serve.routing.machine_rounds" + label_),
                   registry.GetCounter("serve.routing.bytes_saved" + label_),
                   registry.GetHistogram("serve.routing.machines_per_query" +
                                         label_)};
  window_baseline_ = CaptureBaseline();
  storage_baseline_ = engine_.index().StorageStatsTotal();
}

uint64_t QueryServer::CacheKey(NodeId source) const {
  // Mix the tolerance bits (and a kind byte, currently always full-PPV) so
  // entries from servers over differently-pruned indexes can never alias if
  // the key space is ever shared.
  uint64_t h = std::bit_cast<uint64_t>(engine_.index().options().ppr.tolerance);
  h ^= h >> 33;
  h *= 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  return h ^ static_cast<uint64_t>(source);
}

void QueryServer::Invalidate(NodeId source) {
  cache_.Invalidate(CacheKey(source));
}

void QueryServer::InvalidateAll() { cache_.InvalidateAll(); }

QueryServer::Response QueryServer::Query(NodeId node) {
  return Submit({{node, 1.0}});
}

QueryServer::Response QueryServer::QueryPreferenceSet(
    std::vector<Preference> preferences) {
  return Submit(std::move(preferences));
}

QueryServer::TopKResponse QueryServer::QueryTopK(NodeId node, size_t k) {
  Response full = Query(node);
  if (full.shed) {
    return TopKResponse{{},   full.metrics, full.latency_seconds,
                        true, false,        full.trace_id};
  }
  std::vector<SparseVector::Entry> entries(full.ppv.entries().begin(),
                                           full.ppv.entries().end());
  size_t keep = std::min(k, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + keep, entries.end(),
                    [](const SparseVector::Entry& a, const SparseVector::Entry& b) {
                      if (a.value != b.value) return a.value > b.value;
                      return a.index < b.index;
                    });
  entries.resize(keep);
  return TopKResponse{std::move(entries), full.metrics,   full.latency_seconds,
                      false,              full.cache_hit, full.trace_id};
}

QueryServer::Response QueryServer::Submit(std::vector<Preference> preferences) {
  // Every request gets a fresh trace identity at the front door; the scope
  // makes it the calling thread's context, so the serve.request span — and,
  // via SimCluster's context re-establishment, every machine/store/net span
  // and frame header this request causes — carries its trace id.
  const obs::TraceContext trace{obs::NewTraceId(), obs::NewTraceId()};
  obs::TraceContextScope trace_scope(trace);
  // Single-source weight-1.0 identity, for the cache and the profile.
  const NodeId source = preferences.size() == 1 && preferences[0].weight == 1.0
                            ? preferences[0].node
                            : kInvalidNode;
  const size_t num_preferences = preferences.size();

  // Front-door cache: only single-source weight-1.0 requests are cacheable
  // (preference sets are combinatorial — caching them would thrash the
  // budget for near-zero reuse). A hit never touches the cluster.
  const bool cacheable = cache_.enabled() && source != kInvalidNode;
  uint64_t cache_key = 0;
  if (cacheable) {
    cache_key = CacheKey(source);
    WallTimer lookup;
    if (std::shared_ptr<const SparseVector> hit = cache_.Find(cache_key)) {
      Response response;
      response.ppv = *hit;
      response.cache_hit = true;
      response.latency_seconds = lookup.ElapsedSeconds();
      response.trace_id = trace.trace_id;
      // A hit is a served query: it counts into qps and the latency
      // histogram (that is the goodput the cache buys), but runs no round.
      series_.queries->Add(1);
      series_.latency_us->Record(
          static_cast<uint64_t>(response.latency_seconds * 1e6));
      series_.machines_per_query->Record(0);
      QueryProfile profile;
      profile.trace_id = trace.trace_id;
      profile.outcome = QueryProfile::Outcome::kCacheHit;
      profile.source = source;
      profile.num_preferences = num_preferences;
      profile.latency_seconds = response.latency_seconds;
      profiles_.Observe(profile);
      return response;
    }
  }

  Request request;
  request.preferences = std::move(preferences);
  request.cacheable = cacheable;
  request.cache_key = cache_key;
  request.trace = trace;

  obs::TraceSpan span(obs::kCoordinatorLane, "serve.request");

  std::unique_lock<std::mutex> lock(mu_);
  if (options_.max_pending > 0 && pending_.size() >= options_.max_pending) {
    if (options_.shed_on_overload) {
      series_.shed->Increment();
      Response response;
      response.shed = true;
      response.trace_id = trace.trace_id;
      QueryProfile profile;
      profile.trace_id = trace.trace_id;
      profile.outcome = QueryProfile::Outcome::kShed;
      profile.source = source;
      profile.num_preferences = num_preferences;
      lock.unlock();  // Observe may touch the log sink; don't hold mu_
      profiles_.Observe(profile);
      return response;
    }
    // Block policy: wait for the leader to drain the queue below the bound.
    done_cv_.wait(lock,
                  [&] { return pending_.size() < options_.max_pending; });
  }
  request.id = next_request_id_++;
  span.Arg("request", request.id);
  request.admitted.Restart();
  pending_.push_back(&request);
  while (!request.done) {
    if (!leader_active_) {
      // Combining leader: serve FIFO batches until our own request is done,
      // then hand leadership to a still-waiting thread. Leading only to our
      // own completion (not until the queue drains) keeps every caller's
      // latency bounded under sustained load — a drain-to-empty leader never
      // returns while new requests keep arriving.
      leader_active_ = true;
      while (!request.done) RunOneBatch(lock);
      leader_active_ = false;
      if (!pending_.empty()) done_cv_.notify_all();
    } else {
      done_cv_.wait(lock, [&] { return request.done || !leader_active_; });
    }
  }
  Response response;
  response.ppv = std::move(request.result);
  response.metrics = request.metrics;
  response.latency_seconds = request.latency_seconds;
  response.trace_id = trace.trace_id;
  return response;
}

void QueryServer::RunOneBatch(std::unique_lock<std::mutex>& lock) {
  // The leader only loops while its own request is unanswered, and that
  // request sits in pending_ until the batch that answers it.
  DPPR_CHECK(!pending_.empty());
  size_t take = std::min(options_.max_batch, pending_.size());
  std::vector<Request*> batch(pending_.begin(), pending_.begin() + take);
  pending_.erase(pending_.begin(), pending_.begin() + take);

  obs::Tracer& tracer = obs::Tracer::Global();
  std::vector<std::vector<Preference>> queries;
  queries.reserve(take);
  // Profile skeletons: request identity must be copied out before the
  // preferences move below (and before waiters can wake and destroy their
  // stack-allocated Requests).
  std::vector<QueryProfile> profiles(take);
  for (size_t i = 0; i < take; ++i) {
    Request* request = batch[i];
    // Admission wait ends here: the request leaves the queue for a round.
    request->wait_seconds = request->admitted.ElapsedSeconds();
    series_.admission_wait_us->Record(
        static_cast<uint64_t>(request->wait_seconds * 1e6));
    if (tracer.enabled()) {
      const double wait_us = request->wait_seconds * 1e6;
      // Recorded on the request's behalf: the leader's thread runs this, so
      // the wait span carries the waiter's context explicitly.
      tracer.RecordComplete("serve.wait", tracer.NowMicros() - wait_us,
                            wait_us, obs::kCoordinatorLane,
                            {{{"request", request->id}, {}, {}}},
                            request->trace);
    }
    QueryProfile& profile = profiles[i];
    profile.trace_id = request->trace.trace_id;
    profile.request_id = request->id;
    profile.num_preferences = request->preferences.size();
    if (profile.num_preferences == 1 &&
        request->preferences[0].weight == 1.0) {
      profile.source = request->preferences[0].node;
    }
    profile.wait_seconds = request->wait_seconds;
    profile.batch_size = take;
    // Moved, not copied: the request only needs its result from here on.
    queries.push_back(std::move(request->preferences));
  }
  series_.batch_size->Record(take);

  lock.unlock();
  std::vector<QueryMetrics> per_query;
  QueryMetrics round;
  std::vector<SparseVector> ppvs;
  const StorageStats storage_before = engine_.index().StorageStatsTotal();
  {
    // The shared round runs under the FIRST request's context: its trace id
    // is what the round's machine/store/net spans and frame headers carry.
    // Exact for unbatched serving; under batching the other members'
    // profiles still link to the round via round_id.
    obs::TraceContextScope round_ctx(batch.front()->trace);
    obs::TraceSpan round_span(obs::kCoordinatorLane, "serve.round");
    round_span.Arg("batch", take);
    round_span.Arg("first_request", batch.front()->id);
    ppvs = engine_.QueryPreferenceSetMany(queries, &per_query, &round);
  }
  const StorageStats round_storage =
      engine_.index().StorageStatsTotal().Since(storage_before);
  // Populate the result cache before re-locking: Insert copies the vector
  // and takes only the shard's own mutex, so waiters aren't held up by it.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i]->cacheable) cache_.Insert(batch[i]->cache_key, ppvs[i]);
  }
  lock.lock();

  for (size_t i = 0; i < batch.size(); ++i) {
    Request* request = batch[i];
    request->result = std::move(ppvs[i]);
    request->metrics = per_query[i];
    request->latency_seconds = request->admitted.ElapsedSeconds();
    request->done = true;
    series_.latency_us->Record(
        static_cast<uint64_t>(request->latency_seconds * 1e6));
    series_.machines_per_query->Record(per_query[i].machines_contacted);

    // Attribution, not re-measurement: every number below is copied from
    // the same QueryMetrics / StorageStats the aggregate counters are fed
    // from, so profile totals reconcile exactly with the registry deltas.
    QueryProfile& profile = profiles[i];
    profile.latency_seconds = request->latency_seconds;
    profile.round_id = per_query[i].round_id;
    profile.machines = per_query[i].machines;
    profile.machines_contacted = per_query[i].machines_contacted;
    profile.fragment_comm = per_query[i].comm;
    profile.round_comm = round.comm;
    profile.routing_bytes_saved = per_query[i].routing_bytes_saved;
    profile.machine_seconds = round.machine_seconds;
    profile.max_machine_seconds = round.max_machine_seconds;
    profile.coordinator_seconds = round.coordinator_seconds;
    profile.storage = round_storage;
  }
  series_.queries->Add(take);
  series_.rounds->Increment();
  series_.comm_bytes->Add(round.comm.bytes);
  series_.comm_messages->Add(round.comm.messages);
  // Machine-rounds: machines this round actually ran on (the whole cluster
  // under broadcast; the participant union under routing).
  series_.routing_machine_rounds->Add(round.machines_contacted);
  series_.routing_bytes_saved->Add(round.routing_bytes_saved);
  done_cv_.notify_all();

  // Profile observation (ring updates + possible slow-log file I/O) happens
  // outside mu_ so waiters and new arrivals are never held up by it.
  lock.unlock();
  for (const QueryProfile& profile : profiles) profiles_.Observe(profile);
  lock.lock();
}

QueryServer::WindowBaseline QueryServer::CaptureBaseline() const {
  return WindowBaseline{series_.queries->Value(),
                        series_.rounds->Value(),
                        series_.comm_bytes->Value(),
                        series_.comm_messages->Value(),
                        series_.latency_us->TakeSnapshot(),
                        series_.shed->Value(),
                        series_.routing_machine_rounds->Value(),
                        series_.routing_bytes_saved->Value(),
                        series_.machines_per_query->TakeSnapshot(),
                        cache_.hits(),
                        cache_.misses(),
                        cache_.evictions()};
}

ServerStats QueryServer::Stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  ServerStats stats;
  stats.queries = series_.queries->Value() - window_baseline_.queries;
  stats.rounds = series_.rounds->Value() - window_baseline_.rounds;
  stats.wall_seconds = window_.ElapsedSeconds();
  stats.qps = stats.wall_seconds > 0.0
                  ? static_cast<double>(stats.queries) / stats.wall_seconds
                  : 0.0;
  stats.mean_batch =
      stats.rounds > 0 ? static_cast<double>(stats.queries) /
                             static_cast<double>(stats.rounds)
                       : 0.0;
  const obs::Histogram::Snapshot window =
      series_.latency_us->TakeSnapshot().Since(window_baseline_.latency);
  stats.p50_latency_ms = static_cast<double>(window.Quantile(0.5)) / 1e3;
  stats.p95_latency_ms = static_cast<double>(window.Quantile(0.95)) / 1e3;
  stats.p99_latency_ms = static_cast<double>(window.Quantile(0.99)) / 1e3;
  stats.p999_latency_ms = static_cast<double>(window.Quantile(0.999)) / 1e3;
  stats.comm.bytes = series_.comm_bytes->Value() - window_baseline_.comm_bytes;
  stats.comm.messages =
      series_.comm_messages->Value() - window_baseline_.comm_messages;
  StorageStats storage =
      engine_.index().StorageStatsTotal().Since(storage_baseline_);
  stats.cache_hits = storage.cache_hits;
  stats.cache_misses = storage.cache_misses;
  stats.disk_bytes_read = storage.disk_bytes_read;
  stats.prefetch_issued = storage.prefetch_issued;
  stats.prefetch_hits = storage.prefetch_hits;
  stats.prefetch_coalesced_reads = storage.prefetch_coalesced_reads;
  stats.prefetch_bytes = storage.prefetch_bytes;
  stats.shed = series_.shed->Value() - window_baseline_.shed;
  stats.routing_machine_rounds = series_.routing_machine_rounds->Value() -
                                 window_baseline_.routing_machine_rounds;
  stats.routing_bytes_saved = series_.routing_bytes_saved->Value() -
                              window_baseline_.routing_bytes_saved;
  stats.machines_per_query_mean = series_.machines_per_query->TakeSnapshot()
                                      .Since(window_baseline_.machines_per_query)
                                      .Mean();
  stats.result_cache_hits = cache_.hits() - window_baseline_.cache_hits;
  stats.result_cache_misses = cache_.misses() - window_baseline_.cache_misses;
  stats.result_cache_evictions =
      cache_.evictions() - window_baseline_.cache_evictions;
  stats.result_cache_bytes = static_cast<uint64_t>(
      std::max<int64_t>(cache_.bytes(), 0));
  return stats;
}

void QueryServer::ResetStats() {
  std::unique_lock<std::mutex> lock(mu_);
  window_baseline_ = CaptureBaseline();
  storage_baseline_ = engine_.index().StorageStatsTotal();
  window_.Restart();
}

std::vector<QueryProfile> QueryServer::RecentProfiles() const {
  return profiles_.Recent();
}

std::vector<QueryProfile> QueryServer::RecentSlowQueries() const {
  return profiles_.RecentSlow();
}

std::string QueryServer::StatusJson() const {
  const ServerStats stats = Stats();
  const HgpaIndex& index = engine_.index();
  char buf[256];
  std::string out = "{";

  // Placement plan summary.
  const std::vector<size_t> bytes_per_machine = index.BytesPerMachine();
  std::snprintf(buf, sizeof(buf),
                "\"placement\":{\"machines\":%zu,\"routing\":\"%s\","
                "\"max_machine_bytes\":%zu,\"total_bytes\":%zu,"
                "\"bytes_per_machine\":[",
                index.num_machines(), RoutingModeName(engine_.routing_mode()),
                index.MaxMachineBytes(), index.TotalBytes());
  out += buf;
  for (size_t m = 0; m < bytes_per_machine.size(); ++m) {
    std::snprintf(buf, sizeof(buf), "%s%zu", m == 0 ? "" : ",",
                  bytes_per_machine[m]);
    out += buf;
  }
  out += "]},";

  std::snprintf(
      buf, sizeof(buf),
      "\"serving\":{\"queries\":%llu,\"rounds\":%llu,\"qps\":%.2f,"
      "\"mean_batch\":%.3f,\"shed\":%llu,\"p50_latency_ms\":%.3f,"
      "\"p99_latency_ms\":%.3f,\"comm_bytes\":%llu,"
      "\"routing_machine_rounds\":%llu,\"routing_bytes_saved\":%llu},",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.rounds), stats.qps,
      stats.mean_batch, static_cast<unsigned long long>(stats.shed),
      stats.p50_latency_ms, stats.p99_latency_ms,
      static_cast<unsigned long long>(stats.comm.bytes),
      static_cast<unsigned long long>(stats.routing_machine_rounds),
      static_cast<unsigned long long>(stats.routing_bytes_saved));
  out += buf;

  std::snprintf(
      buf, sizeof(buf),
      "\"result_cache\":{\"enabled\":%s,\"hits\":%llu,\"misses\":%llu,"
      "\"evictions\":%llu,\"entries\":%zu,\"bytes\":%llu},",
      cache_.enabled() ? "true" : "false",
      static_cast<unsigned long long>(stats.result_cache_hits),
      static_cast<unsigned long long>(stats.result_cache_misses),
      static_cast<unsigned long long>(stats.result_cache_evictions),
      cache_.entries(),
      static_cast<unsigned long long>(stats.result_cache_bytes));
  out += buf;

  out += "\"slow_queries\":[";
  const std::vector<QueryProfile> slow = profiles_.RecentSlow();
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i > 0) out += ",";
    out += slow[i].ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace dppr
