#include "dppr/serve/query_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "dppr/core/hgpa.h"
#include "dppr/obs/metrics.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;

HgpaOptions ServeTestOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

// `graph` must stay alive in the caller's scope: the precomputation keeps a
// pointer to it.
HgpaQueryEngine MakeEngine(const Graph& graph, size_t machines) {
  auto pre = HgpaPrecomputation::RunHgpa(graph, ServeTestOptions());
  return HgpaQueryEngine(HgpaIndex::Distribute(pre, machines));
}

TEST(ConcurrentServing, EngineQueriesBitIdenticalToSequentialRun) {
  Graph graph = RandomDigraph(90, 3.0, 17);
  HgpaQueryEngine engine = MakeEngine(graph, 4);
  const size_t n = engine.index().graph().num_nodes();

  std::vector<SparseVector> expected(n);
  std::vector<CommStats> expected_comm(n);
  for (NodeId q = 0; q < n; ++q) {
    QueryMetrics metrics;
    expected[q] = engine.Query(q, &metrics);
    expected_comm[q] = metrics.comm;
  }

  constexpr size_t kThreads = 8;
  std::vector<SparseVector> got(n);
  std::vector<CommStats> got_comm(n);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (NodeId q = t; q < n; q += kThreads) {
        QueryMetrics metrics;
        got[q] = engine.Query(q, &metrics);
        got_comm[q] = metrics.comm;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (NodeId q = 0; q < n; ++q) {
    EXPECT_EQ(got[q], expected[q]) << "query " << q;
    EXPECT_EQ(got_comm[q].bytes, expected_comm[q].bytes) << "query " << q;
    EXPECT_EQ(got_comm[q].messages, expected_comm[q].messages) << "query " << q;
  }
}

TEST(ConcurrentServing, BatchedQueryMatchesSingleQueries) {
  Graph graph = RandomDigraph(80, 3.0, 5);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  using Preference = HgpaQueryEngine::Preference;

  std::vector<std::vector<Preference>> batch{
      {{7, 1.0}},
      {{3, 0.5}, {40, 0.5}},
      {{7, 1.0}},  // duplicate of the first query: identical answer expected
      {{12, 1.0}},
  };
  std::vector<QueryMetrics> per_query;
  QueryMetrics round;
  std::vector<SparseVector> got =
      engine.QueryPreferenceSetMany(batch, &per_query, &round);
  ASSERT_EQ(got.size(), batch.size());
  ASSERT_EQ(per_query.size(), batch.size());

  uint64_t fragment_bytes = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    QueryMetrics solo_metrics;
    SparseVector solo = engine.QueryPreferenceSet(batch[i], &solo_metrics);
    EXPECT_EQ(got[i], solo) << "batch slot " << i;
    // A query's own fragment traffic is unchanged by batching.
    EXPECT_EQ(per_query[i].comm.bytes, solo_metrics.comm.bytes) << i;
    EXPECT_GE(per_query[i].comm.messages, 1u) << i;
    EXPECT_LE(per_query[i].comm.messages, engine.index().num_machines()) << i;
    fragment_bytes += per_query[i].comm.bytes;
  }
  // The whole batch cost at most one message per machine (routing may skip
  // non-contributors), and the round's payloads are exactly the
  // concatenated per-query fragments.
  EXPECT_GE(round.comm.messages, 1u);
  EXPECT_LE(round.comm.messages, engine.index().num_machines());
  EXPECT_GE(round.comm.bytes, fragment_bytes);
}

TEST(ConcurrentServing, EmptyBatchIsFine) {
  Graph graph = RandomDigraph(40, 3.0, 9);
  HgpaQueryEngine engine = MakeEngine(graph, 2);
  std::vector<QueryMetrics> per_query;
  QueryMetrics round;
  EXPECT_TRUE(engine
                  .QueryPreferenceSetMany(
                      std::span<const std::vector<HgpaQueryEngine::Preference>>{},
                      &per_query, &round)
                  .empty());
  EXPECT_EQ(round.comm.messages, 0u);
}

TEST(ConcurrentServing, ServedRoundRecordsOneCoordinatorReduceSample) {
  // The coordinator's fold is timed by the same SimCluster code as the
  // offline reduce: one served round adds exactly one cluster.reduce_us
  // sample.
  Graph graph = RandomDigraph(60, 3.0, 31);
  QueryServer server(MakeEngine(graph, 3), ServeOptions{});
  obs::Histogram* reduce_us =
      obs::MetricsRegistry::Global().GetHistogram("cluster.reduce_us");
  const uint64_t before = reduce_us->TakeSnapshot().total;
  QueryServer::Response response = server.Query(11);
  ASSERT_FALSE(response.ppv.entries().empty());
  EXPECT_EQ(server.Stats().rounds, 1u);
  EXPECT_EQ(reduce_us->TakeSnapshot().total, before + 1);
}

TEST(ConcurrentServing, ServerAnswersBitIdenticalUnderContention) {
  Graph graph = RandomDigraph(90, 3.0, 23);
  HgpaQueryEngine engine = MakeEngine(graph, 4);
  const size_t n = engine.index().graph().num_nodes();

  std::vector<SparseVector> expected(n);
  std::vector<CommStats> expected_comm(n);
  uint64_t expected_total_bytes = 0;
  for (NodeId q = 0; q < n; ++q) {
    QueryMetrics metrics;
    expected[q] = engine.Query(q, &metrics);
    expected_comm[q] = metrics.comm;
    expected_total_bytes += metrics.comm.bytes;
  }

  ServeOptions options;
  options.max_batch = 4;
  QueryServer server(std::move(engine), options);

  constexpr size_t kThreads = 8;
  std::vector<SparseVector> got(n);
  std::vector<CommStats> got_comm(n);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (NodeId q = t; q < n; q += kThreads) {
        QueryServer::Response response = server.Query(q);
        got[q] = std::move(response.ppv);
        got_comm[q] = response.metrics.comm;
      }
    });
  }
  for (auto& thread : clients) thread.join();

  for (NodeId q = 0; q < n; ++q) {
    EXPECT_EQ(got[q], expected[q]) << "query " << q;
    EXPECT_EQ(got_comm[q].bytes, expected_comm[q].bytes) << "query " << q;
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queries, n);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_LE(stats.rounds, stats.queries);
  EXPECT_GE(stats.mean_batch, 1.0);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GE(stats.p95_latency_ms, stats.p50_latency_ms);
  // Batching never changes total coordinator ingress, only message count.
  EXPECT_EQ(stats.comm.bytes, expected_total_bytes);
}

TEST(ConcurrentServing, ServerPreferenceSetMatchesEngine) {
  Graph graph = RandomDigraph(70, 3.0, 31);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  std::vector<HgpaQueryEngine::Preference> prefs{{5, 0.6}, {44, 0.4}};
  SparseVector expected = engine.QueryPreferenceSet(prefs);
  QueryServer server(std::move(engine));
  QueryServer::Response response = server.QueryPreferenceSet(prefs);
  EXPECT_EQ(response.ppv, expected);
  EXPECT_GE(response.latency_seconds, 0.0);
}

TEST(ConcurrentServing, TopKReturnsHighestScoresInOrder) {
  Graph graph = RandomDigraph(70, 3.0, 41);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  SparseVector full = engine.Query(8);
  QueryServer server(std::move(engine));

  constexpr size_t kK = 5;
  QueryServer::TopKResponse topk = server.QueryTopK(8, kK);
  ASSERT_EQ(topk.top.size(), std::min(kK, full.size()));
  for (size_t i = 1; i < topk.top.size(); ++i) {
    EXPECT_GE(topk.top[i - 1].value, topk.top[i].value);
  }
  // Every reported score is a true entry, and no omitted entry beats the cut.
  for (const auto& entry : topk.top) {
    EXPECT_DOUBLE_EQ(full.ValueAt(entry.index), entry.value);
  }
  double cutoff = topk.top.back().value;
  size_t at_least_cutoff = 0;
  for (const auto& entry : full.entries()) {
    if (entry.value >= cutoff) ++at_least_cutoff;
  }
  EXPECT_GE(at_least_cutoff, topk.top.size());
}

TEST(ConcurrentServing, ResetStatsClearsWindow) {
  Graph graph = RandomDigraph(40, 3.0, 3);
  HgpaQueryEngine engine = MakeEngine(graph, 2);
  QueryServer server(std::move(engine));
  server.Query(1);
  server.Query(2);
  EXPECT_EQ(server.Stats().queries, 2u);
  server.ResetStats();
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.comm.bytes, 0u);
}

}  // namespace
}  // namespace dppr
