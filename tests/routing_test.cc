#include "dppr/core/routing.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "dppr/core/hgpa.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;
using Preference = HgpaQueryEngine::Preference;

HgpaOptions RoutingTestOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

std::shared_ptr<const HgpaPrecomputation> Precompute(const Graph& graph,
                                                     bool hgpa = true) {
  HgpaOptions options = RoutingTestOptions();
  if (!hgpa) options.hierarchy.max_levels = 1;  // GPA: flat hierarchy
  return HgpaPrecomputation::RunHgpa(graph, options);
}

/// Sparse enough that the root subgraph has only two hubs: at 3, 4 and 8
/// machines some machines own no hub on a query's chain, so routed plans
/// really skip machines (on denser graphs Eq. 7 spreads the root's hubs
/// over every machine and each plan is the trivial one).
Graph PruningGraph() { return RandomDigraph(40, 1.2, 7); }

HgpaQueryEngine MakeEngine(std::shared_ptr<const HgpaPrecomputation> pre,
                           size_t machines, RoutingMode mode) {
  return HgpaQueryEngine(HgpaIndex::Distribute(std::move(pre), machines),
                         NetworkModel{}, TransportOptions::FromEnv(),
                         RoutingOptions{mode});
}

/// Brute-force routing set: the sources' own-vector machines plus every
/// machine owning hubs in a subgraph on one of their chains.
std::vector<size_t> BruteForceMachines(const HgpaIndex& index,
                                       const std::vector<NodeId>& sources) {
  std::set<size_t> machines;
  for (NodeId u : sources) {
    machines.insert(index.own_vector_machine(u));
    for (SubgraphId sub : index.hierarchy().Chain(u)) {
      for (size_t m = 0; m < index.num_machines(); ++m) {
        if (index.hubs_on_machine(m).count(sub) > 0) machines.insert(m);
      }
    }
  }
  return {machines.begin(), machines.end()};
}

/// A routed query must be the trivial plan's query minus the empty
/// fragments of the machines it skipped: the same answer bit for bit, and a
/// comm ledger that differs by exactly one empty fragment (and one message)
/// per skipped machine — routing_bytes_saved.
void ExpectMatchesTrivialPlan(const SparseVector& routed_ppv,
                              const QueryMetrics& routed,
                              const SparseVector& trivial_ppv,
                              const QueryMetrics& trivial, size_t machines,
                              const std::string& what) {
  EXPECT_EQ(routed_ppv, trivial_ppv) << what;
  EXPECT_EQ(trivial.machines_contacted, machines) << what;
  EXPECT_EQ(trivial.routing_bytes_saved, 0u) << what;
  EXPECT_EQ(trivial.comm.messages, machines) << what;
  ASSERT_LE(routed.machines_contacted, machines) << what;
  const size_t skipped = machines - routed.machines_contacted;
  EXPECT_EQ(routed.routing_bytes_saved,
            skipped * SparseVector().SerializedBytes())
      << what;
  EXPECT_EQ(routed.comm.bytes + routed.routing_bytes_saved,
            trivial.comm.bytes)
      << what;
  EXPECT_EQ(routed.comm.messages + skipped, trivial.comm.messages) << what;
}

class RoutedVsTrivialPlan
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {
 protected:
  bool hgpa() const { return std::get<0>(GetParam()); }
  size_t machines() const { return std::get<1>(GetParam()); }
};

TEST_P(RoutedVsTrivialPlan, SingleNodeQueries) {
  Graph graph = PruningGraph();
  auto pre = Precompute(graph, hgpa());
  HgpaQueryEngine routed = MakeEngine(pre, machines(), RoutingMode::kRoute);
  HgpaQueryEngine trivial =
      MakeEngine(pre, machines(), RoutingMode::kBroadcast);
  ASSERT_EQ(routed.routing_mode(), RoutingMode::kRoute);
  ASSERT_EQ(trivial.routing_mode(), RoutingMode::kBroadcast);
  size_t pruned = 0;
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    QueryMetrics routed_metrics, trivial_metrics;
    SparseVector a = routed.Query(q, &routed_metrics);
    SparseVector b = trivial.Query(q, &trivial_metrics);
    ExpectMatchesTrivialPlan(a, routed_metrics, b, trivial_metrics, machines(),
                             "query " + std::to_string(q));
    EXPECT_GE(routed_metrics.machines_contacted, 1u) << "query " << q;
    if (routed_metrics.machines_contacted < machines()) ++pruned;
  }
  // Otherwise every plan is the trivial one and the comparison is vacuous.
  EXPECT_GT(pruned, 0u);
}

TEST_P(RoutedVsTrivialPlan, MixedBatchesAndPreferenceSets) {
  Graph graph = PruningGraph();
  auto pre = Precompute(graph, hgpa());
  HgpaQueryEngine routed = MakeEngine(pre, machines(), RoutingMode::kRoute);
  HgpaQueryEngine trivial =
      MakeEngine(pre, machines(), RoutingMode::kBroadcast);

  // Single nodes, preference sets, a repeat, zero-weight entries mixed into
  // a set, and an all-zero set (routed: no machine runs for it).
  std::vector<std::vector<Preference>> batch{
      {{7, 1.0}},
      {{3, 0.5}, {30, 0.5}},
      {{12, 0.25}, {13, 0.25}, {36, 0.5}},
      {{7, 1.0}},
      {{21, 0.0}, {35, 1.0}},
      {{5, 0.0}},
      {{39, 0.3}, {0, 0.7}},
  };
  std::vector<QueryMetrics> routed_per_query, trivial_per_query;
  QueryMetrics routed_round, trivial_round;
  std::vector<SparseVector> got =
      routed.QueryPreferenceSetMany(batch, &routed_per_query, &routed_round);
  std::vector<SparseVector> want =
      trivial.QueryPreferenceSetMany(batch, &trivial_per_query, &trivial_round);
  ASSERT_EQ(got.size(), batch.size());
  ASSERT_EQ(want.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectMatchesTrivialPlan(got[i], routed_per_query[i], want[i],
                             trivial_per_query[i], machines(),
                             "slot " + std::to_string(i));
    // A batched answer and its per-query ledger equal the query's own round.
    QueryMetrics alone;
    EXPECT_EQ(routed.QueryPreferenceSet(batch[i], &alone), got[i])
        << "slot " << i;
    EXPECT_EQ(alone.comm.bytes, routed_per_query[i].comm.bytes) << "slot " << i;
    EXPECT_EQ(alone.comm.messages, routed_per_query[i].comm.messages)
        << "slot " << i;
  }
  // The all-zero set contacts no machine under routing.
  EXPECT_EQ(got[5].size(), 0u);
  EXPECT_EQ(routed_per_query[5].machines_contacted, 0u);
  EXPECT_EQ(routed_per_query[5].comm.messages, 0u);
  // Whole-round ledger: one payload per participant, and the routed bytes
  // are the trivial plan's minus every skipped empty fragment.
  EXPECT_EQ(trivial_round.comm.messages, machines());
  EXPECT_EQ(routed_round.comm.messages, routed_round.machines_contacted);
  EXPECT_EQ(routed_round.comm.bytes + routed_round.routing_bytes_saved,
            trivial_round.comm.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    HgpaAndGpa, RoutedVsTrivialPlan,
    ::testing::Combine(::testing::Bool(), ::testing::Values(3, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<bool, size_t>>& info) {
      return std::string(std::get<0>(info.param) ? "Hgpa" : "Gpa") + "_m" +
             std::to_string(std::get<1>(info.param));
    });

TEST(QueryRouting, ZeroWeightPreferencesContactNoMachines) {
  Graph graph = RandomDigraph(40, 3.0, 9);
  auto pre = Precompute(graph);
  HgpaQueryEngine routed = MakeEngine(pre, 3, RoutingMode::kRoute);
  QueryMetrics metrics;
  SparseVector ppv = routed.QueryPreferenceSet(
      std::vector<Preference>{{5, 0.0}}, &metrics);
  EXPECT_EQ(ppv.size(), 0u);
  EXPECT_EQ(metrics.machines_contacted, 0u);
  EXPECT_EQ(metrics.comm.messages, 0u);
}

TEST(QueryRouting, ManyMachinesLeaveNonContributors) {
  // More machines than any one chain touches: routing must skip machines
  // outright.
  Graph graph = RandomDigraph(40, 1.5, 7);
  auto pre = Precompute(graph);
  HgpaQueryEngine routed = MakeEngine(pre, 8, RoutingMode::kRoute);
  bool any_skipped = false;
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    QueryMetrics metrics;
    routed.Query(q, &metrics);
    if (metrics.machines_contacted < 8) any_skipped = true;
  }
  EXPECT_TRUE(any_skipped);
}

TEST(QueryRouting, PlanMatchesBruteForce) {
  Graph graph = PruningGraph();
  auto pre = Precompute(graph);
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  for (size_t machines : {3, 4, 8}) {
    HgpaIndex index = HgpaIndex::Distribute(pre, machines);
    QueryRouter router(index);
    QueryRouter trivial(index, RoutingMode::kBroadcast);
    std::vector<size_t> all(machines);
    for (size_t m = 0; m < machines; ++m) all[m] = m;
    for (NodeId q = 0; q < graph.num_nodes(); ++q) {
      // Single sources, plus a two-source set to exercise the union.
      for (const std::vector<NodeId>& sources :
           {std::vector<NodeId>{q},
            std::vector<NodeId>{q, static_cast<NodeId>((q * 37 + 11) % n)}}) {
        EXPECT_EQ(router.Route(sources).machines,
                  BruteForceMachines(index, sources))
            << "machines=" << machines << " query " << q;
        EXPECT_EQ(trivial.Route(sources).machines, all);
      }
    }
    EXPECT_TRUE(router.Route({}).machines.empty());
    EXPECT_EQ(trivial.Route({}).machines, all);
  }
}

}  // namespace
}  // namespace dppr
