#ifndef DPPR_CORE_ROUTING_H_
#define DPPR_CORE_ROUTING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dppr/partition/hierarchy.h"

namespace dppr {

class HgpaIndex;

/// How HgpaQueryEngine picks the machines of a query round.
enum class RoutingMode : uint8_t {
  /// Run the round only on machines that can contribute to the query's
  /// chains (the routing-table plan below). Answers are bit-identical to
  /// broadcast; comm and machine time shrink to the contributing shards.
  kRoute = 0,
  /// The trivial plan: every query's round runs on all n machines, the
  /// non-contributors shipping empty fragments. Kept as the bit-equality
  /// oracle for kRoute; it runs through the same round body.
  kBroadcast = 1,
};

const char* RoutingModeName(RoutingMode mode);

struct RoutingOptions {
  RoutingMode mode = RoutingMode::kRoute;
};

/// Query routing table derived from the shared placement: which machines
/// hold any vector a given source set's fold needs — the source's own-vector
/// machine plus every machine owning hubs on the source's subgraph chain
/// (own_vector_machine + hubs_on_machine).
///
/// Self-contained snapshot: construction copies what it needs out of the
/// index (the hierarchy is shared, the tables are small), so a router stays
/// valid when the engine that built it is moved.
class QueryRouter {
 public:
  explicit QueryRouter(const HgpaIndex& index,
                       RoutingMode mode = RoutingMode::kRoute);

  /// One query's round: the sorted set of machines that fold and ship one
  /// fragment each. The coordinator sums the fragments in machine order.
  struct Plan {
    std::vector<size_t> machines;
  };

  /// Plan for the nonzero-weight sources of one query. Under kBroadcast
  /// every machine, whatever the sources. Under kRoute an empty `sources`
  /// yields an empty plan: the round can be skipped outright, which is
  /// bit-neutral because skipped machines only ever contribute empty
  /// fragments.
  Plan Route(std::span<const NodeId> sources) const;

  RoutingMode mode() const { return mode_; }

 private:
  RoutingMode mode_;
  std::shared_ptr<const Hierarchy> hierarchy_;
  size_t num_machines_ = 0;
  /// Per subgraph: the machines owning hubs there.
  std::vector<std::vector<uint32_t>> sub_machines_;
  std::vector<size_t> own_machine_;
};

}  // namespace dppr

#endif  // DPPR_CORE_ROUTING_H_
