#include "dppr/core/routing.h"

#include <numeric>

#include "dppr/common/macros.h"
#include "dppr/core/hgpa.h"

namespace dppr {

const char* RoutingModeName(RoutingMode mode) {
  switch (mode) {
    case RoutingMode::kRoute:
      return "route";
    case RoutingMode::kBroadcast:
      return "broadcast";
  }
  DPPR_CHECK(false);
  return nullptr;
}

QueryRouter::QueryRouter(const HgpaIndex& index, RoutingMode mode)
    : mode_(mode),
      hierarchy_(index.shared_hierarchy()),
      num_machines_(index.num_machines()),
      own_machine_(index.own_machine()) {
  sub_machines_.resize(hierarchy_->num_subgraphs());
  for (size_t m = 0; m < num_machines_; ++m) {
    for (const auto& [sub, hubs] : index.hubs_on_machine(m)) {
      sub_machines_[sub].push_back(static_cast<uint32_t>(m));
    }
  }
}

QueryRouter::Plan QueryRouter::Route(std::span<const NodeId> sources) const {
  Plan plan;
  if (mode_ == RoutingMode::kBroadcast) {
    plan.machines.resize(num_machines_);
    std::iota(plan.machines.begin(), plan.machines.end(), size_t{0});
    return plan;
  }
  std::vector<uint8_t> needed(num_machines_, 0);
  for (NodeId u : sources) {
    DPPR_CHECK_LT(u, own_machine_.size());
    for (SubgraphId sub : hierarchy_->Chain(u)) {
      for (uint32_t m : sub_machines_[sub]) needed[m] = 1;
    }
    needed[own_machine_[u]] = 1;
  }
  for (size_t m = 0; m < num_machines_; ++m) {
    if (needed[m]) plan.machines.push_back(m);
  }
  return plan;
}

}  // namespace dppr
