#include "dppr/net/transport.h"

#include <cstdio>
#include <string>
#include <utility>

#include "dppr/common/env.h"
#include "dppr/common/macros.h"
#include "dppr/net/inproc_transport.h"
#include "dppr/net/tcp_transport.h"

namespace dppr {

const char* TransportBackendName(TransportBackend backend) {
  switch (backend) {
    case TransportBackend::kInProcess:
      return "inproc";
    case TransportBackend::kTcp:
      return "tcp";
  }
  DPPR_CHECK(false);
  return nullptr;
}

TransportOptions TransportOptions::FromEnv(TransportBackend fallback) {
  TransportOptions options;
  options.backend = fallback;
  std::string transport = GetEnvString("DPPR_TRANSPORT", "");
  if (transport == "tcp") {
    options.backend = TransportBackend::kTcp;
  } else if (transport == "inproc") {
    options.backend = TransportBackend::kInProcess;
  } else if (!transport.empty()) {
    // Same policy as DPPR_STORE: a typo must fail loudly, not silently run
    // the experiment over a different transport than the operator asked for.
    std::fprintf(stderr, "unknown DPPR_TRANSPORT value: %s\n", transport.c_str());
    DPPR_CHECK(transport == "tcp" || transport == "inproc");
  }
  return options;
}

FrameInbox::Slot& FrameInbox::SlotFor(uint64_t round) {
  std::unique_ptr<Slot>& slot = rounds_[round];
  if (slot == nullptr) {
    slot = std::make_unique<Slot>();
    slot->payloads.resize(num_sources_);
    slot->present.assign(num_sources_, 0);
  }
  return *slot;
}

void FrameInbox::Push(uint64_t round, size_t src, std::vector<uint8_t> payload) {
  DPPR_CHECK_LT(src, num_sources_);
  std::lock_guard<std::mutex> lock(mu_);
  // A frame for a round that was already gathered is a replay: no waiter
  // will ever collect it, so absorbing it would leak an orphan slot (and its
  // payload copy) per replayed id.
  DPPR_CHECK((round >= retired_floor_ &&
              retired_above_floor_.find(round) == retired_above_floor_.end()) &&
             "frame for an already-collected round");
  Slot& slot = SlotFor(round);
  // One payload per (round, source): a duplicate means a corrupt or hostile
  // peer, and silently overwriting could swap a round's data mid-gather.
  DPPR_CHECK(!slot.present[src]);
  slot.present[src] = 1;
  slot.payloads[src] = std::move(payload);
  ++slot.arrived;
  // Once the waiter declared the round's size, a surplus frame is a
  // non-participant sending into the round — hostile, same as a duplicate
  // (full rounds cap out via the per-source check above).
  if (slot.expected != 0) {
    DPPR_CHECK_LE(slot.arrived, slot.expected);
    // Exactly one waiter per round, parked on this slot's own cv —
    // completing one round never wakes the other in-flight rounds'
    // gatherers.
    if (slot.arrived == slot.expected) slot.arrived_cv.notify_one();
  }
}

std::vector<std::vector<uint8_t>> FrameInbox::Wait(uint64_t round,
                                                   size_t expected) {
  DPPR_CHECK_GE(expected, 1u);
  DPPR_CHECK_LE(expected, num_sources_);
  std::unique_lock<std::mutex> lock(mu_);
  Slot& slot = SlotFor(round);  // heap-pinned: stable across map churn
  // Declare the round's size so Push knows when to wake us (and can reject
  // surplus frames). One waiter per round, so a prior declaration is a bug.
  DPPR_CHECK_EQ(slot.expected, 0u);
  DPPR_CHECK_LE(slot.arrived, expected);
  slot.expected = expected;
  slot.arrived_cv.wait(lock, [&] { return slot.arrived == slot.expected; });
  std::vector<std::vector<uint8_t>> payloads = std::move(slot.payloads);
  rounds_.erase(round);
  // Retire the round. Ids are dense per inbox, so the floor chases the
  // slowest in-flight round and the set only holds the out-of-order window.
  if (round == retired_floor_) {
    ++retired_floor_;
    while (retired_above_floor_.erase(retired_floor_) > 0) ++retired_floor_;
  } else {
    retired_above_floor_.insert(round);
  }
  return payloads;
}

Transport::Transport(size_t num_machines) : num_machines_(num_machines) {
  DPPR_CHECK_GE(num_machines, 1u);
}

std::shared_ptr<Transport> MakeTransport(size_t num_machines,
                                         const TransportOptions& options) {
  switch (options.backend) {
    case TransportBackend::kInProcess:
      return std::make_shared<InProcessTransport>(num_machines);
    case TransportBackend::kTcp:
      return std::make_shared<TcpTransport>(num_machines);
  }
  DPPR_CHECK(false);
  return nullptr;
}

}  // namespace dppr
