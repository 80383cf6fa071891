// Transport behavior on both backends (gather, p2p exchange, concurrent
// rounds, empty payloads) plus the hostile-frame suite: truncated headers,
// wrong magic, oversized/wrapping lengths, checksum mismatches, and
// mid-stream disconnects must die cleanly — never hang a gatherer or hand
// garbage to the reducer — mirroring the existing hostile-payload tests for
// ByteReader/VectorRecord/spill files.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "dppr/dist/cluster.h"
#include "dppr/net/frame.h"
#include "dppr/net/tcp_transport.h"
#include "dppr/net/transport.h"

namespace dppr {
namespace {

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(Frame, HeaderRoundTrips) {
  std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  std::vector<uint8_t> frame =
      BuildFrame(FrameKind::kExchange, 77, 3, 9, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  FrameHeader header = DecodeFrameHeader(frame);
  EXPECT_EQ(header.kind, FrameKind::kExchange);
  EXPECT_EQ(header.src, 3u);
  EXPECT_EQ(header.dst, 9u);
  EXPECT_EQ(header.round, 77u);
  EXPECT_EQ(header.payload_bytes, payload.size());
  EXPECT_EQ(header.checksum, FrameChecksum(payload));
}

TEST(Frame, ChecksumDetectsSingleBitFlips) {
  std::vector<uint8_t> payload(64, 0xAB);
  uint64_t want = FrameChecksum(payload);
  payload[17] ^= 0x01;
  EXPECT_NE(FrameChecksum(payload), want);
  EXPECT_EQ(FrameChecksum({}), FrameChecksum(std::vector<uint8_t>{}));
}

TEST(FrameHostileDeath, TruncatedHeaderDies) {
  std::vector<uint8_t> frame = BuildFrame(FrameKind::kGather, 1, 0, kCoordinatorDst, {});
  frame.resize(kFrameHeaderBytes - 1);
  EXPECT_DEATH(DecodeFrameHeader(frame), "DPPR_CHECK failed");
}

TEST(FrameHostileDeath, WrongMagicDies) {
  std::vector<uint8_t> frame = BuildFrame(FrameKind::kGather, 1, 0, kCoordinatorDst, {});
  frame[0] ^= 0xFF;
  EXPECT_DEATH(DecodeFrameHeader(frame), "DPPR_CHECK failed");
}

TEST(FrameHostileDeath, UnknownKindDies) {
  std::vector<uint8_t> frame = BuildFrame(FrameKind::kGather, 1, 0, kCoordinatorDst, {});
  frame[4] = 0x7F;
  EXPECT_DEATH(DecodeFrameHeader(frame), "DPPR_CHECK failed");
}

TEST(FrameHostileDeath, OversizedAndWrappingLengthsDie) {
  // An absurd length field must die at decode, before any allocation or
  // `header + length` arithmetic that could wrap.
  FrameHeader header;
  header.payload_bytes = kMaxFramePayloadBytes + 1;
  std::vector<uint8_t> bytes(kFrameHeaderBytes);
  EncodeFrameHeader(header, bytes);
  EXPECT_DEATH(DecodeFrameHeader(bytes), "DPPR_CHECK failed");

  header.payload_bytes = ~uint64_t{0};  // would wrap any offset it is added to
  EncodeFrameHeader(header, bytes);
  EXPECT_DEATH(DecodeFrameHeader(bytes), "DPPR_CHECK failed");
}

TEST(FrameInboxHostileDeath, DuplicateFrameForOneSlotDies) {
  // One payload per (round, src): a duplicate could swap a round's data
  // mid-gather, so it must die rather than overwrite.
  FrameInbox inbox(2);
  inbox.Push(0, 1, {1, 2, 3});
  EXPECT_DEATH(inbox.Push(0, 1, {4, 5, 6}), "DPPR_CHECK failed");
}

TEST(FrameInboxHostileDeath, ReplayOfACollectedRoundDies) {
  // Nobody ever waits on a collected round again; absorbing a replay would
  // orphan a slot (and its payload copy) in the inbox forever.
  FrameInbox inbox(1);
  inbox.Push(3, 0, {1});
  EXPECT_EQ(inbox.Wait(3, 1).size(), 1u);
  EXPECT_DEATH(inbox.Push(3, 0, {1}), "DPPR_CHECK failed");
}

// ---------------------------------------------------------------------------
// Behavior shared by both backends
// ---------------------------------------------------------------------------

class TransportBehavior : public ::testing::TestWithParam<TransportBackend> {
 protected:
  std::shared_ptr<Transport> Make(size_t num_machines) {
    TransportOptions options;
    options.backend = GetParam();
    return MakeTransport(num_machines, options);
  }
};

TEST_P(TransportBehavior, GatherReturnsPayloadsIndexedBySource) {
  auto transport = Make(4);
  uint64_t round = transport->AllocateRound(FrameKind::kGather);
  std::vector<std::thread> senders;
  for (size_t m = 0; m < 4; ++m) {
    senders.emplace_back([&, m] {
      transport->SendToCoordinator(
          round, m, std::vector<uint8_t>(m + 1, static_cast<uint8_t>(m)));
    });
  }
  for (auto& s : senders) s.join();

  auto payloads = transport->GatherRound(round, 4);
  ASSERT_EQ(payloads.size(), 4u);
  for (size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(payloads[m],
              std::vector<uint8_t>(m + 1, static_cast<uint8_t>(m)));
  }
}

TEST_P(TransportBehavior, EmptyPayloadsAreDelivered) {
  auto transport = Make(2);
  uint64_t round = transport->AllocateRound(FrameKind::kGather);
  transport->SendToCoordinator(round, 0, {});
  transport->SendToCoordinator(round, 1, {42});
  auto payloads = transport->GatherRound(round, 2);
  EXPECT_TRUE(payloads[0].empty());
  EXPECT_EQ(payloads[1], std::vector<uint8_t>{42});
}

TEST_P(TransportBehavior, ConcurrentRoundsNeverMixFrames) {
  // Serving runs many rounds on one transport at once; frames must route by
  // round id even when sends interleave arbitrarily.
  auto transport = Make(3);
  constexpr size_t kRounds = 16;
  std::vector<uint64_t> rounds;
  for (size_t r = 0; r < kRounds; ++r) rounds.push_back(transport->AllocateRound(FrameKind::kGather));

  std::vector<std::thread> senders;
  for (size_t m = 0; m < 3; ++m) {
    senders.emplace_back([&, m] {
      for (size_t r = 0; r < kRounds; ++r) {
        transport->SendToCoordinator(
            rounds[r], m,
            std::vector<uint8_t>{static_cast<uint8_t>(r), static_cast<uint8_t>(m)});
      }
    });
  }
  std::vector<std::thread> gatherers;
  std::vector<uint8_t> ok(kRounds, 0);
  for (size_t r = 0; r < kRounds; ++r) {
    gatherers.emplace_back([&, r] {
      auto payloads = transport->GatherRound(rounds[r], 3);
      bool good = payloads.size() == 3;
      for (size_t m = 0; good && m < 3; ++m) {
        good = payloads[m] == std::vector<uint8_t>{static_cast<uint8_t>(r),
                                                   static_cast<uint8_t>(m)};
      }
      ok[r] = good ? 1 : 0;
    });
  }
  for (auto& s : senders) s.join();
  for (auto& g : gatherers) g.join();
  for (size_t r = 0; r < kRounds; ++r) EXPECT_TRUE(ok[r]) << "round " << r;
}

TEST_P(TransportBehavior, ExchangeDeliversAllToAll) {
  auto transport = Make(3);
  uint64_t round = transport->AllocateRound(FrameKind::kExchange);
  std::vector<std::thread> senders;
  for (size_t src = 0; src < 3; ++src) {
    senders.emplace_back([&, src] {
      for (size_t dst = 0; dst < 3; ++dst) {
        transport->SendToMachine(
            round, src, dst,
            std::vector<uint8_t>{static_cast<uint8_t>(src),
                                 static_cast<uint8_t>(dst)});
      }
    });
  }
  for (auto& s : senders) s.join();

  for (size_t dst = 0; dst < 3; ++dst) {
    auto inbox = transport->ReceiveExchange(round, dst);
    ASSERT_EQ(inbox.size(), 3u);
    for (size_t src = 0; src < 3; ++src) {
      EXPECT_EQ(inbox[src], (std::vector<uint8_t>{static_cast<uint8_t>(src),
                                                  static_cast<uint8_t>(dst)}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportBehavior,
                         ::testing::Values(TransportBackend::kInProcess,
                                           TransportBackend::kTcp),
                         [](const auto& info) {
                           return std::string(TransportBackendName(info.param));
                         });

// ---------------------------------------------------------------------------
// SimCluster over the transports
// ---------------------------------------------------------------------------

SimCluster MakeCluster(size_t machines, TransportBackend backend,
                       bool sequential = false) {
  TransportOptions options;
  options.backend = backend;
  return SimCluster(machines, NetworkModel{}, sequential, options);
}

TEST(SimClusterTransport, TcpRoundMatchesInProcessByteForByte) {
  auto task = [](size_t machine) {
    return std::vector<uint8_t>(machine * 3 + 1, static_cast<uint8_t>(machine));
  };
  SimCluster inproc_cluster = MakeCluster(5, TransportBackend::kInProcess);
  SimCluster tcp_cluster = MakeCluster(5, TransportBackend::kTcp);
  // The ctor must honor the options, not the env default.
  EXPECT_EQ(inproc_cluster.transport_backend(), TransportBackend::kInProcess);
  EXPECT_EQ(tcp_cluster.transport_backend(), TransportBackend::kTcp);
  auto inproc = inproc_cluster.RunRound(task);
  auto tcp = tcp_cluster.RunRound(task);
  EXPECT_EQ(inproc.payloads, tcp.payloads);
  EXPECT_EQ(inproc.metrics.to_coordinator.bytes, tcp.metrics.to_coordinator.bytes);
  EXPECT_EQ(inproc.metrics.to_coordinator.messages,
            tcp.metrics.to_coordinator.messages);
}

TEST(SimClusterTransport, ExchangeRunsOnBothBackendsAndBothModes) {
  auto task = [](size_t machine) {
    std::vector<std::vector<uint8_t>> outbox(4);
    for (size_t dst = 0; dst < 4; ++dst) {
      // Self-addressed and empty payloads are legal (machine 0 sends none).
      if (machine == 0) continue;
      outbox[dst] = {static_cast<uint8_t>(machine), static_cast<uint8_t>(dst)};
    }
    return outbox;
  };
  for (TransportBackend backend :
       {TransportBackend::kInProcess, TransportBackend::kTcp}) {
    for (bool sequential : {false, true}) {
      SimCluster cluster = MakeCluster(4, backend, sequential);
      SimCluster::ExchangeResult result = cluster.RunExchange(task);
      ASSERT_EQ(result.inboxes.size(), 4u);
      // Every payload is one message, empty or not — n² per exchange.
      EXPECT_EQ(result.metrics.exchanged.messages, 16u);
      EXPECT_EQ(result.metrics.exchanged.bytes, 3u * 4u * 2u);  // machines 1..3 × 4 dsts × 2 bytes
      // The shuffled column excludes the n self-addressed payloads: 12
      // messages, and machines 1..3 each keep their own 2-byte self payload.
      EXPECT_EQ(result.metrics.shuffled.messages, 12u);
      EXPECT_EQ(result.metrics.shuffled.bytes, 3u * 4u * 2u - 3u * 2u);
      ASSERT_EQ(result.metrics.ingress.size(), 4u);
      for (const CommStats& in : result.metrics.ingress) {
        EXPECT_EQ(in.messages, 3u);
      }
      for (size_t dst = 0; dst < 4; ++dst) {
        EXPECT_TRUE(result.inboxes[dst][0].empty());
        for (size_t src = 1; src < 4; ++src) {
          EXPECT_EQ(result.inboxes[dst][src],
                    (std::vector<uint8_t>{static_cast<uint8_t>(src),
                                          static_cast<uint8_t>(dst)}));
        }
      }
      EXPECT_EQ(result.metrics.machine_seconds.size(), 4u);
    }
  }
}

TEST(SimClusterTransport, NestedRoundsOverTcpDoNotDeadlock) {
  // The serving layer runs rounds from inside other rounds' machine tasks;
  // the transport must keep rounds independent there too.
  SimCluster outer = MakeCluster(2, TransportBackend::kTcp);
  SimCluster inner = MakeCluster(2, TransportBackend::kTcp);
  auto result = outer.RunRound([&](size_t machine) {
    auto nested = inner.RunRound([&](size_t m) {
      return std::vector<uint8_t>{static_cast<uint8_t>(machine),
                                  static_cast<uint8_t>(m)};
    });
    return nested.payloads[1];
  });
  EXPECT_EQ(result.payloads[0], (std::vector<uint8_t>{0, 1}));
  EXPECT_EQ(result.payloads[1], (std::vector<uint8_t>{1, 1}));
}

// ---------------------------------------------------------------------------
// DPPR_TRANSPORT env knob
// ---------------------------------------------------------------------------

TEST(TransportOptions, FromEnvParsesBackends) {
  ::setenv("DPPR_TRANSPORT", "tcp", 1);
  EXPECT_EQ(TransportOptions::FromEnv().backend, TransportBackend::kTcp);
  ::setenv("DPPR_TRANSPORT", "inproc", 1);
  EXPECT_EQ(TransportOptions::FromEnv(TransportBackend::kTcp).backend,
            TransportBackend::kInProcess);
  ::unsetenv("DPPR_TRANSPORT");
  EXPECT_EQ(TransportOptions::FromEnv().backend, TransportBackend::kInProcess);
  EXPECT_EQ(TransportOptions::FromEnv(TransportBackend::kTcp).backend,
            TransportBackend::kTcp);
}

TEST(TransportOptionsDeath, TypoInEnvDiesInsteadOfSilentFallback) {
  // Threadsafe style: earlier tests started the process-global ThreadPool
  // workers, and forking fast-style from a multithreaded process can wedge
  // the child on a lock a worker held at fork time.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ::setenv("DPPR_TRANSPORT", "tpc", 1);
  EXPECT_DEATH(TransportOptions::FromEnv(), "DPPR_CHECK failed");
  ::unsetenv("DPPR_TRANSPORT");
}

// ---------------------------------------------------------------------------
// Hostile frames over a real socket
// ---------------------------------------------------------------------------

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

// Each scenario runs wholly inside the death-test child: build a transport,
// inject hostile bytes at its coordinator listener, and wait. The receive
// loop must abort the process; if it ever "just hangs" instead, the bounded
// sleep makes the child exit cleanly and the death assertion fail. Round 0
// is allocated first so frames carrying it get past the round-watermark
// check and die on the defect each scenario actually targets.
void InjectAndWait(const std::vector<uint8_t>& bytes, bool disconnect) {
  TcpTransport transport(2);
  transport.AllocateRound(FrameKind::kGather);
  int fd = ConnectLoopback(transport.port(transport.coordinator_endpoint()));
  SendAll(fd, bytes);
  if (disconnect) ::close(fd);
  std::this_thread::sleep_for(std::chrono::seconds(20));
}

TEST(TcpTransportHostileDeath, ChecksumMismatchDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<uint8_t> payload{1, 2, 3, 4};
  std::vector<uint8_t> frame =
      BuildFrame(FrameKind::kGather, 0, 0, kCoordinatorDst, payload);
  frame[kFrameHeaderBytes] ^= 0xFF;  // corrupt payload after checksumming
  EXPECT_DEATH(InjectAndWait(frame, /*disconnect=*/false), "DPPR_CHECK failed");
}

TEST(TcpTransportHostileDeath, WrongMagicOnTheWireDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<uint8_t> frame =
      BuildFrame(FrameKind::kGather, 0, 0, kCoordinatorDst, {});
  frame[0] ^= 0xFF;
  EXPECT_DEATH(InjectAndWait(frame, /*disconnect=*/false), "DPPR_CHECK failed");
}

TEST(TcpTransportHostileDeath, OversizedLengthOnTheWireDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FrameHeader header;
  header.payload_bytes = ~uint64_t{0};
  std::vector<uint8_t> bytes(kFrameHeaderBytes);
  EncodeFrameHeader(header, bytes);
  EXPECT_DEATH(InjectAndWait(bytes, /*disconnect=*/false), "DPPR_CHECK failed");
}

TEST(TcpTransportHostileDeath, OutOfRangeSourceMachineDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Valid frame, but from "machine 7" of a 2-machine cluster: a frame that
  // indexes outside the gather would corrupt another machine's slot.
  std::vector<uint8_t> payload{1};
  std::vector<uint8_t> frame =
      BuildFrame(FrameKind::kGather, 0, 7, kCoordinatorDst, payload);
  EXPECT_DEATH(InjectAndWait(frame, /*disconnect=*/false), "DPPR_CHECK failed");
}

TEST(TcpTransportHostileDeath, UnallocatedRoundIdDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A perfectly well-formed frame for a round this transport never handed
  // out: accepting it would squat on a future round's slot (turning the real
  // machine's later send into a "duplicate") or let a stream of bogus ids
  // grow the inbox without bound.
  std::vector<uint8_t> payload{9};
  std::vector<uint8_t> frame =
      BuildFrame(FrameKind::kGather, 5, 0, kCoordinatorDst, payload);
  EXPECT_DEATH(InjectAndWait(frame, /*disconnect=*/false), "DPPR_CHECK failed");
}

TEST(TcpTransportHostileDeath, MidFrameDisconnectDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Header promises 1 KiB of payload; the peer vanishes after the header. A
  // gatherer would otherwise wait forever on bytes that can never arrive.
  std::vector<uint8_t> frame =
      BuildFrame(FrameKind::kGather, 0, 0, kCoordinatorDst,
                 std::vector<uint8_t>(1024, 0x5A));
  frame.resize(kFrameHeaderBytes + 16);
  EXPECT_DEATH(InjectAndWait(frame, /*disconnect=*/true), "DPPR_CHECK failed");
}

TEST(TcpTransportHostileDeath, TruncatedHeaderDisconnectDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Not even a whole header arrives before the close.
  std::vector<uint8_t> partial(kFrameHeaderBytes / 2, 0x11);
  EXPECT_DEATH(InjectAndWait(partial, /*disconnect=*/true), "DPPR_CHECK failed");
}

}  // namespace
}  // namespace dppr
