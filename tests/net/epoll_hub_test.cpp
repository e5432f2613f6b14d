// EpollHub tests: nonblocking dial + hello identity exchange, ordered
// buffering of frames sent while a dial is in flight, multi-MB frames and
// long frame streams, the three-hub star the federation uses, peer-loss
// reporting on both connection death and dial exhaustion, and traffic
// metering — all on a single thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/epoll_hub.hpp"
#include "net/event_loop.hpp"
#include "wire/frame.hpp"

namespace gendpr::net {
namespace {

using namespace std::chrono_literals;

common::Bytes bytes_of(std::initializer_list<std::uint8_t> values) {
  return common::Bytes(values);
}

TEST(EpollHubTest, DialHelloAndFramesBothWays) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto a = EpollHub::create(loop, 1, 0);
  auto b = EpollHub::create(loop, 2, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::map<NodeId, std::vector<common::Bytes>> a_received;
  std::map<NodeId, std::vector<common::Bytes>> b_received;
  a.value()->set_frame_handler(
      [&](NodeId from, common::BytesView payload, wire::WireBuffer*) {
        a_received[from].emplace_back(payload.begin(), payload.end());
      });
  b.value()->set_frame_handler(
      [&](NodeId from, common::BytesView payload, wire::WireBuffer*) {
        b_received[from].emplace_back(payload.begin(), payload.end());
      });

  // Frames queued before the dial completes must arrive after the hello, in
  // send order.
  b.value()->connect_peer(1, "127.0.0.1", a.value()->port());
  ASSERT_TRUE(b.value()->send(1, bytes_of({10})).ok());
  ASSERT_TRUE(b.value()->send(1, bytes_of({11, 12})).ok());

  loop.run_until([&] { return a_received[2].size() == 2; });
  ASSERT_EQ(a_received[2].size(), 2u);
  EXPECT_EQ(a_received[2][0], bytes_of({10}));
  EXPECT_EQ(a_received[2][1], bytes_of({11, 12}));
  EXPECT_TRUE(a.value()->is_connected(2));

  // The hello identified the dialer, so the accepting side can answer.
  ASSERT_TRUE(a.value()->send(2, bytes_of({20})).ok());
  loop.run_until([&] { return b_received[1].size() == 1; });
  EXPECT_EQ(b_received[1][0], bytes_of({20}));

  // Payload bytes were metered on both hubs (hellos carry no payload).
  EXPECT_EQ(b.value()->meter().total_bytes(), 4u);
  EXPECT_EQ(a.value()->meter().total_bytes(), 4u);
  EXPECT_EQ(a.value()->meter().bytes_received_by(1), 3u);
}

TEST(EpollHubTest, SendToUnknownPeerFails) {
  EventLoop loop;
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok());
  const common::Status sent = hub.value()->send(9, bytes_of({1}));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
}

TEST(EpollHubTest, PeerHubDestructionReportsLoss) {
  EventLoop loop;
  auto a = EpollHub::create(loop, 1, 0);
  auto b = EpollHub::create(loop, 2, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<NodeId> lost;
  a.value()->set_peer_lost_handler([&](NodeId peer) { lost.push_back(peer); });
  b.value()->connect_peer(1, "127.0.0.1", a.value()->port());
  ASSERT_TRUE(b.value()->send(1, bytes_of({1})).ok());
  a.value()->set_frame_handler(
      [](NodeId, common::BytesView, wire::WireBuffer*) {});
  loop.run_until([&] { return a.value()->is_connected(2); });

  b.value().reset();  // the peer "machine" goes away
  loop.run_until([&] { return !lost.empty(); });
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], 2u);
  EXPECT_FALSE(a.value()->is_connected(2));
  // Further sends to the dead peer fail as lost, not as never-known.
  const common::Status sent = a.value()->send(2, bytes_of({3}));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
  EXPECT_NE(sent.error().message.find("was lost"), std::string::npos);
}

TEST(EpollHubTest, ExhaustedDialReportsPeerLost) {
  EventLoop loop;
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok());
  // Find a loopback port with no listener: bind-then-close frees it.
  auto probe = EpollHub::create(loop, 7, 0);
  ASSERT_TRUE(probe.ok());
  const std::uint16_t dead_port = probe.value()->port();
  probe.value().reset();

  std::vector<NodeId> lost;
  hub.value()->set_peer_lost_handler(
      [&](NodeId peer) { lost.push_back(peer); });
  EpollHub::DialOptions options;
  options.max_attempts = 2;
  options.initial_backoff = 5ms;
  hub.value()->connect_peer(9, "127.0.0.1", dead_port, options);
  // Frames sent during the dial ride its fate.
  ASSERT_TRUE(hub.value()->send(9, bytes_of({1})).ok());
  loop.run_until([&] { return !lost.empty(); });
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], 9u);
}

TEST(EpollHubTest, MalformedHelloIsCut) {
  // A raw client whose first frame carries a payload: no hello, so the hub
  // must close the connection without delivering anything or registering
  // the claimed sender.
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok());
  bool delivered = false;
  hub.value()->set_frame_handler(
      [&](NodeId, common::BytesView, wire::WireBuffer*) { delivered = true; });

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(hub.value()->port());
  ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const common::Bytes frame = wire::encode_frame(5, bytes_of({1, 2, 3}));
  bool sent = false;
  bool cut = false;
  for (int i = 0; i < 2000 && !cut; ++i) {
    if (!sent) {
      sent = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
             static_cast<ssize_t>(frame.size());
    }
    loop.poll_once(1ms);
    std::uint8_t byte = 0;
    cut = sent && ::recv(fd, &byte, 1, 0) == 0;  // EOF: the hub closed it
  }
  ::close(fd);
  EXPECT_TRUE(cut);
  EXPECT_FALSE(delivered);
  EXPECT_FALSE(hub.value()->is_connected(5));
}

TEST(EpollHubTest, BadHostReportsPeerLost) {
  EventLoop loop;
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok());
  std::vector<NodeId> lost;
  hub.value()->set_peer_lost_handler(
      [&](NodeId peer) { lost.push_back(peer); });
  // A host that is no IPv4 literal never resolves: no retries, the peer is
  // lost at once.
  hub.value()->connect_peer(2, "not-an-ip", 1234);
  EXPECT_EQ(lost, std::vector<NodeId>{2});
  const common::Status sent = hub.value()->send(2, bytes_of({1}));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
}

TEST(EpollHubTest, ConnectRetriesUntilListenerAppears) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto a = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(a.ok());
  // Find a loopback port with no listener: bind-then-close frees it.
  std::uint16_t port = 0;
  {
    auto probe = EpollHub::create(loop, 9, 0);
    ASSERT_TRUE(probe.ok());
    port = probe.value()->port();
  }
  std::vector<NodeId> lost;
  a.value()->set_peer_lost_handler([&](NodeId peer) { lost.push_back(peer); });
  EpollHub::DialOptions options;
  options.max_attempts = 10;
  options.initial_backoff = 20ms;
  a.value()->connect_peer(2, "127.0.0.1", port, options);
  ASSERT_TRUE(a.value()->send(2, bytes_of({5})).ok());

  // The listener appears only after the first attempts were refused.
  std::unique_ptr<EpollHub> b;
  std::vector<common::Bytes> at_b;
  loop.add_timer_after(80ms, [&] {
    auto hub = EpollHub::create(loop, 2, port);
    ASSERT_TRUE(hub.ok()) << hub.error().to_string();
    b = std::move(hub).take();
    b->set_frame_handler(
        [&](NodeId, common::BytesView payload, wire::WireBuffer*) {
          at_b.emplace_back(payload.begin(), payload.end());
        });
  });
  loop.run_until([&] { return !at_b.empty() || !lost.empty(); });
  EXPECT_TRUE(lost.empty());
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0], bytes_of({5}));
  EXPECT_TRUE(a.value()->is_connected(2));
}

/// Two hubs on `loop`, `b` dialed into `a` and the link established.
struct ConnectedPair {
  explicit ConnectedPair(EventLoop& loop) {
    auto ha = EpollHub::create(loop, 1, 0);
    auto hb = EpollHub::create(loop, 2, 0);
    EXPECT_TRUE(ha.ok());
    EXPECT_TRUE(hb.ok());
    a = std::move(ha).take();
    b = std::move(hb).take();
    b->connect_peer(1, "127.0.0.1", a->port());
    loop.run_until([&] { return a->is_connected(2) && b->is_connected(1); });
  }
  std::unique_ptr<EpollHub> a;
  std::unique_ptr<EpollHub> b;
};

TEST(EpollHubTest, LargePayloadRoundTrip) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  ConnectedPair pair(loop);
  common::Rng rng(3);
  common::Bytes big(2 * 1024 * 1024);
  for (auto& byte : big) byte = static_cast<std::uint8_t>(rng.next());

  std::vector<common::Bytes> at_a;
  std::vector<common::Bytes> at_b;
  pair.a->set_frame_handler(
      [&](NodeId, common::BytesView payload, wire::WireBuffer*) {
        at_a.emplace_back(payload.begin(), payload.end());
      });
  pair.b->set_frame_handler(
      [&](NodeId, common::BytesView payload, wire::WireBuffer*) {
        at_b.emplace_back(payload.begin(), payload.end());
      });
  // Larger than any socket buffer: the frame crosses in many partial writes
  // and reads, and is reassembled whole on both sides.
  ASSERT_TRUE(pair.b->send(1, big).ok());
  ASSERT_TRUE(pair.a->send(2, big).ok());
  loop.run_until([&] { return at_a.size() == 1 && at_b.size() == 1; });
  EXPECT_EQ(at_a[0], big);
  EXPECT_EQ(at_b[0], big);
}

TEST(EpollHubTest, ManyMessagesPreserveOrder) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  ConnectedPair pair(loop);
  constexpr std::uint32_t kMessages = 500;
  std::vector<std::uint32_t> received;
  pair.a->set_frame_handler(
      [&](NodeId, common::BytesView payload, wire::WireBuffer*) {
        ASSERT_EQ(payload.size(), 4u);
        std::uint32_t value = 0;
        for (int j = 0; j < 4; ++j) {
          value |= std::uint32_t{payload[j]} << (8 * j);
        }
        received.push_back(value);
      });
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    common::Bytes msg(4);
    for (int j = 0; j < 4; ++j) {
      msg[j] = static_cast<std::uint8_t>(i >> (8 * j));
    }
    ASSERT_TRUE(pair.b->send(1, std::move(msg)).ok());
  }
  loop.run_until([&] { return received.size() == kMessages; });
  ASSERT_EQ(received.size(), kMessages);
  for (std::uint32_t i = 0; i < kMessages; ++i) EXPECT_EQ(received[i], i);
}

TEST(EpollHubTest, MeterCountsTraffic) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  ConnectedPair pair(loop);
  bool delivered = false;
  pair.a->set_frame_handler(
      [&](NodeId, common::BytesView, wire::WireBuffer*) { delivered = true; });
  ASSERT_TRUE(pair.b->send(1, common::Bytes(100)).ok());
  loop.run_until([&] { return delivered; });
  EXPECT_EQ(pair.b->meter().bytes_sent_by(2), 100u);
  EXPECT_EQ(pair.a->meter().bytes_received_by(1), 100u);
  EXPECT_EQ(pair.a->meter().total_messages(), 1u);
}

TEST(EpollHubTest, ThreeHubStar) {
  // Leader hub + two members dialing in: the federation topology.
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto leader = EpollHub::create(loop, 1, 0);
  auto m1 = EpollHub::create(loop, 2, 0);
  auto m2 = EpollHub::create(loop, 3, 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  std::map<NodeId, common::Bytes> at_leader;
  std::map<NodeId, common::Bytes> at_members;
  leader.value()->set_frame_handler(
      [&](NodeId from, common::BytesView payload, wire::WireBuffer*) {
        at_leader[from] = common::Bytes(payload.begin(), payload.end());
      });
  for (auto* member : {m1.value().get(), m2.value().get()}) {
    member->set_frame_handler([&, self = member->self()](
                                  NodeId from, common::BytesView payload,
                                  wire::WireBuffer*) {
      EXPECT_EQ(from, 1u);
      at_members[self] = common::Bytes(payload.begin(), payload.end());
    });
    member->connect_peer(1, "127.0.0.1", leader.value()->port());
  }
  ASSERT_TRUE(m1.value()->send(1, bytes_of({0xaa})).ok());
  ASSERT_TRUE(m2.value()->send(1, bytes_of({0xbb})).ok());
  loop.run_until([&] { return at_leader.size() == 2; });
  EXPECT_EQ(at_leader[2], bytes_of({0xaa}));
  EXPECT_EQ(at_leader[3], bytes_of({0xbb}));

  // The leader replies to both over the connections they dialed.
  ASSERT_TRUE(leader.value()->send(2, bytes_of({0x01})).ok());
  ASSERT_TRUE(leader.value()->send(3, bytes_of({0x02})).ok());
  loop.run_until([&] { return at_members.size() == 2; });
  EXPECT_EQ(at_members[2], bytes_of({0x01}));
  EXPECT_EQ(at_members[3], bytes_of({0x02}));
}

}  // namespace
}  // namespace gendpr::net
