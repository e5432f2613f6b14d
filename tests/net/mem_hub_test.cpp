// MemHub tests: in-process delivery between hubs on separate loop threads
// (intact, in per-sender order, multi-MB frames included), metering that
// matches a socket hub byte for byte, handing the pooled frame itself to
// the receiver, unknown-peer sends, and peer-loss reporting when a hub
// closes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/epoll_hub.hpp"
#include "net/event_loop.hpp"
#include "net/mem_hub.hpp"

namespace gendpr::net {
namespace {

using namespace std::chrono_literals;

/// Frame `i` of a numbered stream: a 4-byte index then `i % 97` filler
/// bytes derived from it, so both order and content are checkable.
common::Bytes numbered_frame(std::uint32_t i) {
  common::Bytes frame(4 + i % 97);
  for (std::size_t j = 0; j < frame.size(); ++j) {
    frame[j] = j < 4 ? static_cast<std::uint8_t>(i >> (8 * j))
                     : static_cast<std::uint8_t>(i * 31 + j);
  }
  return frame;
}

common::Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Bytes bytes(size);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

/// Runs `loop` on its own thread until stopped.
class LoopThread {
 public:
  explicit LoopThread(EventLoop& loop)
      : thread_([this, &loop] {
          while (!stop_.load()) loop.poll_once(10ms);
        }) {}
  ~LoopThread() { stop(); }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(MemHubTest, FramesCrossLoopThreadsIntactAndInOrder) {
  constexpr std::uint32_t kFrames = 1000;
  const common::Bytes big = random_bytes(3 * 1024 * 1024 + 5, 11);

  EventLoop loop_a;
  EventLoop loop_b;
  ASSERT_TRUE(loop_a.valid());
  ASSERT_TRUE(loop_b.valid());
  MemHub a(loop_a, 1);
  MemHub b(loop_b, 2);
  MemHub::link(a, b);

  // Each hub is touched only from its own loop thread once those run; the
  // received lists are read back after the threads are joined.
  std::vector<common::Bytes> at_a;
  std::vector<common::Bytes> at_b;
  std::atomic<std::uint32_t> delivered{0};
  a.set_frame_handler(
      [&](NodeId from, common::BytesView payload, wire::WireBuffer*) {
        EXPECT_EQ(from, 2u);
        at_a.emplace_back(payload.begin(), payload.end());
        delivered.fetch_add(1);
      });
  b.set_frame_handler(
      [&](NodeId from, common::BytesView payload, wire::WireBuffer*) {
        EXPECT_EQ(from, 1u);
        at_b.emplace_back(payload.begin(), payload.end());
        delivered.fetch_add(1);
      });

  const auto blast = [&](MemHub& hub, NodeId to) {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(hub.send(to, numbered_frame(i)).ok());
    }
    EXPECT_TRUE(hub.send(to, big).ok());
  };
  {
    LoopThread thread_a(loop_a);
    LoopThread thread_b(loop_b);
    loop_a.post([&] { blast(a, 2); });
    loop_b.post([&] { blast(b, 1); });
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (delivered.load() < 2 * (kFrames + 1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }

  for (const auto* received : {&at_a, &at_b}) {
    ASSERT_EQ(received->size(), kFrames + 1);
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      ASSERT_EQ((*received)[i], numbered_frame(i)) << "frame " << i;
    }
    EXPECT_EQ(received->back(), big);
  }
}

/// Sends the same frame sizes both ways over a connected pair and runs
/// `loop` until every frame has been delivered.
template <typename Send>
void exchange(EventLoop& loop, Hub& a, Hub& b, Send send) {
  const std::vector<std::size_t> sizes = {1, 7, 100, 4096, 70000, 1 << 20};
  std::size_t at_a = 0;
  std::size_t at_b = 0;
  a.set_frame_handler(
      [&](NodeId, common::BytesView, wire::WireBuffer*) { ++at_a; });
  b.set_frame_handler(
      [&](NodeId, common::BytesView, wire::WireBuffer*) { ++at_b; });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    send(b, a.self(), common::Bytes(sizes[i], 0x5A));
    send(a, b.self(), common::Bytes(sizes[i] + 3, 0xA5));
  }
  loop.run_until([&] { return at_a == sizes.size() && at_b == sizes.size(); });
}

bool same_links(const std::vector<TrafficMeter::Link>& x,
                const std::vector<TrafficMeter::Link>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].from != y[i].from || x[i].to != y[i].to ||
        x[i].bytes != y[i].bytes || x[i].messages != y[i].messages) {
      return false;
    }
  }
  return true;
}

TEST(MemHubTest, MeterMatchesAnEpollHubPair) {
  const auto send = [](Hub& from, NodeId to, common::Bytes payload) {
    EXPECT_TRUE(from.send(to, std::move(payload)).ok());
  };

  EventLoop socket_loop;
  ASSERT_TRUE(socket_loop.valid());
  auto sa = EpollHub::create(socket_loop, 1, 0);
  auto sb = EpollHub::create(socket_loop, 2, 0);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  sb.value()->connect_peer(1, "127.0.0.1", sa.value()->port());
  socket_loop.run_until([&] { return sa.value()->is_connected(2); });
  exchange(socket_loop, *sa.value(), *sb.value(), send);

  EventLoop mem_loop;
  ASSERT_TRUE(mem_loop.valid());
  MemHub ma(mem_loop, 1);
  MemHub mb(mem_loop, 2);
  MemHub::link(ma, mb);
  exchange(mem_loop, ma, mb, send);

  EXPECT_GT(ma.meter().total_bytes(), 0u);
  EXPECT_EQ(ma.meter().total_messages(), 12u);
  EXPECT_TRUE(
      same_links(ma.meter().snapshot(), sa.value()->meter().snapshot()));
  EXPECT_TRUE(
      same_links(mb.meter().snapshot(), sb.value()->meter().snapshot()));
  EXPECT_EQ(ma.wire_stats().frames_sent, sa.value()->wire_stats().frames_sent);
}

TEST(MemHubTest, HandlerMayKeepTheFrame) {
  // The pooled frame itself is handed to the receiver: a handler that keeps
  // it holds the sender's storage, which returns to the pool only when the
  // receiver lets go.
  wire::BufferPool pool;
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  MemHub a(loop, 1);
  MemHub b(loop, 2);
  a.set_buffer_pool(&pool);
  MemHub::link(a, b);
  wire::WireBuffer kept;
  b.set_frame_handler(
      [&](NodeId, common::BytesView, wire::WireBuffer* frame) {
        ASSERT_NE(frame, nullptr);
        kept = std::move(*frame);
      });
  ASSERT_TRUE(a.send(2, common::Bytes{4, 5, 6}).ok());
  loop.run_until([&] { return !kept.empty(); });
  EXPECT_EQ(common::Bytes(kept.payload().begin(), kept.payload().end()),
            (common::Bytes{4, 5, 6}));
  EXPECT_EQ(pool.stats().outstanding, 1u);
  kept = wire::WireBuffer();
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(MemHubTest, SendToUnlinkedPeerFails) {
  EventLoop loop;
  MemHub hub(loop, 1);
  const common::Status sent = hub.send(9, common::Bytes{1});
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
  EXPECT_FALSE(hub.is_connected(9));
  EXPECT_EQ(hub.meter().total_bytes(), 0u);
}

TEST(MemHubTest, ClosingAHubReportsLossToItsPeer) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  MemHub a(loop, 1);
  auto b = std::make_unique<MemHub>(loop, 2);
  MemHub::link(a, *b);
  EXPECT_TRUE(a.is_connected(2));

  std::vector<std::string> events;
  a.set_frame_handler([&](NodeId, common::BytesView, wire::WireBuffer*) {
    events.push_back("frame");
  });
  a.set_peer_lost_handler(
      [&](NodeId peer) { events.push_back("lost " + std::to_string(peer)); });

  // A frame sent just before the close still arrives, ahead of the loss.
  ASSERT_TRUE(b->send(1, common::Bytes{7}).ok());
  b->close();
  EXPECT_FALSE(b->is_connected(1));
  loop.run_until([&] { return events.size() == 2; });
  EXPECT_EQ(events, (std::vector<std::string>{"frame", "lost 2"}));
  EXPECT_FALSE(a.is_connected(2));

  // Later sends to the closed peer fail as lost, not as never-known, and
  // destroying the closed hub reports nothing more.
  const common::Status sent = a.send(2, common::Bytes{3});
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
  EXPECT_NE(sent.error().message.find("was lost"), std::string::npos);
  b.reset();
  loop.poll_once(0ms);
  EXPECT_EQ(events.size(), 2u);
}

}  // namespace
}  // namespace gendpr::net
