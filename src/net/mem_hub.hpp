// In-process hub: frames between GDOs of one process, with no socket.
//
// A MemHub's peers are other MemHubs in the same process, each on its own
// EventLoop or sharing one. send_frame meters the frame exactly as EpollHub
// does, then posts the pooled WireBuffer itself to the peer's loop, where
// the peer's frame handler gets a view of the payload and may take the
// frame itself: no copy, no framing, no kernel. Frames from one sender
// arrive in send order (a loop runs its posted tasks in FIFO order).
// Closing or destroying a hub reports it lost to every linked peer, on
// that peer's own loop.
//
// Threading: link() runs before any loop thread starts. After that, every
// call on a hub (handlers included) runs on the hub's loop thread, or while
// that loop is not running; cross-loop traffic travels only through
// EventLoop::post. Every loop must outlive every hub linked to it, and the
// buffer pool must outlive the loops: a delivery still queued on a loop at
// teardown holds a pooled buffer.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "net/event_loop.hpp"
#include "net/hub.hpp"

namespace gendpr::net {

class MemHub : public Hub {
 public:
  /// A hub for node `self` on `loop`, linked to nobody yet.
  MemHub(EventLoop& loop, NodeId self);
  ~MemHub() override;

  /// Links two hubs both ways.
  static void link(MemHub& a, MemHub& b);

  common::Status send_frame(NodeId to, wire::WireBuffer buf) override;

  bool is_connected(NodeId peer) const override;

  /// Drops every link and reports this hub lost to each former peer.
  /// Frames already sent are still delivered first. Idempotent.
  void close();

 private:
  /// What a peer holds of this hub: the loop to post to and, read only on
  /// that loop's thread, the hub itself (null once closed).
  struct Endpoint {
    EventLoop* loop;
    MemHub* hub;
  };

  void deliver(NodeId from, wire::WireBuffer& buf);
  void on_peer_closed(NodeId peer);

  std::shared_ptr<Endpoint> endpoint_;
  std::map<NodeId, std::shared_ptr<Endpoint>> peers_;
  std::set<NodeId> lost_peers_;
};

}  // namespace gendpr::net
