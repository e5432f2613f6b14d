#include "net/mem_hub.hpp"

#include <string>
#include <utility>

namespace gendpr::net {

using common::Errc;
using common::make_error;
using common::Status;

MemHub::MemHub(EventLoop& loop, NodeId self)
    : Hub(self), endpoint_(std::make_shared<Endpoint>(Endpoint{&loop, this})) {}

MemHub::~MemHub() { close(); }

void MemHub::link(MemHub& a, MemHub& b) {
  a.peers_[b.self_] = b.endpoint_;
  b.peers_[a.self_] = a.endpoint_;
  a.lost_peers_.erase(b.self_);
  b.lost_peers_.erase(a.self_);
}

Status MemHub::send_frame(NodeId to, wire::WireBuffer buf) {
  auto it = peers_.find(to);
  if (it == peers_.end()) {
    const std::string node = std::to_string(to);
    return make_error(Errc::unknown_peer,
                      lost_peers_.count(to) > 0
                          ? "connection to node " + node + " was lost"
                          : "no connection to node " + node);
  }
  meter_.record(self_, to, buf.payload_size());
  wire_stats_.frames_sent += 1;
  // EventLoop::post takes a copyable task, so the move-only buffer rides in
  // a shared holder; it returns to its pool when the delivery task is done.
  auto frame = std::make_shared<wire::WireBuffer>(std::move(buf));
  it->second->loop->post([peer = it->second, from = self_, frame] {
    if (peer->hub != nullptr) peer->hub->deliver(from, *frame);
  });
  return Status::success();
}

bool MemHub::is_connected(NodeId peer) const { return peers_.count(peer) > 0; }

void MemHub::close() {
  if (endpoint_->hub == nullptr) return;
  endpoint_->hub = nullptr;
  // Posted behind every frame this hub already sent, so peers see the loss
  // only after those frames, as they would a socket's EOF.
  for (auto& [peer, endpoint] : peers_) {
    endpoint->loop->post([endpoint = endpoint, self = self_] {
      if (endpoint->hub != nullptr) endpoint->hub->on_peer_closed(self);
    });
  }
  peers_.clear();
}

void MemHub::deliver(NodeId from, wire::WireBuffer& buf) {
  meter_.record(from, self_, buf.payload_size());
  if (frame_handler_) frame_handler_(from, buf.payload(), &buf);
}

void MemHub::on_peer_closed(NodeId peer) {
  if (peers_.erase(peer) == 0) return;
  lost_peers_.insert(peer);
  if (peer_lost_handler_) peer_lost_handler_(peer);
}

}  // namespace gendpr::net
