// Common surface of the federation's transports.
//
// A Hub is one GDO endpoint on an EventLoop: it owns that node's links to
// its peers, delivers inbound frames and peer losses through callbacks, and
// queues outbound frames for asynchronous delivery. EpollHub carries frames
// over loopback TCP sockets; MemHub hands them to a peer hub in the same
// process. The session driver and the federation runner are written once
// against this seam and never know which medium is underneath.
//
// Write-side backpressure lives here: a socket connection accounts the bytes
// queued but not yet on the wire, and crossing the high watermark fires the
// backpressure handler with paused=true (resumed at the low watermark).
// Drivers use the pause to stop pulling frames out of their session, so one
// slow peer stalls exactly one session — never the loop, never a sibling.
// MemHub queues nothing of its own and never pauses.
//
// Threading: everything here, handlers included, runs on the loop thread.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "net/traffic_meter.hpp"
#include "wire/buffer_pool.hpp"

namespace gendpr::net {

class Hub {
 public:
  /// Inbound payloads are views valid only for the duration of the call:
  /// into the hub's receive buffer (EpollHub) or into the sender's pooled
  /// frame (MemHub). Sessions decrypt in place (open_to) or copy before
  /// returning. `frame` is that pooled frame when the hub can give it away
  /// (MemHub; null for EpollHub): a handler that needs the payload past the
  /// call moves the frame out instead of copying it.
  using FrameHandler = std::function<void(
      NodeId from, common::BytesView payload, wire::WireBuffer* frame)>;
  using PeerLostHandler = std::function<void(NodeId peer)>;
  /// paused=true: the connection to `peer` crossed the high watermark and
  /// the producer should stop queueing. paused=false: drained below the low
  /// watermark (or the connection died), producing may resume.
  using BackpressureHandler = std::function<void(NodeId peer, bool paused)>;

  /// Per-connection write-queue watermarks, in bytes of encoded frames not
  /// yet written to the socket. high must be > low.
  struct Watermarks {
    std::size_t high = 1u << 20;  // pause above 1 MiB queued
    std::size_t low = 1u << 19;   // resume below 512 KiB
  };

  /// Aggregated backpressure telemetry across every connection of the hub.
  struct BackpressureStats {
    std::uint64_t pauses = 0;
    std::uint64_t resumes = 0;
    std::uint64_t peak_queued_bytes = 0;
  };

  /// Zero-copy frame-path telemetry.
  struct WireStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t writev_batches = 0;  // gathered-write syscalls (epoll hub)
    std::uint64_t dial_dropped_frames = 0;  // queued on dials that failed
  };

  virtual ~Hub() = default;

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  NodeId self() const noexcept { return self_; }

  /// Delivery callback for every data frame (hellos are consumed here).
  void set_frame_handler(FrameHandler handler) {
    frame_handler_ = std::move(handler);
  }
  /// Loss callback: fires when an established link dies (for EpollHub also
  /// when a dial exhausts its attempts).
  void set_peer_lost_handler(PeerLostHandler handler) {
    peer_lost_handler_ = std::move(handler);
  }
  /// Watermark pause/resume callback (see BackpressureHandler).
  void set_backpressure_handler(BackpressureHandler handler) {
    backpressure_handler_ = std::move(handler);
  }
  /// Replaces the default watermarks. Call before traffic flows.
  void set_watermarks(Watermarks watermarks) { watermarks_ = watermarks; }

  const BackpressureStats& backpressure() const noexcept { return bp_stats_; }
  const WireStats& wire_stats() const noexcept { return wire_stats_; }
  TrafficMeter& meter() noexcept { return meter_; }

  /// Buffer pool backing this hub's frames. Defaults to the process-wide
  /// pool; a federation run installs one pool shared with its sessions so
  /// send buffers cycle session → hub → pool without crossing pools.
  void set_buffer_pool(wire::BufferPool* pool) noexcept { pool_ = pool; }
  wire::BufferPool& pool() noexcept {
    return pool_ != nullptr ? *pool_ : wire::default_pool();
  }

  /// Enqueues one pooled frame for `peer`. The buffer arrives with its
  /// payload in final wire position; the hub stamps the frame header
  /// (finish_frame) and queues the buffer as-is — no copy between the
  /// session and the medium. Success means accepted for delivery, not yet
  /// delivered; unknown_peer means there is no live or in-flight link to
  /// the peer.
  virtual common::Status send_frame(NodeId to, wire::WireBuffer buf) = 0;

  /// Compatibility convenience over send_frame for callers holding an
  /// owning payload (tests, legacy paths): copies once into a pooled buffer.
  common::Status send(NodeId to, common::Bytes payload) {
    return send_frame(to, wire::WireBuffer::from_payload(
                              pool(), common::BytesView(payload.data(),
                                                        payload.size())));
  }

  /// True while an established link to `peer` is registered.
  virtual bool is_connected(NodeId peer) const = 0;

 protected:
  explicit Hub(NodeId self) : self_(self) {}

  /// Watermark bookkeeping after a connection's queue grew to `queued`
  /// bytes. `paused` is the connection's pause flag.
  void note_enqueued(NodeId peer, std::size_t queued, bool& paused) {
    if (queued > bp_stats_.peak_queued_bytes) {
      bp_stats_.peak_queued_bytes = queued;
    }
    if (!paused && queued > watermarks_.high) {
      paused = true;
      bp_stats_.pauses += 1;
      if (backpressure_handler_) backpressure_handler_(peer, true);
    }
  }

  /// Watermark bookkeeping after a connection's queue drained to `queued`
  /// bytes.
  void note_drained(NodeId peer, std::size_t queued, bool& paused) {
    if (paused && queued < watermarks_.low) {
      paused = false;
      bp_stats_.resumes += 1;
      if (backpressure_handler_) backpressure_handler_(peer, false);
    }
  }

  /// A dying connection releases its pause so the producer is never left
  /// stalled on a peer that no longer exists (the loss itself is reported
  /// separately).
  void release_pause_on_drop(NodeId peer, bool& paused) {
    if (paused) {
      paused = false;
      bp_stats_.resumes += 1;
      if (backpressure_handler_) backpressure_handler_(peer, false);
    }
  }

  NodeId self_;
  Watermarks watermarks_;
  BackpressureStats bp_stats_;
  WireStats wire_stats_;
  wire::BufferPool* pool_ = nullptr;
  TrafficMeter meter_;
  FrameHandler frame_handler_;
  PeerLostHandler peer_lost_handler_;
  BackpressureHandler backpressure_handler_;
};

}  // namespace gendpr::net
