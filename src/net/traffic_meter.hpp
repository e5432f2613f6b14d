// Node identity and per-link byte accounting shared by every hub.
//
// A TrafficMeter records the payload volume of each directed link (frame
// headers and hellos excluded) for the paper's §7.1 bandwidth accounting.
// Both hubs meter at the same points — the sender when it accepts a frame,
// the receiver when it delivers one — so a study reports the same bytes
// whichever medium carried it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace gendpr::net {

/// Federation-unique node identifier. 0 is reserved as "unassigned".
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0;

/// Byte counters per directed link, plus totals. Thread-safe.
class TrafficMeter {
 public:
  void record(NodeId from, NodeId to, std::size_t bytes);

  std::uint64_t total_bytes() const;
  std::uint64_t total_messages() const;
  std::uint64_t bytes_sent_by(NodeId node) const;
  std::uint64_t bytes_received_by(NodeId node) const;

  /// One directed link's accumulated volume.
  struct Link {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
  };

  /// Point-in-time copy of every link, ordered by (from, to). This is how
  /// per-link accounting outlives the meter's owner: run reports snapshot
  /// the links before the transport is torn down.
  std::vector<Link> snapshot() const;

  void reset();

 private:
  struct LinkStats {
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::pair<NodeId, NodeId>, LinkStats> links_;
};

}  // namespace gendpr::net
