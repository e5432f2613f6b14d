// Transport-free federation harness shared by the session-level tests.
//
// pump_federation routes every frame a session emits straight into its
// addressee's step(), breadth first, on a virtual clock: when nothing is in
// flight but some session waits with a receive deadline, the clock jumps
// to the earliest deadline and ticks every session due by then. No
// sockets, no threads, no real waiting, and a deterministic transcript.
//
// ScriptedPeer stands in for a compromised or crashed host: it speaks
// whatever its script returns, and attested_member() scripts the common
// shape of such a host — attest over a real channel, open the study
// announce, answer (or not), then swallow everything that follows.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "gendpr/messages.hpp"
#include "gendpr/session.hpp"
#include "gendpr/trusted.hpp"

namespace gendpr::core {

/// One delivered frame of a pumped federation, in delivery order.
struct TranscriptEntry {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  common::Bytes payload;
};

/// Routes frames between `sessions` (indexed by GDO; a null entry is a node
/// that does not exist, and frames to it vanish) until nothing is in flight
/// and no session has a receive deadline armed. The clock starts at
/// `start`. Returns every delivered frame in delivery order.
inline std::vector<TranscriptEntry> pump_federation(
    std::vector<ProtocolSession*> sessions,
    ProtocolSession::TimePoint start = {}) {
  ProtocolSession::TimePoint now = start;
  std::deque<TranscriptEntry> in_flight;
  const auto collect = [&](std::uint32_t from, std::vector<OutFrame> frames) {
    for (OutFrame& frame : frames) {
      in_flight.push_back(TranscriptEntry{
          from, frame.to_gdo, std::move(frame.payload).take_payload()});
    }
  };
  for (std::uint32_t g = 0; g < sessions.size(); ++g) {
    if (sessions[g] != nullptr) collect(g, sessions[g]->step({}, now));
  }
  std::vector<TranscriptEntry> transcript;
  for (;;) {
    while (!in_flight.empty()) {
      TranscriptEntry entry = std::move(in_flight.front());
      in_flight.pop_front();
      transcript.push_back(entry);
      ProtocolSession* to =
          entry.to < sessions.size() ? sessions[entry.to] : nullptr;
      if (to == nullptr) continue;
      collect(entry.to,
              to->step({InFrame{entry.from, std::move(entry.payload)}}, now));
    }
    std::optional<ProtocolSession::TimePoint> next;
    for (ProtocolSession* session : sessions) {
      if (session == nullptr) continue;
      if (const auto deadline = session->next_deadline()) {
        next = next.has_value() ? std::min(*next, *deadline) : *deadline;
      }
    }
    if (!next.has_value()) return transcript;
    now = std::max(now, *next);
    for (std::uint32_t g = 0; g < sessions.size(); ++g) {
      if (sessions[g] == nullptr) continue;
      const auto deadline = sessions[g]->next_deadline();
      if (!deadline.has_value() || *deadline > now) continue;
      sessions[g]->on_tick(now);
      collect(g, sessions[g]->step({}, now));
    }
  }
}

/// The leader's outcome once pumped: its study result, or the error it
/// failed with (state_violation if it never finished).
inline common::Result<StudyResult> outcome_of(const LeaderSession& leader) {
  if (leader.wants() == SessionWants::done) return leader.result();
  if (leader.wants() == SessionWants::failed) return leader.status().error();
  return common::make_error(common::Errc::state_violation,
                            "leader never finished");
}

/// A node that sends to `to` whatever its script returns: once at start
/// (with no frame) and once per inbound frame. An empty answer leaves it
/// silent, so a crashed host is a script that stops answering.
class ScriptedPeer : public ProtocolSession {
 public:
  using Script = std::function<std::vector<common::Bytes>(
      std::optional<common::BytesView> frame)>;

  ScriptedPeer(std::uint32_t to, Script script)
      : to_(to), script_(std::move(script)) {}
  ~ScriptedPeer() override { destroy_coroutine(); }

 protected:
  Main run_protocol() override {
    for (common::Bytes& out : script_(std::nullopt)) {
      queue_frame(to_, std::move(out));
    }
    co_await flush_sends();
    for (;;) {
      Event event = co_await wait_input();
      if (event.kind == Event::Kind::closed) {
        co_return common::Status::success();
      }
      if (event.kind != Event::Kind::frame) continue;
      for (common::Bytes& out : script_(event.payload)) {
        queue_frame(to_, std::move(out));
      }
      co_await flush_sends();
    }
  }

 private:
  std::uint32_t to_;
  Script script_;
};

/// Answers the opened study announce: the records to send the leader.
using AnnounceReply = std::function<std::vector<common::Bytes>(
    GdoEnclave& enclave, tee::SecureChannel& channel)>;

/// Script of a member host on `enclave` that attests to the leader over a
/// real channel, opens and applies the study announce, sends whatever
/// `reply` returns, and ignores every later frame.
inline ScriptedPeer::Script attested_member(GdoEnclave& enclave,
                                            AnnounceReply reply) {
  struct State {
    std::unique_ptr<tee::SecureChannel> channel;
    int frames = 0;
  };
  auto state = std::make_shared<State>();
  state->channel = enclave.channel_to(trusted_module_measurement(),
                                      /*initiator=*/true);
  return [state, &enclave, reply = std::move(reply)](
             std::optional<common::BytesView> frame)
             -> std::vector<common::Bytes> {
    tee::SecureChannel& channel = *state->channel;
    if (!frame.has_value()) return {channel.handshake_message()};
    state->frames += 1;
    if (state->frames == 1) {  // the leader's handshake reply
      EXPECT_TRUE(channel.complete(*frame).ok());
      return {};
    }
    if (state->frames > 2) return {};
    auto plaintext = channel.open(*frame);
    EXPECT_TRUE(plaintext.ok());
    if (!plaintext.ok()) return {};
    auto opened = open_envelope(plaintext.value());
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) return {};
    auto announce = StudyAnnounce::deserialize(opened.value().second);
    EXPECT_TRUE(announce.ok());
    if (!announce.ok()) return {};
    EXPECT_TRUE(enclave.on_study_announce(announce.value()).ok());
    return reply(enclave, channel);
  };
}

/// Seals `body` as a `type` record over `channel`.
inline common::Bytes sealed(tee::SecureChannel& channel, MsgType type,
                            common::BytesView body) {
  auto record = channel.seal(envelope(type, body));
  EXPECT_TRUE(record.ok());
  return record.ok() ? std::move(record).take() : common::Bytes{};
}

/// The reply of a member that submits honest summary stats and then
/// crashes.
inline std::vector<common::Bytes> honest_summary(GdoEnclave& enclave,
                                                 tee::SecureChannel& channel) {
  return {sealed(channel, MsgType::summary_stats,
                 enclave.make_summary_stats().serialize())};
}

}  // namespace gendpr::core
