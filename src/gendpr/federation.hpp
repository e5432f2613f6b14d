// One-call federation runner: wires up the quoting authority, per-GDO
// platforms, hubs and sessions, elects a leader, runs the study on event
// loops, and tears everything down. This is the public entry point the
// examples, integration tests, and benchmark harness build on.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "gendpr/config.hpp"
#include "gendpr/session.hpp"
#include "genome/cohort.hpp"
#include "obs/observability.hpp"

namespace gendpr::core {

struct FederationSpec {
  /// The medium between the GDOs. Either way every GDO is a sans-IO session
  /// driven by an event loop through the same SessionDriver; only the hub
  /// differs. `in_process` links in-memory hubs (net::MemHub) and gives
  /// each GDO its own loop thread. `epoll` runs every GDO on its own
  /// loopback TCP socket (net::EpollHub), sharded across `event_loops`
  /// loops. Same sessions, same bytes, same results. The GENDPR_TRANSPORT
  /// environment variable ("in_process" / "epoll") overrides this field
  /// when set.
  enum class TransportMode { in_process, epoll };
  TransportMode transport = TransportMode::in_process;

  /// Number of event-loop threads the epoll transport shards its sessions
  /// across (sessions are assigned by a stable hash of the GDO index, so
  /// the placement — and every protocol byte — is independent of thread
  /// timing). 1 = the classic single-loop mode, run on the calling thread.
  /// Capped at the number of GDOs. The in_process transport ignores it and
  /// runs one loop per GDO. The GENDPR_EVENT_LOOPS environment variable
  /// overrides this field when set.
  std::uint32_t event_loops = 1;

  std::uint32_t num_gdos = 3;
  /// Study thresholds, plus the engine shape: `config.snp_tile_width`
  /// rides in the announce, so setting it here tiles the MAF phase
  /// (per-tile summaries, pipelined leader assessment) without changing
  /// any result bits.
  StudyConfig config;
  CollusionPolicy policy = CollusionPolicy::none();
  /// Seeds leader election and all simulation crypto (deterministic runs).
  std::uint64_t seed = 7;
  /// Simulated EPC limit per platform.
  std::uint64_t epc_limit = tee::EpcMeter::kDefaultLimitBytes;
  /// Deadline for every protocol wait on every node, in milliseconds.
  /// 0 preserves the paper's original semantics (block forever). With a
  /// deadline, an unresponsive GDO is declared dead: the study either
  /// completes on the surviving combinations or aborts with Errc::timeout
  /// naming the dead peer(s).
  std::uint32_t receive_timeout_ms = 0;
  /// Run-wide observability bundle (nullptr = unobserved). When set, the
  /// runner opens the root "study" span, every node and the coordinator
  /// record spans/metrics into it, and the teardown path exports per-link
  /// traffic and per-GDO EPC peaks into the registry so a RunReport can be
  /// serialized after the call returns. The bundle must outlive the call;
  /// the caller owns it.
  obs::Observability* obs = nullptr;
};

/// Runs a full federated GenDPR study over `cohort`: case genomes are split
/// equally among `spec.num_gdos` GDOs; the control population serves as the
/// public reference panel. Blocking; returns when all nodes finished.
common::Result<StudyResult> run_federated_study(const genome::Cohort& cohort,
                                                const FederationSpec& spec);

}  // namespace gendpr::core
