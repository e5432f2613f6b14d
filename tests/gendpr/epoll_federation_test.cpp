// Federation over loopback sockets: every GDO is a sans-IO session on its
// own EpollHub, driven by one or more event-loop threads. However the
// sessions are sharded across loops, the results must be bit-identical to
// the in_process transport, whose in-memory hubs give every GDO its own
// loop thread.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "gendpr/federation.hpp"
#include "gendpr/report.hpp"
#include "gendpr/session.hpp"
#include "gendpr/session_driver.hpp"
#include "net/epoll_hub.hpp"
#include "net/event_loop.hpp"
#include "session_pump.hpp"
#include "tee/attestation.hpp"

namespace gendpr::core {
namespace {

genome::Cohort test_cohort(std::size_t cases, std::size_t controls,
                           std::size_t snps, std::uint64_t seed) {
  genome::CohortSpec spec;
  spec.num_case = cases;
  spec.num_control = controls;
  spec.num_snps = snps;
  spec.seed = seed;
  return genome::generate_cohort(spec);
}

TEST(EpollFederationTest, EightGdoStudyOnOneThreadMatchesThreaded) {
  // The same G=8 study over sockets on one loop thread and over in-memory
  // hubs on one loop thread per GDO.
  const genome::Cohort cohort = test_cohort(400, 300, 60, 321);

  FederationSpec spec;
  spec.num_gdos = 8;
  spec.seed = 17;

  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok()) << in_process.error().to_string();

  spec.transport = FederationSpec::TransportMode::epoll;
  const auto epoll = run_federated_study(cohort, spec);
  ASSERT_TRUE(epoll.ok()) << epoll.error().to_string();

  EXPECT_EQ(epoll.value().outcome.l_prime, in_process.value().outcome.l_prime);
  EXPECT_EQ(epoll.value().outcome.l_double_prime,
            in_process.value().outcome.l_double_prime);
  EXPECT_EQ(epoll.value().outcome.l_safe, in_process.value().outcome.l_safe);

  // The leader hub terminates every star link, so real traffic was metered,
  // and both media meter the same payload bytes on every link.
  EXPECT_GT(epoll.value().network_bytes_total, 0u);
  EXPECT_GT(epoll.value().leader_bytes_received, 0u);
  EXPECT_EQ(epoll.value().network_bytes_total,
            in_process.value().network_bytes_total);
  EXPECT_EQ(epoll.value().leader_bytes_received,
            in_process.value().leader_bytes_received);
  // 7 members, two directions each.
  ASSERT_EQ(epoll.value().network_links.size(), 14u);
  ASSERT_EQ(in_process.value().network_links.size(), 14u);
  for (std::size_t i = 0; i < 14; ++i) {
    EXPECT_EQ(epoll.value().network_links[i].bytes,
              in_process.value().network_links[i].bytes)
        << "link " << i;
    EXPECT_EQ(epoll.value().network_links[i].messages,
              in_process.value().network_links[i].messages)
        << "link " << i;
  }
}

TEST(EpollFederationTest, MultiLoopShardingMatchesSingleLoop) {
  // Same G=8 study, sessions sharded across 3 event-loop threads: placement
  // must not leak into the protocol, so every selection is bit-identical.
  const genome::Cohort cohort = test_cohort(400, 300, 60, 321);

  FederationSpec spec;
  spec.num_gdos = 8;
  spec.seed = 17;
  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok()) << in_process.error().to_string();

  obs::Observability observability;
  spec.transport = FederationSpec::TransportMode::epoll;
  spec.event_loops = 3;
  spec.obs = &observability;
  const auto sharded = run_federated_study(cohort, spec);
  ASSERT_TRUE(sharded.ok()) << sharded.error().to_string();

  EXPECT_EQ(sharded.value().outcome.l_prime,
            in_process.value().outcome.l_prime);
  EXPECT_EQ(sharded.value().outcome.l_double_prime,
            in_process.value().outcome.l_double_prime);
  EXPECT_EQ(sharded.value().outcome.l_safe, in_process.value().outcome.l_safe);
  EXPECT_EQ(sharded.value().network_links.size(), 14u);
  EXPECT_EQ(observability.metrics.gauge("net.event_loops"), 3.0);
}

TEST(EpollFederationTest, EventLoopsEnvOverrideShardsTheStudy) {
  const genome::Cohort cohort = test_cohort(150, 150, 40, 654);
  FederationSpec spec;
  spec.num_gdos = 4;
  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok());

  obs::Observability observability;
  spec.transport = FederationSpec::TransportMode::epoll;
  spec.obs = &observability;
  ASSERT_EQ(::setenv("GENDPR_EVENT_LOOPS", "2", 1), 0);
  const auto sharded = run_federated_study(cohort, spec);
  ::unsetenv("GENDPR_EVENT_LOOPS");
  ASSERT_TRUE(sharded.ok()) << sharded.error().to_string();
  EXPECT_EQ(sharded.value().outcome.l_safe, in_process.value().outcome.l_safe);
  EXPECT_EQ(observability.metrics.gauge("net.event_loops"), 2.0);
}

TEST(EpollFederationTest, TransportEnvOverrideSelectsEpoll) {
  const genome::Cohort cohort = test_cohort(150, 150, 40, 654);
  FederationSpec spec;
  spec.num_gdos = 3;

  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok());

  ASSERT_EQ(::setenv("GENDPR_TRANSPORT", "epoll", 1), 0);
  const auto epoll = run_federated_study(cohort, spec);
  ::unsetenv("GENDPR_TRANSPORT");
  ASSERT_TRUE(epoll.ok()) << epoll.error().to_string();
  EXPECT_EQ(epoll.value().outcome.l_safe, in_process.value().outcome.l_safe);
}

TEST(EpollFederationTest, ObservabilityAndTimingsSurviveTheEpollPath) {
  const genome::Cohort cohort = test_cohort(150, 150, 40, 777);
  obs::Observability observability;
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.transport = FederationSpec::TransportMode::epoll;
  spec.obs = &observability;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_GT(result.value().timings.total_ms, 0.0);
  EXPECT_GT(result.value().epc_peak_leader, 0u);
  // The member sessions ran for real: their request counters registered.
  bool member_counter = false;
  for (std::uint32_t g = 0; g < 3; ++g) {
    member_counter = member_counter ||
                     observability.metrics.counter(
                         "member." + std::to_string(g) + ".requests") > 0;
  }
  EXPECT_TRUE(member_counter);
}

TEST(EpollFederationTest, BroadcastSerializesEachMessageExactlyOnce) {
  // Serialize-once conservation over a G=8 star: every sealed record is
  // either a message's first seal (wire.serializations) or a fan-out reuse
  // of an already-staged body (wire.fanout_reuses). A regression that
  // re-serializes per recipient breaks the equality; one that re-stages per
  // broadcast breaks the reuse lower bound.
  const genome::Cohort cohort = test_cohort(400, 300, 60, 321);

  obs::Observability observability;
  FederationSpec spec;
  spec.num_gdos = 8;
  spec.seed = 17;
  spec.transport = FederationSpec::TransportMode::epoll;
  spec.obs = &observability;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();

  const std::uint64_t serializations =
      observability.metrics.counter("wire.serializations");
  const std::uint64_t reuses =
      observability.metrics.counter("wire.fanout_reuses");
  const std::uint64_t records =
      observability.metrics.counter("wire.records_sent");
  EXPECT_GT(serializations, 0u);
  EXPECT_GT(records, 0u);
  // Conservation: first seals plus reuses account for every sealed record.
  EXPECT_EQ(serializations + reuses, records);
  // Serialize-once means strictly fewer serializations than records: the
  // announce, phase-1, phase-2, and phase-3 broadcasts each reach the 7
  // members off ONE staging (6 reuses apiece beyond the first seal).
  EXPECT_LT(serializations, records);
  EXPECT_GE(reuses, 3u * (8 - 2));

  // The run pool fed the hubs and sessions, and its stats were exported.
  EXPECT_GT(observability.metrics.counter("net.pool.hits") +
                observability.metrics.counter("net.pool.misses"),
            0u);
  EXPECT_GT(observability.metrics.counter("wire.writev_batches"), 0u);
}

TEST(EpollFederationTest, ReportNamesTheTransportTheRunUsed) {
  // The run report's top-level transport and the net.transport label come
  // from the one transport the runner resolved, so an epoll run reads
  // "epoll" in both places.
  const genome::Cohort cohort = test_cohort(120, 120, 30, 42);
  for (const auto mode : {FederationSpec::TransportMode::epoll,
                          FederationSpec::TransportMode::in_process}) {
    obs::Observability observability;
    FederationSpec spec;
    spec.transport = mode;
    spec.obs = &observability;
    const auto result = run_federated_study(cohort, spec);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    ReportContext context;
    context.obs = &observability;
    const obs::JsonValue report = make_run_report(result.value(), context);
    const std::string transport = report.find("transport")->as_string();
    EXPECT_EQ(transport, observability.metrics.label("net.transport"));
    if (mode == FederationSpec::TransportMode::epoll) {
      EXPECT_EQ(transport, "epoll");
    }
  }
}

TEST(EpollFederationTest, SilentMemberTimesOutOverEpoll) {
  // Leader expects 3 GDOs; only GDO 1 ever dials. The leader's session
  // deadline fires through the driver's loop timer, the study aborts with a
  // timeout naming GDO 2, and the survivor receives the abort notice over
  // its socket instead of hanging — all on this one thread.
  const genome::Cohort cohort = test_cohort(120, 120, 30, 42);
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x61});
  tee::Platform leader_platform(
      1, authority, crypto::Csprng(std::array<std::uint8_t, 32>{1}));
  tee::Platform member_platform(
      2, authority, crypto::Csprng(std::array<std::uint8_t, 32>{2}));

  StudyAnnounce announce;
  announce.num_snps = 30;
  announce.combinations =
      Coordinator::build_combinations(3, CollusionPolicy::none());

  net::EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto leader_hub = net::EpollHub::create(loop, node_id_of(0), 0);
  auto member_hub = net::EpollHub::create(loop, node_id_of(1), 0);
  ASSERT_TRUE(leader_hub.ok());
  ASSERT_TRUE(member_hub.ok());

  LeaderSession leader(leader_platform, 0, 3, cohort.cases.slice_rows(0, 60),
                       cohort.controls, announce);
  leader.set_receive_timeout(std::chrono::milliseconds(300));
  MemberSession member(member_platform, 1, 0,
                       cohort.cases.slice_rows(60, 120));

  SessionDriver leader_driver(loop, *leader_hub.value(), leader);
  SessionDriver member_driver(loop, *member_hub.value(), member);
  member_hub.value()->connect_peer(node_id_of(0), "127.0.0.1",
                                   leader_hub.value()->port());
  member_driver.start();
  leader_driver.start();
  loop.run_until(
      [&] { return leader_driver.finished() && member_driver.finished(); });

  ASSERT_EQ(leader.wants(), SessionWants::failed);
  EXPECT_EQ(leader.status().error().code, common::Errc::timeout);
  EXPECT_NE(leader.status().error().message.find("2"), std::string::npos)
      << leader.status().error().to_string();
  ASSERT_EQ(member.wants(), SessionWants::failed);
  EXPECT_EQ(member.status().error().code, common::Errc::aborted)
      << member.status().error().to_string();
}

TEST(EpollFederationTest, KilledMemberAbortsStudyPromptly) {
  // Three GDOs over loopback sockets; GDO 2's whole hub dies right after
  // the attested handshake (machine crash). The leader's hub notices the
  // dropped connection and the study aborts well before the 10 s deadline,
  // with a timeout naming the dead peer; the surviving member gets an abort
  // notice instead of hanging.
  const genome::Cohort cohort = test_cohort(300, 200, 50, 77);
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x73});
  std::vector<std::unique_ptr<tee::Platform>> platforms;
  for (std::uint32_t g = 0; g < 3; ++g) {
    platforms.push_back(std::make_unique<tee::Platform>(
        g + 1, authority,
        crypto::Csprng(std::array<std::uint8_t, 32>{
            static_cast<std::uint8_t>(g + 1)})));
  }
  StudyAnnounce announce;
  announce.num_snps = 50;
  announce.combinations =
      Coordinator::build_combinations(3, CollusionPolicy::none());

  net::EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto leader_hub = net::EpollHub::create(loop, node_id_of(0), 0);
  auto survivor_hub = net::EpollHub::create(loop, node_id_of(1), 0);
  auto doomed_hub = net::EpollHub::create(loop, node_id_of(2), 0);
  ASSERT_TRUE(leader_hub.ok());
  ASSERT_TRUE(survivor_hub.ok());
  ASSERT_TRUE(doomed_hub.ok());

  LeaderSession leader(*platforms[0], 0, 3, cohort.cases.slice_rows(0, 100),
                       cohort.controls, announce);
  leader.set_receive_timeout(std::chrono::milliseconds(10000));
  MemberSession survivor(*platforms[1], 1, 0,
                         cohort.cases.slice_rows(100, 200));
  survivor.set_receive_timeout(std::chrono::milliseconds(10000));
  GdoEnclave enclave(*platforms[2], 2);
  ASSERT_TRUE(
      enclave.provision_dataset(cohort.cases.slice_rows(200, 300)).ok());
  bool handshake_done = false;
  ScriptedPeer doomed(
      0, [&handshake_done,
          script = attested_member(enclave, honest_summary)](
             std::optional<common::BytesView> frame) {
        // The first inbound frame is the leader's handshake reply.
        if (frame.has_value()) handshake_done = true;
        return script(frame);
      });

  SessionDriver leader_driver(loop, *leader_hub.value(), leader);
  SessionDriver survivor_driver(loop, *survivor_hub.value(), survivor);
  auto doomed_driver = std::make_unique<SessionDriver>(
      loop, *doomed_hub.value(), doomed);
  for (auto* hub : {survivor_hub.value().get(), doomed_hub.value().get()}) {
    hub->connect_peer(node_id_of(0), "127.0.0.1", leader_hub.value()->port());
  }
  const auto start = std::chrono::steady_clock::now();
  survivor_driver.start();
  doomed_driver->start();
  leader_driver.start();
  loop.run_until([&] { return handshake_done; });
  // The "machine" is gone mid-study.
  doomed_driver.reset();
  doomed_hub.value().reset();
  loop.run_until(
      [&] { return leader_driver.finished() && survivor_driver.finished(); });
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_EQ(leader.wants(), SessionWants::failed);
  EXPECT_EQ(leader.status().error().code, common::Errc::timeout);
  EXPECT_NE(leader.status().error().message.find("2"), std::string::npos)
      << leader.status().error().to_string();
  // Peer-loss detection beats the deadline by a wide margin.
  EXPECT_LT(elapsed, std::chrono::seconds(8));
  ASSERT_EQ(survivor.wants(), SessionWants::failed);
  EXPECT_EQ(survivor.status().error().code, common::Errc::aborted)
      << survivor.status().error().to_string();
}

}  // namespace
}  // namespace gendpr::core
