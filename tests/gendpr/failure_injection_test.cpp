// Failure injection at the federation level: a compromised/malfunctioning
// host between the enclaves. Everything the untrusted side can mutate -
// handshakes, records, message ordering - must surface as a clean protocol
// error at the leader, never as a wrong selection. The leader is a real
// LeaderSession; the hostile or crashing hosts are scripted peers, all
// stepped by pump_federation on a virtual clock.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include "gendpr/session.hpp"
#include "genome/cohort.hpp"
#include "session_pump.hpp"

namespace gendpr::core {
namespace {

struct LeaderFixture {
  genome::Cohort cohort;
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x51}};
  tee::Platform leader_platform{1, authority,
                                crypto::Csprng(std::array<std::uint8_t, 32>{1})};
  tee::Platform member_platform{2, authority,
                                crypto::Csprng(std::array<std::uint8_t, 32>{2})};

  LeaderFixture() {
    genome::CohortSpec spec;
    spec.num_case = 200;
    spec.num_control = 200;
    spec.num_snps = 60;
    spec.seed = 31;
    cohort = genome::generate_cohort(spec);
  }

  StudyAnnounce announce() const {
    StudyAnnounce a;
    a.study_id = 1;
    a.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
    a.combinations = Coordinator::build_combinations(2, CollusionPolicy::none());
    return a;
  }

  /// The leader session (GDO 0) of a two-GDO study, built on first use.
  LeaderSession& leader() {
    if (!leader_session) {
      leader_session = std::make_unique<LeaderSession>(
          leader_platform, 0, 2, cohort.cases.slice_rows(0, 100),
          cohort.controls, announce());
    }
    return *leader_session;
  }

  /// A member enclave for GDO 1 provisioned with the second half of the
  /// cases, for scripted hosts to speak from.
  std::unique_ptr<GdoEnclave> member_enclave() {
    auto enclave = std::make_unique<GdoEnclave>(member_platform, 1);
    EXPECT_TRUE(
        enclave->provision_dataset(cohort.cases.slice_rows(100, 200)).ok());
    return enclave;
  }

  /// Pumps the leader (GDO 0) and `peers` (GDO 1, 2, ...) until the
  /// federation is quiet; returns the leader's final status.
  common::Status run(std::vector<ProtocolSession*> peers) {
    peers.insert(peers.begin(), &leader());
    pump_federation(std::move(peers));
    EXPECT_NE(leader().wants(), SessionWants::recv) << "leader still waiting";
    return leader().status();
  }

  std::unique_ptr<LeaderSession> leader_session;
};

/// Script of a host that sends `frame` once and then stays silent.
ScriptedPeer::Script sends_once(common::Bytes frame) {
  return [frame](std::optional<common::BytesView> in)
             -> std::vector<common::Bytes> {
    if (in.has_value()) return {};
    return {frame};
  };
}

TEST(FailureInjectionTest, GarbageHandshakeRejected) {
  LeaderFixture f;
  ScriptedPeer attacker(0, sends_once(common::Bytes{0xde, 0xad, 0xbe, 0xef}));
  const common::Status status = f.run({&attacker});
  ASSERT_FALSE(status.ok());
  // Truncated/garbled handshake -> bad_message or attestation failure.
  EXPECT_TRUE(status.error().code == common::Errc::bad_message ||
              status.error().code == common::Errc::attestation_rejected)
      << status.error().to_string();
}

TEST(FailureInjectionTest, HandshakeFromUnknownNodeRejected) {
  LeaderFixture f;
  // GDO 7 is no member of a two-GDO study.
  ScriptedPeer attacker(0, sends_once(common::Bytes{0x01}));
  std::vector<ProtocolSession*> peers(7, nullptr);
  peers[6] = &attacker;
  const common::Status status = f.run(peers);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::unknown_peer);
}

TEST(FailureInjectionTest, TamperedRecordDetected) {
  LeaderFixture f;
  // An honest member, but the "network" (this test) flips a bit in its
  // first protocol record before delivery.
  auto enclave = f.member_enclave();
  ScriptedPeer member(
      0, attested_member(*enclave, [](GdoEnclave& e,
                                      tee::SecureChannel& channel) {
        common::Bytes record = honest_summary(e, channel).front();
        record[record.size() / 2] ^= 0x01;
        return std::vector<common::Bytes>{record};
      }));
  const common::Status status = f.run({&member});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::decrypt_failed);
}

TEST(FailureInjectionTest, WrongMessageTypeRejected) {
  LeaderFixture f;
  auto enclave = f.member_enclave();
  // Reply with a phase-3 message where summary stats are expected.
  ScriptedPeer member(
      0, attested_member(*enclave, [](GdoEnclave&,
                                      tee::SecureChannel& channel) {
        return std::vector<common::Bytes>{
            sealed(channel, MsgType::phase3_result,
                   Phase3Result{{1, 2}, 0.0}.serialize())};
      }));
  const common::Status status = f.run({&member});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::state_violation);
}

TEST(FailureInjectionTest, OversizedSummaryRejected) {
  LeaderFixture f;
  auto enclave = f.member_enclave();
  // Claims counts over the wrong number of SNPs.
  ScriptedPeer member(
      0, attested_member(*enclave, [](GdoEnclave&,
                                      tee::SecureChannel& channel) {
        SummaryStats bogus;
        bogus.case_counts.assign(9999, 1);
        bogus.n_case = 100;
        return std::vector<common::Bytes>{
            sealed(channel, MsgType::summary_stats, bogus.serialize())};
      }));
  const common::Status status = f.run({&member});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::bad_message);
}

TEST(FailureInjectionTest, MissingMomentsAbortLdPhase) {
  // A member that stops answering moments requests must never let zero
  // moments skew the aggregate: it is declared dead, and with no other
  // combination to fall back on the phase aborts with a timeout naming it.
  LeaderFixture f;
  GdoEnclave leader_enclave(f.leader_platform, 0);
  ASSERT_TRUE(
      leader_enclave.provision_dataset(f.cohort.cases.slice_rows(0, 100))
          .ok());
  Coordinator coordinator(leader_enclave, f.cohort.controls, 2, f.announce());
  SummaryStats member_stats;
  member_stats.case_counts.assign(f.cohort.cases.num_snps(), 5);
  member_stats.n_case = 100;
  ASSERT_TRUE(coordinator.add_summary(1, member_stats).ok());
  ASSERT_TRUE(coordinator.run_maf_phase().ok());

  auto silent_fetch = [](const MomentsRequest&,
                         const std::vector<std::uint32_t>&) {
    return std::vector<std::optional<stats::LdMoments>>{};  // no responses
  };
  const auto result = coordinator.run_ld_phase(silent_fetch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::timeout);
  EXPECT_NE(result.error().message.find("1"), std::string::npos)
      << result.error().to_string();
  EXPECT_EQ(coordinator.dead_gdos(), (std::set<std::uint32_t>{1}));
}

TEST(CheckpointTest, SealRestoreRoundTrip) {
  LeaderFixture f;
  GdoEnclave enclave(f.member_platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  StudyAnnounce announce = f.announce();
  ASSERT_TRUE(enclave.on_study_announce(announce).ok());
  ASSERT_TRUE(enclave.on_phase1(Phase1Result{{1, 2, 3}}).ok());
  ASSERT_TRUE(enclave.on_phase3(Phase3Result{{2, 3}, 0.5}).ok());

  const common::Bytes checkpoint = enclave.seal_study_checkpoint();

  GdoEnclave restored(f.member_platform, 1);
  ASSERT_TRUE(restored.restore_study_checkpoint(checkpoint).ok());
  EXPECT_EQ(restored.safe_snps(), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(restored.retained_after_phase1(),
            (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(restored.study_complete());
}

TEST(CheckpointTest, OtherPlatformCannotRestore) {
  LeaderFixture f;
  GdoEnclave enclave(f.member_platform, 1);
  ASSERT_TRUE(enclave.on_phase1(Phase1Result{}).ok() == false);  // sanity
  const common::Bytes checkpoint = enclave.seal_study_checkpoint();
  GdoEnclave other(f.leader_platform, 1);
  EXPECT_FALSE(other.restore_study_checkpoint(checkpoint).ok());
}

TEST(CheckpointTest, TamperedCheckpointRejected) {
  LeaderFixture f;
  GdoEnclave enclave(f.member_platform, 1);
  common::Bytes checkpoint = enclave.seal_study_checkpoint();
  checkpoint[checkpoint.size() - 1] ^= 0x01;
  const auto status = enclave.restore_study_checkpoint(checkpoint);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::decrypt_failed);
}

// ---------------------------------------------------------------------------
// Liveness: deadlines, dead-GDO degraded mode, abort notices. A GDO that
// stops responding mid-phase must terminate the study within the configured
// deadline (Errc::timeout naming the peer) - or, when the collusion policy
// leaves a combination without it, let the survivors finish. Deadlines run
// on the pump's virtual clock.
// ---------------------------------------------------------------------------

TEST(LivenessTest, MissingMemberTimesOutHandshake) {
  LeaderFixture f;
  f.leader().set_receive_timeout(std::chrono::milliseconds(100));
  const common::Status status = f.run({});  // member 1 never shows up
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::timeout);
  EXPECT_NE(status.error().message.find("1"), std::string::npos)
      << status.error().to_string();
}

TEST(LivenessTest, SilentMemberAfterSummaryTimesOutStudy) {
  LeaderFixture f;
  f.leader().set_receive_timeout(std::chrono::milliseconds(250));
  auto enclave = f.member_enclave();
  ScriptedPeer member(0, attested_member(*enclave, honest_summary));
  const common::Status status = f.run({&member});
  ASSERT_FALSE(status.ok());
  // The sole combination needs GDO 1's moments: its silence kills the study.
  EXPECT_EQ(status.error().code, common::Errc::timeout);
  EXPECT_NE(status.error().message.find("1"), std::string::npos)
      << status.error().to_string();
}

/// Three-GDO federation with leader GDO 0, one honest member (GDO 1) and
/// one member that crashes after submitting its summary (GDO 2).
struct ThreeGdoFixture {
  genome::Cohort cohort;
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x52}};
  tee::Platform platform0{1, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{1})};
  tee::Platform platform1{2, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{2})};
  tee::Platform platform2{3, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{3})};

  ThreeGdoFixture() {
    genome::CohortSpec spec;
    spec.num_case = 300;
    spec.num_control = 200;
    spec.num_snps = 60;
    spec.seed = 31;
    cohort = genome::generate_cohort(spec);
  }

  StudyAnnounce announce(const CollusionPolicy& policy) const {
    StudyAnnounce a;
    a.study_id = 1;
    a.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
    a.combinations = Coordinator::build_combinations(3, policy);
    return a;
  }
};

TEST(LivenessTest, RedundantCombinationSurvivesDeadGdo) {
  ThreeGdoFixture f;
  // f = 1: combinations {0,1}, {0,2}, {1,2} - losing GDO 2 leaves {0,1}.
  LeaderSession leader(f.platform0, 0, 3, f.cohort.cases.slice_rows(0, 100),
                       f.cohort.controls,
                       f.announce(CollusionPolicy::fixed(1)));
  leader.set_receive_timeout(std::chrono::milliseconds(250));
  MemberSession honest(f.platform1, 1, 0, f.cohort.cases.slice_rows(100, 200));
  honest.set_receive_timeout(std::chrono::milliseconds(5000));
  GdoEnclave enclave2(f.platform2, 2);
  ASSERT_TRUE(
      enclave2.provision_dataset(f.cohort.cases.slice_rows(200, 300)).ok());
  ScriptedPeer crashing(0, attested_member(enclave2, honest_summary));

  pump_federation({&leader, &honest, &crashing});
  ASSERT_EQ(leader.wants(), SessionWants::done)
      << leader.status().error().to_string();
  EXPECT_EQ(leader.result().dead_gdos, (std::vector<std::uint32_t>{2}));
  ASSERT_EQ(honest.wants(), SessionWants::done)
      << honest.status().error().to_string();
  // The surviving member converges on the same safe set as the leader.
  EXPECT_TRUE(honest.enclave().study_complete());
  EXPECT_EQ(honest.enclave().safe_snps(), leader.result().outcome.l_safe);
}

TEST(LivenessTest, SurvivingMemberReceivesAbortNotice) {
  ThreeGdoFixture f;
  // No redundancy: the single combination {0,1,2} dies with GDO 2, and the
  // leader must tell the surviving member instead of leaving it waiting.
  LeaderSession leader(f.platform0, 0, 3, f.cohort.cases.slice_rows(0, 100),
                       f.cohort.controls, f.announce(CollusionPolicy::none()));
  leader.set_receive_timeout(std::chrono::milliseconds(250));
  MemberSession honest(f.platform1, 1, 0, f.cohort.cases.slice_rows(100, 200));
  honest.set_receive_timeout(std::chrono::milliseconds(10000));
  GdoEnclave enclave2(f.platform2, 2);
  ASSERT_TRUE(
      enclave2.provision_dataset(f.cohort.cases.slice_rows(200, 300)).ok());
  ScriptedPeer crashing(0, attested_member(enclave2, honest_summary));

  pump_federation({&leader, &honest, &crashing});
  ASSERT_EQ(leader.wants(), SessionWants::failed);
  EXPECT_EQ(leader.status().error().code, common::Errc::timeout);
  EXPECT_NE(leader.status().error().message.find("2"), std::string::npos)
      << leader.status().error().to_string();
  ASSERT_EQ(honest.wants(), SessionWants::failed);
  EXPECT_EQ(honest.status().error().code, common::Errc::aborted)
      << honest.status().error().to_string();
}

}  // namespace
}  // namespace gendpr::core
