// Tiled-vs-monolithic equivalence for the pipelined MAF phase, and the
// leader's enclave-memory bound.
//
// Tiling (StudyConfig::snp_tile_width > 0) changes the phase-1 message
// chunking and the leader/member scheduling — never the assembled
// per-phase state. These tests pin that contract: every tile width must
// produce bit-identical selections to the monolithic protocol, across
// federation sizes, collusion policies, and dead-GDO degraded runs. The
// EPC test pins what the leader's meter charges for phase 3.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "gendpr/federation.hpp"
#include "gendpr/report.hpp"
#include "genome/cohort.hpp"
#include "session_pump.hpp"

namespace gendpr::core {
namespace {

genome::Cohort test_cohort(std::size_t n_case, std::size_t n_control,
                           std::size_t n_snps, std::uint64_t seed) {
  genome::CohortSpec spec;
  spec.num_case = n_case;
  spec.num_control = n_control;
  spec.num_snps = n_snps;
  spec.seed = seed;
  return genome::generate_cohort(spec);
}

void expect_same_selection(const StudyResult& tiled, const StudyResult& mono,
                           const std::string& label) {
  EXPECT_EQ(tiled.outcome.l_prime, mono.outcome.l_prime) << label;
  EXPECT_EQ(tiled.outcome.l_double_prime, mono.outcome.l_double_prime)
      << label;
  EXPECT_EQ(tiled.outcome.l_safe, mono.outcome.l_safe) << label;
  EXPECT_EQ(tiled.outcome.final_power, mono.outcome.final_power) << label;
}

TEST(TilingTest, TiledMatchesMonolithicAcrossWidthsAndPolicies) {
  const genome::Cohort cohort = test_cohort(240, 240, 130, 9);
  for (std::uint32_t g : {3u, 4u, 5u}) {
    for (unsigned f : {0u, 1u, 2u}) {
      FederationSpec spec;
      spec.num_gdos = g;
      spec.policy = f == 0 ? CollusionPolicy::none() : CollusionPolicy::fixed(f);
      const auto mono = run_federated_study(cohort, spec);
      ASSERT_TRUE(mono.ok()) << "G=" << g << " f=" << f << ": "
                             << mono.error().to_string();
      EXPECT_EQ(mono.value().maf_tiles, 1u);
      for (std::uint32_t width : {7u, 64u}) {
        FederationSpec tiled_spec = spec;
        tiled_spec.config.snp_tile_width = width;
        const auto tiled = run_federated_study(cohort, tiled_spec);
        const std::string label = "G=" + std::to_string(g) +
                                  " f=" + std::to_string(f) +
                                  " width=" + std::to_string(width);
        ASSERT_TRUE(tiled.ok()) << label << ": " << tiled.error().to_string();
        expect_same_selection(tiled.value(), mono.value(), label);
        // 130 announced SNPs split into ceil(130/width) phase-1 tiles.
        EXPECT_EQ(tiled.value().maf_tiles, (130 + width - 1) / width) << label;
      }
    }
  }
}

TEST(TilingTest, WidthBeyondStudyCollapsesToMonolithic) {
  const genome::Cohort cohort = test_cohort(200, 200, 80, 11);
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.policy = CollusionPolicy::fixed(1);
  const auto mono = run_federated_study(cohort, spec);
  ASSERT_TRUE(mono.ok());

  FederationSpec wide = spec;
  wide.config.snp_tile_width = 100000;  // >= num_snps: one tile
  const auto collapsed = run_federated_study(cohort, wide);
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(collapsed.value().maf_tiles, 1u);
  expect_same_selection(collapsed.value(), mono.value(), "width>=total");
}

TEST(TilingTest, EmptyFunnelCompletesWithZeroLrTiles) {
  // maf_cutoff = 1.0 retains nothing (MAF tops out at 0.5): L' is empty,
  // the LD walks and LR selection have no input, and phase 3 must send
  // nothing - no phase-2 broadcast, no LR replies. Exercised monolithic and
  // tiled.
  const genome::Cohort cohort = test_cohort(200, 200, 80, 11);
  for (std::uint32_t width : {0u, 16u}) {
    FederationSpec spec;
    spec.num_gdos = 3;
    spec.policy = CollusionPolicy::fixed(1);
    spec.config.maf_cutoff = 1.0;
    spec.config.snp_tile_width = width;
    const auto result = run_federated_study(cohort, spec);
    ASSERT_TRUE(result.ok())
        << "width=" << width << ": " << result.error().to_string();
    const StudyResult& r = result.value();
    EXPECT_TRUE(r.outcome.l_prime.empty());
    EXPECT_TRUE(r.outcome.l_double_prime.empty());
    EXPECT_TRUE(r.outcome.l_safe.empty());
    EXPECT_EQ(r.phase2_body_bytes, 0u);
    EXPECT_EQ(r.outcome.final_power, 0.0);
  }
}

TEST(TilingTest, DegradedDeadGdoRunMatchesMonolithic) {
  // A member that crashes before submitting any summary is declared dead
  // during the summary gather in both modes, so the surviving combinations
  // — and hence the final selection — must match bit for bit.
  const genome::Cohort cohort = test_cohort(300, 240, 90, 13);
  // GDO 2 processes the announce, then crashes without ever sending a
  // summary: a crash right before phase-1 input submission. Unlike a crash
  // *after* the summary, this shape is identical under any tile width, so
  // the tiled and monolithic degraded runs see the same dead set at the
  // same phase.
  const AnnounceReply no_summary = [](GdoEnclave&, tee::SecureChannel&) {
    return std::vector<common::Bytes>{};
  };
  auto run_with_crashing_member = [&](std::uint32_t width,
                                      const AnnounceReply& reply) {
    tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x61}};
    tee::Platform platform0{1, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{1})};
    tee::Platform platform1{2, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{2})};
    tee::Platform platform2{3, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{3})};
    StudyAnnounce announce;
    announce.study_id = 1;
    announce.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
    announce.config.snp_tile_width = width;
    // f = 1: combinations {0,1}, {0,2}, {1,2} - losing GDO 2 leaves {0,1}.
    announce.combinations =
        Coordinator::build_combinations(3, CollusionPolicy::fixed(1));
    LeaderSession leader(platform0, 0, 3, cohort.cases.slice_rows(0, 100),
                         cohort.controls, announce);
    leader.set_receive_timeout(std::chrono::milliseconds(400));
    MemberSession honest(platform1, 1, 0, cohort.cases.slice_rows(100, 200));
    honest.set_receive_timeout(std::chrono::milliseconds(20000));
    GdoEnclave enclave2(platform2, 2);
    EXPECT_TRUE(
        enclave2.provision_dataset(cohort.cases.slice_rows(200, 300)).ok());
    ScriptedPeer crashing(0, attested_member(enclave2, reply));
    pump_federation({&leader, &honest, &crashing});
    EXPECT_EQ(honest.wants(), SessionWants::done)
        << honest.status().error().to_string();
    return outcome_of(leader);
  };

  const auto mono = run_with_crashing_member(0, no_summary);
  ASSERT_TRUE(mono.ok()) << mono.error().to_string();
  EXPECT_EQ(mono.value().dead_gdos, (std::vector<std::uint32_t>{2}));

  const auto tiled = run_with_crashing_member(16, no_summary);
  ASSERT_TRUE(tiled.ok()) << tiled.error().to_string();
  EXPECT_EQ(tiled.value().dead_gdos, (std::vector<std::uint32_t>{2}));
  EXPECT_GT(tiled.value().maf_tiles, 1u);
  expect_same_selection(tiled.value(), mono.value(), "degraded width=16");

  // GDO 2 sends only its first summary tile: tile 0 is assessed with GDO
  // 2's combinations folded in, so its death mid-stream must make the
  // leader forget those kills and re-assess every tile over {0,1}.
  const auto first_tile_only = [](GdoEnclave& enclave,
                                  tee::SecureChannel& channel) {
    return std::vector<common::Bytes>{
        sealed(channel, MsgType::summary_stats,
               enclave.make_summary_tile(0, 16, 0).serialize())};
  };
  const auto midstream = run_with_crashing_member(16, first_tile_only);
  ASSERT_TRUE(midstream.ok()) << midstream.error().to_string();
  EXPECT_EQ(midstream.value().dead_gdos, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(midstream.value().pruning.maf_reassessments, 1u);
  expect_same_selection(midstream.value(), mono.value(),
                        "died mid-stream width=16");
}

TEST(TilingTest, LeaderEpcPeakIsTheLimitItNeeds) {
  // Self-calibrating: run under a generous limit, check that the leader's
  // reported peak covers what phase 3 must hold inside its enclave - its
  // own planes, the reference planes and the member's received bits, each
  // counted from the shapes - then show the peak is exactly the limit the
  // study needs: it completes under that limit with the same selection and
  // fails capacity_exceeded one byte below it. The leader holds most of
  // the cases and the reference, so its peak dominates the member's.
  const genome::Cohort cohort = test_cohort(420, 200, 220, 17);
  constexpr std::size_t kLeaderRows = 300;
  struct Run {
    common::Result<StudyResult> result;
    std::uint64_t leader_peak = 0;
    std::uint64_t member_peak = 0;
  };
  auto run_with = [&](std::uint64_t limit) {
    tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x71}};
    tee::Platform leader_platform{
        1, authority, crypto::Csprng(std::array<std::uint8_t, 32>{1}), limit};
    tee::Platform member_platform{
        2, authority, crypto::Csprng(std::array<std::uint8_t, 32>{2}), limit};
    StudyAnnounce announce;
    announce.study_id = 1;
    announce.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
    announce.combinations =
        Coordinator::build_combinations(2, CollusionPolicy::none());
    LeaderSession leader(leader_platform, 0, 2,
                         cohort.cases.slice_rows(0, kLeaderRows),
                         cohort.controls, announce);
    leader.set_receive_timeout(std::chrono::milliseconds(20000));
    MemberSession member(member_platform, 1, 0,
                         cohort.cases.slice_rows(kLeaderRows, 420));
    member.set_receive_timeout(std::chrono::milliseconds(20000));
    pump_federation({&leader, &member});
    Run run{outcome_of(leader), 0, 0};
    run.leader_peak = leader_platform.epc().peak();
    run.member_peak = member_platform.epc().peak();
    return run;
  };

  const Run generous = run_with(tee::EpcMeter::kDefaultLimitBytes);
  ASSERT_TRUE(generous.result.ok()) << generous.result.error().to_string();
  const StudyResult& study = generous.result.value();
  const std::size_t l_dprime = study.outcome.l_double_prime.size();
  ASSERT_GT(l_dprime, 0u);
  const std::uint64_t snps = cohort.cases.num_snps();
  const std::uint64_t leader_plane_bytes = snps * ((kLeaderRows + 63) / 64) * 8;
  const std::uint64_t reference_plane_bytes = snps * ((200 + 63) / 64) * 8;
  const std::uint64_t member_bit_bytes = l_dprime * ((120 + 63) / 64) * 8;
  EXPECT_GE(generous.leader_peak,
            leader_plane_bytes + reference_plane_bytes + member_bit_bytes);
  // Phase 3, not provisioning (packed rows next to the planes), sets the
  // peak, so the pinch below bites the LR state.
  const std::uint64_t provisioning =
      cohort.cases.slice_rows(0, kLeaderRows).storage_bytes() +
      genome::BitPlanes(cohort.cases.slice_rows(0, kLeaderRows))
          .storage_bytes() +
      genome::BitPlanes(cohort.controls).storage_bytes();
  ASSERT_GT(generous.leader_peak, provisioning);
  ASSERT_LT(generous.member_peak, generous.leader_peak - 1);
  EXPECT_EQ(study.epc_peak_leader, generous.leader_peak);

  const Run exact = run_with(generous.leader_peak);
  ASSERT_TRUE(exact.result.ok()) << exact.result.error().to_string();
  expect_same_selection(exact.result.value(), study, "limit == peak");
  EXPECT_EQ(exact.leader_peak, generous.leader_peak);

  const Run pinched = run_with(generous.leader_peak - 1);
  ASSERT_FALSE(pinched.result.ok());
  EXPECT_EQ(pinched.result.error().code, common::Errc::capacity_exceeded)
      << pinched.result.error().to_string();
}

TEST(TilingTest, PipelineCountersReportOverlap) {
  const genome::Cohort cohort = test_cohort(200, 200, 100, 19);
  obs::Observability observability;
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.policy = CollusionPolicy::fixed(1);
  spec.config.snp_tile_width = 10;
  spec.obs = &observability;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().snp_tile_width, 10u);
  EXPECT_EQ(result.value().maf_tiles, 10u);
  // Every MAF tile is assessed through the inline pipeline path (the last
  // summary arrival makes the final tile ready), and the report carries
  // both the tiling shape and the pipeline counters.
  EXPECT_EQ(result.value().maf_tiles_assessed_inline, 10u);
  EXPECT_FALSE(result.value().kernel_backend.empty());

  ReportContext context;
  context.obs = &observability;
  const obs::JsonValue report = make_run_report(result.value(), context);
  const obs::JsonValue* tiles = report.find("tiles");
  ASSERT_NE(tiles, nullptr);
  EXPECT_EQ(tiles->find("width")->as_number(), 10.0);
  EXPECT_EQ(tiles->find("count")->as_number(), 10.0);
  const obs::JsonValue* metrics = report.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("coordinator.maf_tiles")->as_number(), 10.0);
  EXPECT_EQ(
      counters->find("pipeline.maf_tiles_assessed_inline")->as_number(),
      10.0);
}

}  // namespace
}  // namespace gendpr::core
