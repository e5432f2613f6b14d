// The federated collusion-tolerant sweep against an independent reference.
//
// The coordinator runs §5.6's combinations as one intersection-aware
// (pruned) sweep: it reorders combinations, folds the running intersection
// eagerly, truncates LD walks, skips combinations past an empty
// intersection and fetches member moments lazily. reference_sweep.hpp
// evaluates every combination in full on pooled genotypes instead, with no
// coordinator, enclave, message or tile in the way. The released L', L''
// and L_safe must be identical across collusion policies, tile widths and
// a degraded (dead-GDO) run. final_power must match whenever L_safe is
// non-empty; once the intersection is empty, skipped selections may leave
// the federated maximum short of the reference's.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "gendpr/baselines.hpp"
#include "gendpr/federation.hpp"
#include "gendpr/trusted.hpp"
#include "genome/cohort.hpp"
#include "obs/observability.hpp"
#include "reference_sweep.hpp"
#include "session_pump.hpp"

namespace gendpr::core {
namespace {

genome::Cohort test_cohort() {
  genome::CohortSpec spec;  // defaults include block LD and associated SNPs
  spec.num_case = 360;
  spec.num_control = 240;
  spec.num_snps = 120;
  spec.seed = 17;
  return genome::generate_cohort(spec);
}

StudyResult run(const genome::Cohort& cohort, std::uint32_t num_gdos,
                const CollusionPolicy& policy,
                obs::Observability* obs = nullptr,
                std::uint32_t tile_width = 0) {
  FederationSpec spec;
  spec.num_gdos = num_gdos;
  spec.policy = policy;
  spec.config.snp_tile_width = tile_width;
  spec.obs = obs;
  const auto result = run_federated_study(cohort, spec);
  EXPECT_TRUE(result.ok()) << "G=" << num_gdos << " width=" << tile_width
                           << ": " << result.error().to_string();
  return result.ok() ? result.value() : StudyResult{};
}

void expect_matches_reference(const SelectionOutcome& federated,
                              const SelectionOutcome& reference,
                              const std::string& label) {
  EXPECT_EQ(federated.l_prime, reference.l_prime) << label;
  EXPECT_EQ(federated.l_double_prime, reference.l_double_prime) << label;
  EXPECT_EQ(federated.l_safe, reference.l_safe) << label;
  if (!reference.l_safe.empty()) {
    EXPECT_EQ(federated.final_power, reference.final_power) << label;
  }
}

TEST(PruneEquivalenceTest, SafeSetsBitIdenticalAcrossPolicies) {
  const genome::Cohort cohort = test_cohort();
  std::vector<std::pair<std::uint32_t, CollusionPolicy>> shapes;
  for (std::uint32_t g = 3; g <= 6; ++g) {
    for (unsigned f : {1u, 2u}) {
      shapes.emplace_back(g, CollusionPolicy::fixed(f));
    }
  }
  // Every f in 1..G-1 at once: 14 combinations of three sizes, so the
  // evaluation order mixes populations.
  shapes.emplace_back(4, CollusionPolicy::conservative());
  for (const auto& [g, policy] : shapes) {
    const bool conservative = policy.mode == CollusionPolicy::Mode::all_f;
    const std::string label =
        "G=" + std::to_string(g) +
        (conservative ? " conservative" : " f=" + std::to_string(policy.f));
    const StudyResult federated = run(cohort, g, policy);
    const SelectionOutcome reference =
        reference_sweep(cohort, g, policy, StudyConfig{});
    expect_matches_reference(federated.outcome, reference, label);
    // Every walk reads at most |L'| - 1 distinct pairs.
    EXPECT_LE(federated.ld_pairs_fetched,
              federated.num_combinations *
                  std::max<std::size_t>(reference.l_prime.size(), 1))
        << label;
    // Mask trajectories are recorded and monotone non-increasing.
    for (const auto* sizes :
         {&federated.pruning.maf_mask_sizes, &federated.pruning.ld_mask_sizes,
          &federated.pruning.lr_mask_sizes}) {
      for (std::size_t i = 1; i < sizes->size(); ++i) {
        EXPECT_LE((*sizes)[i], (*sizes)[i - 1]) << label;
      }
    }
    ASSERT_FALSE(federated.pruning.maf_mask_sizes.empty()) << label;
    EXPECT_EQ(federated.pruning.maf_mask_sizes.back(),
              federated.outcome.l_prime.size())
        << label;
  }
}

TEST(PruneEquivalenceTest, TiledAndMonolithicPrunedSweepAgree) {
  const genome::Cohort cohort = test_cohort();
  for (std::uint32_t g = 3; g <= 6; ++g) {
    for (std::uint32_t f : {1u, 2u}) {
      const StudyResult tiled = run(cohort, g, CollusionPolicy::fixed(f),
                                    nullptr, /*tile_width=*/32);
      EXPECT_GT(tiled.maf_tiles, 1u);
      expect_matches_reference(
          tiled.outcome,
          reference_sweep(cohort, g, CollusionPolicy::fixed(f), StudyConfig{}),
          "width=32 G=" + std::to_string(g) + " f=" + std::to_string(f));
    }
  }
}

TEST(PruneEquivalenceTest, PrunedSweepDoesMeasurablyLessWork) {
  // Against the budget of evaluating every combination in full, and with
  // the LR ledger exact.
  const genome::Cohort cohort = test_cohort();
  obs::Observability obs;
  const StudyResult r = run(cohort, 6, CollusionPolicy::fixed(2), &obs);
  const std::uint64_t full_budget =
      r.num_combinations * cohort.cases.num_snps();
  ASSERT_EQ(r.num_combinations, 15u);
  // Chi-squared work drops from C * num_snps to at most C * |L'|.
  EXPECT_LE(obs.metrics.counter("coordinator.chi2_values_computed"),
            r.num_combinations * r.outcome.l_prime.size());
  EXPECT_LT(obs.metrics.counter("coordinator.chi2_values_computed"),
            full_budget);
  // MAF evaluations shrink with the per-tile mask.
  EXPECT_LT(obs.metrics.counter("coordinator.maf_snps_evaluated"),
            full_budget);
  // Phase 3 costs one bit-plane reply per member, whatever C is: 15
  // combinations, 5 replies of |L''| planes each.
  ASSERT_FALSE(r.outcome.l_double_prime.empty());
  EXPECT_EQ(obs.metrics.counter("lr.bit_replies"), r.num_gdos - 1);
  std::uint64_t bit_bytes = 0;
  for (std::uint32_t g = 0; g < r.num_gdos; ++g) {
    if (g == r.leader_gdo) continue;
    bit_bytes += r.outcome.l_double_prime.size() *
                 ((r.case_population_per_gdo[g] + 63) / 64) * 8;
  }
  EXPECT_EQ(obs.metrics.counter("lr.bit_bytes_received"), bit_bytes);
  EXPECT_EQ(obs.metrics.counter("coordinator.lr_combinations"),
            r.live_combinations - r.pruning.lr_selections_skipped);
}

TEST(PruneEquivalenceTest, DegradedRunsStayBitIdentical) {
  // GDO 2 submits its summary, then goes silent; the leader declares it
  // dead mid-walk. The pass restart must land on the survivor sets of the
  // reference in which GDO 2's combinations count for L' only.
  genome::CohortSpec cohort_spec;
  cohort_spec.num_case = 300;
  cohort_spec.num_control = 200;
  cohort_spec.num_snps = 60;
  cohort_spec.seed = 31;
  const genome::Cohort cohort = genome::generate_cohort(cohort_spec);

  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x52}};
  tee::Platform platform0{1, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{1})};
  tee::Platform platform1{2, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{2})};
  tee::Platform platform2{3, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{3})};
  StudyAnnounce announce;
  announce.study_id = 1;
  announce.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
  // f = 1: combinations {0,1}, {0,2}, {1,2} — losing GDO 2 leaves {0,1}.
  announce.combinations =
      Coordinator::build_combinations(3, CollusionPolicy::fixed(1));

  // The slices are genome::equal_partition(300, 3), as in the reference.
  LeaderSession leader(platform0, 0, 3, cohort.cases.slice_rows(0, 100),
                       cohort.controls, announce);
  leader.set_receive_timeout(std::chrono::milliseconds(250));
  MemberSession honest(platform1, 1, 0, cohort.cases.slice_rows(100, 200));
  honest.set_receive_timeout(std::chrono::milliseconds(5000));
  GdoEnclave enclave2(platform2, 2);
  ASSERT_TRUE(
      enclave2.provision_dataset(cohort.cases.slice_rows(200, 300)).ok());
  // GDO 2 submits its summary, then crashes.
  ScriptedPeer crashing(0, attested_member(enclave2, honest_summary));

  pump_federation({&leader, &honest, &crashing});
  auto result = outcome_of(leader);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().dead_gdos, (std::vector<std::uint32_t>{2}));
  // The surviving member converges on the leader's safe set too.
  EXPECT_TRUE(honest.enclave().study_complete());
  EXPECT_EQ(honest.enclave().safe_snps(), result.value().outcome.l_safe);

  const SelectionOutcome reference = reference_sweep(
      cohort, 3, CollusionPolicy::fixed(1), StudyConfig{}, {2});
  expect_matches_reference(result.value().outcome, reference, "dead GDO 2");
  EXPECT_FALSE(reference.l_safe.empty());
}

TEST(PruneEquivalenceTest, ReferenceWithoutCollusionEqualsCentralized) {
  // At f = 0 the one combination pools every case in GDO order, which is
  // the centralized cohort itself: the reference must reproduce the
  // centralized ground truth exactly.
  const genome::Cohort cohort = test_cohort();
  const StudyConfig config;
  const BaselineResult centralized = run_centralized(cohort, config);
  for (std::uint32_t g : {1u, 3u, 5u}) {
    const SelectionOutcome reference =
        reference_sweep(cohort, g, CollusionPolicy::none(), config);
    EXPECT_EQ(reference.l_prime, centralized.outcome.l_prime) << g;
    EXPECT_EQ(reference.l_double_prime, centralized.outcome.l_double_prime)
        << g;
    EXPECT_EQ(reference.l_safe, centralized.outcome.l_safe) << g;
    EXPECT_EQ(reference.final_power, centralized.outcome.final_power) << g;
  }
  EXPECT_FALSE(centralized.outcome.l_safe.empty());
}

}  // namespace
}  // namespace gendpr::core
