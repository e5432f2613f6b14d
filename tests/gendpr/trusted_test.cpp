#include "gendpr/trusted.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "genome/cohort.hpp"

namespace gendpr::core {
namespace {

struct Fixture {
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x01}};
  tee::Platform platform{1, authority,
                         crypto::Csprng(std::array<std::uint8_t, 32>{2})};

  genome::Cohort cohort = genome::generate_cohort([] {
    genome::CohortSpec spec;
    spec.num_case = 300;
    spec.num_control = 300;
    spec.num_snps = 120;
    spec.seed = 5;
    return spec;
  }());

  StudyAnnounce make_announce(std::uint32_t num_gdos,
                              CollusionPolicy policy) {
    StudyAnnounce announce;
    announce.study_id = 1;
    announce.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
    announce.combinations =
        Coordinator::build_combinations(num_gdos, policy);
    return announce;
  }
};

TEST(IntersectSortedTest, BasicCases) {
  EXPECT_TRUE(intersect_sorted({}).empty());
  EXPECT_EQ(intersect_sorted({{1, 2, 3}}), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(intersect_sorted({{1, 2, 3}, {2, 3, 4}}),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(intersect_sorted({{1, 2}, {3, 4}}), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(intersect_sorted({{1, 2, 3}, {2, 3}, {3}}),
            (std::vector<std::uint32_t>{3}));
}

TEST(BuildCombinationsTest, NonePolicyIsAllGdos) {
  const auto combinations =
      Coordinator::build_combinations(4, CollusionPolicy::none());
  ASSERT_EQ(combinations.size(), 1u);
  EXPECT_EQ(combinations[0], (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(BuildCombinationsTest, FixedFMatchesBinomial) {
  // C(5, 5-2) = 10 combinations of 3 GDOs.
  const auto combinations =
      Coordinator::build_combinations(5, CollusionPolicy::fixed(2));
  EXPECT_EQ(combinations.size(), 10u);
  for (const auto& members : combinations) {
    EXPECT_EQ(members.size(), 3u);
  }
}

TEST(BuildCombinationsTest, FixedFMaxIsSingletons) {
  const auto combinations =
      Coordinator::build_combinations(4, CollusionPolicy::fixed(3));
  EXPECT_EQ(combinations.size(), 4u);
  for (const auto& members : combinations) EXPECT_EQ(members.size(), 1u);
}

TEST(BuildCombinationsTest, ConservativeSumsAllF) {
  // Sum of C(4, 4-f) for f=1..3: 4 + 6 + 4 = 14.
  const auto combinations =
      Coordinator::build_combinations(4, CollusionPolicy::conservative());
  EXPECT_EQ(combinations.size(), 14u);
}

TEST(BuildCombinationsTest, FClampedToGMinus1) {
  const auto combinations =
      Coordinator::build_combinations(3, CollusionPolicy::fixed(99));
  EXPECT_EQ(combinations.size(), 3u);  // C(3,1)
}

TEST(GdoEnclaveTest, ProvisionAccountsEpc) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  // The packed rows are charged only while the bit planes are built from
  // them; the planes are the enclave's one resident layout (DESIGN.md §2.1).
  const genome::BitPlanes planes(f.cohort.cases);
  EXPECT_EQ(f.platform.epc().in_use(), planes.storage_bytes());
  EXPECT_EQ(f.platform.epc().peak(),
            f.cohort.cases.storage_bytes() + planes.storage_bytes());
}

TEST(GdoEnclaveTest, ProvisionRejectedOverEpcLimit) {
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x03}};
  tee::Platform tiny(1, authority,
                     crypto::Csprng(std::array<std::uint8_t, 32>{4}),
                     /*epc_limit=*/16);
  Fixture f;
  GdoEnclave enclave(tiny, 0);
  const auto status = enclave.provision_dataset(f.cohort.cases);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::capacity_exceeded);
}

TEST(GdoEnclaveTest, SummaryStatsMatchDataset) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  const SummaryStats stats = enclave.make_summary_stats();
  EXPECT_EQ(stats.n_case, f.cohort.cases.num_individuals());
  EXPECT_EQ(stats.case_counts, f.cohort.cases.allele_counts());
}

TEST(GdoEnclaveTest, AnnounceSnpMismatchRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  StudyAnnounce announce = f.make_announce(2, CollusionPolicy::none());
  announce.num_snps = 7;  // wrong
  EXPECT_FALSE(enclave.on_study_announce(announce).ok());
}

TEST(GdoEnclaveTest, HandlersEnforcePhaseOrder) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  EXPECT_FALSE(enclave.on_phase1(Phase1Result{}).ok());
  EXPECT_FALSE(enclave.on_moments_request(MomentsRequest{}).ok());
  EXPECT_FALSE(enclave.on_phase3(Phase3Result{}).ok());
}

TEST(GdoEnclaveTest, MomentsRequestOutOfRangeRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  ASSERT_TRUE(
      enclave.on_study_announce(f.make_announce(1, CollusionPolicy::none()))
          .ok());
  MomentsRequest request{0, 0, 100000};
  EXPECT_FALSE(enclave.on_moments_request(request).ok());
}

/// Per-GDO counts for a 3-GDO study whose slot for `enclave` matches its
/// local dataset (the enclave verifies its own slot before computing).
Phase2Result make_phase2_counts(const GdoEnclave& enclave,
                                std::vector<std::uint32_t> retained) {
  Phase2Result phase2;
  phase2.retained = std::move(retained);
  phase2.reference_freq.assign(phase2.retained.size(), 0.25);
  const std::uint32_t n_case =
      static_cast<std::uint32_t>(enclave.planes().num_individuals());
  phase2.case_counts_per_gdo.assign(
      3, std::vector<std::uint32_t>(phase2.retained.size(), 7));
  phase2.case_counts_per_gdo[enclave.gdo_index()] =
      enclave.planes().allele_counts(phase2.retained);
  phase2.n_case_per_gdo = {100, 100, 100};
  phase2.n_case_per_gdo[enclave.gdo_index()] = n_case;
  return phase2;
}

/// Words of column `col` in a reply from an enclave with `words` words per
/// plane.
std::vector<std::uint64_t> reply_column(const LrBits& bits, std::size_t col,
                                        std::size_t words) {
  return {bits.words.begin() + static_cast<std::ptrdiff_t>(col * words),
          bits.words.begin() + static_cast<std::ptrdiff_t>((col + 1) * words)};
}

std::vector<std::uint64_t> plane_of(const GdoEnclave& enclave,
                                    std::uint32_t snp) {
  const std::uint64_t* plane = enclave.planes().plane(snp);
  return {plane, plane + enclave.planes().words_per_plane()};
}

TEST(GdoEnclaveTest, Phase2BuildsMatricesOnlyForOwnCombinations) {
  Fixture f;
  GdoEnclave enclave(f.platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  StudyAnnounce announce = f.make_announce(3, CollusionPolicy::fixed(1));
  // Combinations of 2 of {0,1,2}: {0,1}, {0,2}, {1,2}. GDO 1 is in 2 of 3.
  ASSERT_TRUE(enclave.on_study_announce(announce).ok());
  ASSERT_TRUE(enclave.on_phase1(Phase1Result{{0, 1, 2}}).ok());
  Phase2Result phase2 = make_phase2_counts(enclave, {0, 1, 2});
  // GDOs 0 and 2 report identical counts, so {0,1} and {1,2} share column
  // 0's case frequency; a reference frequency equal to it makes both of
  // column 0's weights log(1) = 0 in GDO 1's combinations. {0,2} still
  // weighs column 0's genotypes differently, but GDO 1's bits never feed
  // it.
  phase2.reference_freq[0] = phase2.combination_case_freq({0, 1})[0];
  ASSERT_NE(phase2.combination_case_freq({0, 2})[0], phase2.reference_freq[0]);
  const std::size_t words = enclave.planes().words_per_plane();
  ASSERT_NE(plane_of(enclave, 0), std::vector<std::uint64_t>(words, 0));

  const std::uint64_t planes_bytes = f.platform.epc().in_use();
  const auto bits = enclave.on_phase2(phase2);
  ASSERT_TRUE(bits.ok()) << bits.error().to_string();
  // One plane per L'' SNP, whatever the number of combinations.
  ASSERT_EQ(bits.value().words.size(), 3 * words);
  EXPECT_EQ(reply_column(bits.value(), 0, words),
            std::vector<std::uint64_t>(words, 0));
  EXPECT_EQ(reply_column(bits.value(), 1, words), plane_of(enclave, 1));
  EXPECT_EQ(reply_column(bits.value(), 2, words), plane_of(enclave, 2));
  // The reply buffer was charged while it was built, and only then.
  EXPECT_GE(f.platform.epc().peak(), planes_bytes + 3 * words * 8);
  EXPECT_EQ(f.platform.epc().in_use(), planes_bytes);
}

TEST(GdoEnclaveTest, Phase2FrequencySizeMismatchRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  ASSERT_TRUE(
      enclave.on_study_announce(f.make_announce(1, CollusionPolicy::none()))
          .ok());
  Phase2Result phase2 = make_phase2_counts(enclave, {0, 1});
  phase2.reference_freq = {0.2};  // wrong size
  EXPECT_FALSE(enclave.on_phase2(phase2).ok());
}

TEST(GdoEnclaveTest, Phase2MisattributedOwnCountsRejected) {
  // A leader shipping counts for this GDO that disagree with its dataset is
  // caught inside the enclave before any matrix is computed.
  Fixture f;
  GdoEnclave enclave(f.platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  ASSERT_TRUE(enclave
                  .on_study_announce(
                      f.make_announce(3, CollusionPolicy::fixed(1)))
                  .ok());
  Phase2Result phase2 = make_phase2_counts(enclave, {0, 1, 2});
  phase2.case_counts_per_gdo[1][0] += 1;  // tampered own slot
  const auto tampered = enclave.on_phase2(phase2);
  ASSERT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.error().code, common::Errc::bad_message);
}

TEST(GdoEnclaveTest, Phase2CoMemberCountOverPopulationRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  ASSERT_TRUE(enclave
                  .on_study_announce(
                      f.make_announce(3, CollusionPolicy::fixed(1)))
                  .ok());
  Phase2Result phase2 = make_phase2_counts(enclave, {0, 1, 2});
  phase2.case_counts_per_gdo[0][2] = 101;  // exceeds n_case_per_gdo[0]
  EXPECT_FALSE(enclave.on_phase2(phase2).ok());
}

TEST(GdoEnclaveTest, Phase2SkipsCombinationsWithDeadMembers) {
  Fixture f;
  GdoEnclave enclave(f.platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cohort.cases).ok());
  ASSERT_TRUE(enclave
                  .on_study_announce(
                      f.make_announce(3, CollusionPolicy::fixed(1)))
                  .ok());
  Phase2Result phase2 = make_phase2_counts(enclave, {0, 1, 2});
  // Column 0's weights coincide in {1,2} but not in {0,1} (GDO 0 reports
  // other counts).
  phase2.case_counts_per_gdo[0] = {9, 9, 9};
  phase2.reference_freq[0] = phase2.combination_case_freq({1, 2})[0];
  ASSERT_NE(phase2.combination_case_freq({0, 1})[0], phase2.reference_freq[0]);
  const std::size_t words = enclave.planes().words_per_plane();
  const auto alive = enclave.on_phase2(phase2);
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(reply_column(alive.value(), 0, words), plane_of(enclave, 0));

  phase2.dead_gdos = {0};
  phase2.case_counts_per_gdo[0].clear();  // dead slot travels empty
  phase2.n_case_per_gdo[0] = 0;
  const auto degraded = enclave.on_phase2(phase2);
  ASSERT_TRUE(degraded.ok());
  // Only {1,2} survives ({0,1} and {0,2} name the dead GDO 0), and there
  // column 0 is constant: its bits stay home.
  ASSERT_EQ(degraded.value().words.size(), 3 * words);
  EXPECT_EQ(reply_column(degraded.value(), 0, words),
            std::vector<std::uint64_t>(words, 0));
  EXPECT_EQ(reply_column(degraded.value(), 1, words), plane_of(enclave, 1));
}

TEST(CoordinatorTest, RejectsBogusSummaries) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cohort.cases).ok());
  Coordinator coordinator(leader, f.cohort.controls, 2,
                          f.make_announce(2, CollusionPolicy::none()));
  SummaryStats bogus;
  bogus.case_counts = {1, 2};  // wrong length
  bogus.n_case = 10;
  EXPECT_FALSE(coordinator.add_summary(1, bogus).ok());

  SummaryStats inflated;
  inflated.case_counts.assign(f.cohort.cases.num_snps(), 100);
  inflated.n_case = 10;  // counts exceed population
  EXPECT_FALSE(coordinator.add_summary(1, inflated).ok());

  SummaryStats ok;
  ok.case_counts.assign(f.cohort.cases.num_snps(), 1);
  ok.n_case = 10;
  EXPECT_FALSE(coordinator.add_summary(7, ok).ok());  // unknown GDO
  EXPECT_TRUE(coordinator.add_summary(1, ok).ok());
}

TEST(CoordinatorTest, MafPhaseRequiresAllSummaries) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cohort.cases).ok());
  Coordinator coordinator(leader, f.cohort.controls, 3,
                          f.make_announce(3, CollusionPolicy::none()));
  EXPECT_FALSE(coordinator.phase1_ready());
  EXPECT_FALSE(coordinator.run_maf_phase().ok());
}

TEST(CoordinatorTest, SingleGdoPipelineRunsEndToEnd) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cohort.cases).ok());
  Coordinator coordinator(leader, f.cohort.controls, 1,
                          f.make_announce(1, CollusionPolicy::none()));
  ASSERT_TRUE(coordinator.phase1_ready());
  const auto phase1 = coordinator.run_maf_phase();
  ASSERT_TRUE(phase1.ok());
  EXPECT_FALSE(phase1.value().retained.empty());

  auto fetch = [](const MomentsRequest&, const std::vector<std::uint32_t>&) {
    return std::vector<std::optional<stats::LdMoments>>{};
  };
  const auto phase2 = coordinator.run_ld_phase(fetch);
  ASSERT_TRUE(phase2.ok());
  EXPECT_LE(phase2.value().retained.size(), phase1.value().retained.size());

  ASSERT_TRUE(coordinator.phase3_ready());
  const auto phase3 = coordinator.run_lr_phase();
  ASSERT_TRUE(phase3.ok());
  EXPECT_LE(phase3.value().safe.size(), phase2.value().retained.size());
  EXPECT_LE(phase3.value().final_power, 0.9);
}

TEST(CoordinatorTest, LrMatrixValidation) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cohort.cases).ok());
  Coordinator coordinator(leader, f.cohort.controls, 2,
                          f.make_announce(2, CollusionPolicy::none()));
  SummaryStats member_stats;
  member_stats.case_counts.assign(f.cohort.cases.num_snps(), 5);
  member_stats.n_case = 50;
  ASSERT_TRUE(coordinator.add_summary(1, member_stats).ok());
  ASSERT_TRUE(coordinator.run_maf_phase().ok());
  auto fetch = [&](const MomentsRequest&, const std::vector<std::uint32_t>&) {
    std::vector<std::optional<stats::LdMoments>> per_gdo(2);
    per_gdo[1] = stats::LdMoments{5, 5, 1, 5, 5, 50};
    return per_gdo;
  };
  const common::Status early = coordinator.add_lr_bits(1, LrBits{});
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().code, common::Errc::state_violation);
  ASSERT_TRUE(coordinator.run_ld_phase(fetch).ok());

  ASSERT_FALSE(coordinator.outcome().l_double_prime.empty());
  // Member GDO 1 has 50 cases: one word per plane.
  LrBits valid;
  valid.words.assign(coordinator.outcome().l_double_prime.size(), 1);

  const common::Status unknown = coordinator.add_lr_bits(7, valid);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, common::Errc::unknown_peer);
  EXPECT_FALSE(coordinator.add_lr_bits(0, valid).ok());  // the leader itself

  LrBits short_reply = valid;
  short_reply.words.pop_back();
  const common::Status wrong_size = coordinator.add_lr_bits(1, short_reply);
  ASSERT_FALSE(wrong_size.ok());
  EXPECT_EQ(wrong_size.error().message, "LR bits word count mismatch");
  EXPECT_FALSE(coordinator.phase3_ready());

  // A GDO answers once; a repeat is rejected, not silently overwritten
  // (the host counts one reply per member, so an accepted repeat would hide
  // a missing one).
  ASSERT_TRUE(coordinator.add_lr_bits(1, valid).ok());
  EXPECT_TRUE(coordinator.phase3_ready());
  const common::Status repeated = coordinator.add_lr_bits(1, valid);
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.error().code, common::Errc::bad_message);
  EXPECT_EQ(repeated.error().message, "duplicate LR bits");

  ASSERT_TRUE(coordinator.mark_gdo_dead(1).ok());
  const common::Status from_dead = coordinator.add_lr_bits(1, valid);
  ASSERT_FALSE(from_dead.ok());
  EXPECT_EQ(from_dead.error().message, "LR bits from a dead GDO");
}

TEST(CoordinatorTest, ConstantColumnTravelsAsZeroWordsAndKeepsLSafe) {
  // Handcrafted cohort: SNP 5 carries the same minor-allele count in the
  // pooled cases as in the reference, so its case and reference
  // frequencies, and hence its two LR weights (both log(1) = 0), are equal
  // in the only combination. The member ships that column as zero words;
  // the leader's selection must still equal the dense oracle over the true
  // bits.
  genome::CohortSpec spec;
  spec.num_case = 130;  // leader 70 rows, member 60: neither 64-aligned
  spec.num_control = 130;
  spec.num_snps = 40;
  spec.seed = 77;
  genome::Cohort cohort = genome::generate_cohort(spec);
  constexpr std::uint32_t kConstant = 5;
  for (std::size_t r = 0; r < 130; ++r) {
    cohort.cases.set(r, kConstant, r % 3 == 0);
    cohort.controls.set(r, kConstant, r % 3 == 0);
  }
  ASSERT_EQ(cohort.cases.allele_count(kConstant),
            cohort.controls.allele_count(kConstant));

  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x0c}};
  tee::Platform leader_platform{
      1, authority, crypto::Csprng(std::array<std::uint8_t, 32>{1})};
  tee::Platform member_platform{
      2, authority, crypto::Csprng(std::array<std::uint8_t, 32>{2})};
  GdoEnclave leader(leader_platform, 0);
  GdoEnclave member(member_platform, 1);
  ASSERT_TRUE(leader.provision_dataset(cohort.cases.slice_rows(0, 70)).ok());
  ASSERT_TRUE(
      member.provision_dataset(cohort.cases.slice_rows(70, 130)).ok());
  StudyAnnounce announce;
  announce.study_id = 1;
  announce.num_snps = 40;
  announce.combinations =
      Coordinator::build_combinations(2, CollusionPolicy::none());
  Coordinator coordinator(leader, cohort.controls, 2, announce);
  ASSERT_TRUE(member.on_study_announce(announce).ok());
  ASSERT_TRUE(coordinator.add_summary(1, member.make_summary_stats()).ok());
  const auto phase1 = coordinator.run_maf_phase();
  ASSERT_TRUE(phase1.ok());
  ASSERT_TRUE(member.on_phase1(phase1.value()).ok());
  const auto phase2 = coordinator.run_ld_phase(
      [&](const MomentsRequest& request, const std::vector<std::uint32_t>&) {
        std::vector<std::optional<stats::LdMoments>> per_gdo(2);
        per_gdo[1] = member.on_moments_request(request).value().moments;
        return per_gdo;
      });
  ASSERT_TRUE(phase2.ok());
  const std::vector<std::uint32_t>& l_dprime = phase2.value().retained;
  const auto it = std::find(l_dprime.begin(), l_dprime.end(), kConstant);
  ASSERT_NE(it, l_dprime.end()) << "the constant SNP did not reach L''";
  const auto column = static_cast<std::size_t>(it - l_dprime.begin());

  const auto bits = member.on_phase2(phase2.value());
  ASSERT_TRUE(bits.ok());
  const std::size_t words = member.planes().words_per_plane();
  EXPECT_EQ(reply_column(bits.value(), column, words),
            std::vector<std::uint64_t>(words, 0));
  EXPECT_NE(plane_of(member, kConstant), std::vector<std::uint64_t>(words, 0));
  ASSERT_TRUE(coordinator.add_lr_bits(1, bits.value()).ok());
  const auto phase3 = coordinator.run_lr_phase();
  ASSERT_TRUE(phase3.ok());

  // Dense oracle over the true bits, leader rows first.
  const stats::LrWeights weights = stats::lr_weights(
      phase2.value().combination_case_freq({0, 1}),
      phase2.value().reference_freq);
  EXPECT_EQ(weights.when_minor[column], weights.when_major[column]);
  stats::LrMatrix case_lr =
      stats::build_lr_matrix(leader.planes(), l_dprime, weights);
  case_lr.append_rows(
      stats::build_lr_matrix(member.planes(), l_dprime, weights));
  const stats::LrSelectionResult oracle = stats::select_safe_snps(
      case_lr,
      stats::build_lr_matrix(genome::BitPlanes(cohort.controls), l_dprime,
                             weights),
      stats::LrSelectionParams{});
  std::vector<std::uint32_t> expected;
  for (std::uint32_t c : oracle.safe_columns) expected.push_back(l_dprime[c]);
  EXPECT_EQ(phase3.value().safe, expected);
  EXPECT_EQ(phase3.value().final_power, oracle.final_power);
  EXPECT_NE(std::find(expected.begin(), expected.end(), kConstant),
            expected.end());
}

/// Three-GDO coordinator (f = 1: combinations {0,1}, {0,2}, {1,2}) with
/// identical member summaries of `member_population` cases each. Every
/// greedy walk starts at the first pair of L', so the first walk creates
/// that pair's moments_cache_ entry and every later walk hits it. Shared by
/// the stale-slot regression tests below.
struct RefetchFixture {
  Fixture f;
  GdoEnclave leader{f.platform, 0};
  std::optional<Coordinator> coordinator;

  explicit RefetchFixture(std::uint32_t member_population) {
    EXPECT_TRUE(leader.provision_dataset(f.cohort.cases).ok());
    coordinator.emplace(leader, f.cohort.controls, 3,
                        f.make_announce(3, CollusionPolicy::fixed(1)));
    SummaryStats member_stats;
    member_stats.case_counts.assign(f.cohort.cases.num_snps(), 5);
    member_stats.n_case = member_population;
    EXPECT_TRUE(coordinator->add_summary(1, member_stats).ok());
    EXPECT_TRUE(coordinator->add_summary(2, member_stats).ok());
    EXPECT_TRUE(coordinator->run_maf_phase().ok());
    EXPECT_GE(coordinator->outcome().l_prime.size(), 2u);
  }
};

TEST(CoordinatorTest, StaleMomentsSlotRefetchedForLiveMember) {
  // Members smaller than the leader put {1,2} first in the evaluation
  // order, so its walk creates the first pair's cache entry by asking both
  // members. Both responses are lost; the aggregation fails on GDO 1 first
  // and declares it dead, leaving GDO 2's slot empty although GDO 2 is
  // alive. The pass restarts over the one live combination {0,2}, whose
  // walk hits the same entry: the coordinator must re-request the stale
  // slot from GDO 2 instead of replaying MissingMomentsError from the cache
  // - which would also kill GDO 2 and abort the phase with no live
  // combination.
  RefetchFixture rf(/*member_population=*/10);
  std::vector<std::vector<std::uint32_t>> calls;
  auto fetch = [&](const MomentsRequest&,
                   const std::vector<std::uint32_t>& targets) {
    calls.push_back(targets);
    std::vector<std::optional<stats::LdMoments>> per_gdo(3);
    if (calls.size() == 1) return per_gdo;  // both responses lost
    for (std::uint32_t g : targets) {
      per_gdo[g] = stats::LdMoments{5, 5, 1, 5, 5, 50};
    }
    return per_gdo;
  };
  const auto phase2 = rf.coordinator->run_ld_phase(fetch);
  ASSERT_TRUE(phase2.ok()) << phase2.error().to_string();
  EXPECT_EQ(rf.coordinator->dead_gdos(), (std::set<std::uint32_t>{1}));
  ASSERT_GE(calls.size(), 2u);
  EXPECT_EQ(calls[0], (std::vector<std::uint32_t>{1, 2}));
  // The restarted pass's first fetch is the stale slot, from GDO 2 alone.
  EXPECT_EQ(calls[1], (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(rf.coordinator->pruning_stats().ld_reassessments, 1u);
}

TEST(CoordinatorTest, PrunedSweepFillsCachedPairSlotsLazily) {
  // The sweep fetches per combination: members larger than the leader put
  // the leader-bearing {0,1} and {0,2} first, so {0,1} creates the cache
  // entry with only slot 1 filled, and {0,2}'s later touch of the same pair
  // must fetch slot 2 on the cache HIT path rather than trusting the entry
  // complete.
  RefetchFixture rf(/*member_population=*/400);
  bool single_member_fill = false;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  auto fetch = [&](const MomentsRequest& request,
                   const std::vector<std::uint32_t>& targets) {
    single_member_fill |= targets == std::vector<std::uint32_t>{2};
    std::vector<std::optional<stats::LdMoments>> per_gdo(3);
    for (std::uint32_t g : targets) {
      // A filled slot is never re-requested.
      EXPECT_TRUE(seen.insert({request.snp_a, request.snp_b, g}).second);
      per_gdo[g] = stats::LdMoments{5, 5, 1, 5, 5, 50};
    }
    return per_gdo;
  };
  ASSERT_TRUE(rf.coordinator->run_ld_phase(fetch).ok());
  EXPECT_TRUE(rf.coordinator->dead_gdos().empty());
  EXPECT_TRUE(single_member_fill);
}

}  // namespace
}  // namespace gendpr::core
