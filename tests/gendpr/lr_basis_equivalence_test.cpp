// Property test for the collusion-tolerant LR phase: every matrix
// GdoEnclave::on_phase2 derives from its bit planes (through the active
// bit-select kernel) must be bit-identical to the scalar `build_lr_matrix`
// over the packed genotypes, with weights rebuilt independently from the
// combination's frequency vector, across federation sizes G in {3..6} and
// collusion bounds f in {1, 2}, and in the dead-GDO degraded mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "gendpr/trusted.hpp"
#include "genome/cohort.hpp"
#include "stats/lr_test.hpp"

namespace gendpr::core {
namespace {

/// A federation of member enclaves plus the phase-2 broadcast a leader
/// would send them: per-GDO counts over a retained SNP set.
struct Federation {
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x42}};
  std::vector<std::unique_ptr<tee::Platform>> platforms;
  std::vector<std::unique_ptr<GdoEnclave>> enclaves;
  /// Each enclave's packed input, kept host-side for the scalar oracle.
  std::vector<genome::GenotypeMatrix> slices;
  StudyAnnounce announce;
  Phase2Result phase2;
};

Federation make_federation(std::uint32_t num_gdos, std::uint32_t f,
                           std::uint64_t seed) {
  Federation fed;
  genome::CohortSpec spec;
  spec.num_case = 70 * num_gdos;  // 70 rows per GDO: a partial second word
  spec.num_control = 40;
  spec.num_snps = 48;
  spec.seed = seed;
  const genome::Cohort cohort = genome::generate_cohort(spec);
  const auto ranges =
      genome::equal_partition(cohort.cases.num_individuals(), num_gdos);

  fed.announce.study_id = seed;
  fed.announce.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
  fed.announce.combinations =
      Coordinator::build_combinations(num_gdos, CollusionPolicy::fixed(f));

  // Retained set: every third SNP (what survived phases 1-2).
  for (std::uint32_t s = 0; s < fed.announce.num_snps; s += 3) {
    fed.phase2.retained.push_back(s);
  }
  common::Rng rng(seed ^ 0x9e3779b9);
  fed.phase2.reference_freq.resize(fed.phase2.retained.size());
  for (auto& p : fed.phase2.reference_freq) p = rng.uniform(0.05, 0.95);

  for (std::uint32_t g = 0; g < num_gdos; ++g) {
    std::array<std::uint8_t, 32> platform_seed{};
    platform_seed[0] = static_cast<std::uint8_t>(g + 1);
    fed.platforms.push_back(std::make_unique<tee::Platform>(
        g + 1, fed.authority, crypto::Csprng(platform_seed)));
    fed.enclaves.push_back(
        std::make_unique<GdoEnclave>(*fed.platforms[g], g));
    fed.slices.push_back(
        cohort.cases.slice_rows(ranges[g].first, ranges[g].second));
    EXPECT_TRUE(fed.enclaves[g]->provision_dataset(fed.slices[g]).ok());
    EXPECT_TRUE(fed.enclaves[g]->on_study_announce(fed.announce).ok());
    EXPECT_TRUE(fed.enclaves[g]->on_phase1({fed.phase2.retained}).ok());
    fed.phase2.case_counts_per_gdo.push_back(
        fed.enclaves[g]->planes().allele_counts(fed.phase2.retained));
    fed.phase2.n_case_per_gdo.push_back(static_cast<std::uint32_t>(
        fed.enclaves[g]->planes().num_individuals()));
  }
  return fed;
}

bool combination_contains(const std::vector<std::uint32_t>& members,
                          std::uint32_t gdo) {
  return std::find(members.begin(), members.end(), gdo) != members.end();
}

/// Runs on_phase2 on every enclave and checks each returned matrix against
/// the scalar rebuild: weights from the combination's derived frequency
/// vector, then `build_lr_matrix` over the packed slice. Returns the
/// per-GDO entry counts so callers can assert coverage.
std::vector<std::size_t> check_against_legacy_rebuild(Federation& fed) {
  std::vector<std::size_t> entry_counts;
  for (std::size_t i = 0; i < fed.enclaves.size(); ++i) {
    const auto& enclave = fed.enclaves[i];
    const auto matrices = enclave->on_phase2(fed.phase2);
    EXPECT_TRUE(matrices.ok());
    if (!matrices.ok()) return entry_counts;
    for (const auto& entry : matrices.value().entries) {
      const auto& members = fed.announce.combinations[entry.combination_id];
      EXPECT_TRUE(combination_contains(members, enclave->gdo_index()));
      const stats::LrWeights weights =
          stats::lr_weights(fed.phase2.combination_case_freq(members),
                            fed.phase2.reference_freq);
      const stats::LrMatrix expected =
          stats::build_lr_matrix(fed.slices[i], fed.phase2.retained, weights);
      EXPECT_EQ(entry.matrix, expected)
          << "gdo " << enclave->gdo_index() << " combination "
          << entry.combination_id;
    }
    entry_counts.push_back(matrices.value().entries.size());
  }
  return entry_counts;
}

class LrBasisEquivalenceTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(LrBasisEquivalenceTest, BasisPathMatchesLegacyRebuild) {
  const auto [num_gdos, f] = GetParam();
  Federation fed = make_federation(num_gdos, f, 7 * num_gdos + f);
  const auto entry_counts = check_against_legacy_rebuild(fed);
  ASSERT_EQ(entry_counts.size(), num_gdos);
  for (std::uint32_t g = 0; g < num_gdos; ++g) {
    // Every combination containing GDO g yields exactly one entry.
    std::size_t expected = 0;
    for (const auto& members : fed.announce.combinations) {
      if (combination_contains(members, g)) ++expected;
    }
    EXPECT_EQ(entry_counts[g], expected) << "gdo " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LrBasisEquivalenceTest,
    ::testing::Values(std::pair<std::uint32_t, std::uint32_t>{3, 1},
                      std::pair<std::uint32_t, std::uint32_t>{3, 2},
                      std::pair<std::uint32_t, std::uint32_t>{4, 1},
                      std::pair<std::uint32_t, std::uint32_t>{4, 2},
                      std::pair<std::uint32_t, std::uint32_t>{5, 1},
                      std::pair<std::uint32_t, std::uint32_t>{5, 2},
                      std::pair<std::uint32_t, std::uint32_t>{6, 1},
                      std::pair<std::uint32_t, std::uint32_t>{6, 2}));

TEST(LrBasisEquivalenceDegradedTest, DeadGdoSkippedOthersBitIdentical) {
  Federation fed = make_federation(4, 1, 99);
  // GDO 3 went silent after phase 1: its slot travels empty and every
  // combination naming it is dropped.
  fed.phase2.dead_gdos = {3};
  fed.phase2.case_counts_per_gdo[3].clear();
  fed.phase2.n_case_per_gdo[3] = 0;
  fed.enclaves.pop_back();  // the dead GDO never receives the broadcast
  const auto entry_counts = check_against_legacy_rebuild(fed);
  ASSERT_EQ(entry_counts.size(), 3u);
  for (std::uint32_t g = 0; g < 3; ++g) {
    std::size_t expected = 0;
    for (const auto& members : fed.announce.combinations) {
      if (combination_contains(members, g) &&
          !combination_contains(members, 3)) {
        ++expected;
      }
    }
    EXPECT_EQ(entry_counts[g], expected) << "gdo " << g;
  }
}

}  // namespace
}  // namespace gendpr::core
