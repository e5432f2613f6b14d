// Property test for the collusion-tolerant, bit-native LR phase: every
// member answers the phase-2 broadcast with its bit planes over L''
// (GdoEnclave::on_phase2), and the leader's selection over those planes
// (its own planes, the received words and the reference planes, fed
// through the bit-select kernel) must be bit-identical, per combination,
// to the dense `select_safe_snps` over the matrices the scalar
// `build_lr_matrix` fills from the packed genotypes - the same
// `safe_columns`, `final_power` and `final_threshold`. Swept over
// federation sizes G in {3..6} and collusion bounds f in {1, 2}, with
// per-GDO row counts that are not multiples of 64, a power limit low
// enough that the greedy search rejects candidates, and the dead-GDO
// degraded mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "gendpr/trusted.hpp"
#include "genome/cohort.hpp"
#include "stats/lr_test.hpp"

namespace gendpr::core {
namespace {

/// Low enough that most combinations reject some candidates.
constexpr double kPowerLimit = 0.05;

/// A federation of member enclaves plus the phase-2 broadcast a leader
/// would send them: per-GDO counts over a retained SNP set. GDO 0 plays
/// the leader: its planes feed the selection directly, the others' through
/// their replies.
struct Federation {
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x42}};
  std::vector<std::unique_ptr<tee::Platform>> platforms;
  std::vector<std::unique_ptr<GdoEnclave>> enclaves;
  /// Each enclave's packed input, kept host-side for the dense oracle.
  std::vector<genome::GenotypeMatrix> slices;
  genome::GenotypeMatrix reference;
  StudyAnnounce announce;
  Phase2Result phase2;
};

Federation make_federation(std::uint32_t num_gdos, std::uint32_t f,
                           std::uint64_t seed) {
  Federation fed;
  genome::CohortSpec spec;
  spec.num_case = 70 * num_gdos + 13;  // 70-71 rows per GDO: partial words
  spec.num_control = 83;
  spec.num_snps = 48;
  spec.seed = seed;
  const genome::Cohort cohort = genome::generate_cohort(spec);
  fed.reference = cohort.controls;
  const auto ranges =
      genome::equal_partition(cohort.cases.num_individuals(), num_gdos);

  fed.announce.study_id = seed;
  fed.announce.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
  fed.announce.combinations =
      Coordinator::build_combinations(num_gdos, CollusionPolicy::fixed(f));

  // Retained set: every third SNP (what survived phases 1-2), with the
  // reference frequencies the leader would broadcast.
  const genome::BitPlanes reference_planes(fed.reference);
  for (std::uint32_t s = 0; s < fed.announce.num_snps; s += 3) {
    fed.phase2.retained.push_back(s);
    fed.phase2.reference_freq.push_back(
        static_cast<double>(reference_planes.allele_count(s)) /
        static_cast<double>(reference_planes.num_individuals()));
  }

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

bool combination_live(const std::vector<std::uint32_t>& members,
                      const std::vector<std::uint32_t>& dead) {
  return std::none_of(members.begin(), members.end(), [&](std::uint32_t g) {
    return std::find(dead.begin(), dead.end(), g) != dead.end();
  });
}

bool weights_equal(const stats::LrWeights& weights, std::size_t col) {
  return std::bit_cast<std::uint64_t>(weights.when_minor[col]) ==
         std::bit_cast<std::uint64_t>(weights.when_major[col]);
}

/// Runs on_phase2 on every live non-leader enclave, checks each reply
/// against the information-equivalence rule (a column's words are the
/// member's plane, or zero when its two weights coincide in every live
/// combination holding the member), then checks every live combination's
/// plane-fed selection against the dense oracle. Returns the number of
/// combinations whose selection kept some candidates and rejected others.
std::size_t check_against_dense_oracle(Federation& fed) {
  const auto& retained = fed.phase2.retained;
  const auto& dead = fed.phase2.dead_gdos;
  std::vector<stats::LrWeights> weights;
  for (const auto& members : fed.announce.combinations) {
    weights.push_back(stats::lr_weights(
        combination_live(members, dead)
            ? fed.phase2.combination_case_freq(members)
            : std::vector<double>(retained.size(), 0.5),
        fed.phase2.reference_freq));
  }

  std::vector<LrBits> replies(fed.enclaves.size());
  for (std::size_t g = 1; g < fed.enclaves.size(); ++g) {
    if (std::find(dead.begin(), dead.end(), g) != dead.end()) continue;
    const GdoEnclave& enclave = *fed.enclaves[g];
    const auto reply = fed.enclaves[g]->on_phase2(fed.phase2);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) return 0;
    replies[g] = reply.value();
    const std::size_t words = enclave.planes().words_per_plane();
    EXPECT_EQ(words, genome::plane_words(fed.slices[g].num_individuals()));
    EXPECT_EQ(replies[g].words.size(), retained.size() * words);
    if (replies[g].words.size() != retained.size() * words) return 0;
    for (std::size_t i = 0; i < retained.size(); ++i) {
      bool constant = true;
      for (std::size_t c = 0; c < fed.announce.combinations.size(); ++c) {
        const auto& members = fed.announce.combinations[c];
        if (!combination_live(members, dead) ||
            std::find(members.begin(), members.end(), g) == members.end()) {
          continue;
        }
        constant = constant && weights_equal(weights[c], i);
      }
      const std::uint64_t* plane = enclave.planes().plane(retained[i]);
      for (std::size_t w = 0; w < words; ++w) {
        EXPECT_EQ(replies[g].words[i * words + w], constant ? 0 : plane[w])
            << "gdo " << g << " column " << i << " word " << w;
      }
    }
  }

  stats::LrSelectionParams params;
  params.power_threshold = kPowerLimit;
  const genome::BitPlanes reference_planes(fed.reference);
  const stats::LrBitBlock reference_block =
      stats::bit_block(reference_planes, retained);
  std::size_t rejecting = 0;
  for (std::size_t c = 0; c < fed.announce.combinations.size(); ++c) {
    const auto& members = fed.announce.combinations[c];
    if (!combination_live(members, dead)) continue;
    std::vector<stats::LrBitBlock> blocks;
    stats::LrMatrix case_lr;
    for (std::uint32_t g : members) {
      const std::size_t rows = fed.slices[g].num_individuals();
      if (g == 0) {
        blocks.push_back(
            stats::bit_block(fed.enclaves[0]->planes(), retained));
      } else {
        blocks.push_back({replies[g].words.data(), genome::plane_words(rows),
                          rows, {}});
      }
      case_lr.append_rows(
          stats::build_lr_matrix(fed.slices[g], retained, weights[c]));
    }
    const stats::LrMatrix reference_lr =
        stats::build_lr_matrix(fed.reference, retained, weights[c]);
    const stats::LrSelectionResult dense =
        stats::select_safe_snps(case_lr, reference_lr, params);
    const stats::LrSelectionResult bits = stats::select_safe_snps(
        blocks, reference_block, weights[c], params);
    EXPECT_EQ(bits.safe_columns, dense.safe_columns) << "combination " << c;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bits.final_power),
              std::bit_cast<std::uint64_t>(dense.final_power))
        << "combination " << c;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bits.final_threshold),
              std::bit_cast<std::uint64_t>(dense.final_threshold))
        << "combination " << c;
    if (!dense.safe_columns.empty() &&
        dense.safe_columns.size() < retained.size()) {
      ++rejecting;
    }
  }
  return rejecting;
}

class LrBasisEquivalenceTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(LrBasisEquivalenceTest, BasisPathMatchesLegacyRebuild) {
  const auto [num_gdos, f] = GetParam();
  Federation fed = make_federation(num_gdos, f, 7 * num_gdos + f);
  EXPECT_GT(check_against_dense_oracle(fed), 0u)
      << "no selection both kept and rejected; the sweep proves little";
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
  // GDO 3 went silent after phase 1: its slot travels empty, every
  // combination naming it is dropped, and it never receives the broadcast.
  fed.phase2.dead_gdos = {3};
  fed.phase2.case_counts_per_gdo[3].clear();
  fed.phase2.n_case_per_gdo[3] = 0;
  EXPECT_GT(check_against_dense_oracle(fed), 0u);
  // A dead GDO that keeps talking is refused.
  EXPECT_FALSE(fed.enclaves[3]->on_phase2(fed.phase2).ok());
}

}  // namespace
}  // namespace gendpr::core
