#include "stats/ld.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "stats/special.hpp"

namespace gendpr::stats {
namespace {

genome::GenotypeMatrix random_matrix(std::size_t n, std::size_t l,
                                     std::uint64_t seed, double p = 0.3) {
  common::Rng rng(seed);
  genome::GenotypeMatrix m(n, l);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      if (rng.bernoulli(p)) m.set(i, j, true);
    }
  }
  return m;
}

TEST(LdMomentsTest, ComputedFromMatrix) {
  genome::GenotypeMatrix m(4, 2);
  m.set(0, 0, true);
  m.set(0, 1, true);
  m.set(1, 0, true);
  m.set(3, 1, true);
  const LdMoments mom = compute_ld_moments(m, 0, 1);
  EXPECT_EQ(mom.n, 4u);
  EXPECT_DOUBLE_EQ(mom.mu_x, 2.0);
  EXPECT_DOUBLE_EQ(mom.mu_y, 2.0);
  EXPECT_DOUBLE_EQ(mom.mu_xy, 1.0);
  EXPECT_DOUBLE_EQ(mom.mu_x2, 2.0);  // binary: x^2 == x
  EXPECT_DOUBLE_EQ(mom.mu_y2, 2.0);
}

TEST(LdMomentsTest, AdditivityEqualsPooledComputation) {
  // Core federated-correctness property: moments over GDO partitions sum to
  // the moments of the pooled population.
  const genome::GenotypeMatrix pooled = random_matrix(300, 5, 11);
  const LdMoments whole = compute_ld_moments(pooled, 1, 2);
  LdMoments assembled;
  const std::size_t cuts[] = {0, 100, 180, 300};
  for (int part = 0; part < 3; ++part) {
    const auto slice = pooled.slice_rows(cuts[part], cuts[part + 1]);
    assembled += compute_ld_moments(slice, 1, 2);
  }
  EXPECT_EQ(assembled.n, whole.n);
  EXPECT_DOUBLE_EQ(assembled.mu_x, whole.mu_x);
  EXPECT_DOUBLE_EQ(assembled.mu_xy, whole.mu_xy);
  EXPECT_DOUBLE_EQ(ld_r2(assembled), ld_r2(whole));
}

TEST(LdR2Test, PerfectCorrelationIsOne) {
  genome::GenotypeMatrix m(100, 2);
  common::Rng rng(13);
  for (std::size_t i = 0; i < 100; ++i) {
    const bool v = rng.bernoulli(0.4);
    m.set(i, 0, v);
    m.set(i, 1, v);
  }
  EXPECT_NEAR(ld_r2(compute_ld_moments(m, 0, 1)), 1.0, 1e-12);
}

TEST(LdR2Test, PerfectAntiCorrelationIsOne) {
  genome::GenotypeMatrix m(100, 2);
  common::Rng rng(17);
  for (std::size_t i = 0; i < 100; ++i) {
    const bool v = rng.bernoulli(0.5);
    m.set(i, 0, v);
    m.set(i, 1, !v);
  }
  EXPECT_NEAR(ld_r2(compute_ld_moments(m, 0, 1)), 1.0, 1e-12);
}

TEST(LdR2Test, IndependentColumnsNearZero) {
  const genome::GenotypeMatrix m = random_matrix(20000, 2, 19);
  EXPECT_LT(ld_r2(compute_ld_moments(m, 0, 1)), 0.001);
}

TEST(LdR2Test, ConstantColumnIsZero) {
  genome::GenotypeMatrix m(50, 2);
  for (std::size_t i = 0; i < 50; ++i) m.set(i, 0, true);  // constant 1
  common::Rng rng(23);
  for (std::size_t i = 0; i < 50; ++i) m.set(i, 1, rng.bernoulli(0.5));
  EXPECT_DOUBLE_EQ(ld_r2(compute_ld_moments(m, 0, 1)), 0.0);
}

TEST(LdR2Test, EmptyPopulationIsZero) {
  LdMoments empty;
  EXPECT_DOUBLE_EQ(ld_r2(empty), 0.0);
  EXPECT_DOUBLE_EQ(ld_p_value(empty), 1.0);
}

TEST(LdPValueTest, CorrelatedPairSignificant) {
  genome::GenotypeMatrix m(1000, 2);
  common::Rng rng(29);
  for (std::size_t i = 0; i < 1000; ++i) {
    const bool v = rng.bernoulli(0.4);
    m.set(i, 0, v);
    m.set(i, 1, rng.bernoulli(0.9) ? v : rng.bernoulli(0.4));
  }
  EXPECT_LT(ld_p_value(compute_ld_moments(m, 0, 1)), 1e-5);
}

TEST(LdPValueTest, IndependentPairNotSignificant) {
  const genome::GenotypeMatrix m = random_matrix(500, 2, 31);
  EXPECT_GT(ld_p_value(compute_ld_moments(m, 0, 1)), 1e-5);
}

// The paper's Table 2b form of r^2 (the 2x2 contingency table of the two
// SNPs' minor-allele indicators) must equal the moments form GenDPR ships
// over the wire, for any binary population. The table is counted here, as
// an oracle independent of the moment sums.
class EquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceSweep, TableR2EqualsMomentsR2) {
  common::Rng seed_rng(GetParam());
  const std::size_t n = 200 + seed_rng.uniform_int(300);
  const double p0 = 0.1 + 0.5 * seed_rng.uniform();
  const double p1 = 0.1 + 0.5 * seed_rng.uniform();
  common::Rng rng(GetParam());
  genome::GenotypeMatrix m(n, 2);
  double cells[2][2] = {{0, 0}, {0, 0}};
  for (std::size_t i = 0; i < n; ++i) {
    const bool a = rng.bernoulli(p0);
    const bool b = rng.bernoulli(p1);
    m.set(i, 0, a);
    m.set(i, 1, b);
    cells[a][b] += 1;
  }
  const double det = cells[0][0] * cells[1][1] - cells[0][1] * cells[1][0];
  const double margins = (cells[0][0] + cells[0][1]) *
                         (cells[1][0] + cells[1][1]) *
                         (cells[0][0] + cells[1][0]) *
                         (cells[0][1] + cells[1][1]);
  ASSERT_GT(margins, 0.0);
  const double table_r2 = det * det / margins;
  const LdMoments moments = compute_ld_moments(m, 0, 1);
  EXPECT_NEAR(table_r2, ld_r2(moments), 1e-9);
  EXPECT_NEAR(chi2_sf(static_cast<double>(n) * table_r2, 1.0),
              ld_p_value(moments), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(GreedyLdPruneTest, AllIndependentKeepsAll) {
  const std::vector<std::uint32_t> snps = {0, 1, 2, 3};
  const std::vector<double> assoc_p(4, 0.5);
  const auto retained = greedy_ld_prune(
      snps, 1e-5, assoc_p, [](std::uint32_t, std::uint32_t) { return 0.5; });
  EXPECT_EQ(retained, snps);
}

TEST(GreedyLdPruneTest, AllDependentKeepsBestRanked) {
  const std::vector<std::uint32_t> snps = {0, 1, 2, 3};
  const std::vector<double> assoc_p = {0.5, 0.01, 0.3, 0.2};
  const auto retained = greedy_ld_prune(
      snps, 1e-5, assoc_p, [](std::uint32_t, std::uint32_t) { return 1e-9; });
  EXPECT_EQ(retained, (std::vector<std::uint32_t>{1}));
}

TEST(GreedyLdPruneTest, MixedBlocksKeepOnePerBlock) {
  // Pairs (0,1) and (2,3) dependent; pair (1,2) independent.
  const std::vector<std::uint32_t> snps = {0, 1, 2, 3};
  const std::vector<double> assoc_p = {0.1, 0.2, 0.4, 0.3};
  const auto retained = greedy_ld_prune(
      snps, 1e-5, assoc_p, [](std::uint32_t a, std::uint32_t b) {
        const bool same_block = (a / 2) == (b / 2);
        return same_block ? 1e-9 : 0.9;
      });
  // Block {0,1}: keep 0 (better p). Block {2,3}: keep 3.
  EXPECT_EQ(retained, (std::vector<std::uint32_t>{0, 3}));
}

TEST(GreedyLdPruneTest, EmptyAndSingleton) {
  const std::vector<double> assoc_p(4, 0.5);
  EXPECT_TRUE(greedy_ld_prune({}, 1e-5, assoc_p,
                              [](std::uint32_t, std::uint32_t) { return 0.5; })
                  .empty());
  const std::vector<std::uint32_t> one = {2};
  EXPECT_EQ(greedy_ld_prune(one, 1e-5, assoc_p,
                            [](std::uint32_t, std::uint32_t) { return 0.5; }),
            one);
}

TEST(GreedyLdPruneTest, TruncatedWalkIsPrefixResolvingEveryBoundedSnp) {
  // Random sparse SNP ids, ranks and pair dependencies: for every bound,
  // the truncated walk is a prefix of the full walk, agrees with it on
  // every SNP <= the bound, and never asks for more pairs.
  common::Rng rng(47);
  std::vector<std::uint32_t> snps;
  for (std::uint32_t id = 0; id < 200; ++id) {
    if (rng.bernoulli(0.3)) snps.push_back(id);
  }
  std::vector<double> assoc_p(200);
  for (double& p : assoc_p) p = rng.uniform();
  std::vector<bool> dependent(200 * 200);
  for (std::size_t i = 0; i < dependent.size(); ++i) {
    dependent[i] = rng.bernoulli(0.5);
  }
  std::size_t pairs = 0;
  auto pair_p_value = [&](std::uint32_t a, std::uint32_t b) {
    ++pairs;
    return dependent[a * 200 + b] ? 1e-9 : 0.5;
  };
  const auto full = greedy_ld_prune(snps, 1e-5, assoc_p, pair_p_value);
  const std::size_t full_pairs = pairs;
  ASSERT_EQ(full_pairs, snps.size() - 1);
  for (std::uint32_t bound : snps) {
    pairs = 0;
    const auto truncated =
        greedy_ld_prune(snps, 1e-5, assoc_p, pair_p_value, bound);
    EXPECT_LE(pairs, full_pairs) << "bound " << bound;
    ASSERT_LE(truncated.size(), full.size()) << "bound " << bound;
    EXPECT_TRUE(std::equal(truncated.begin(), truncated.end(), full.begin()))
        << "bound " << bound;
    for (std::uint32_t snp : full) {
      if (snp > bound) break;
      EXPECT_TRUE(std::binary_search(truncated.begin(), truncated.end(), snp))
          << "bound " << bound << " lost " << snp;
    }
  }
}

TEST(GreedyLdPruneTest, BoundBelowFirstSnpWalksNothing) {
  const std::vector<std::uint32_t> snps = {5, 6, 7};
  const std::vector<double> assoc_p(8, 0.5);
  std::size_t pairs = 0;
  const auto retained = greedy_ld_prune(
      snps, 1e-5, assoc_p,
      [&pairs](std::uint32_t, std::uint32_t) {
        ++pairs;
        return 0.5;
      },
      4);
  EXPECT_TRUE(retained.empty());
  EXPECT_EQ(pairs, 0u);
}

}  // namespace
}  // namespace gendpr::stats
