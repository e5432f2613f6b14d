#include "stats/lr_test.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace gendpr::stats {
namespace {

TEST(LrWeightsTest, KnownValues) {
  const LrWeights w = lr_weights({0.4}, {0.2});
  EXPECT_NEAR(w.when_minor[0], std::log(0.4 / 0.2), 1e-12);
  EXPECT_NEAR(w.when_major[0], std::log(0.6 / 0.8), 1e-12);
}

TEST(LrWeightsTest, EqualFrequenciesGiveZero) {
  const LrWeights w = lr_weights({0.3, 0.1}, {0.3, 0.1});
  for (double v : w.when_minor) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : w.when_major) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(LrWeightsTest, ClampsDegenerateFrequencies) {
  const LrWeights w = lr_weights({0.0, 1.0}, {0.5, 0.5});
  for (double v : w.when_minor) EXPECT_TRUE(std::isfinite(v));
  for (double v : w.when_major) EXPECT_TRUE(std::isfinite(v));
}

TEST(LrWeightsTest, SizeMismatchThrows) {
  EXPECT_THROW(lr_weights({0.1, 0.2}, {0.1}), std::invalid_argument);
}

TEST(LrMatrixTest, BuildUsesGenotypeToPickWeight) {
  genome::GenotypeMatrix g(2, 3);
  g.set(0, 1, true);
  g.set(1, 2, true);
  const LrWeights w = lr_weights({0.4, 0.4, 0.4}, {0.2, 0.2, 0.2});
  const std::vector<std::uint32_t> snps = {0, 1, 2};
  const LrMatrix lr = build_lr_matrix(g, snps, w);
  EXPECT_EQ(lr.rows(), 2u);
  EXPECT_EQ(lr.cols(), 3u);
  EXPECT_DOUBLE_EQ(lr.at(0, 0), w.when_major[0]);
  EXPECT_DOUBLE_EQ(lr.at(0, 1), w.when_minor[1]);
  EXPECT_DOUBLE_EQ(lr.at(1, 2), w.when_minor[2]);
}

TEST(LrMatrixTest, SubsetColumnsMapThroughWeightIndex) {
  genome::GenotypeMatrix g(1, 5);
  g.set(0, 4, true);
  // Weights indexed over the subset {2, 4}.
  const LrWeights w = lr_weights({0.3, 0.5}, {0.3, 0.25});
  const std::vector<std::uint32_t> snps = {2, 4};
  const LrMatrix lr = build_lr_matrix(g, snps, w);
  EXPECT_DOUBLE_EQ(lr.at(0, 0), w.when_major[0]);
  EXPECT_DOUBLE_EQ(lr.at(0, 1), w.when_minor[1]);
}

TEST(LrMatrixTest, AppendRowsConcatenates) {
  LrMatrix a(2, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 2) = 2.0;
  LrMatrix b(1, 3);
  b.at(0, 1) = 3.0;
  a.append_rows(b);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 0.0);
}

TEST(LrMatrixTest, ColumnsAreContiguousAndSnpMajor) {
  LrMatrix m(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      m.at(r, c) = static_cast<double>(10 * c + r);
    }
  }
  const std::span<const double> second = std::as_const(m).column(1);
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(second.data(), m.values().data() + 3);
  EXPECT_DOUBLE_EQ(second[0], 10.0);
  EXPECT_DOUBLE_EQ(second[2], 12.0);
  // Wire order is column after column.
  EXPECT_EQ(m.values(), (std::vector<double>{0, 1, 2, 10, 11, 12}));
}

TEST(LrMatrixTest, AppendToEmptyAdopts) {
  LrMatrix empty;
  LrMatrix b(2, 4);
  b.at(1, 3) = 5.0;
  empty.append_rows(b);
  EXPECT_EQ(empty.rows(), 2u);
  EXPECT_EQ(empty.cols(), 4u);
  EXPECT_DOUBLE_EQ(empty.at(1, 3), 5.0);
}

TEST(LrMatrixTest, AppendColumnMismatchThrows) {
  LrMatrix a(1, 3);
  LrMatrix b(1, 2);
  EXPECT_THROW(a.append_rows(b), std::invalid_argument);
}

genome::GenotypeMatrix random_genotypes(std::size_t individuals,
                                        std::size_t snps, std::uint64_t seed,
                                        double minor_rate = 0.3) {
  common::Rng rng(seed);
  genome::GenotypeMatrix g(individuals, snps);
  for (std::size_t n = 0; n < individuals; ++n) {
    for (std::size_t s = 0; s < snps; ++s) {
      if (rng.bernoulli(minor_rate)) g.set(n, s, true);
    }
  }
  return g;
}

TEST(DetectionPowerTest, SeparatedScoresFullPower) {
  // Case scores all above every reference score -> power 1 at any FPR.
  const std::vector<double> case_scores = {10.0, 11.0, 12.0};
  const std::vector<double> ref_scores = {0.0, 1.0, 2.0, 3.0, 4.0,
                                          5.0, 6.0, 7.0, 8.0, 9.0};
  double threshold = 0.0;
  const double power = detection_power(case_scores, ref_scores, 0.1,
                                       &threshold);
  EXPECT_DOUBLE_EQ(power, 1.0);
  // 90th empirical percentile: exactly one of ten reference scores exceeds
  // it, matching the 0.1 false-positive budget.
  EXPECT_DOUBLE_EQ(threshold, 8.0);
}

TEST(DetectionPowerTest, IdenticalDistributionsPowerNearFpr) {
  common::Rng rng(3);
  std::vector<double> case_scores(5000);
  std::vector<double> ref_scores(5000);
  for (auto& s : case_scores) s = rng.normal();
  for (auto& s : ref_scores) s = rng.normal();
  const double power = detection_power(case_scores, ref_scores, 0.1, nullptr);
  EXPECT_NEAR(power, 0.1, 0.02);  // no signal: power == false-positive rate
}

TEST(DetectionPowerTest, EmptyInputsGiveZero) {
  EXPECT_DOUBLE_EQ(detection_power({}, {1.0}, 0.1, nullptr), 0.0);
  EXPECT_DOUBLE_EQ(detection_power({1.0}, {}, 0.1, nullptr), 0.0);
}

TEST(DetectionPowerTest, ScratchOverloadBitIdentical) {
  common::Rng rng(5);
  std::vector<double> case_scores(777);
  std::vector<double> ref_scores(1234);
  for (auto& s : case_scores) s = rng.normal();
  for (auto& s : ref_scores) s = rng.normal();
  std::vector<double> scratch;
  for (double fpr : {0.0, 0.05, 0.1, 0.5, 0.999}) {
    double t_plain = 0.0, t_scratch = 0.0;
    const double plain =
        detection_power(case_scores, ref_scores, fpr, &t_plain);
    const double reused =
        detection_power(case_scores, ref_scores, fpr, &t_scratch, scratch);
    EXPECT_DOUBLE_EQ(plain, reused) << "fpr " << fpr;
    EXPECT_DOUBLE_EQ(t_plain, t_scratch) << "fpr " << fpr;
  }
}

TEST(DetectionPowerTest, ThresholdQuantileEdges) {
  const std::vector<double> ref = {1.0, 2.0, 3.0, 4.0};
  double threshold = 0.0;
  // FPR 0 -> threshold is the max; nothing above it.
  detection_power({10.0}, ref, 0.0, &threshold);
  EXPECT_DOUBLE_EQ(threshold, 4.0);
  // FPR ~1 -> threshold is the min.
  detection_power({10.0}, ref, 0.999, &threshold);
  EXPECT_DOUBLE_EQ(threshold, 1.0);
}

class SelectSafeSnpsTest : public ::testing::Test {
 protected:
  /// Builds LR matrices where columns [0, identifying) have a case/reference
  /// gap of `gap` and the rest are pure noise.
  static std::pair<LrMatrix, LrMatrix> synthetic(std::size_t n_case,
                                                 std::size_t n_ref,
                                                 std::size_t cols,
                                                 std::size_t identifying,
                                                 double gap,
                                                 std::uint64_t seed) {
    common::Rng rng(seed);
    LrMatrix case_lr(n_case, cols);
    LrMatrix ref_lr(n_ref, cols);
    for (std::size_t c = 0; c < cols; ++c) {
      const double shift = c < identifying ? gap : 0.0;
      for (std::size_t r = 0; r < n_case; ++r) {
        case_lr.at(r, c) = rng.normal() * 0.1 + shift;
      }
      for (std::size_t r = 0; r < n_ref; ++r) {
        ref_lr.at(r, c) = rng.normal() * 0.1;
      }
    }
    return {case_lr, ref_lr};
  }
};

TEST_F(SelectSafeSnpsTest, NoSignalKeepsEverything) {
  const auto [case_lr, ref_lr] = synthetic(400, 400, 30, 0, 0.0, 7);
  const LrSelectionResult result =
      select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
  EXPECT_EQ(result.safe_columns.size(), 30u);
  EXPECT_LE(result.final_power, 0.9);
}

TEST_F(SelectSafeSnpsTest, StrongIdentifiersAreDropped) {
  const auto [case_lr, ref_lr] = synthetic(400, 400, 30, 5, 3.0, 11);
  const LrSelectionResult result =
      select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
  EXPECT_LE(result.final_power, 0.9);
  // The 5 identifying columns (0..4) must not all survive.
  std::size_t surviving_identifiers = 0;
  for (std::uint32_t c : result.safe_columns) {
    if (c < 5) ++surviving_identifiers;
  }
  EXPECT_LT(surviving_identifiers, 5u);
  // The noise columns should all survive.
  std::size_t surviving_noise = 0;
  for (std::uint32_t c : result.safe_columns) {
    if (c >= 5) ++surviving_noise;
  }
  EXPECT_EQ(surviving_noise, 25u);
}

TEST_F(SelectSafeSnpsTest, PowerConstraintHolds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto [case_lr, ref_lr] = synthetic(300, 300, 40, 10, 1.5, seed);
    LrSelectionParams params;
    params.power_threshold = 0.5;
    const LrSelectionResult result =
        select_safe_snps(case_lr, ref_lr, params);
    EXPECT_LE(result.final_power, 0.5) << "seed " << seed;
  }
}

TEST_F(SelectSafeSnpsTest, RowOrderInvariance) {
  // Reordering rows changes only the rounding of the column sums, which
  // does not move a selection with well-separated gaps. (GenDPR itself
  // always stacks member rows in ascending GDO order.)
  const auto [case_lr, ref_lr] = synthetic(200, 200, 20, 4, 2.0, 13);
  LrMatrix reversed_case(case_lr.rows(), case_lr.cols());
  for (std::size_t r = 0; r < case_lr.rows(); ++r) {
    for (std::size_t c = 0; c < case_lr.cols(); ++c) {
      reversed_case.at(case_lr.rows() - 1 - r, c) = case_lr.at(r, c);
    }
  }
  const auto a = select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
  const auto b = select_safe_snps(reversed_case, ref_lr, LrSelectionParams{});
  EXPECT_EQ(a.safe_columns, b.safe_columns);
  EXPECT_DOUBLE_EQ(a.final_power, b.final_power);
}

/// Row-major copy of an LR matrix and the selection loop over it, cell for
/// cell as the row-major layout ran it: column means from one row-major
/// sweep, then per-candidate strided adds and roll-backs. The oracle for
/// the SNP-major selection.
struct RowMajorLr {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> values;  // values[r * cols + c]

  explicit RowMajorLr(const LrMatrix& m)
      : rows(m.rows()), cols(m.cols()), values(m.rows() * m.cols()) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) values[r * cols + c] = m.at(r, c);
    }
  }
  double at(std::size_t r, std::size_t c) const { return values[r * cols + c]; }

  std::vector<double> column_means() const {
    std::vector<double> sums(cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) sums[c] += at(r, c);
    }
    const double denom = rows > 0 ? static_cast<double>(rows) : 1.0;
    for (double& sum : sums) sum /= denom;
    return sums;
  }
};

LrSelectionResult row_major_select(const RowMajorLr& case_lr,
                                   const RowMajorLr& ref_lr,
                                   const LrSelectionParams& params) {
  LrSelectionResult result;
  const std::size_t cols = case_lr.cols;
  if (cols == 0) return result;
  const std::vector<double> case_means = case_lr.column_means();
  const std::vector<double> ref_means = ref_lr.column_means();
  std::vector<double> gap(cols);
  for (std::size_t c = 0; c < cols; ++c) gap[c] = case_means[c] - ref_means[c];
  std::vector<std::uint32_t> order(cols);
  for (std::uint32_t c = 0; c < cols; ++c) order[c] = c;
  std::stable_sort(order.begin(), order.end(),
                   [&gap](std::uint32_t a, std::uint32_t b) {
                     if (gap[a] != gap[b]) return gap[a] < gap[b];
                     return a < b;
                   });
  std::vector<double> case_sums(case_lr.rows, 0.0);
  std::vector<double> ref_sums(ref_lr.rows, 0.0);
  auto apply = [](const RowMajorLr& m, std::uint32_t c, double sign,
                  std::vector<double>& sums) {
    for (std::size_t r = 0; r < m.rows; ++r) sums[r] += sign * m.at(r, c);
  };
  for (std::uint32_t candidate : order) {
    apply(case_lr, candidate, 1.0, case_sums);
    apply(ref_lr, candidate, 1.0, ref_sums);
    double threshold = 0.0;
    const double power = detection_power(
        case_sums, ref_sums, params.false_positive_rate, &threshold);
    if (power <= params.power_threshold) {
      result.safe_columns.push_back(candidate);
      result.final_power = power;
      result.final_threshold = threshold;
    } else {
      apply(case_lr, candidate, -1.0, case_sums);
      apply(ref_lr, candidate, -1.0, ref_sums);
    }
  }
  std::sort(result.safe_columns.begin(), result.safe_columns.end());
  return result;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void expect_bit_identical(const LrSelectionResult& got,
                          const LrSelectionResult& want,
                          const std::string& label) {
  EXPECT_EQ(got.safe_columns, want.safe_columns) << label;
  EXPECT_EQ(bits_of(got.final_power), bits_of(want.final_power)) << label;
  EXPECT_EQ(bits_of(got.final_threshold), bits_of(want.final_threshold))
      << label;
}

TEST_F(SelectSafeSnpsTest, BitIdenticalToRowMajorOracleOnSyntheticScores) {
  std::size_t rejecting_runs = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    common::Rng shape(seed * 7919);
    // Row counts deliberately off the 64-row word boundary.
    const std::size_t n_case = 37 + shape.next() % 300;
    const std::size_t n_ref = 41 + shape.next() % 300;
    const std::size_t cols = 1 + shape.next() % 60;
    const std::size_t identifying = shape.next() % (cols + 1);
    const auto [case_lr, ref_lr] =
        synthetic(n_case, n_ref, cols, identifying, 0.8, seed);
    for (double limit : {0.9, 0.5, 0.2}) {
      LrSelectionParams params;
      params.power_threshold = limit;
      const LrSelectionResult got = select_safe_snps(case_lr, ref_lr, params);
      expect_bit_identical(got,
                           row_major_select(RowMajorLr(case_lr),
                                            RowMajorLr(ref_lr), params),
                           "seed " + std::to_string(seed) + " limit " +
                               std::to_string(limit));
      if (got.safe_columns.size() < cols) ++rejecting_runs;
    }
  }
  // The roll-back path must actually run.
  EXPECT_GT(rejecting_runs, 10u);
}

TEST_F(SelectSafeSnpsTest, BitIdenticalToRowMajorOracleOnGenotypeMatrices) {
  // Matrices as the protocol builds them: weights from the populations'
  // own allele frequencies, every cell one of its column's two weights
  // selected by a genotype bit. Cases carry the minor allele more often.
  std::size_t rejecting_runs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng shape(seed * 104729);
    const std::size_t n_case = 65 + shape.next() % 400;
    const std::size_t n_ref = 63 + shape.next() % 400;
    const std::size_t num_snps = 5 + shape.next() % 50;
    const genome::BitPlanes cases(
        random_genotypes(n_case, num_snps, seed, 0.4));
    const genome::BitPlanes refs(random_genotypes(n_ref, num_snps, ~seed));
    std::vector<std::uint32_t> snps;
    std::vector<double> case_freq;
    std::vector<double> ref_freq;
    for (std::uint32_t l = 0; l < num_snps;
         l += 1 + static_cast<std::uint32_t>(shape.next() % 2)) {
      snps.push_back(l);
      case_freq.push_back(static_cast<double>(cases.allele_count(l)) /
                          static_cast<double>(n_case));
      ref_freq.push_back(static_cast<double>(refs.allele_count(l)) /
                         static_cast<double>(n_ref));
    }
    const LrWeights w = lr_weights(case_freq, ref_freq);
    const LrMatrix case_lr = build_lr_matrix(cases, snps, w);
    const LrMatrix ref_lr = build_lr_matrix(refs, snps, w);
    for (double limit : {0.9, 0.4, 0.15}) {
      LrSelectionParams params;
      params.power_threshold = limit;
      const LrSelectionResult got = select_safe_snps(case_lr, ref_lr, params);
      expect_bit_identical(got,
                           row_major_select(RowMajorLr(case_lr),
                                            RowMajorLr(ref_lr), params),
                           "seed " + std::to_string(seed) + " limit " +
                               std::to_string(limit));
      if (got.safe_columns.size() < snps.size()) ++rejecting_runs;
    }
  }
  EXPECT_GT(rejecting_runs, 4u);
}

TEST_F(SelectSafeSnpsTest, EmptyMatrixGivesEmptyResult) {
  const LrMatrix empty;
  const auto result = select_safe_snps(empty, empty, LrSelectionParams{});
  EXPECT_TRUE(result.safe_columns.empty());
}

TEST_F(SelectSafeSnpsTest, ColumnMismatchThrows) {
  LrMatrix a(1, 2);
  LrMatrix b(1, 3);
  EXPECT_THROW(select_safe_snps(a, b, LrSelectionParams{}),
               std::invalid_argument);
}

TEST_F(SelectSafeSnpsTest, SafeColumnsAreSortedAndUnique) {
  const auto [case_lr, ref_lr] = synthetic(200, 200, 25, 6, 1.0, 17);
  const auto result = select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
  EXPECT_TRUE(std::is_sorted(result.safe_columns.begin(),
                             result.safe_columns.end()));
  EXPECT_EQ(std::adjacent_find(result.safe_columns.begin(),
                               result.safe_columns.end()),
            result.safe_columns.end());
}

// Property sweep over FPR values: the final power never exceeds the limit.
class LrFprSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(LrFprSweepTest, PowerBounded) {
  common::Rng rng(23);
  LrMatrix case_lr(300, 30);
  LrMatrix ref_lr(300, 30);
  for (auto& v : case_lr.values()) v = rng.normal() * 0.2 + 0.1;
  for (auto& v : ref_lr.values()) v = rng.normal() * 0.2;
  LrSelectionParams params;
  params.false_positive_rate = GetParam();
  params.power_threshold = 0.6;
  const auto result = select_safe_snps(case_lr, ref_lr, params);
  EXPECT_LE(result.final_power, 0.6);
}

INSTANTIATE_TEST_SUITE_P(Fprs, LrFprSweepTest,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.5));

}  // namespace
}  // namespace gendpr::stats
