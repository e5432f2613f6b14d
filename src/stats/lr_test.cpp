#include "stats/lr_test.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "genome/kernels/kernels.hpp"

namespace gendpr::stats {

void LrMatrix::append_rows(const LrMatrix& other) {
  if (rows_ == 0 && cols_ == 0) {
    *this = other;
    return;
  }
  if (other.cols_ != cols_) {
    throw std::invalid_argument("LrMatrix::append_rows: column mismatch");
  }
  std::vector<double> merged((rows_ + other.rows_) * cols_);
  auto out = merged.begin();
  for (std::size_t c = 0; c < cols_; ++c) {
    out = std::copy(column(c).begin(), column(c).end(), out);
    out = std::copy(other.column(c).begin(), other.column(c).end(), out);
  }
  values_ = std::move(merged);
  rows_ += other.rows_;
}

LrWeights lr_weights(const std::vector<double>& case_freq,
                     const std::vector<double>& reference_freq,
                     double freq_floor) {
  if (case_freq.size() != reference_freq.size()) {
    throw std::invalid_argument("lr_weights: frequency vector size mismatch");
  }
  LrWeights weights;
  weights.when_minor.resize(case_freq.size());
  weights.when_major.resize(case_freq.size());
  for (std::size_t l = 0; l < case_freq.size(); ++l) {
    const double p_hat =
        std::clamp(case_freq[l], freq_floor, 1.0 - freq_floor);
    const double p = std::clamp(reference_freq[l], freq_floor,
                                1.0 - freq_floor);
    weights.when_minor[l] = std::log(p_hat / p);
    weights.when_major[l] = std::log((1.0 - p_hat) / (1.0 - p));
  }
  return weights;
}

LrMatrix build_lr_matrix(const genome::GenotypeMatrix& genotypes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights,
                         const std::vector<std::uint32_t>& snp_to_weight_col) {
  LrMatrix matrix(genotypes.num_individuals(), snps.size());
  for (std::size_t i = 0; i < snps.size(); ++i) {
    const std::uint32_t col = snp_to_weight_col[i];
    const std::span<double> out = matrix.column(i);
    for (std::size_t n = 0; n < out.size(); ++n) {
      out[n] = genotypes.get(n, snps[i]) ? weights.when_minor[col]
                                         : weights.when_major[col];
    }
  }
  return matrix;
}

LrMatrix build_lr_matrix(const genome::GenotypeMatrix& genotypes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights) {
  std::vector<std::uint32_t> identity(snps.size());
  std::iota(identity.begin(), identity.end(), 0u);
  return build_lr_matrix(genotypes, snps, weights, identity);
}

LrMatrix build_lr_matrix(const genome::BitPlanes& planes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights,
                         const std::vector<std::uint32_t>& snp_to_weight_col) {
  LrMatrix matrix(planes.num_individuals(), snps.size());
  // A select between two exact weight values per cell: bit-identical for
  // every kernel backend, since the SIMD variants blend the same doubles.
  const genome::kernels::KernelOps& ops = genome::kernels::kernel_ops();
  for (std::size_t i = 0; i < snps.size(); ++i) {
    const std::uint32_t col = snp_to_weight_col[i];
    ops.select_bits(planes.plane(snps[i]), weights.when_minor[col],
                    weights.when_major[col], matrix.rows(),
                    matrix.column(i).data());
  }
  return matrix;
}

LrMatrix build_lr_matrix(const genome::BitPlanes& planes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights) {
  std::vector<std::uint32_t> identity(snps.size());
  std::iota(identity.begin(), identity.end(), 0u);
  return build_lr_matrix(planes, snps, weights, identity);
}

double detection_power(const std::vector<double>& case_scores,
                       const std::vector<double>& reference_scores,
                       double false_positive_rate, double* threshold_out,
                       std::vector<double>& scratch) {
  if (reference_scores.empty() || case_scores.empty()) {
    if (threshold_out != nullptr) *threshold_out = 0.0;
    return 0.0;
  }
  // Threshold: smallest reference score such that the fraction of reference
  // scores strictly above it is <= fpr, i.e. the (1-fpr) empirical quantile.
  // nth_element instead of a full sort: this runs once per candidate SNP in
  // the selection loop and dominates the LR phase at paper scale.
  scratch.assign(reference_scores.begin(), reference_scores.end());
  const std::size_t n_ref = scratch.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil((1.0 - false_positive_rate) * static_cast<double>(n_ref)));
  if (idx == 0) idx = 1;
  if (idx > n_ref) idx = n_ref;
  std::nth_element(scratch.begin(), scratch.begin() + (idx - 1),
                   scratch.end());
  const double threshold = scratch[idx - 1];
  if (threshold_out != nullptr) *threshold_out = threshold;

  std::size_t detected = 0;
  for (double score : case_scores) {
    if (score > threshold) ++detected;
  }
  return static_cast<double>(detected) /
         static_cast<double>(case_scores.size());
}

double detection_power(const std::vector<double>& case_scores,
                       const std::vector<double>& reference_scores,
                       double false_positive_rate, double* threshold_out) {
  std::vector<double> scratch;
  return detection_power(case_scores, reference_scores, false_positive_rate,
                         threshold_out, scratch);
}

namespace {

/// Mean of one column, summing rows in ascending order.
double column_mean(std::span<const double> column) {
  double sum = 0.0;
  for (const double cell : column) sum += cell;
  return column.empty() ? sum : sum / static_cast<double>(column.size());
}

/// Adds (sign = +1) or rolls back (sign = -1) one column into the
/// per-individual running scores.
void apply_column(std::span<const double> column, double sign,
                  std::vector<double>& sums) {
  for (std::size_t r = 0; r < column.size(); ++r) sums[r] += sign * column[r];
}

/// One candidate's case and reference LR columns.
struct ColumnPair {
  std::span<const double> case_column;
  std::span<const double> reference_column;
};

/// The one greedy search. `column(c, case_scratch, reference_scratch)`
/// yields candidate c's columns: it may fill the caller-owned scratch
/// (sized to the row counts) and view it, or view storage it already holds.
/// The views stay valid until the next call, which is all a roll-back
/// needs.
template <typename ColumnSource>
LrSelectionResult greedy_select(std::size_t case_rows,
                                std::size_t reference_rows, std::size_t cols,
                                ColumnSource&& column,
                                const LrSelectionParams& params) {
  LrSelectionResult result;
  if (cols == 0) return result;
  std::vector<double> case_scratch(case_rows);
  std::vector<double> reference_scratch(reference_rows);

  // Identifying power of each SNP alone: the gap between the mean case and
  // mean reference LR contribution. Low-gap SNPs are admitted first.
  std::vector<double> gap(cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    const ColumnPair pair = column(c, case_scratch, reference_scratch);
    gap[c] = column_mean(pair.case_column) -
             column_mean(pair.reference_column);
  }
  std::vector<std::uint32_t> order(cols);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&gap](std::uint32_t a, std::uint32_t b) {
                     if (gap[a] != gap[b]) return gap[a] < gap[b];
                     return a < b;  // deterministic tie-break
                   });

  // Greedy forward admission with incremental per-individual sums.
  std::vector<double> case_sums(case_rows, 0.0);
  std::vector<double> ref_sums(reference_rows, 0.0);
  std::vector<double> quantile_scratch;
  quantile_scratch.reserve(reference_rows);
  std::vector<std::uint32_t> kept;
  double current_power = 0.0;
  double current_threshold = 0.0;

  for (std::uint32_t candidate : order) {
    const ColumnPair pair = column(candidate, case_scratch, reference_scratch);
    apply_column(pair.case_column, 1.0, case_sums);
    apply_column(pair.reference_column, 1.0, ref_sums);
    double threshold = 0.0;
    const double power =
        detection_power(case_sums, ref_sums, params.false_positive_rate,
                        &threshold, quantile_scratch);
    if (power <= params.power_threshold) {
      kept.push_back(candidate);
      current_power = power;
      current_threshold = threshold;
    } else {
      // Roll the candidate back and try the next one.
      apply_column(pair.case_column, -1.0, case_sums);
      apply_column(pair.reference_column, -1.0, ref_sums);
    }
  }

  std::sort(kept.begin(), kept.end());
  result.safe_columns = std::move(kept);
  result.final_power = current_power;
  result.final_threshold = current_threshold;
  return result;
}

/// Fills block `block`'s cells of column `col` into `out`.
void select_block(const genome::kernels::KernelOps& ops,
                  const LrBitBlock& block, std::size_t col, double when_minor,
                  double when_major, double* out) {
  const std::size_t plane = block.snps.empty() ? col : block.snps[col];
  ops.select_bits(block.words + plane * block.words_per_plane, when_minor,
                  when_major, block.rows, out);
}

}  // namespace

LrSelectionResult select_safe_snps(const LrMatrix& case_lr,
                                   const LrMatrix& reference_lr,
                                   const LrSelectionParams& params) {
  if (case_lr.cols() != reference_lr.cols()) {
    throw std::invalid_argument("select_safe_snps: column count mismatch");
  }
  return greedy_select(
      case_lr.rows(), reference_lr.rows(), case_lr.cols(),
      [&](std::size_t c, std::span<double>, std::span<double>) {
        return ColumnPair{case_lr.column(c), reference_lr.column(c)};
      },
      params);
}

LrBitBlock bit_block(const genome::BitPlanes& planes,
                     std::span<const std::uint32_t> snps) {
  return {planes.plane(0), planes.words_per_plane(), planes.num_individuals(),
          snps};
}

LrSelectionResult select_safe_snps(std::span<const LrBitBlock> case_blocks,
                                   const LrBitBlock& reference,
                                   const LrWeights& weights,
                                   const LrSelectionParams& params) {
  if (weights.when_minor.size() != weights.when_major.size()) {
    throw std::invalid_argument("select_safe_snps: weight size mismatch");
  }
  std::size_t case_rows = 0;
  for (const LrBitBlock& block : case_blocks) case_rows += block.rows;
  const genome::kernels::KernelOps& ops = genome::kernels::kernel_ops();
  return greedy_select(
      case_rows, reference.rows, weights.when_minor.size(),
      [&](std::size_t c, std::span<double> case_out,
          std::span<double> reference_out) {
        const double minor = weights.when_minor[c];
        const double major = weights.when_major[c];
        double* out = case_out.data();
        for (const LrBitBlock& block : case_blocks) {
          select_block(ops, block, c, minor, major, out);
          out += block.rows;
        }
        select_block(ops, reference, c, minor, major, reference_out.data());
        return ColumnPair{case_out, reference_out};
      },
      params);
}

std::size_t lr_selection_working_bytes(std::size_t case_rows,
                                       std::size_t reference_rows,
                                       std::size_t cols) {
  // Sums + column scratch per case row; sums, column and quantile scratch
  // per reference row; gap (double), order and kept (u32) per column.
  return (2 * case_rows + 3 * reference_rows) * sizeof(double) +
         cols * (sizeof(double) + 2 * sizeof(std::uint32_t));
}

}  // namespace gendpr::stats
