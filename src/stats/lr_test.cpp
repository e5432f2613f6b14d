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
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
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
  for (std::size_t n = 0; n < genotypes.num_individuals(); ++n) {
    for (std::size_t i = 0; i < snps.size(); ++i) {
      const std::uint32_t col = snp_to_weight_col[i];
      matrix.at(n, i) = genotypes.get(n, snps[i])
                            ? weights.when_minor[col]
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
  const std::size_t rows = planes.num_individuals();
  const std::size_t cols = snps.size();
  LrMatrix matrix(rows, cols);
  if (rows == 0 || cols == 0) return matrix;

  std::vector<double> when_minor(cols), when_major(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    when_minor[i] = weights.when_minor[snp_to_weight_col[i]];
    when_major[i] = weights.when_major[snp_to_weight_col[i]];
  }

  // One plane word covers 64 rows; gather the block's word per column once,
  // then emit the 64 rows contiguously (row-major writes).
  double* out = matrix.values().data();
  std::vector<std::uint64_t> block(cols);
  for (std::size_t w = 0; w < planes.words_per_plane(); ++w) {
    for (std::size_t i = 0; i < cols; ++i) {
      block[i] = planes.plane(snps[i])[w];
    }
    const std::size_t row_end = std::min(rows, (w + 1) * 64);
    for (std::size_t n = w * 64; n < row_end; ++n) {
      const std::size_t k = n % 64;
      double* row_out = out + n * cols;
      for (std::size_t i = 0; i < cols; ++i) {
        row_out[i] = ((block[i] >> k) & 1) != 0 ? when_minor[i]
                                                : when_major[i];
      }
    }
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

LrBasis::LrBasis(const genome::BitPlanes& planes,
                 const std::vector<std::uint32_t>& snps)
    : rows_(planes.num_individuals()),
      cols_(snps.size()),
      indicator_(rows_ * cols_, 0) {
  if (rows_ == 0 || cols_ == 0) return;
  // Same word-gather sweep as the bit-plane matrix build: one plane word
  // covers 64 rows, gathered per column once, rows emitted contiguously.
  std::uint8_t* out = indicator_.data();
  std::vector<std::uint64_t> block(cols_);
  for (std::size_t w = 0; w < planes.words_per_plane(); ++w) {
    for (std::size_t i = 0; i < cols_; ++i) {
      block[i] = planes.plane(snps[i])[w];
    }
    const std::size_t row_end = std::min(rows_, (w + 1) * 64);
    for (std::size_t n = w * 64; n < row_end; ++n) {
      const std::size_t k = n % 64;
      std::uint8_t* row_out = out + n * cols_;
      for (std::size_t i = 0; i < cols_; ++i) {
        row_out[i] = static_cast<std::uint8_t>((block[i] >> k) & 1);
      }
    }
  }
}

LrMatrix LrBasis::derive(
    const LrWeights& weights,
    const std::vector<std::uint32_t>& snp_to_weight_col) const {
  LrMatrix matrix(rows_, cols_);
  if (rows_ == 0 || cols_ == 0) return matrix;
  std::vector<double> when_minor(cols_), when_major(cols_);
  for (std::size_t i = 0; i < cols_; ++i) {
    when_minor[i] = weights.when_minor[snp_to_weight_col[i]];
    when_major[i] = weights.when_major[snp_to_weight_col[i]];
  }
  // The basis-times-weights product b*wm + (1-b)*wM with b in {0, 1} is a
  // select between the two exact weight values, so every cell equals the
  // build_lr_matrix cell bit for bit — true for every kernel backend, since
  // the SIMD variants blend the same two doubles instead of computing.
  const genome::kernels::KernelOps& ops = genome::kernels::kernel_ops();
  double* out = matrix.values().data();
  const std::uint8_t* ind = indicator_.data();
  for (std::size_t n = 0; n < rows_; ++n) {
    ops.select_weights(ind + n * cols_, when_minor.data(), when_major.data(),
                       cols_, out + n * cols_);
  }
  return matrix;
}

LrMatrix LrBasis::derive(const LrWeights& weights) const {
  std::vector<std::uint32_t> identity(cols_);
  std::iota(identity.begin(), identity.end(), 0u);
  return derive(weights, identity);
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

/// Column block width of the gap pass: wide enough that each task reads
/// contiguous row segments, small enough to spread blocks across the pool.
constexpr std::size_t kGapColumnBlock = 64;

/// Minimum rows before per-candidate score updates are worth fanning out.
constexpr std::size_t kParallelRowThreshold = 4096;

/// Per-column mean over the rows of `m`, accumulated in ascending row order
/// within each column (a single row-major sweep per column block), so the
/// result is bit-identical to the naive column-major pass regardless of how
/// many blocks run concurrently.
void column_means_into(const LrMatrix& m, std::size_t col_begin,
                       std::size_t col_end, std::vector<double>& means) {
  const std::size_t width = col_end - col_begin;
  std::vector<double> sums(width, 0.0);
  const double* values = m.values().data();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = values + r * m.cols() + col_begin;
    for (std::size_t i = 0; i < width; ++i) sums[i] += row[i];
  }
  const double denom = m.rows() > 0 ? static_cast<double>(m.rows()) : 1.0;
  for (std::size_t i = 0; i < width; ++i) {
    means[col_begin + i] = sums[i] / denom;
  }
}

/// Adds (sign = +1) or rolls back (sign = -1) column `candidate` of `m` into
/// the per-individual running scores. Rows are independent, so splitting
/// them across the pool cannot change any result bit.
void apply_candidate(const LrMatrix& m, std::uint32_t candidate, double sign,
                     std::vector<double>& sums, common::ThreadPool* pool) {
  const std::size_t rows = m.rows();
  auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      sums[r] += sign * m.at(r, candidate);
    }
  };
  if (pool == nullptr || rows < kParallelRowThreshold) {
    run(0, rows);
    return;
  }
  const std::size_t chunks =
      std::min(pool->size(), (rows + kParallelRowThreshold - 1) /
                                 kParallelRowThreshold);
  const std::size_t chunk_rows = (rows + chunks - 1) / chunks;
  pool->parallel_for(chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * chunk_rows;
    run(begin, std::min(rows, begin + chunk_rows));
  });
}

}  // namespace

LrSelectionResult select_safe_snps(const LrMatrix& case_lr,
                                   const LrMatrix& reference_lr,
                                   const LrSelectionParams& params,
                                   common::ThreadPool* pool) {
  if (case_lr.cols() != reference_lr.cols()) {
    throw std::invalid_argument("select_safe_snps: column count mismatch");
  }
  const std::size_t cols = case_lr.cols();
  LrSelectionResult result;
  if (cols == 0) return result;

  // Identifying power of each SNP alone: the gap between the mean case and
  // mean reference LR contribution. Low-gap SNPs are admitted first.
  std::vector<double> case_means(cols, 0.0);
  std::vector<double> ref_means(cols, 0.0);
  const std::size_t blocks = (cols + kGapColumnBlock - 1) / kGapColumnBlock;
  auto gap_block = [&](std::size_t block) {
    const std::size_t begin = block * kGapColumnBlock;
    const std::size_t end = std::min(cols, begin + kGapColumnBlock);
    column_means_into(case_lr, begin, end, case_means);
    column_means_into(reference_lr, begin, end, ref_means);
  };
  if (pool != nullptr && blocks > 1) {
    pool->parallel_for(blocks, gap_block);
  } else {
    for (std::size_t block = 0; block < blocks; ++block) gap_block(block);
  }
  std::vector<double> gap(cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    gap[c] = case_means[c] - ref_means[c];
  }
  std::vector<std::uint32_t> order(cols);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&gap](std::uint32_t a, std::uint32_t b) {
                     if (gap[a] != gap[b]) return gap[a] < gap[b];
                     return a < b;  // deterministic tie-break
                   });

  // Greedy forward admission with incremental per-individual sums.
  std::vector<double> case_sums(case_lr.rows(), 0.0);
  std::vector<double> ref_sums(reference_lr.rows(), 0.0);
  std::vector<double> quantile_scratch;
  quantile_scratch.reserve(reference_lr.rows());
  std::vector<std::uint32_t> kept;
  double current_power = 0.0;
  double current_threshold = 0.0;

  for (std::uint32_t candidate : order) {
    apply_candidate(case_lr, candidate, 1.0, case_sums, pool);
    apply_candidate(reference_lr, candidate, 1.0, ref_sums, pool);
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
      apply_candidate(case_lr, candidate, -1.0, case_sums, pool);
      apply_candidate(reference_lr, candidate, -1.0, ref_sums, pool);
    }
  }

  std::sort(kept.begin(), kept.end());
  result.safe_columns = std::move(kept);
  result.final_power = current_power;
  result.final_threshold = current_threshold;
  return result;
}

}  // namespace gendpr::stats
