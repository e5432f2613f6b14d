// Likelihood-ratio membership test (SecureGenome-style) and the safe-subset
// selection of the paper's Phase 3.
//
// The per-individual LR over a SNP set L (paper Eq. 1):
//   LR_n = sum_l [ x_{n,l} log(p̂_l/p_l) + (1 - x_{n,l}) log((1-p̂_l)/(1-p_l)) ]
// where p̂_l is the case frequency and p_l the reference frequency. The
// adversary scores a victim genome and flags membership when LR exceeds a
// threshold calibrated on the reference population at a tolerated
// false-positive rate. A SNP set is *safe* when the adversary's detection
// power (fraction of true case members flagged) stays below the configured
// threshold (defaults mirror §7: FPR 0.1, power limit 0.9).
//
// Every LR cell is one of its column's two weights, picked by the genotype
// bit, so the federation exchanges genotype bits and the leader selects on
// them: `select_safe_snps` over `LrBitBlock`s fills one candidate column at
// a time from the bit planes. `LrMatrix` (one row per individual, one
// column per SNP, stored SNP-major) is the dense form of the same cells,
// kept for the centralized baselines, the attack example and as the test
// oracle. Both run one empirical subset search: SNPs are admitted in
// ascending order of identifying power and a candidate is kept only if the
// resulting power stays below the limit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "genome/bitplanes.hpp"
#include "genome/genotype.hpp"

namespace gendpr::stats {

/// Dense matrix of per-individual, per-SNP LR contributions, stored
/// SNP-major: each column (one SNP, every individual) is contiguous, so
/// derivation from a bit plane and the selection's per-candidate pass both
/// stream one column at a time.
class LrMatrix {
 public:
  LrMatrix() = default;
  LrMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), values_(rows * cols, 0.0) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double at(std::size_t row, std::size_t col) const noexcept {
    return values_[col * rows_ + row];
  }
  double& at(std::size_t row, std::size_t col) noexcept {
    return values_[col * rows_ + row];
  }

  /// Column `col`: every individual's contribution at one SNP, in row order.
  std::span<const double> column(std::size_t col) const noexcept {
    return {values_.data() + col * rows_, rows_};
  }
  std::span<double> column(std::size_t col) noexcept {
    return {values_.data() + col * rows_, rows_};
  }

  /// All cells, column after column (the wire order).
  const std::vector<double>& values() const noexcept { return values_; }
  std::vector<double>& values() noexcept { return values_; }

  /// Appends the rows of `other` (must have the same column count).
  void append_rows(const LrMatrix& other);

  bool operator==(const LrMatrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> values_;
};

/// Per-SNP LR weights for x=1 and x=0 given case and reference frequencies.
struct LrWeights {
  std::vector<double> when_minor;  // log(p̂/p)
  std::vector<double> when_major;  // log((1-p̂)/(1-p))
};

/// Computes the weights, clamping frequencies into [freq_floor, 1-freq_floor]
/// so rare/fixed SNPs do not produce infinities.
LrWeights lr_weights(const std::vector<double>& case_freq,
                     const std::vector<double>& reference_freq,
                     double freq_floor = 1e-6);

/// Builds the LR matrix of `genotypes` restricted to `snps`, using weights
/// computed from global frequencies (paper Fig. 4 step 2).
LrMatrix build_lr_matrix(const genome::GenotypeMatrix& genotypes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights,
                         const std::vector<std::uint32_t>& snp_to_weight_col);

/// Convenience overload when `snps` indexes the weight vectors directly
/// (weight column i corresponds to snps[i]).
LrMatrix build_lr_matrix(const genome::GenotypeMatrix& genotypes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights);

/// LR-matrix fill from SNP-major bit planes: each column is one plane run
/// through the bit-select kernel (a cell is one of the column's two weights,
/// chosen by the genotype bit), so the result is bit-identical to the
/// scalar build.
LrMatrix build_lr_matrix(const genome::BitPlanes& planes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights,
                         const std::vector<std::uint32_t>& snp_to_weight_col);

LrMatrix build_lr_matrix(const genome::BitPlanes& planes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights);

struct LrSelectionParams {
  double false_positive_rate = 0.1;  // beta in §7
  double power_threshold = 0.9;      // identification-power limit in §7
};

struct LrSelectionResult {
  /// Column indices (into the LR matrices) retained as safe.
  std::vector<std::uint32_t> safe_columns;
  /// Adversary detection power over the final safe set.
  double final_power = 0.0;
  /// LR threshold calibrated on the reference at the configured FPR.
  double final_threshold = 0.0;
};

/// Empirical safe-subset search over merged case and reference LR matrices
/// (they must have equal column counts). Deterministic for a given row
/// order: the per-column means sum rows in ascending order, so the leader
/// stacks member rows in ascending GDO order, the row order of the
/// centralized cohort.
LrSelectionResult select_safe_snps(const LrMatrix& case_lr,
                                   const LrMatrix& reference_lr,
                                   const LrSelectionParams& params);

/// Bit-packed genotypes of `rows` individuals feeding LR columns: the plane
/// of column i starts at `words + p * words_per_plane`, where p is
/// `snps[i]`, or i itself when `snps` is empty.
struct LrBitBlock {
  const std::uint64_t* words = nullptr;
  std::size_t words_per_plane = 0;
  std::size_t rows = 0;
  std::span<const std::uint32_t> snps;
};

/// The block over `planes` whose column i is SNP `snps[i]`.
LrBitBlock bit_block(const genome::BitPlanes& planes,
                     std::span<const std::uint32_t> snps);

/// The same search fed straight from genotype bits: a candidate's case
/// column is every case block's plane run through the bit-select kernel
/// with the column's weights, stacked in block order, and its reference
/// column likewise. Bit-identical to the dense overload on the matrices
/// `build_lr_matrix` would fill from the same bits and weights, without
/// holding them: only one column per side lives at a time.
LrSelectionResult select_safe_snps(std::span<const LrBitBlock> case_blocks,
                                   const LrBitBlock& reference,
                                   const LrWeights& weights,
                                   const LrSelectionParams& params);

/// Heap bytes the bit-fed selection allocates for `cols` candidates over
/// `case_rows` + `reference_rows` individuals: the per-individual score
/// sums, the candidate column scratch, the quantile scratch, and the
/// per-column gap, order and kept vectors (enclave EPC accounting).
std::size_t lr_selection_working_bytes(std::size_t case_rows,
                                       std::size_t reference_rows,
                                       std::size_t cols);

/// Detection power of the adversary for fixed per-individual LR scores:
/// threshold = (1 - fpr) quantile of reference scores; power = fraction of
/// case scores strictly above it. Exposed for tests and the membership
/// attack example.
double detection_power(const std::vector<double>& case_scores,
                       const std::vector<double>& reference_scores,
                       double false_positive_rate, double* threshold_out);

/// Same, but reuses `scratch` for the quantile's partial sort instead of
/// allocating a reference-sized vector per call - the allocation dominated
/// the greedy selection loop, which calls this once per candidate SNP.
double detection_power(const std::vector<double>& case_scores,
                       const std::vector<double>& reference_scores,
                       double false_positive_rate, double* threshold_out,
                       std::vector<double>& scratch);

}  // namespace gendpr::stats
