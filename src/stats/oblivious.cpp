#include "stats/oblivious.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace gendpr::stats {

double oblivious_select(std::uint64_t mask, double a, double b) noexcept {
  // mask in {0,1} -> all-zeros or all-ones; select via bitwise mix.
  const std::uint64_t full = ~(mask - 1);  // 1 -> 0xFF..FF, 0 -> 0x00..00
  std::uint64_t a_bits;
  std::uint64_t b_bits;
  std::memcpy(&a_bits, &a, sizeof(a_bits));
  std::memcpy(&b_bits, &b, sizeof(b_bits));
  const std::uint64_t out_bits = (a_bits & full) | (b_bits & ~full);
  double out;
  std::memcpy(&out, &out_bits, sizeof(out));
  return out;
}

namespace {

/// Branchless compare-exchange: after the call data[i] <= data[j].
void compare_exchange(double* data, std::size_t i, std::size_t j) noexcept {
  const double a = data[i];
  const double b = data[j];
  const std::uint64_t swap_mask = a > b ? 1u : 0u;  // compiles to a setcc
  data[i] = oblivious_select(swap_mask, b, a);
  data[j] = oblivious_select(swap_mask, a, b);
}

}  // namespace

void oblivious_sort(std::span<double> data) {
  const std::size_t n = data.size();
  if (n < 2) return;
  // Pad virtually to the next power of two with +inf sentinels by sorting a
  // scratch buffer; the network's sequence depends only on the padded size.
  const std::size_t padded = std::bit_ceil(n);
  std::vector<double> scratch(padded, std::numeric_limits<double>::infinity());
  std::copy(data.begin(), data.end(), scratch.begin());

  for (std::size_t k = 2; k <= padded; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      for (std::size_t i = 0; i < padded; ++i) {
        const std::size_t partner = i ^ j;
        if (partner > i) {
          if ((i & k) == 0) {
            compare_exchange(scratch.data(), i, partner);
          } else {
            compare_exchange(scratch.data(), partner, i);
          }
        }
      }
    }
  }
  std::copy(scratch.begin(), scratch.begin() + n, data.begin());
}

LrMatrix oblivious_build_lr_matrix(const genome::GenotypeMatrix& genotypes,
                                   const std::vector<std::uint32_t>& snps,
                                   const LrWeights& weights) {
  LrMatrix matrix(genotypes.num_individuals(), snps.size());
  // Column by column, the matrix's storage order (as build_lr_matrix).
  for (std::size_t i = 0; i < snps.size(); ++i) {
    for (std::size_t n = 0; n < genotypes.num_individuals(); ++n) {
      // Arithmetic select: no branch, uniform access pattern.
      const double g = genotypes.get(n, snps[i]) ? 1.0 : 0.0;
      matrix.at(n, i) =
          weights.when_major[i] +
          g * (weights.when_minor[i] - weights.when_major[i]);
    }
  }
  return matrix;
}

double oblivious_detection_power(const std::vector<double>& case_scores,
                                 const std::vector<double>& reference_scores,
                                 double false_positive_rate,
                                 double* threshold_out) {
  if (reference_scores.empty() || case_scores.empty()) {
    if (threshold_out != nullptr) *threshold_out = 0.0;
    return 0.0;
  }
  std::vector<double> sorted_ref = reference_scores;
  oblivious_sort(sorted_ref);
  const std::size_t n_ref = sorted_ref.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil((1.0 - false_positive_rate) * static_cast<double>(n_ref)));
  if (idx == 0) idx = 1;
  if (idx > n_ref) idx = n_ref;
  const double threshold = sorted_ref[idx - 1];
  if (threshold_out != nullptr) *threshold_out = threshold;

  // Branchless accumulation of (score > threshold).
  std::uint64_t detected = 0;
  for (double score : case_scores) {
    detected += score > threshold ? 1u : 0u;  // setcc, no data-dependent jump
  }
  return static_cast<double>(detected) /
         static_cast<double>(case_scores.size());
}

}  // namespace gendpr::stats
