#include "genome/bitplanes.hpp"

#include <bit>

#include "genome/kernels/kernels.hpp"

namespace gendpr::genome {

BitPlanes::BitPlanes(const GenotypeMatrix& genotypes)
    : num_individuals_(genotypes.num_individuals()),
      num_snps_(genotypes.num_snps()),
      words_per_plane_(plane_words(genotypes.num_individuals())),
      words_(genotypes.num_snps() * words_per_plane_, 0),
      counts_(genotypes.num_snps(), 0) {
  // Transpose by scattering each row's set bits into its column planes.
  // Padding bits past num_snps in a row byte are never set by the matrix,
  // so only real SNP indices are touched; individual indices past
  // num_individuals are never written, keeping tail words zero.
  for (std::size_t n = 0; n < num_individuals_; ++n) {
    const std::uint8_t* row = genotypes.row_data(n);
    const std::size_t word = n / 64;
    const std::uint64_t bit = 1ull << (n % 64);
    for (std::size_t j = 0; j < genotypes.row_stride(); ++j) {
      std::uint8_t byte = row[j];
      while (byte != 0) {
        const std::size_t snp = j * 8 +
                                static_cast<std::size_t>(std::countr_zero(byte));
        words_[snp * words_per_plane_ + word] |= bit;
        byte = static_cast<std::uint8_t>(byte & (byte - 1));
      }
    }
  }
  const kernels::KernelOps& ops = kernels::kernel_ops();
  count_prefix_.assign(num_snps_ + 1, 0);
  for (std::size_t l = 0; l < num_snps_; ++l) {
    counts_[l] = static_cast<std::uint32_t>(
        ops.popcount_words(plane(l), words_per_plane_));
    count_prefix_[l + 1] = count_prefix_[l] + counts_[l];
  }
}

std::vector<std::uint32_t> BitPlanes::allele_counts(
    const std::vector<std::uint32_t>& snps) const {
  std::vector<std::uint32_t> counts(snps.size(), 0);
  for (std::size_t i = 0; i < snps.size(); ++i) {
    counts[i] = counts_[snps[i]];
  }
  return counts;
}

std::uint32_t BitPlanes::pair_count(std::size_t snp_a,
                                    std::size_t snp_b) const noexcept {
  return static_cast<std::uint32_t>(kernels::kernel_ops().and_popcount_words(
      plane(snp_a), plane(snp_b), words_per_plane_));
}

}  // namespace gendpr::genome
