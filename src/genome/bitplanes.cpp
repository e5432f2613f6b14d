#include "genome/bitplanes.hpp"

#include <algorithm>

#include "genome/kernels/kernels.hpp"

namespace gendpr::genome {

namespace {

// Transposes the 8x8 bit matrix whose row i is byte i of `x` (bit j =
// column j): afterwards byte j holds column j. Hacker's Delight's
// transpose8, as three rounds of delta swaps.
constexpr std::uint64_t transpose8(std::uint64_t x) noexcept {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

}  // namespace

BitPlanes::BitPlanes(const GenotypeMatrix& genotypes)
    : num_individuals_(genotypes.num_individuals()),
      num_snps_(genotypes.num_snps()),
      words_per_plane_(plane_words(genotypes.num_individuals())),
      words_(genotypes.num_snps() * words_per_plane_, 0),
      counts_(genotypes.num_snps(), 0) {
  // Transpose one plane word (64 individuals) at a time: for each row byte
  // (8 SNPs), eight 8x8 bit transposes turn the 64 rows' bytes into the
  // eight SNPs' whole words, each stored once. Rows past num_individuals
  // read as zero, which keeps the tail words zero; a row's padding bits
  // past num_snps are zero, so the last byte's extra columns are dropped.
  const std::size_t stride = genotypes.row_stride();
  for (std::size_t w = 0; w < words_per_plane_; ++w) {
    const std::size_t first = w * 64;
    const std::size_t rows = std::min<std::size_t>(64, num_individuals_ - first);
    for (std::size_t b = 0; b < stride; ++b) {
      std::uint64_t columns[8] = {};
      for (std::size_t group = 0; group * 8 < rows; ++group) {
        std::uint64_t block = 0;
        const std::size_t in_group = std::min<std::size_t>(8, rows - group * 8);
        for (std::size_t i = 0; i < in_group; ++i) {
          block |= std::uint64_t{genotypes.row_data(first + group * 8 + i)[b]}
                   << (8 * i);
        }
        block = transpose8(block);
        for (std::size_t j = 0; j < 8; ++j) {
          columns[j] |= ((block >> (8 * j)) & 0xFF) << (8 * group);
        }
      }
      const std::size_t snps = std::min<std::size_t>(8, num_snps_ - b * 8);
      for (std::size_t j = 0; j < snps; ++j) {
        words_[(b * 8 + j) * words_per_plane_ + w] = columns[j];
      }
    }
  }
  const kernels::KernelOps& ops = kernels::kernel_ops();
  for (std::size_t l = 0; l < num_snps_; ++l) {
    counts_[l] = static_cast<std::uint32_t>(
        ops.popcount_words(plane(l), words_per_plane_));
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
