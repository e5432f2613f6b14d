#include "genome/genotype.hpp"

#include <algorithm>
#include <bit>

namespace gendpr::genome {

GenotypeMatrix::GenotypeMatrix(std::size_t num_individuals,
                               std::size_t num_snps)
    : num_individuals_(num_individuals),
      num_snps_(num_snps),
      row_stride_((num_snps + 7) / 8),
      bits_(num_individuals * row_stride_, 0) {}

bool GenotypeMatrix::get(std::size_t individual,
                         std::size_t snp) const noexcept {
  return (bits_[index_of(individual, snp)] >> (snp % 8)) & 1;
}

void GenotypeMatrix::set(std::size_t individual, std::size_t snp,
                         bool minor) noexcept {
  std::uint8_t& byte = bits_[index_of(individual, snp)];
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (snp % 8));
  byte = minor ? static_cast<std::uint8_t>(byte | mask)
               : static_cast<std::uint8_t>(byte & ~mask);
}

std::uint32_t GenotypeMatrix::allele_count(std::size_t snp) const noexcept {
  std::uint32_t count = 0;
  for (std::size_t n = 0; n < num_individuals_; ++n) {
    count += get(n, snp) ? 1 : 0;
  }
  return count;
}

std::vector<std::uint32_t> GenotypeMatrix::allele_counts() const {
  std::vector<std::uint32_t> counts(num_snps_, 0);
  // Row-major sweep with popcount over whole bytes, fixing up the tail.
  for (std::size_t n = 0; n < num_individuals_; ++n) {
    const std::uint8_t* row = bits_.data() + n * row_stride_;
    for (std::size_t l = 0; l < num_snps_; ++l) {
      counts[l] += (row[l / 8] >> (l % 8)) & 1;
    }
  }
  return counts;
}

std::vector<std::uint32_t> GenotypeMatrix::allele_counts(
    const std::vector<std::uint32_t>& snps) const {
  std::vector<std::uint32_t> counts(snps.size(), 0);
  for (std::size_t n = 0; n < num_individuals_; ++n) {
    const std::uint8_t* row = bits_.data() + n * row_stride_;
    for (std::size_t i = 0; i < snps.size(); ++i) {
      const std::uint32_t l = snps[i];
      counts[i] += (row[l / 8] >> (l % 8)) & 1;
    }
  }
  return counts;
}

GenotypeMatrix GenotypeMatrix::slice_rows(std::size_t begin,
                                          std::size_t end) const {
  GenotypeMatrix out(end - begin, num_snps_);
  std::copy(bits_.begin() + begin * row_stride_,
            bits_.begin() + end * row_stride_, out.bits_.begin());
  return out;
}

common::Result<GenotypeMatrix> GenotypeMatrix::stack_rows(
    const std::vector<GenotypeMatrix>& blocks) {
  std::size_t total = 0;
  for (const GenotypeMatrix& block : blocks) {
    if (block.num_snps_ != blocks.front().num_snps_) {
      return common::make_error(common::Errc::invalid_argument,
                                "stacked blocks differ in SNP count");
    }
    total += block.num_individuals_;
  }
  GenotypeMatrix out(total, blocks.empty() ? 0 : blocks.front().num_snps_);
  auto next = out.bits_.begin();
  for (const GenotypeMatrix& block : blocks) {
    next = std::copy(block.bits_.begin(), block.bits_.end(), next);
  }
  return out;
}

}  // namespace gendpr::genome
