// TilePlan partitioning and BitPlanes tile views: a tile is a zero-copy
// slice of the packed planes and the cached popcounts — never a repack or a
// recount.
#include "genome/tile_plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "genome/bitplanes.hpp"
#include "genome/genotype.hpp"

namespace gendpr::genome {
namespace {

TEST(TilePlanTest, WidthZeroIsOneTile) {
  const TilePlan plan = TilePlan::over(1000, 0);
  EXPECT_EQ(plan.tile_count(), 1u);
  EXPECT_EQ(plan.begin(0), 0u);
  EXPECT_EQ(plan.end(0), 1000u);
  EXPECT_EQ(plan.width_of(0), 1000u);
}

TEST(TilePlanTest, WidthAtLeastTotalIsOneTile) {
  EXPECT_EQ(TilePlan::over(100, 100).tile_count(), 1u);
  EXPECT_EQ(TilePlan::over(100, 5000).tile_count(), 1u);
}

TEST(TilePlanTest, EmptyRangeYieldsEmptyPlan) {
  // total == 0 used to emit a phantom 1-wide tile over nothing; an empty
  // range now plans zero tiles so the phase protocols stream no records.
  for (std::uint32_t width : {0u, 1u, 64u}) {
    const TilePlan plan = TilePlan::over(0, width);
    EXPECT_EQ(plan.tile_count(), 0u) << "width " << width;
    EXPECT_EQ(plan.total(), 0u);
    EXPECT_EQ(plan.width(), 0u);
  }
  EXPECT_EQ(TilePlan().tile_count(), 0u);  // default-constructed == empty
}

TEST(TilePlanTest, WidthBeyondTotalStillCoversTheRange) {
  const TilePlan plan = TilePlan::over(7, 1u << 20);
  ASSERT_EQ(plan.tile_count(), 1u);
  EXPECT_EQ(plan.begin(0), 0u);
  EXPECT_EQ(plan.end(0), 7u);
  EXPECT_EQ(plan.width_of(0), 7u);
}

TEST(TilePlanTest, TilesPartitionTheRange) {
  for (std::uint32_t total : {1u, 63u, 64u, 65u, 1000u, 1001u}) {
    for (std::uint32_t width : {1u, 64u, 1000u}) {
      const TilePlan plan = TilePlan::over(total, width);
      std::uint32_t covered = 0;
      for (std::uint32_t k = 0; k < plan.tile_count(); ++k) {
        EXPECT_EQ(plan.begin(k), covered) << total << "/" << width;
        EXPECT_GT(plan.end(k), plan.begin(k));
        covered = plan.end(k);
      }
      EXPECT_EQ(covered, total) << total << "/" << width;
    }
  }
}

TEST(TilePlanTest, SliceExtractsTheTileRange) {
  std::vector<std::uint32_t> values(10);
  std::iota(values.begin(), values.end(), 0u);
  const TilePlan plan = TilePlan::over(10, 4);
  ASSERT_EQ(plan.tile_count(), 3u);
  EXPECT_EQ(plan.slice(values, 1),
            (std::vector<std::uint32_t>{4, 5, 6, 7}));
  EXPECT_EQ(plan.slice(values, 2), (std::vector<std::uint32_t>{8, 9}));
}

GenotypeMatrix random_matrix(std::size_t individuals, std::size_t snps,
                             std::uint64_t seed) {
  common::Rng rng(seed);
  GenotypeMatrix m(individuals, snps);
  for (std::size_t n = 0; n < individuals; ++n) {
    for (std::size_t l = 0; l < snps; ++l) {
      if (rng.bernoulli(0.3)) m.set(n, l, true);
    }
  }
  return m;
}

TEST(TileViewTest, ViewSlicesWordsAndCachedCounts) {
  const GenotypeMatrix m = random_matrix(130, 57, 99);
  const BitPlanes planes(m);
  const TilePlan plan = TilePlan::over(57, 16);
  for (std::uint32_t k = 0; k < plan.tile_count(); ++k) {
    const BitPlanes::TileView view = planes.tile(plan.begin(k), plan.end(k));
    EXPECT_EQ(view.snp_begin(), plan.begin(k));
    EXPECT_EQ(view.num_snps(), plan.width_of(k));
    EXPECT_EQ(view.words_per_plane(), planes.words_per_plane());
    for (std::size_t i = 0; i < view.num_snps(); ++i) {
      const std::size_t snp = view.snp_begin() + i;
      // Word-range accessor: the view's plane is the parent's plane pointer.
      EXPECT_EQ(view.plane(i), planes.plane(snp));
      // Cached counts: the view reads the parent cache, no recount.
      EXPECT_EQ(view.allele_count(i), planes.allele_count(snp));
      EXPECT_EQ(view.allele_counts()[i], planes.allele_count(snp));
    }
    EXPECT_EQ(view.words(), planes.plane(view.snp_begin()));
    EXPECT_EQ(view.num_words(),
              view.num_snps() * planes.words_per_plane());
  }
}

TEST(TileViewTest, FullRangeViewCoversEverything) {
  const GenotypeMatrix m = random_matrix(64, 8, 3);
  const BitPlanes planes(m);
  const BitPlanes::TileView view = planes.tile(0, planes.num_snps());
  std::uint64_t total = 0;
  for (std::uint32_t c : planes.allele_counts()) total += c;
  std::uint64_t view_total = 0;
  for (std::size_t i = 0; i < view.num_snps(); ++i) {
    view_total += view.allele_counts()[i];
  }
  EXPECT_EQ(view.num_snps(), planes.num_snps());
  EXPECT_EQ(view_total, total);
}

}  // namespace
}  // namespace gendpr::genome
