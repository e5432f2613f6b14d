// Reference for the collusion-tolerant mode (§5.6), written straight from
// the paper for tests.
//
// For every honest-subset combination it pools the genotypes of the member
// GDOs (each GDO holds its `genome::equal_partition` slice of the cases;
// members are concatenated in ascending GDO order) and runs the centralized
// SecureGenome pipeline on the pool plus the reference panel: MAF filter,
// chi² ranking and greedy LD walk over pooled moments, then the LR-test
// safe-subset selection. Each phase's released set is the intersection over
// combinations. Nothing here touches `Coordinator`, `GdoEnclave`, protocol
// messages or tiles (only the unit-tested `intersect_sorted`), so a bug
// shared by the federated sweep's phases cannot hide behind it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/combinatorics.hpp"
#include "gendpr/config.hpp"
#include "gendpr/trusted.hpp"
#include "genome/bitplanes.hpp"
#include "genome/cohort.hpp"
#include "stats/association.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"

namespace gendpr::core {

/// The honest-subset combinations of a policy: every (G - f)-subset of the
/// G GDOs, for the policy's f (all f in 1..G-1 when conservative).
inline std::vector<std::vector<std::uint32_t>> reference_combinations(
    std::uint32_t num_gdos, const CollusionPolicy& policy) {
  std::vector<unsigned> fs;
  switch (policy.mode) {
    case CollusionPolicy::Mode::none:
      fs = {0};
      break;
    case CollusionPolicy::Mode::fixed_f:
      fs = {std::min<unsigned>(policy.f, num_gdos - 1)};
      break;
    case CollusionPolicy::Mode::all_f:
      for (unsigned f = 1; f < num_gdos; ++f) fs.push_back(f);
      break;
  }
  std::vector<std::vector<std::uint32_t>> combinations;
  for (unsigned f : fs) {
    for (const auto& subset : common::combinations(num_gdos, num_gdos - f)) {
      combinations.emplace_back(subset.begin(), subset.end());
    }
  }
  return combinations;
}

/// L', L'', L_safe and the maximum final power over combinations. GDOs in
/// `dead_after_phase1` answered phase 1 and then went silent: their
/// combinations count towards L' but drop out from the LD phase on.
inline SelectionOutcome reference_sweep(
    const genome::Cohort& cohort, std::uint32_t num_gdos,
    const CollusionPolicy& policy, const StudyConfig& config,
    const std::set<std::uint32_t>& dead_after_phase1 = {}) {
  const auto ranges =
      genome::equal_partition(cohort.cases.num_individuals(), num_gdos);
  const std::size_t num_snps = cohort.cases.num_snps();
  const genome::BitPlanes ref_planes(cohort.controls);
  const std::vector<std::uint32_t> ref_counts = ref_planes.allele_counts();
  const std::uint64_t n_ref = cohort.controls.num_individuals();

  struct Pooled {
    bool live;
    genome::BitPlanes planes;
    std::vector<std::uint32_t> counts;
    std::uint64_t n_case;
  };
  std::vector<Pooled> pools;
  for (const auto& members : reference_combinations(num_gdos, policy)) {
    std::size_t rows = 0;
    for (std::uint32_t g : members) rows += ranges[g].second - ranges[g].first;
    genome::GenotypeMatrix pooled(rows, num_snps);
    std::size_t row = 0;
    for (std::uint32_t g : members) {
      for (std::size_t i = ranges[g].first; i < ranges[g].second; ++i, ++row) {
        for (std::size_t l = 0; l < num_snps; ++l) {
          if (cohort.cases.get(i, l)) pooled.set(row, l, true);
        }
      }
    }
    const bool live = std::none_of(
        members.begin(), members.end(),
        [&](std::uint32_t g) { return dead_after_phase1.count(g) > 0; });
    genome::BitPlanes planes(pooled);
    std::vector<std::uint32_t> counts = planes.allele_counts();
    pools.push_back({live, std::move(planes), std::move(counts), rows});
  }

  SelectionOutcome outcome;
  // Phase 1: MAF over the pooled cases plus the reference panel.
  std::vector<std::vector<std::uint32_t>> maf_lists;
  for (const Pooled& p : pools) {
    std::vector<double> maf(num_snps, 0.0);
    for (std::size_t l = 0; l < num_snps; ++l) {
      maf[l] = stats::minor_allele_frequency(p.counts[l] + ref_counts[l],
                                             p.n_case + n_ref);
    }
    maf_lists.push_back(stats::maf_filter(maf, config.maf_cutoff));
  }
  outcome.l_prime = intersect_sorted(maf_lists);

  // Phase 2: chi² ranking and the full greedy LD walk over L'.
  std::vector<std::vector<std::uint32_t>> ld_lists;
  for (const Pooled& p : pools) {
    if (!p.live) continue;
    std::vector<double> p_values(num_snps, 1.0);
    for (std::size_t l = 0; l < num_snps; ++l) {
      const stats::SinglewiseTable table{p.counts[l], p.n_case, ref_counts[l],
                                         n_ref};
      p_values[l] = stats::chi2_p_value(table);
    }
    auto pair_p_value = [&](std::uint32_t a, std::uint32_t b) {
      stats::LdMoments moments = stats::compute_ld_moments(p.planes, a, b);
      moments += stats::compute_ld_moments(ref_planes, a, b);
      return stats::ld_p_value(moments);
    };
    ld_lists.push_back(stats::greedy_ld_prune(outcome.l_prime, config.ld_cutoff,
                                              p_values, pair_p_value));
  }
  outcome.l_double_prime = intersect_sorted(ld_lists);

  // Phase 3: LR matrices over L'' with the combination's own frequencies.
  const std::vector<std::uint32_t>& l2 = outcome.l_double_prime;
  std::vector<double> ref_freq(l2.size(), 0.0);
  for (std::size_t i = 0; i < l2.size(); ++i) {
    ref_freq[i] = static_cast<double>(ref_counts[l2[i]]) /
                  static_cast<double>(n_ref);
  }
  stats::LrSelectionParams params;
  params.false_positive_rate = config.lr_false_positive_rate;
  params.power_threshold = config.lr_power_threshold;
  std::vector<std::vector<std::uint32_t>> safe_lists;
  for (const Pooled& p : pools) {
    if (!p.live) continue;
    std::vector<double> case_freq(l2.size(), 0.0);
    for (std::size_t i = 0; i < l2.size(); ++i) {
      case_freq[i] = static_cast<double>(p.counts[l2[i]]) /
                     static_cast<double>(p.n_case);
    }
    const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);
    const stats::LrSelectionResult selection = stats::select_safe_snps(
        stats::build_lr_matrix(p.planes, l2, weights),
        stats::build_lr_matrix(ref_planes, l2, weights), params);
    std::vector<std::uint32_t> safe;
    for (std::uint32_t column : selection.safe_columns) {
      safe.push_back(l2[column]);
    }
    safe_lists.push_back(std::move(safe));
    outcome.final_power = std::max(outcome.final_power, selection.final_power);
  }
  outcome.l_safe = intersect_sorted(safe_lists);
  return outcome;
}

}  // namespace gendpr::core
