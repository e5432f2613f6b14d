// Ablation: LR-test selection strategy (DESIGN.md §4).
//
// GenDPR/SecureGenome use an empirical subset search (greedy forward
// admission with exact power re-evaluation). The cheap alternative is a
// one-shot analytic filter: score every SNP by its case/reference mean LR
// gap and keep everything below a fixed quantile, without re-checking the
// joint power. This bench compares running time, retained-SNP count, and -
// the reason the empirical search wins - the actual adversary power of the
// released subset.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "bench_common.hpp"
#include "genome/bitplanes.hpp"
#include "stats/lr_test.hpp"

namespace {

using namespace gendpr;
using namespace gendpr::bench;

struct LrInputs {
  stats::LrMatrix case_lr;
  stats::LrMatrix ref_lr;
};

LrInputs make_inputs(std::size_t cols) {
  const genome::Cohort& cohort = cohort_for(kPaperCasesHalf, 1000);
  const auto case_counts = cohort.cases.allele_counts();
  const auto ref_counts = cohort.controls.allele_counts();
  std::vector<std::uint32_t> snps(cols);
  std::iota(snps.begin(), snps.end(), 0u);
  std::vector<double> case_freq(cols), ref_freq(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    case_freq[i] = static_cast<double>(case_counts[i]) /
                   static_cast<double>(cohort.cases.num_individuals());
    ref_freq[i] = static_cast<double>(ref_counts[i]) /
                  static_cast<double>(cohort.controls.num_individuals());
  }
  const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);
  return {stats::build_lr_matrix(cohort.cases, snps, weights),
          stats::build_lr_matrix(cohort.controls, snps, weights)};
}

/// Power of a fixed column subset (exact, for judging both strategies).
double subset_power(const LrInputs& inputs,
                    const std::vector<std::uint32_t>& columns) {
  std::vector<double> case_scores(inputs.case_lr.rows(), 0.0);
  std::vector<double> ref_scores(inputs.ref_lr.rows(), 0.0);
  for (std::uint32_t c : columns) {
    for (std::size_t r = 0; r < inputs.case_lr.rows(); ++r) {
      case_scores[r] += inputs.case_lr.at(r, c);
    }
    for (std::size_t r = 0; r < inputs.ref_lr.rows(); ++r) {
      ref_scores[r] += inputs.ref_lr.at(r, c);
    }
  }
  return stats::detection_power(case_scores, ref_scores, 0.1, nullptr);
}

void BM_LrSelection_EmpiricalGreedy(benchmark::State& state) {
  const LrInputs inputs = make_inputs(state.range(0));
  stats::LrSelectionResult result;
  for (auto _ : state) {
    result = stats::select_safe_snps(inputs.case_lr, inputs.ref_lr,
                                     stats::LrSelectionParams{});
    benchmark::DoNotOptimize(result.safe_columns);
  }
  state.counters["retained"] =
      static_cast<double>(result.safe_columns.size());
  state.counters["power"] = subset_power(inputs, result.safe_columns);
}
BENCHMARK(BM_LrSelection_EmpiricalGreedy)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

// Packed-vs-bitplane comparison for the dense LR-matrix fill (the oracle and
// baseline path): per-element get() against the per-column bit-select.
void BM_LrBuild_PackedScalar(benchmark::State& state) {
  const genome::Cohort& cohort = cohort_for(kPaperCasesHalf, 1000);
  const std::size_t cols = state.range(0);
  const auto case_counts = cohort.cases.allele_counts();
  const auto ref_counts = cohort.controls.allele_counts();
  std::vector<std::uint32_t> snps(cols);
  std::iota(snps.begin(), snps.end(), 0u);
  std::vector<double> case_freq(cols), ref_freq(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    case_freq[i] = static_cast<double>(case_counts[i]) /
                   static_cast<double>(cohort.cases.num_individuals());
    ref_freq[i] = static_cast<double>(ref_counts[i]) /
                  static_cast<double>(cohort.controls.num_individuals());
  }
  const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);
  for (auto _ : state) {
    const stats::LrMatrix lr =
        stats::build_lr_matrix(cohort.cases, snps, weights);
    benchmark::DoNotOptimize(lr);
  }
}
BENCHMARK(BM_LrBuild_PackedScalar)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_LrBuild_Bitplane(benchmark::State& state) {
  const genome::Cohort& cohort = cohort_for(kPaperCasesHalf, 1000);
  const std::size_t cols = state.range(0);
  const genome::BitPlanes planes(cohort.cases);
  const auto& case_counts = planes.allele_counts();
  const auto ref_counts = cohort.controls.allele_counts();
  std::vector<std::uint32_t> snps(cols);
  std::iota(snps.begin(), snps.end(), 0u);
  std::vector<double> case_freq(cols), ref_freq(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    case_freq[i] = static_cast<double>(case_counts[i]) /
                   static_cast<double>(planes.num_individuals());
    ref_freq[i] = static_cast<double>(ref_counts[i]) /
                  static_cast<double>(cohort.controls.num_individuals());
  }
  const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);
  for (auto _ : state) {
    const stats::LrMatrix lr = stats::build_lr_matrix(planes, snps, weights);
    benchmark::DoNotOptimize(lr);
  }
}
BENCHMARK(BM_LrBuild_Bitplane)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_LrSelection_AnalyticOneShot(benchmark::State& state) {
  const LrInputs inputs = make_inputs(state.range(0));
  std::vector<std::uint32_t> retained;
  for (auto _ : state) {
    // Per-SNP identifying gap, then keep the lowest 90%.
    const std::size_t cols = inputs.case_lr.cols();
    std::vector<double> gap(cols, 0.0);
    for (std::size_t c = 0; c < cols; ++c) {
      double case_mean = 0.0, ref_mean = 0.0;
      for (std::size_t r = 0; r < inputs.case_lr.rows(); ++r) {
        case_mean += inputs.case_lr.at(r, c);
      }
      for (std::size_t r = 0; r < inputs.ref_lr.rows(); ++r) {
        ref_mean += inputs.ref_lr.at(r, c);
      }
      gap[c] = case_mean / static_cast<double>(inputs.case_lr.rows()) -
               ref_mean / static_cast<double>(inputs.ref_lr.rows());
    }
    std::vector<double> sorted_gap = gap;
    std::sort(sorted_gap.begin(), sorted_gap.end());
    const double cutoff = sorted_gap[(cols * 9) / 10];
    retained.clear();
    for (std::size_t c = 0; c < cols; ++c) {
      if (gap[c] <= cutoff) retained.push_back(static_cast<std::uint32_t>(c));
    }
    benchmark::DoNotOptimize(retained);
  }
  state.counters["retained"] = static_cast<double>(retained.size());
  state.counters["power"] = subset_power(inputs, retained);
}
BENCHMARK(BM_LrSelection_AnalyticOneShot)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
