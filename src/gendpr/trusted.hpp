// Trusted GenDPR modules (run inside the per-GDO enclaves).
//
// `GdoEnclave` is the member-side trusted module of Fig. 2: it holds the
// GDO's local case genotypes (which never leave it in plaintext) and answers
// the leader's phase requests with intermediate aggregates. `Coordinator` is
// the leader-side coordination module: it aggregates member inputs with its
// own local data and the public reference panel, runs the MAF / LD / LR-test
// decisions per honest-subset combination (§5.6), and intersects the
// per-combination survivor lists.
//
// All methods take and return plaintext protocol messages; the untrusted
// host (session.hpp and its driver) moves only SecureChannel ciphertext.
// The split mirrors the paper's enclave boundary: decisions happen here,
// transport out there.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/coro.hpp"
#include "common/error.hpp"
#include "gendpr/config.hpp"
#include "gendpr/messages.hpp"
#include "genome/bitplanes.hpp"
#include "genome/genotype.hpp"
#include "genome/tile_plan.hpp"
#include "obs/observability.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"
#include "tee/enclave.hpp"

namespace gendpr::core {

/// Name/version measured into every GenDPR trusted module. All federation
/// enclaves must run this exact module to pass mutual attestation.
inline constexpr const char* kTrustedModuleName = "gendpr.trusted";
inline constexpr const char* kTrustedModuleVersion = "1.0.0";

tee::Measurement trusted_module_measurement();

/// Member-side trusted module.
class GdoEnclave : public tee::Enclave {
 public:
  GdoEnclave(tee::Platform& platform, std::uint32_t gdo_index);

  std::uint32_t gdo_index() const noexcept { return gdo_index_; }

  /// Loads the GDO's local case genotypes into the enclave (models decrypting
  /// the sealed local dataset) and transposes them into the SNP-major bit
  /// planes, the enclave's only genotype layout. The packed input is charged
  /// against the EPC meter while the planes are built and freed with its
  /// charge afterwards; the planes stay charged.
  common::Status provision_dataset(genome::GenotypeMatrix cases);

  const genome::BitPlanes& planes() const noexcept { return planes_; }

  /// --- protocol handlers (member role) ---
  common::Status on_study_announce(const StudyAnnounce& announce);
  SummaryStats make_summary_stats() const;
  /// Per-tile summary for the pipelined phase 1: the allele counts of SNPs
  /// [snp_begin, snp_end), read straight from the bit-plane count cache
  /// through a zero-copy tile view (never recounted).
  SummaryStats make_summary_tile(std::uint32_t snp_begin,
                                 std::uint32_t snp_end,
                                 std::uint32_t tile_index) const;
  common::Status on_phase1(const Phase1Result& result);
  common::Result<MomentsResponse> on_moments_request(
      const MomentsRequest& request) const;
  /// Answers the phase-2 broadcast with this GDO's bit planes over L''
  /// (paper Fig. 4 step 2), one reply whatever the number of combinations.
  /// Each live combination containing this GDO derives its LR weights
  /// locally from the announce's combination list and the per-GDO counts;
  /// a column whose two weights are bitwise equal in all of them travels
  /// as zero words (see LrBits). The reply buffer is charged against the
  /// EPC meter while it is built.
  common::Result<LrBits> on_phase2(const Phase2Result& result);
  common::Status on_phase3(const Phase3Result& result);

  const std::vector<std::uint32_t>& retained_after_phase1() const noexcept {
    return l_prime_;
  }
  const std::vector<std::uint32_t>& safe_snps() const noexcept {
    return l_safe_;
  }
  bool study_complete() const noexcept { return study_complete_; }

  /// Persists the study progress outside the enclave via the platform's
  /// sealing mechanism (§4: "a TEE data-sealing mechanism is used to store
  /// data persistently outside the TEE"). Only an enclave with the same
  /// measurement on the same platform can restore it.
  common::Bytes seal_study_checkpoint();
  common::Status restore_study_checkpoint(common::BytesView sealed);

 private:
  std::uint32_t gdo_index_;
  genome::BitPlanes planes_;
  tee::EpcAllocation planes_epc_;

  std::optional<StudyAnnounce> announce_;
  std::vector<std::uint32_t> l_prime_;
  std::vector<std::uint32_t> l_double_prime_;
  std::vector<std::uint32_t> l_safe_;
  bool study_complete_ = false;
};

/// Aggregated per-phase outcome of a coordinated study.
struct SelectionOutcome {
  std::vector<std::uint32_t> l_prime;
  std::vector<std::uint32_t> l_double_prime;
  std::vector<std::uint32_t> l_safe;
  double final_power = 0.0;
};

/// Work bookkeeping of the intersection-aware combination sweep. The
/// mask-size trajectories record the running intersection's size after
/// each evaluated combination, in evaluation order (smallest case
/// population first); each is non-increasing by construction. Phase-1
/// entries are summed across tiles, so entry i is the total number of SNPs
/// still alive everywhere after the i-th combination folded in.
struct PruningStats {
  std::vector<std::uint32_t> maf_mask_sizes;
  std::vector<std::uint32_t> ld_mask_sizes;
  std::vector<std::uint32_t> lr_mask_sizes;
  /// Phase-1 restarts forced by the death of a combination whose kills were
  /// already folded into the mask (the fold must forget them).
  std::uint64_t maf_reassessments = 0;
  /// LD-phase pass restarts for the same reason (a walk's MissingMomentsError
  /// marks a GDO dead mid-pass).
  std::uint64_t ld_reassessments = 0;
  /// Combinations whose LD walk / LR selection was skipped outright because
  /// the running intersection was already empty.
  std::uint64_t ld_walks_skipped = 0;
  std::uint64_t lr_selections_skipped = 0;
};

/// Leader-side coordination module. Owns the reference panel (public data,
/// kept as bit planes charged to the leader's EPC for the coordinator's
/// lifetime) and the leader GDO's own enclave for its local dataset.
///
/// Every phase runs the intersection-aware sweep of §5.6's combinations:
/// live combinations are evaluated smallest case population first and the
/// per-phase intersection is folded eagerly, so work that provably cannot
/// change the released sets is skipped — the MAF pass evaluates only SNPs
/// still in the running mask, chi² ranks cover L' only, LD walks stop once
/// every running-intersection member's fate is decided, and an emptied
/// intersection skips the remaining walks and selections. L', L'' and
/// L_safe equal evaluating every combination in full and intersecting.
class Coordinator {
 public:
  /// `fetch_moments(request, targets)` must query exactly the member GDOs
  /// listed in `targets` (never the leader) for the requested pair and
  /// return their moments indexed by GDO index (other slots empty). The
  /// host implements it with a send/gather over the secure channels; a
  /// member that cannot be reached keeps an empty slot (and the host marks
  /// the peer lost as usual). The coordinator targets only the members of
  /// the combination at hand whose slot for the pair is still empty.
  using FetchMoments = std::function<std::vector<std::optional<stats::LdMoments>>(
      const MomentsRequest&, const std::vector<std::uint32_t>&)>;

  /// Sans-IO form of FetchMoments: returns a Task so the protocol session
  /// can suspend the LD phase mid-walk while member responses are in flight
  /// (the event-loop driver resumes it frame by frame). Same contract
  /// otherwise. The blocking FetchMoments overload of run_ld_phase adapts
  /// onto this one.
  using AsyncFetchMoments =
      std::function<common::Task<std::vector<std::optional<stats::LdMoments>>>(
          const MomentsRequest&, const std::vector<std::uint32_t>&)>;

  Coordinator(GdoEnclave& leader_enclave,
              const genome::GenotypeMatrix& reference, std::uint32_t num_gdos,
              StudyAnnounce announce);

  const StudyAnnounce& announce() const noexcept { return announce_; }

  /// Outcome of charging the reference planes to the leader's EPC at
  /// construction (capacity_exceeded when they do not fit). run_maf_phase
  /// fails with it; the leader session checks it before provisioning.
  const common::Status& provision_status() const noexcept {
    return provision_status_;
  }

  /// Attaches the run's observability bundle. Each analysis phase then opens
  /// a span under `study_span` with one child span per evaluated combination
  /// ("<phase>.combination.<id>"), and records evaluation counters. Pass
  /// nullptr (the default state) to run unobserved.
  void set_observability(obs::Observability* obs,
                         obs::SpanId study_span = obs::kNoSpan) noexcept {
    obs_ = obs;
    study_span_ = study_span;
  }

  /// --- Liveness (degraded mode) ---
  /// Marks a GDO as unresponsive: every later phase skips combinations
  /// containing it instead of stalling on its missing contributions. The
  /// leader itself cannot be marked dead. Not thread-safe; call from the
  /// protocol thread only.
  common::Status mark_gdo_dead(std::uint32_t gdo_index);
  const std::set<std::uint32_t>& dead_gdos() const noexcept {
    return dead_gdos_;
  }
  /// True when no member of combination `combination_id` is marked dead.
  bool combination_live(std::size_t combination_id) const;
  std::size_t live_combination_count() const;
  /// Sum of |members(c)| over the live combinations.
  std::size_t combination_members_total() const;

  /// Builds the combination table for a policy (shared by runner and tests).
  static std::vector<std::vector<std::uint32_t>> build_combinations(
      std::uint32_t num_gdos, const CollusionPolicy& policy);

  /// --- Tiling ---
  /// Phase-1 plan over the announced SNP range (fixed by the announce).
  const genome::TilePlan& maf_plan() const noexcept { return maf_plan_; }

  /// --- Phase 1 ---
  /// Ingests one summary tile from `gdo_index` (the whole vector when
  /// tiling is off). Tiles may arrive in any order across GDOs; per GDO
  /// each tile arrives once and n_case must be consistent across tiles.
  common::Status add_summary(std::uint32_t gdo_index,
                             const SummaryStats& stats);
  bool phase1_ready() const noexcept;
  /// Pipelined MAF assessment: assesses every not-yet-assessed tile whose
  /// summaries arrived from all live members, in ascending tile order, and
  /// returns how many tiles were assessed. The host calls this after each
  /// summary arrival so the leader evaluates tile k while members stream
  /// tile k+1; run_maf_phase finishes whatever remains. Appending per-tile
  /// masks in tile order keeps L' sorted and independent of the tile
  /// width.
  std::size_t assess_ready_maf_tiles();
  /// Runs per-combination MAF analysis and intersects (Alg. 1 lines 10-25).
  common::Result<Phase1Result> run_maf_phase();

  /// --- Phase 2 ---
  /// Runs the greedy LD walk for every combination (Alg. 1 lines 28-57),
  /// pulling member moments through `fetch` (cached per pair), and
  /// intersects the survivors. The walk is order-sequential (each pruning
  /// decision depends on every prior one), so phase 2 is not tiled; its
  /// per-pair messages are already O(1). The returned broadcast is also
  /// what phase 3 weighs the LR columns with.
  common::Result<Phase2Result> run_ld_phase(const FetchMoments& fetch);
  /// Canonical (sans-IO) LD phase: identical decisions, counters, and cache
  /// behavior to the blocking overload, but every member fetch suspends the
  /// returned task instead of blocking a thread. `fetch` is taken by value:
  /// the coroutine frame owns its copy across suspensions.
  common::Task<common::Result<Phase2Result>> run_ld_phase_async(
      AsyncFetchMoments fetch);

  /// --- Phase 3 ---
  /// Stores one member's bit planes over L'' (valid after run_ld_phase).
  /// Each live member GDO answers once; replies from unknown, dead or
  /// already-answered GDOs, and word counts other than
  /// |L''| * plane_words(n_case) are rejected. The words stay charged to
  /// the leader's EPC until run_lr_phase ends.
  common::Status add_lr_bits(std::uint32_t gdo_index, LrBits bits);
  bool phase3_ready() const noexcept;
  /// Runs the safe-subset selection per live combination in evaluation
  /// order and folds the intersection. Each selection reads its columns
  /// straight from the planes: the members' in ascending GDO order (the
  /// leader's own and the received ones), then the reference panel's. The
  /// selection's working vectors are charged to the leader's EPC while it
  /// runs; the received bits are freed at the end.
  common::Result<Phase3Result> run_lr_phase();

  const SelectionOutcome& outcome() const noexcept { return outcome_; }

  /// Count of distinct SNP pairs fetched during the LD phase (bandwidth
  /// accounting; cached pairs are fetched once).
  std::size_t ld_pairs_fetched() const noexcept { return moments_cache_.size(); }

  /// Sweep work bookkeeping.
  const PruningStats& pruning_stats() const noexcept { return pruning_; }

 private:
  /// Per-pair cache slot: each GDO's moments for the pair (empty until
  /// fetched, and for GDOs that never answered).
  using PairMoments = std::vector<std::optional<stats::LdMoments>>;

  common::Task<stats::LdMoments> aggregate_pair_async(
      const std::vector<std::uint32_t>& members, std::uint32_t a,
      std::uint32_t b, const AsyncFetchMoments& fetch);
  common::Error no_live_combination_error(const std::string& phase) const;
  /// Chi-squared association p-values for the combination's pooled cases vs
  /// the reference, computed for the L' members only — the LD walk reads
  /// no others; the rest stay 1.
  std::vector<double> combination_chi2_p_values(
      const std::vector<std::uint32_t>& members) const;
  bool maf_tile_ready(std::uint32_t tile) const;
  void assess_maf_tile(std::uint32_t tile);
  /// Pooled case population of combination `c` (phase-1 summaries must have
  /// arrived; every live member's n_case is known before any tile is
  /// assessed).
  std::uint64_t combination_case_population(std::size_t c) const;
  /// Live combinations ordered smallest case population first (ties by id):
  /// the evaluation order of the sweep — small cohorts produce the most
  /// MAF/LD kills, so the intersection shrinks as early as possible.
  std::vector<std::size_t> pruning_order() const;
  /// Drops every folded phase-1 mask and re-assesses all tiles already
  /// assessed, over the currently-live combination set.
  void reassess_maf_tiles();

  GdoEnclave* leader_;
  genome::BitPlanes reference_planes_;
  tee::EpcAllocation reference_epc_;
  common::Status provision_status_;
  std::uint32_t num_gdos_;
  StudyAnnounce announce_;

  // Observability (may be null: unobserved run).
  obs::Observability* obs_ = nullptr;
  obs::SpanId study_span_ = obs::kNoSpan;

  // Liveness state: GDOs declared unresponsive by the host protocol layer.
  std::set<std::uint32_t> dead_gdos_;

  // Tiling (phase 1 only). The plan is fixed by the announce; the phase
  // span opens lazily (first tile assessed mid-gather) and closes when the
  // phase finishes.
  genome::TilePlan maf_plan_;
  std::optional<obs::ScopedSpan> maf_span_;

  // Phase 1 state. Summaries assemble tile by tile into full-width vectors;
  // summary_tiles_[g][k] tracks which tiles of GDO g have arrived.
  std::vector<std::optional<SummaryStats>> summaries_;  // per GDO
  std::vector<std::vector<bool>> summary_tiles_;
  std::vector<std::uint32_t> reference_counts_;
  /// L' assembled in ascending tile order: each assessed tile's mask after
  /// every live combination folded in.
  std::vector<std::uint32_t> maf_fold_;
  std::uint32_t next_maf_tile_ = 0;
  /// Combinations whose kills were folded into any tile mask.
  /// If one of them later dies its kills are wrong to keep, so run_maf_phase
  /// re-assesses from scratch over the live set.
  std::vector<bool> maf_mask_contributors_;

  // Intersection-aware sweep bookkeeping.
  PruningStats pruning_;

  // Phase 2 state.
  std::vector<std::uint32_t> l_prime_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, PairMoments>
      moments_cache_;  // per pair: per-GDO moments (absent for dead GDOs)
  std::map<std::pair<std::uint32_t, std::uint32_t>, stats::LdMoments>
      reference_moments_cache_;
  /// Monotone id for MomentsRequests (one per fetch round, not per pair).
  std::uint32_t next_moments_request_ = 0;

  // Phase 3 state.
  std::vector<std::uint32_t> l_double_prime_;
  /// The phase-2 broadcast (set by run_ld_phase): L'' with the per-GDO
  /// counts and reference frequencies every combination's weights come
  /// from.
  std::optional<Phase2Result> phase2_;
  /// A member's received planes over L'' and their EPC charge.
  struct MemberBits {
    std::vector<std::uint64_t> words;
    tee::EpcAllocation epc;
  };
  std::map<std::uint32_t, MemberBits> member_bits_;

  SelectionOutcome outcome_;
};

/// Intersection of sorted unique SNP lists (the per-phase intersection of
/// §5.6). Exposed for tests.
std::vector<std::uint32_t> intersect_sorted(
    const std::vector<std::vector<std::uint32_t>>& lists);

}  // namespace gendpr::core
