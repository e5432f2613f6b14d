#include "gendpr/trusted.hpp"

#include <algorithm>
#include <bit>

#include "common/combinatorics.hpp"
#include "wire/serialize.hpp"
#include "stats/association.hpp"

namespace gendpr::core {

using common::Errc;
using common::make_error;
using common::Result;
using common::Status;

tee::Measurement trusted_module_measurement() {
  return tee::measure(kTrustedModuleName, kTrustedModuleVersion);
}

// ---------------------------------------------------------------------------
// GdoEnclave
// ---------------------------------------------------------------------------

GdoEnclave::GdoEnclave(tee::Platform& platform, std::uint32_t gdo_index)
    : tee::Enclave(platform, kTrustedModuleName, kTrustedModuleVersion),
      gdo_index_(gdo_index) {}

Status GdoEnclave::provision_dataset(genome::GenotypeMatrix cases) {
  // The packed input is enclave-resident only until the planes are built.
  const auto packed_epc = reserve_epc(cases.storage_bytes());
  if (!packed_epc.ok()) return packed_epc.error();
  genome::BitPlanes planes(cases);
  auto plane_allocation = reserve_epc(planes.storage_bytes());
  if (!plane_allocation.ok()) return plane_allocation.error();
  planes_epc_ = std::move(plane_allocation).take();
  planes_ = std::move(planes);
  return Status::success();
}

Status GdoEnclave::on_study_announce(const StudyAnnounce& announce) {
  if (announce.num_snps != planes_.num_snps()) {
    return make_error(Errc::invalid_argument,
                      "announced SNP count does not match local dataset");
  }
  for (const auto& combination : announce.combinations) {
    if (combination.empty()) {
      return make_error(Errc::bad_message, "empty combination in announce");
    }
  }
  announce_ = announce;
  l_prime_.clear();
  l_double_prime_.clear();
  l_safe_.clear();
  study_complete_ = false;
  return Status::success();
}

SummaryStats GdoEnclave::make_summary_stats() const {
  SummaryStats stats;
  stats.case_counts = planes_.allele_counts();
  stats.n_case = static_cast<std::uint32_t>(planes_.num_individuals());
  return stats;
}

SummaryStats GdoEnclave::make_summary_tile(std::uint32_t snp_begin,
                                           std::uint32_t snp_end,
                                           std::uint32_t tile_index) const {
  const genome::BitPlanes::TileView view = planes_.tile(snp_begin, snp_end);
  SummaryStats stats;
  stats.case_counts.assign(view.allele_counts(),
                           view.allele_counts() + view.num_snps());
  stats.n_case = static_cast<std::uint32_t>(planes_.num_individuals());
  stats.tile_index = tile_index;
  return stats;
}

Status GdoEnclave::on_phase1(const Phase1Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase1 before study announce");
  }
  for (std::uint32_t snp : result.retained) {
    if (snp >= announce_->num_snps) {
      return make_error(Errc::bad_message, "retained SNP out of range");
    }
  }
  l_prime_ = result.retained;
  return Status::success();
}

Result<MomentsResponse> GdoEnclave::on_moments_request(
    const MomentsRequest& request) const {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation,
                      "moments request before study announce");
  }
  if (request.snp_a >= planes_.num_snps() ||
      request.snp_b >= planes_.num_snps()) {
    return make_error(Errc::bad_message, "moments request SNP out of range");
  }
  MomentsResponse response;
  response.request_id = request.request_id;
  response.moments =
      stats::compute_ld_moments(planes_, request.snp_a, request.snp_b);
  return response;
}

Result<LrBits> GdoEnclave::on_phase2(const Phase2Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase2 before study announce");
  }
  const std::size_t num_gdos = result.case_counts_per_gdo.size();
  if (result.n_case_per_gdo.size() != num_gdos) {
    return make_error(Errc::bad_message,
                      "per-GDO population vector size mismatch");
  }
  if (gdo_index_ >= num_gdos) {
    return make_error(Errc::bad_message,
                      "per-GDO counts do not cover this GDO");
  }
  for (std::uint32_t snp : result.retained) {
    if (snp >= planes_.num_snps()) {
      return make_error(Errc::bad_message, "phase2 SNP out of range");
    }
  }
  if (result.reference_freq.size() != result.retained.size()) {
    return make_error(Errc::bad_message, "reference frequency size mismatch");
  }
  for (std::uint32_t dead : result.dead_gdos) {
    if (dead == gdo_index_) {
      return make_error(Errc::state_violation,
                        "leader declared this GDO dead yet keeps talking");
    }
  }
  // The leader cannot misattribute this GDO's contribution: its slot must
  // match the local dataset exactly (the counts it reported in phase 1,
  // restricted to L'').
  if (result.n_case_per_gdo[gdo_index_] != planes_.num_individuals() ||
      result.case_counts_per_gdo[gdo_index_] !=
          planes_.allele_counts(result.retained)) {
    return make_error(Errc::bad_message,
                      "per-GDO counts disagree with the local dataset");
  }
  l_double_prime_ = result.retained;

  // Pass 1: validate every co-member's count slot and collect the live
  // combinations containing this GDO (the only ones its bits feed).
  std::vector<bool> slot_checked(num_gdos, false);
  std::vector<std::size_t> own;
  for (std::size_t c = 0; c < announce_->combinations.size(); ++c) {
    const auto& members = announce_->combinations[c];
    if (std::find(members.begin(), members.end(), gdo_index_) ==
        members.end()) {
      continue;  // this GDO's data is not part of combination c
    }
    const bool combination_dead = std::any_of(
        result.dead_gdos.begin(), result.dead_gdos.end(),
        [&members](std::uint32_t dead) {
          return std::find(members.begin(), members.end(), dead) !=
                 members.end();
        });
    if (combination_dead) {
      continue;  // unresponsive member: the leader dropped this combination
    }
    for (std::uint32_t g : members) {
      if (g >= num_gdos) {
        return make_error(Errc::bad_message,
                          "combination member outside the per-GDO counts");
      }
      if (slot_checked[g]) continue;
      slot_checked[g] = true;
      if (result.case_counts_per_gdo[g].size() != result.retained.size()) {
        return make_error(Errc::bad_message,
                          "per-GDO count vector size mismatch");
      }
      for (std::uint32_t count : result.case_counts_per_gdo[g]) {
        if (count > result.n_case_per_gdo[g]) {
          return make_error(Errc::bad_message,
                            "allele count exceeds population size");
        }
      }
    }
    own.push_back(c);
  }

  // Pass 2: a column's bits travel only if some live combination holding
  // this GDO weighs its two genotype values differently; otherwise every
  // dense cell of the column is the same number and reveals no bit.
  std::vector<bool> informative(result.retained.size(), false);
  for (std::size_t c : own) {
    const stats::LrWeights weights = stats::lr_weights(
        result.combination_case_freq(announce_->combinations[c]),
        result.reference_freq);
    for (std::size_t i = 0; i < informative.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(weights.when_minor[i]) !=
          std::bit_cast<std::uint64_t>(weights.when_major[i])) {
        informative[i] = true;
      }
    }
  }
  const std::size_t words_per_plane = planes_.words_per_plane();
  const auto reply_epc = reserve_epc(result.retained.size() *
                                     words_per_plane * sizeof(std::uint64_t));
  if (!reply_epc.ok()) return reply_epc.error();
  LrBits reply;
  reply.words.assign(result.retained.size() * words_per_plane, 0);
  for (std::size_t i = 0; i < result.retained.size(); ++i) {
    if (!informative[i]) continue;
    std::copy_n(planes_.plane(result.retained[i]), words_per_plane,
                reply.words.begin() +
                    static_cast<std::ptrdiff_t>(i * words_per_plane));
  }
  return reply;
}

common::Bytes GdoEnclave::seal_study_checkpoint() {
  wire::Writer w;
  w.u8(study_complete_ ? 1 : 0);
  w.vector_u32(l_prime_);
  w.vector_u32(l_double_prime_);
  w.vector_u32(l_safe_);
  return seal(w.buffer());
}

Status GdoEnclave::restore_study_checkpoint(common::BytesView sealed) {
  auto plaintext = unseal(sealed);
  if (!plaintext.ok()) return plaintext.error();
  wire::Reader r(plaintext.value());
  auto complete = r.u8();
  if (!complete.ok()) return complete.error();
  auto l_prime = r.vector_u32();
  if (!l_prime.ok()) return l_prime.error();
  auto l_double_prime = r.vector_u32();
  if (!l_double_prime.ok()) return l_double_prime.error();
  auto l_safe = r.vector_u32();
  if (!l_safe.ok()) return l_safe.error();
  if (!r.exhausted()) {
    return make_error(Errc::bad_message, "trailing bytes in checkpoint");
  }
  study_complete_ = complete.value() != 0;
  l_prime_ = std::move(l_prime).take();
  l_double_prime_ = std::move(l_double_prime).take();
  l_safe_ = std::move(l_safe).take();
  return Status::success();
}

Status GdoEnclave::on_phase3(const Phase3Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase3 before study announce");
  }
  l_safe_ = result.safe;
  study_complete_ = true;
  return Status::success();
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> intersect_sorted(
    const std::vector<std::vector<std::uint32_t>>& lists) {
  if (lists.empty()) return {};
  std::vector<std::uint32_t> result = lists[0];
  for (std::size_t i = 1; i < lists.size(); ++i) {
    std::vector<std::uint32_t> next;
    std::set_intersection(result.begin(), result.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    result = std::move(next);
  }
  return result;
}

std::vector<std::vector<std::uint32_t>> Coordinator::build_combinations(
    std::uint32_t num_gdos, const CollusionPolicy& policy) {
  std::vector<std::vector<std::uint32_t>> combinations;
  auto add_for_f = [&](unsigned f) {
    const auto subsets = common::combinations(num_gdos, num_gdos - f);
    for (const auto& subset : subsets) {
      std::vector<std::uint32_t> members(subset.begin(), subset.end());
      combinations.push_back(std::move(members));
    }
  };
  switch (policy.mode) {
    case CollusionPolicy::Mode::none:
      add_for_f(0);
      break;
    case CollusionPolicy::Mode::fixed_f:
      add_for_f(std::min<unsigned>(policy.f, num_gdos - 1));
      break;
    case CollusionPolicy::Mode::all_f:
      for (unsigned f = 1; f < num_gdos; ++f) add_for_f(f);
      break;
  }
  return combinations;
}

namespace {
/// Thrown by aggregate_pair when a member response is absent; converted to a
/// protocol error at the run_ld_phase boundary.
struct MissingMomentsError {
  std::uint32_t gdo_index;
};
}  // namespace

Coordinator::Coordinator(GdoEnclave& leader_enclave,
                         const genome::GenotypeMatrix& reference,
                         std::uint32_t num_gdos, StudyAnnounce announce)
    : leader_(&leader_enclave),
      reference_planes_(reference),
      num_gdos_(num_gdos),
      announce_(std::move(announce)),
      summaries_(num_gdos) {
  // The panel is public, but the selection reads it inside the enclave.
  auto reference_epc = leader_->reserve_epc(reference_planes_.storage_bytes());
  if (reference_epc.ok()) {
    reference_epc_ = std::move(reference_epc).take();
  } else {
    provision_status_ = reference_epc.error();
  }
  reference_counts_ = reference_planes_.allele_counts();
  maf_plan_ = genome::TilePlan::over(announce_.num_snps,
                                     announce_.config.snp_tile_width);
  summary_tiles_.assign(
      num_gdos_, std::vector<bool>(maf_plan_.tile_count(), false));
  maf_mask_contributors_.assign(announce_.combinations.size(), false);
}

std::uint64_t Coordinator::combination_case_population(std::size_t c) const {
  std::uint64_t population = 0;
  for (std::uint32_t g : announce_.combinations[c]) {
    if (summaries_[g].has_value()) population += summaries_[g]->n_case;
  }
  return population;
}

std::vector<std::size_t> Coordinator::pruning_order() const {
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < announce_.combinations.size(); ++c) {
    if (combination_live(c)) order.push_back(c);
  }
  // Smallest pooled case population first: those cohorts see the lowest
  // counts, so their MAF filter and LD walk kill the most SNPs and the
  // running intersection collapses early. Ties (equal partitions are the
  // common case) fall back to combination id, keeping the order stable.
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return combination_case_population(a) <
                            combination_case_population(b);
                   });
  return order;
}

Status Coordinator::mark_gdo_dead(std::uint32_t gdo_index) {
  if (gdo_index >= num_gdos_) {
    return make_error(Errc::unknown_peer, "cannot mark unknown GDO dead");
  }
  if (gdo_index == leader_->gdo_index()) {
    return make_error(Errc::invalid_argument,
                      "the coordinating leader cannot be marked dead");
  }
  dead_gdos_.insert(gdo_index);
  return Status::success();
}

bool Coordinator::combination_live(std::size_t combination_id) const {
  for (std::uint32_t g : announce_.combinations[combination_id]) {
    if (dead_gdos_.count(g) > 0) return false;
  }
  return true;
}

std::size_t Coordinator::live_combination_count() const {
  std::size_t live = 0;
  for (std::size_t c = 0; c < announce_.combinations.size(); ++c) {
    if (combination_live(c)) ++live;
  }
  return live;
}

std::size_t Coordinator::combination_members_total() const {
  std::size_t total = 0;
  for (std::size_t c = 0; c < announce_.combinations.size(); ++c) {
    if (combination_live(c)) total += announce_.combinations[c].size();
  }
  return total;
}

common::Error Coordinator::no_live_combination_error(
    const std::string& phase) const {
  std::string message = phase;
  message +=
      " aborted: every combination contains an unresponsive GDO;"
      " dead gdo(s):";
  for (std::uint32_t g : dead_gdos_) {
    message += ' ';
    message += std::to_string(g);
  }
  return make_error(Errc::timeout, message);
}

Status Coordinator::add_summary(std::uint32_t gdo_index,
                                const SummaryStats& stats) {
  if (gdo_index >= num_gdos_) {
    return make_error(Errc::unknown_peer, "summary from unknown GDO");
  }
  if (stats.tile_index >= maf_plan_.tile_count()) {
    return make_error(Errc::bad_message, "summary tile index out of range");
  }
  if (stats.case_counts.size() != maf_plan_.width_of(stats.tile_index)) {
    return make_error(Errc::bad_message, "summary count vector wrong size");
  }
  for (std::uint32_t count : stats.case_counts) {
    if (count > stats.n_case) {
      return make_error(Errc::bad_message,
                        "allele count exceeds population size");
    }
  }
  if (summary_tiles_[gdo_index][stats.tile_index]) {
    return make_error(Errc::bad_message, "duplicate summary tile");
  }
  // Tiles assemble into one full-width summary; n_case rides along on every
  // tile and must never change mid-stream.
  auto& slot = summaries_[gdo_index];
  if (!slot.has_value()) {
    SummaryStats full;
    full.case_counts.assign(announce_.num_snps, 0);
    full.n_case = stats.n_case;
    slot = std::move(full);
  } else if (slot->n_case != stats.n_case) {
    return make_error(Errc::bad_message,
                      "population size differs across summary tiles");
  }
  std::copy(stats.case_counts.begin(), stats.case_counts.end(),
            slot->case_counts.begin() + maf_plan_.begin(stats.tile_index));
  summary_tiles_[gdo_index][stats.tile_index] = true;
  return Status::success();
}

bool Coordinator::phase1_ready() const noexcept {
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index()) continue;  // leader's summary is local
    if (dead_gdos_.count(g) > 0) continue;    // dead GDOs never report
    for (std::uint32_t k = 0; k < maf_plan_.tile_count(); ++k) {
      if (!summary_tiles_[g][k]) return false;
    }
  }
  return true;
}

bool Coordinator::maf_tile_ready(std::uint32_t tile) const {
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index()) continue;
    if (dead_gdos_.count(g) > 0) continue;
    if (!summary_tiles_[g][tile]) return false;
  }
  return true;
}

void Coordinator::assess_maf_tile(std::uint32_t tile) {
  if (!maf_span_.has_value()) {
    maf_span_.emplace(obs::recorder_of(obs_), "phase.maf", study_span_);
  }
  const obs::ScopedSpan tile_span(obs::recorder_of(obs_),
                                  "maf.tile." + std::to_string(tile),
                                  maf_span_->id());
  obs::add_counter(obs_, "coordinator.maf_tiles");
  const double cutoff = announce_.config.maf_cutoff;
  const std::uint32_t begin = maf_plan_.begin(tile);
  const std::uint32_t width = maf_plan_.width_of(tile);
  // The MAF decision is per SNP and independent of every other SNP, so a
  // SNP already killed by an earlier combination can never re-enter the
  // intersection — each later combination only evaluates the ids still
  // alive in this tile. The tile's final mask is therefore the intersection
  // of every live combination's full filter over the tile.
  std::vector<std::uint32_t> mask(width);
  for (std::uint32_t i = 0; i < width; ++i) mask[i] = begin + i;
  const auto order = pruning_order();
  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const std::size_t c = order[idx];
    obs::add_counter(obs_, "coordinator.maf_combinations");
    obs::add_counter(obs_, "coordinator.maf_snps_evaluated", mask.size());
    const auto& members = announce_.combinations[c];
    std::uint64_t n_total = reference_planes_.num_individuals();
    for (std::uint32_t g : members) n_total += summaries_[g]->n_case;
    std::vector<std::uint32_t> survivors;
    survivors.reserve(mask.size());
    for (std::uint32_t snp : mask) {
      std::uint64_t count = reference_counts_[snp];
      for (std::uint32_t g : members) {
        count += summaries_[g]->case_counts[snp];
      }
      if (stats::minor_allele_frequency(count, n_total) >= cutoff) {
        survivors.push_back(snp);
      }
    }
    mask = std::move(survivors);
    maf_mask_contributors_[c] = true;
    // The trajectory entry sums across tiles (tiles are assessed in order,
    // so position idx accumulates every tile's post-combination mask size).
    if (pruning_.maf_mask_sizes.size() <= idx) {
      pruning_.maf_mask_sizes.resize(idx + 1, 0);
    }
    pruning_.maf_mask_sizes[idx] +=
        static_cast<std::uint32_t>(mask.size());
  }
  maf_fold_.insert(maf_fold_.end(), mask.begin(), mask.end());
}

void Coordinator::reassess_maf_tiles() {
  // A combination whose kills are folded into the masks died: its filter
  // decisions must be forgotten, so every assessed tile re-runs over the
  // currently-live set. Summaries are retained full-width, so this is pure
  // recomputation — no member round trips.
  obs::add_counter(obs_, "coordinator.maf_reassessments");
  ++pruning_.maf_reassessments;
  maf_fold_.clear();
  maf_mask_contributors_.assign(announce_.combinations.size(), false);
  pruning_.maf_mask_sizes.clear();
  for (std::uint32_t tile = 0; tile < next_maf_tile_; ++tile) {
    assess_maf_tile(tile);
  }
}

std::size_t Coordinator::assess_ready_maf_tiles() {
  // The leader's own summary enters directly (no network round trip).
  if (!summaries_[leader_->gdo_index()].has_value()) {
    summaries_[leader_->gdo_index()] = leader_->make_summary_stats();
  }
  std::size_t assessed = 0;
  while (next_maf_tile_ < maf_plan_.tile_count() &&
         maf_tile_ready(next_maf_tile_)) {
    assess_maf_tile(next_maf_tile_);
    ++next_maf_tile_;
    ++assessed;
  }
  return assessed;
}

Result<Phase1Result> Coordinator::run_maf_phase() {
  if (!provision_status_.ok()) return provision_status_.error();
  assess_ready_maf_tiles();
  if (!phase1_ready() || next_maf_tile_ < maf_plan_.tile_count()) {
    maf_span_.reset();
    return make_error(Errc::state_violation,
                      "MAF phase before all summaries arrived");
  }
  // The eager masks are only valid over combinations still alive: if a
  // contributor died after folding in its kills, re-assess everything over
  // the live set (as if the dead combination had never been evaluated).
  for (std::size_t c = 0; c < announce_.combinations.size(); ++c) {
    if (maf_mask_contributors_[c] && !combination_live(c)) {
      reassess_maf_tiles();
      break;
    }
  }
  maf_span_.reset();
  // With every combination dead the fold means nothing: a tile assessed
  // over an empty evaluation order keeps every SNP.
  if (live_combination_count() == 0) {
    return no_live_combination_error("MAF phase");
  }

  l_prime_ = maf_fold_;
  outcome_.l_prime = l_prime_;
  Phase1Result result;
  result.retained = l_prime_;
  return result;
}

std::vector<double> Coordinator::combination_chi2_p_values(
    const std::vector<std::uint32_t>& members) const {
  std::uint64_t n_case = 0;
  for (std::uint32_t g : members) n_case += summaries_[g]->n_case;
  const std::uint64_t n_ref = reference_planes_.num_individuals();
  std::vector<double> p_values(announce_.num_snps, 1.0);
  for (std::uint32_t l : l_prime_) {
    std::uint64_t case_minor = 0;
    for (std::uint32_t g : members) case_minor += summaries_[g]->case_counts[l];
    const stats::SinglewiseTable table{case_minor, n_case,
                                       reference_counts_[l], n_ref};
    p_values[l] = stats::chi2_p_value(table);
  }
  obs::add_counter(obs_, "coordinator.chi2_values_computed", l_prime_.size());
  return p_values;
}

common::Task<stats::LdMoments> Coordinator::aggregate_pair_async(
    const std::vector<std::uint32_t>& members, std::uint32_t a,
    std::uint32_t b, const AsyncFetchMoments& fetch) {
  const auto key = std::make_pair(a, b);
  auto cached = moments_cache_.find(key);
  if (cached == moments_cache_.end()) {
    PairMoments entry(num_gdos_);
    // The leader computes its own moments locally (word-parallel planes).
    entry[leader_->gdo_index()] =
        stats::compute_ld_moments(leader_->planes(), a, b);
    cached = moments_cache_.emplace(key, std::move(entry)).first;
    reference_moments_cache_.emplace(
        key, stats::compute_ld_moments(reference_planes_, a, b));
  }
  const PairMoments& entry = cached->second;
  // Fetch lazily: only the combination at hand, so pairs resolved before
  // the intersection dies never pull moments from uninvolved members. A
  // slot that is still empty for a live member gets a targeted (re)fetch
  // before the aggregation may fail: a stale hole left by an earlier
  // mid-walk death (the fetch round that created the entry lost a
  // different member) would otherwise re-throw MissingMomentsError forever
  // and falsely kill a healthy GDO.
  std::vector<std::uint32_t> targets;
  for (std::uint32_t g : members) {
    if (g == leader_->gdo_index()) continue;
    if (dead_gdos_.count(g) > 0) continue;
    if (!entry[g].has_value()) targets.push_back(g);
  }
  if (!targets.empty()) {
    MomentsRequest request;
    request.request_id = next_moments_request_++;
    request.snp_a = a;
    request.snp_b = b;
    std::vector<std::optional<stats::LdMoments>> fetched =
        co_await fetch(request, targets);
    fetched.resize(num_gdos_);
    // The fetch may have suspended; re-resolve the cache slot in case the
    // driver touched other pairs meanwhile (map nodes are stable, but stay
    // defensive against a future cache policy).
    PairMoments& slot = moments_cache_.at(key);
    for (std::uint32_t g : targets) {
      if (fetched[g].has_value()) slot[g] = fetched[g];
    }
    obs::add_counter(obs_, "coordinator.ld_member_requests", targets.size());
  }
  const PairMoments& final_entry = moments_cache_.at(key);
  stats::LdMoments total = reference_moments_cache_.at(key);
  for (std::uint32_t g : members) {
    if (!final_entry[g].has_value()) {
      // A missing response from a combination member must never silently
      // skew the aggregate with zero moments: the walk for this combination
      // aborts (run_ld_phase marks the GDO dead and drops the combination).
      throw MissingMomentsError{g};
    }
    total += *final_entry[g];
  }
  co_return total;
}

Result<Phase2Result> Coordinator::run_ld_phase(const FetchMoments& fetch) {
  // Adapt the blocking callback onto the canonical sans-IO phase: nothing in
  // the adapted chain ever suspends, so run_sync drives it to completion on
  // this stack (trusted-module tests and local baselines use this path).
  return common::run_sync(run_ld_phase_async(
      [&fetch](const MomentsRequest& request,
               const std::vector<std::uint32_t>& targets)
          -> common::Task<std::vector<std::optional<stats::LdMoments>>> {
        co_return fetch(request, targets);
      }));
}

common::Task<Result<Phase2Result>> Coordinator::run_ld_phase_async(
    AsyncFetchMoments fetch) {
  const obs::ScopedSpan phase_span(obs::recorder_of(obs_), "phase.ld",
                                   study_span_);
  // The greedy walk is order-sequential, so a combination's walk must still
  // run over all of L' — restricting it to the running intersection would
  // change anchor trajectories. What IS exact: (a) chi-squared ranking
  // restricted to L' (the walk reads no other entry), (b) truncating each
  // walk once its anchor passes the largest id still in the running
  // intersection I — every element of I has its fate decided by then and
  // the walk's tail cannot affect I ∩ R, (c) skipping the remaining
  // combinations outright when I is empty, and (d) fetching pair moments
  // only from the members of the combination at hand. A pass restarts when
  // a walk's MissingMomentsError kills a GDO mid-phase: the fold may hold
  // kills from combinations now dead, and re-walking live combinations is
  // pure cache-warm recomputation.
  std::vector<std::uint32_t> fold;
  for (;;) {
    const auto order = pruning_order();
    if (order.empty()) {
      co_return no_live_combination_error("LD phase");
    }
    fold = l_prime_;
    pruning_.ld_mask_sizes.clear();
    bool pass_ok = true;
    for (std::size_t idx = 0; idx < order.size(); ++idx) {
      if (fold.empty()) {
        const std::uint64_t skipped = order.size() - idx;
        pruning_.ld_walks_skipped += skipped;
        obs::add_counter(obs_, "coordinator.ld_walks_skipped", skipped);
        break;
      }
      const std::size_t c = order[idx];
      const obs::ScopedSpan combination_span(
          obs::recorder_of(obs_), "ld.combination." + std::to_string(c),
          phase_span.id());
      obs::add_counter(obs_, "coordinator.ld_combinations");
      const auto& members = announce_.combinations[c];
      try {
        const std::vector<double> p_values =
            combination_chi2_p_values(members);
        auto pair_p_value = [this, &members, &fetch](
                                std::uint32_t a,
                                std::uint32_t b) -> common::Task<double> {
          co_return stats::ld_p_value(
              co_await aggregate_pair_async(members, a, b, fetch));
        };
        const std::vector<std::uint32_t> walked =
            co_await stats::greedy_ld_prune_async(
                l_prime_, announce_.config.ld_cutoff, p_values, pair_p_value,
                fold.back());
        fold = intersect_sorted({fold, walked});
        pruning_.ld_mask_sizes.push_back(
            static_cast<std::uint32_t>(fold.size()));
      } catch (const MissingMomentsError& missing) {
        // The GDO went silent mid-walk: declare it dead and restart the
        // pass over the combinations that do not need its data.
        dead_gdos_.insert(missing.gdo_index);
        pass_ok = false;
        break;
      }
    }
    if (pass_ok) break;
    obs::add_counter(obs_, "coordinator.ld_reassessments");
    ++pruning_.ld_reassessments;
  }
  l_double_prime_ = std::move(fold);
  outcome_.l_double_prime = l_double_prime_;
  obs::add_counter(obs_, "coordinator.ld_pairs_fetched",
                   moments_cache_.size());

  Phase2Result result;
  result.retained = l_double_prime_;
  result.reference_freq.resize(l_double_prime_.size());
  const std::uint64_t n_ref = reference_planes_.num_individuals();
  for (std::size_t i = 0; i < l_double_prime_.size(); ++i) {
    result.reference_freq[i] =
        n_ref == 0 ? 0.0
                   : static_cast<double>(
                         reference_counts_[l_double_prime_[i]]) /
                         static_cast<double>(n_ref);
  }
  // Per-GDO counts over L'' instead of per-combination frequency vectors:
  // O(G·m) on the wire instead of O(C·m); members derive any combination's
  // frequencies locally. Dead GDOs keep an empty slot so indices stay
  // stable.
  result.case_counts_per_gdo.resize(num_gdos_);
  result.n_case_per_gdo.assign(num_gdos_, 0);
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (dead_gdos_.count(g) > 0 || !summaries_[g].has_value()) continue;
    auto& counts = result.case_counts_per_gdo[g];
    counts.resize(l_double_prime_.size());
    for (std::size_t i = 0; i < l_double_prime_.size(); ++i) {
      counts[i] = summaries_[g]->case_counts[l_double_prime_[i]];
    }
    result.n_case_per_gdo[g] = summaries_[g]->n_case;
  }
  result.dead_gdos.assign(dead_gdos_.begin(), dead_gdos_.end());
  phase2_ = result;
  co_return result;
}

Status Coordinator::add_lr_bits(std::uint32_t gdo_index, LrBits bits) {
  if (gdo_index >= num_gdos_ || gdo_index == leader_->gdo_index()) {
    return make_error(Errc::unknown_peer, "LR bits from unknown GDO");
  }
  if (!phase2_.has_value()) {
    return make_error(Errc::state_violation, "LR bits before LD phase");
  }
  if (dead_gdos_.count(gdo_index) > 0) {
    return make_error(Errc::state_violation, "LR bits from a dead GDO");
  }
  if (member_bits_.count(gdo_index) > 0) {
    return make_error(Errc::bad_message, "duplicate LR bits");
  }
  if (bits.words.size() !=
      l_double_prime_.size() *
          genome::plane_words(summaries_[gdo_index]->n_case)) {
    return make_error(Errc::bad_message, "LR bits word count mismatch");
  }
  const std::uint64_t bytes = bits.words.size() * sizeof(std::uint64_t);
  auto epc = leader_->reserve_epc(bytes);
  if (!epc.ok()) return epc.error();
  obs::add_counter(obs_, "lr.bit_replies");
  obs::add_counter(obs_, "lr.bit_bytes_received", bytes);
  member_bits_.emplace(
      gdo_index, MemberBits{std::move(bits.words), std::move(epc).take()});
  return Status::success();
}

bool Coordinator::phase3_ready() const noexcept {
  if (!phase2_.has_value()) return false;
  // With an empty L'' there is nothing to broadcast and nothing to answer.
  if (l_double_prime_.empty()) return true;
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index() || dead_gdos_.count(g) > 0) continue;
    if (member_bits_.count(g) == 0) return false;
  }
  return true;
}

Result<Phase3Result> Coordinator::run_lr_phase() {
  const obs::ScopedSpan phase_span(obs::recorder_of(obs_), "phase.lr",
                                   study_span_);
  if (!phase3_ready()) {
    return make_error(Errc::state_violation,
                      "LR phase before all genotype bits arrived");
  }
  const auto order = pruning_order();
  if (order.empty()) return no_live_combination_error("LR phase");

  stats::LrSelectionParams params;
  params.false_positive_rate = announce_.config.lr_false_positive_rate;
  params.power_threshold = announce_.config.lr_power_threshold;
  const stats::LrBitBlock reference =
      stats::bit_block(reference_planes_, l_double_prime_);
  const std::size_t width = l_double_prime_.size();

  // Selects one combination's safe columns over all of L''.
  auto evaluate = [&](std::size_t c) -> Result<stats::LrSelectionResult> {
    const obs::ScopedSpan combination_span(
        obs::recorder_of(obs_), "lr.combination." + std::to_string(c),
        phase_span.id());
    obs::add_counter(obs_, "coordinator.lr_combinations");
    // An empty L'' was never broadcast: no bits arrived, none are needed.
    if (width == 0) return stats::LrSelectionResult{};
    // Case rows in ascending GDO order by construction: the centralized
    // row order.
    std::vector<stats::LrBitBlock> case_blocks;
    std::size_t case_rows = 0;
    for (std::uint32_t g : announce_.combinations[c]) {
      if (g == leader_->gdo_index()) {
        case_blocks.push_back(
            stats::bit_block(leader_->planes(), l_double_prime_));
      } else {
        const std::size_t rows = summaries_[g]->n_case;
        case_blocks.push_back({member_bits_.at(g).words.data(),
                               genome::plane_words(rows), rows, {}});
      }
      case_rows += case_blocks.back().rows;
    }
    // The weights the members derived, through the same helper.
    const stats::LrWeights weights = stats::lr_weights(
        phase2_->combination_case_freq(announce_.combinations[c]),
        phase2_->reference_freq);
    const auto working_epc = leader_->reserve_epc(
        stats::lr_selection_working_bytes(case_rows, reference.rows, width) +
        2 * width * sizeof(double));
    if (!working_epc.ok()) return working_epc.error();
    return stats::select_safe_snps(case_blocks, reference, weights, params);
  };

  // Eager fold over the evaluation order. Each selection still runs over
  // all of L'' (the greedy subset search is order-dependent, so column
  // restriction would change it); only the intersection is folded early,
  // and once it is empty the remaining selections cannot resurrect a SNP —
  // they are skipped outright. Skipping can leave final_power short of the
  // maximum over every live combination, but only when L_safe is already
  // empty.
  std::vector<std::uint32_t> fold = l_double_prime_;
  double max_power = 0.0;
  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    if (idx > 0 && fold.empty()) {
      const std::uint64_t skipped = order.size() - idx;
      pruning_.lr_selections_skipped += skipped;
      obs::add_counter(obs_, "lr.selections_skipped", skipped);
      break;
    }
    const auto evaluated = evaluate(order[idx]);
    if (!evaluated.ok()) return evaluated.error();
    const stats::LrSelectionResult& selection = evaluated.value();
    std::vector<std::uint32_t> safe;
    safe.reserve(selection.safe_columns.size());
    for (std::uint32_t column : selection.safe_columns) {
      safe.push_back(l_double_prime_[column]);
    }
    fold = intersect_sorted({fold, safe});
    pruning_.lr_mask_sizes.push_back(static_cast<std::uint32_t>(fold.size()));
    max_power = std::max(max_power, selection.final_power);
  }
  outcome_.l_safe = std::move(fold);
  outcome_.final_power = max_power;
  member_bits_.clear();
  Phase3Result result;
  result.safe = outcome_.l_safe;
  result.final_power = outcome_.final_power;
  return result;
}

}  // namespace gendpr::core
