// In-process helper of the benchmark (perfbench/run.py).
//
//   perfbench_trace reference <dir> --gdos G
//       Loads the workspace the way `gendpr release` does and runs the
//       single-enclave comparator (core::run_centralized). Prints one JSON
//       object: {"l_safe": [...], "centralized_ms": ...}. The driver checks
//       every f=0 release TSV against this set (the paper's Table 4
//       equivalence).
//
//   perfbench_trace trace <dir> --gdos G --f F --tile-width W --seed S
//                   --out FILE
//       The traced pass. Follows `gendpr release` step for step with a timer
//       around each call into a module's public functions, runs the study
//       with an obs::Observability bundle and reads its spans and counters,
//       then makes isolated stats/crypto calls on the study's own L'/L''.
//       Writes the release TSV to FILE (the driver byte-compares it with the
//       CLI's) and prints one JSON object of per-layer metrics.
//
// Both subcommands use the paper thresholds (the StudyConfig defaults), the
// epoll transport with one event loop, and the default EPC limit, as the
// driver passes to the CLI.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "crypto/aead.hpp"
#include "gendpr/baselines.hpp"
#include "gendpr/federation.hpp"
#include "gendpr/release.hpp"
#include "genome/bitplanes.hpp"
#include "genome/vcf_lite.hpp"
#include "obs/json.hpp"
#include "obs/observability.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"

namespace {

using namespace gendpr;
using common::Stopwatch;

struct Args {
  std::string command;
  std::string dir;
  std::uint32_t gdos = 3;
  unsigned f = 0;
  std::uint32_t tile_width = 0;
  std::uint64_t seed = 1;
  std::string out;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 3) return false;
  args.command = argv[1];
  args.dir = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--gdos") {
      args.gdos = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--f") {
      args.f = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--tile-width") {
      args.tile_width =
          static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return (argc - 3) % 2 == 0 && args.gdos > 0;
}

std::string slice_path(const Args& args, std::uint32_t g) {
  return args.dir + "/gdo" + std::to_string(g) + ".vcf";
}

std::string reference_path(const Args& args) {
  return args.dir + "/reference.vcf";
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_trace: %s\n", message.c_str());
  std::exit(1);
}

struct Workspace {
  std::vector<genome::GenotypeMatrix> slices;
  genome::GenotypeMatrix reference;
  double read_ms = 0;
  std::uint64_t file_bytes = 0;
};

// Step 1: read the slices and the reference, timing each read.
Workspace read_workspace(const Args& args) {
  Workspace ws;
  auto read_one = [&](const std::string& path) {
    const Stopwatch watch;
    auto vcf = genome::read_vcf_lite_file(path);
    ws.read_ms += watch.elapsed_ms();
    if (!vcf.ok()) die(path + ": " + vcf.error().to_string());
    ws.file_bytes += std::filesystem::file_size(path);
    return std::move(vcf.value().genotypes);
  };
  for (std::uint32_t g = 0; g < args.gdos; ++g) {
    ws.slices.push_back(read_one(slice_path(args, g)));
  }
  ws.reference = read_one(reference_path(args));
  return ws;
}

// Step 2: the driver's own copy of the CLI's merge (not reported).
genome::Cohort merge(const Workspace& ws) {
  std::size_t total = 0;
  for (const auto& slice : ws.slices) total += slice.num_individuals();
  const std::size_t snps = ws.reference.num_snps();
  genome::Cohort cohort;
  cohort.cases = genome::GenotypeMatrix(total, snps);
  std::size_t row = 0;
  for (const auto& slice : ws.slices) {
    if (slice.num_snps() != snps) die("slices disagree on the SNP count");
    for (std::size_t n = 0; n < slice.num_individuals(); ++n, ++row) {
      for (std::size_t l = 0; l < snps; ++l) {
        cohort.cases.set(row, l, slice.get(n, l));
      }
    }
  }
  cohort.controls = ws.reference;
  return cohort;
}

core::FederationSpec federation_spec(const Args& args,
                                     obs::Observability* obs) {
  core::FederationSpec spec;
  spec.num_gdos = args.gdos;
  spec.config.snp_tile_width = args.tile_width;
  spec.seed = args.seed;
  spec.obs = obs;
  spec.transport = core::FederationSpec::TransportMode::epoll;
  spec.event_loops = 1;
  spec.policy = core::CollusionPolicy::fixed(args.f);
  return spec;
}

obs::JsonValue snp_array(const std::vector<std::uint32_t>& snps) {
  obs::JsonValue out = obs::JsonValue::array();
  for (const std::uint32_t snp : snps) out.push_back(snp);
  return out;
}

struct Centralized {
  std::vector<std::uint32_t> l_safe;
  double ms = 0;
};

Centralized centralized(const genome::Cohort& cohort) {
  const Stopwatch watch;
  const core::BaselineResult result =
      core::run_centralized(cohort, core::StudyConfig{});
  return {result.outcome.l_safe, watch.elapsed_ms()};
}

int cmd_reference(const Args& args) {
  const Workspace ws = read_workspace(args);
  const Centralized ref = centralized(merge(ws));
  obs::JsonValue out = obs::JsonValue::object();
  out.set("l_safe", snp_array(ref.l_safe));
  out.set("centralized_ms", ref.ms);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---- span arithmetic -------------------------------------------------------

struct Interval {
  double begin = 0;
  double end = 0;
};

double union_length(std::vector<Interval> intervals, const Interval& clip) {
  for (auto& iv : intervals) {
    iv.begin = std::max(iv.begin, clip.begin);
    iv.end = std::min(iv.end, clip.end);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0;
  double reach = clip.begin;
  for (const auto& iv : intervals) {
    if (iv.end <= reach) continue;
    covered += iv.end - std::max(iv.begin, reach);
    reach = iv.end;
  }
  return covered;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct SpanSummary {
  double study_ms = 0;
  double provision_ms = 0;
  double handshake_ms = 0;
  double summaries_ms = 0;
  double ld_ms = 0;
  double gather_lr_ms = 0;
  double lr_derive_ms = 0;
  double select_ms = 0;
  double child_coverage_pct = 0;
  double coverage_pct = 0;
  double unattributed_ms = 0;
};

// Reads the spans run_federated_study recorded. The interval from the study
// span's start to the first step.handshake start has no span of its own
// (enclave provisioning); it is attributed to gendpr.provision_ms, and the
// rest of the study span that no direct child covers is unattributed.
SpanSummary summarize_spans(const std::vector<obs::Span>& spans) {
  SpanSummary s;
  const obs::Span* study = nullptr;
  for (const auto& span : spans) {
    if (span.name == "study" && span.parent == obs::kNoSpan) study = &span;
  }
  if (study == nullptr || study->duration_ms < 0) die("no closed study span");
  const Interval whole{study->start_ms, study->start_ms + study->duration_ms};
  s.study_ms = study->duration_ms;

  std::vector<Interval> children;
  double handshake_start = whole.end;
  for (const auto& span : spans) {
    const double d = std::max(span.duration_ms, 0.0);
    if (span.parent == study->id) {
      children.push_back({span.start_ms, span.start_ms + d});
    }
    if (span.name == "step.handshake") {
      s.handshake_ms += d;
      handshake_start = std::min(handshake_start, span.start_ms);
    } else if (span.name == "step.gather_summaries" ||
               span.name == "phase.maf" ||
               span.name == "step.broadcast_phase1") {
      s.summaries_ms += d;
    } else if (span.name == "phase.ld") {
      s.ld_ms += d;
    } else if (span.name == "step.gather_lr_matrices") {
      s.gather_lr_ms += d;
    } else if (starts_with(span.name, "lr.tile.")) {
      s.lr_derive_ms += d;
    } else if (starts_with(span.name, "lr.combination.")) {
      s.select_ms += d;
    }
  }
  s.provision_ms = handshake_start - whole.begin;
  const double child_cover = union_length(children, whole);
  children.push_back({whole.begin, handshake_start});
  const double cover = union_length(children, whole);
  s.child_coverage_pct = 100.0 * child_cover / s.study_ms;
  s.coverage_pct = 100.0 * cover / s.study_ms;
  s.unattributed_ms = s.study_ms - cover;
  return s;
}

// ---- isolated crypto timings -----------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Seals and opens `iterations` records of `size` bytes; returns the median
// nanoseconds per seal+open pair over five batches.
double seal_open_ns(const crypto::GcmContext& ctx, std::size_t size,
                    std::size_t iterations) {
  common::Bytes plain(size, 0x5a);
  common::Bytes sealed(size + crypto::kGcmTagSize);
  common::Bytes opened(size);
  crypto::GcmNonce nonce{};
  std::vector<double> batches;
  for (int batch = 0; batch < 5; ++batch) {
    const Stopwatch watch;
    for (std::size_t i = 0; i < iterations; ++i) {
      nonce[0] = static_cast<std::uint8_t>(i);
      ctx.seal_into(nonce, {}, plain, sealed.data());
      if (!ctx.open_into(nonce, {}, sealed, opened.data()).ok()) {
        die("AEAD round trip failed");
      }
    }
    batches.push_back(watch.elapsed_ms() * 1e6 /
                      static_cast<double>(iterations));
  }
  return median(batches);
}

// ---- the traced pass -------------------------------------------------------

std::uint64_t counter(const obs::Observability& o, const char* name) {
  return o.metrics.counter(name);
}

double gauge(const obs::Observability& o, const char* name) {
  return o.metrics.gauge(name).value_or(0.0);
}

double histogram_sum(const obs::Observability& o, const char* name) {
  const auto h = o.metrics.histogram(name);
  return h.has_value() ? h->sum : 0.0;
}

int cmd_trace(const Args& args) {
  if (args.out.empty()) die("trace needs --out FILE");
  obs::JsonValue m = obs::JsonValue::object();

  // 1. Read the slices and the reference (genome layer).
  const Workspace ws = read_workspace(args);
  m.set("genome.vcf_read_ms", ws.read_ms);
  m.set("genome.vcf_read_mb_per_s",
        static_cast<double>(ws.file_bytes) / 1e6 / (ws.read_ms / 1e3));

  // 2. Merge, as the CLI does (the driver's copy; not reported).
  const genome::Cohort cohort = merge(ws);

  // 3. The federated study with an observability bundle, plus two runs
  // without one for the bundle's overhead (ABBA order, so warm-up favours
  // neither side). Spans and counters come from the last observed run.
  obs::Observability first_bundle;
  obs::Observability observability;
  double observed_ms = 0;
  double unobserved_ms = 0;
  std::optional<core::StudyResult> latest;
  const std::array<obs::Observability*, 4> order = {
      &first_bundle, nullptr, nullptr, &observability};
  for (obs::Observability* bundle : order) {
    const Stopwatch watch;
    auto result =
        core::run_federated_study(cohort, federation_spec(args, bundle));
    (bundle == nullptr ? unobserved_ms : observed_ms) += watch.elapsed_ms();
    if (!result.ok()) die(result.error().to_string());
    if (latest.has_value() &&
        result.value().outcome.l_safe != latest->outcome.l_safe) {
      die("repeated studies released different L_safe sets");
    }
    latest = std::move(result.value());
  }
  const core::StudyResult& study = *latest;
  m.set("obs.overhead_pct",
        100.0 * (observed_ms - unobserved_ms) / unobserved_ms);

  const obs::Observability& o = observability;
  const SpanSummary spans = summarize_spans(o.trace.spans());
  m.set("gendpr.study_span_ms", spans.study_ms);
  m.set("gendpr.provision_ms", spans.provision_ms);
  m.set("gendpr.handshake_ms", spans.handshake_ms);
  m.set("gendpr.summaries_ms", spans.summaries_ms);
  m.set("gendpr.ld_ms", spans.ld_ms);
  m.set("gendpr.ld_wait_ms", histogram_sum(o, "leader.ld_fetch_wait_ms"));
  m.set("gendpr.ld_requests", counter(o, "coordinator.ld_member_requests"));
  m.set("gendpr.gather_lr_ms", spans.gather_lr_ms);
  m.set("gendpr.lr_derive_ms", spans.lr_derive_ms);
  m.set("gendpr.select_ms", spans.select_ms);
  m.set("gendpr.member_compute_ms", histogram_sum(o, "member.compute_ms"));
  m.set("gendpr.lr_matvecs", counter(o, "lr.combination_matvecs"));
  m.set("gendpr.combinations",
        static_cast<std::uint64_t>(study.num_combinations));
  m.set("gendpr.child_span_coverage_pct", spans.child_coverage_pct);
  m.set("gendpr.span_coverage_pct", spans.coverage_pct);
  m.set("gendpr.unattributed_ms", spans.unattributed_ms);

  m.set("wire.serializations", counter(o, "wire.serializations"));
  m.set("wire.records_sent", counter(o, "wire.records_sent"));
  m.set("net.messages", counter(o, "net.total_messages"));
  m.set("net.leader_rx_mb",
        static_cast<double>(study.leader_bytes_received) / 1e6);
  m.set("net.writev_batches", counter(o, "wire.writev_batches"));
  m.set("net.peak_queued_mb", gauge(o, "net.loop0.peak_queued_bytes") / 1e6);
  m.set("net.backpressure_pauses", counter(o, "net.backpressure.pauses"));
  m.set("net.pool_misses", counter(o, "net.pool.misses"));
  m.set("pool.tasks", counter(o, "pool.tasks_completed"));
  m.set("pool.task_wall_ms", gauge(o, "pool.task_wall_ms"));
  m.set("pool.threads", gauge(o, "pool.threads"));
  m.set("tee.epc_peak_leader_mb",
        static_cast<double>(study.epc_peak_leader) / 1e6);
  m.set("tee.epc_peak_member_mb",
        static_cast<double>(study.epc_peak_members_max) / 1e6);

  // 4a. Isolated genome and stats calls on the study's own L' / L''.
  Stopwatch watch;
  std::vector<genome::BitPlanes> slice_planes;
  for (const auto& slice : ws.slices) slice_planes.emplace_back(slice);
  const genome::BitPlanes ref_planes(ws.reference);
  m.set("genome.bitplanes_ms", watch.elapsed_ms());

  const auto& l_prime = study.outcome.l_prime;
  const auto& l_dprime = study.outcome.l_double_prime;
  std::vector<std::uint64_t> case_counts(ws.reference.num_snps(), 0);
  std::uint64_t n_case = 0;
  for (const auto& planes : slice_planes) {
    n_case += planes.num_individuals();
    for (std::size_t l = 0; l < case_counts.size(); ++l) {
      case_counts[l] += planes.allele_count(l);
    }
  }
  const auto n_ref = static_cast<double>(ref_planes.num_individuals());
  std::vector<double> case_freq;
  std::vector<double> ref_freq;
  for (const std::uint32_t snp : l_dprime) {
    case_freq.push_back(static_cast<double>(case_counts[snp]) /
                        static_cast<double>(n_case));
    ref_freq.push_back(static_cast<double>(ref_planes.allele_count(snp)) /
                       n_ref);
  }

  watch.restart();
  const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);
  std::vector<stats::LrMatrix> case_parts;
  for (const auto& planes : slice_planes) {
    case_parts.push_back(stats::build_lr_matrix(planes, l_dprime, weights));
  }
  const stats::LrMatrix ref_lr =
      stats::build_lr_matrix(ref_planes, l_dprime, weights);
  m.set("stats.lr_build_ms", watch.elapsed_ms());
  m.set("stats.lr_matrix_mb",
        static_cast<double>((n_case + ref_planes.num_individuals()) *
                            l_dprime.size() * sizeof(double)) /
            1e6);

  stats::LrMatrix case_lr(0, l_dprime.size());
  for (const auto& part : case_parts) case_lr.append_rows(part);
  case_parts.clear();
  stats::LrSelectionParams params;
  const core::StudyConfig config;
  params.false_positive_rate = config.lr_false_positive_rate;
  params.power_threshold = config.lr_power_threshold;
  watch.restart();
  const stats::LrSelectionResult selection =
      stats::select_safe_snps(case_lr, ref_lr, params);
  m.set("stats.select_ms", watch.elapsed_ms());
  m.set("stats.select_safe_count",
        static_cast<std::uint64_t>(selection.safe_columns.size()));

  watch.restart();
  double moments_sink = 0;
  for (std::size_t i = 0; i + 1 < l_prime.size(); ++i) {
    const std::uint32_t a = l_prime[i];
    const std::uint32_t b = l_prime[i + 1];
    for (const auto& planes : slice_planes) {
      moments_sink += stats::compute_ld_moments(planes, a, b).mu_xy;
    }
    moments_sink += stats::compute_ld_moments(ref_planes, a, b).mu_xy;
  }
  m.set("stats.ld_moments_ms", watch.elapsed_ms());
  if (moments_sink < 0) die("negative moment count");

  // 4b. Isolated crypto: throughput on 1 MiB records and the per-record cost
  // at the study's mean LD record size (the leader's outbound frames are
  // almost all LD moment requests).
  std::uint64_t leader_out_bytes = 0;
  std::uint64_t leader_out_messages = 0;
  const net::NodeId leader = core::node_id_of(study.leader_gdo);
  for (const auto& link : study.network_links) {
    if (link.from != leader) continue;
    leader_out_bytes += link.bytes;
    leader_out_messages += link.messages;
  }
  const std::size_t record_bytes =
      leader_out_messages == 0
          ? 64
          : std::max<std::size_t>(1, leader_out_bytes / leader_out_messages);
  const common::Bytes key(32, 0x42);
  const crypto::GcmContext ctx(key);
  const double mib_ns = seal_open_ns(ctx, 1 << 20, 8);
  const double mb_per_s = static_cast<double>(1 << 20) / 1e6 / (mib_ns / 1e9);
  const double record_ns = seal_open_ns(ctx, record_bytes, 20000);
  const double mb_sealed = static_cast<double>(study.crypto_bytes_sealed) / 1e6;
  m.set("crypto.records", study.crypto_records_sealed);
  m.set("crypto.mb_sealed", mb_sealed);
  m.set("crypto.seal_open_mb_per_s", mb_per_s);
  m.set("crypto.ld_record_bytes", static_cast<std::uint64_t>(record_bytes));
  m.set("crypto.seal_open_ns_per_record", record_ns);
  m.set("crypto.est_ms",
        static_cast<double>(study.crypto_records_sealed) * record_ns / 1e6 +
            mb_sealed / mb_per_s * 1e3);

  // 5. The release, as the CLI builds and writes it.
  watch.restart();
  core::ReleaseOptions options;
  options.dp_seed = args.seed;
  const core::Release release = core::build_release(
      cohort.cases, cohort.controls, study.outcome.l_safe, options);
  const std::string tsv = core::release_to_tsv(release);
  m.set("release.build_ms", watch.elapsed_ms());
  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) die("cannot open " + args.out);
  std::fwrite(tsv.data(), 1, tsv.size(), out);
  std::fclose(out);

  // The single-enclave comparator, for the driver's output checks.
  const Centralized ref = centralized(cohort);
  m.set("ref.centralized_ms", ref.ms);

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("metrics", std::move(m));
  doc.set("l_safe", snp_array(study.outcome.l_safe));
  doc.set("isolated_l_safe_size",
          static_cast<std::uint64_t>(selection.safe_columns.size()));
  doc.set("centralized_l_safe", snp_array(ref.l_safe));
  doc.set("kernel_backend", study.kernel_backend);
  doc.set("crypto_backend", study.crypto_backend);
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_trace reference <dir> --gdos G\n"
                 "       perfbench_trace trace <dir> --gdos G --f F "
                 "--tile-width W --seed S --out FILE\n");
    return 2;
  }
  if (args.command == "reference") return cmd_reference(args);
  if (args.command == "trace") return cmd_trace(args);
  std::fprintf(stderr, "perfbench_trace: unknown command %s\n",
               args.command.c_str());
  return 2;
}
