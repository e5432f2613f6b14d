#include "genome/vcf_lite.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "genome/cohort.hpp"

namespace gendpr::genome {
namespace {

VcfLite sample_vcf() {
  VcfLite vcf;
  vcf.snp_ids = {"rs1", "rs2", "rs3"};
  vcf.genotypes = GenotypeMatrix(2, 3);
  vcf.genotypes.set(0, 0, true);
  vcf.genotypes.set(1, 2, true);
  return vcf;
}

TEST(VcfLiteTest, WriteProducesExpectedText) {
  const std::string text = write_vcf_lite(sample_vcf());
  EXPECT_EQ(text,
            "##gendpr-vcf-lite v1\n"
            "##individuals=2\n"
            "##snps=3\n"
            "#ids rs1 rs2 rs3\n"
            "100\n"
            "001\n");
}

TEST(VcfLiteTest, RoundTrip) {
  const VcfLite original = sample_vcf();
  const auto parsed = read_vcf_lite(write_vcf_lite(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().snp_ids, original.snp_ids);
  EXPECT_EQ(parsed.value().genotypes, original.genotypes);
}

TEST(VcfLiteTest, RoundTripLargeRandomMatrix) {
  common::Rng rng(3);
  VcfLite vcf;
  vcf.genotypes = GenotypeMatrix(100, 57);
  for (std::size_t l = 0; l < 57; ++l) {
    vcf.snp_ids.push_back("rs" + std::to_string(l));
  }
  for (std::size_t n = 0; n < 100; ++n) {
    for (std::size_t l = 0; l < 57; ++l) {
      if (rng.bernoulli(0.3)) vcf.genotypes.set(n, l, true);
    }
  }
  const auto parsed = read_vcf_lite(write_vcf_lite(vcf));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().genotypes, vcf.genotypes);
}

TEST(VcfLiteTest, RejectsMissingMagic) {
  EXPECT_FALSE(read_vcf_lite("not a vcf\n").ok());
}

TEST(VcfLiteTest, RejectsBadCounts) {
  EXPECT_FALSE(read_vcf_lite("##gendpr-vcf-lite v1\n##individuals=x\n").ok());
}

TEST(VcfLiteTest, RejectsIdCountMismatch) {
  const std::string text =
      "##gendpr-vcf-lite v1\n##individuals=1\n##snps=3\n#ids rs1 rs2\n000\n";
  EXPECT_FALSE(read_vcf_lite(text).ok());
}

TEST(VcfLiteTest, RejectsWrongLineLength) {
  const std::string text =
      "##gendpr-vcf-lite v1\n##individuals=1\n##snps=3\n#ids a b c\n0000\n";
  EXPECT_FALSE(read_vcf_lite(text).ok());
}

TEST(VcfLiteTest, RejectsNonBinaryGenotype) {
  const std::string text =
      "##gendpr-vcf-lite v1\n##individuals=1\n##snps=3\n#ids a b c\n012\n";
  EXPECT_FALSE(read_vcf_lite(text).ok());
}

TEST(VcfLiteTest, RejectsMissingGenotypeLines) {
  const std::string text =
      "##gendpr-vcf-lite v1\n##individuals=2\n##snps=2\n#ids a b\n00\n";
  EXPECT_FALSE(read_vcf_lite(text).ok());
}

TEST(VcfLiteTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/vcf_lite_test.vcf";
  const VcfLite vcf = sample_vcf();
  ASSERT_TRUE(write_vcf_lite_file(path, vcf).ok());
  const auto parsed = read_vcf_lite_file(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().genotypes, vcf.genotypes);
  std::remove(path.c_str());
}

TEST(VcfLiteTest, MissingFileFails) {
  const auto result = read_vcf_lite_file("/nonexistent/path.vcf");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::io_error);
}

// ---- one-pass reader == the line-by-line reader it replaced -------------

// The reader as it was before the one-pass ingest: getline per line, one
// set() per genotype. The accept/reject set of the format is defined by it.
common::Result<std::uint64_t> legacy_header_count(const std::string& line,
                                                  const std::string& prefix) {
  if (line.rfind(prefix, 0) != 0) {
    return common::make_error(common::Errc::bad_message, "header");
  }
  std::uint64_t value = 0;
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(line.data() + prefix.size(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return common::make_error(common::Errc::bad_message, "count");
  }
  return value;
}

common::Result<VcfLite> legacy_read_vcf_lite(const std::string& text) {
  const auto fail = [] {
    return common::make_error(common::Errc::bad_message, "legacy");
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "##gendpr-vcf-lite v1") return fail();
  if (!std::getline(in, line)) return fail();
  auto individuals = legacy_header_count(line, "##individuals=");
  if (!individuals.ok()) return individuals.error();
  if (!std::getline(in, line)) return fail();
  auto snps = legacy_header_count(line, "##snps=");
  if (!snps.ok()) return snps.error();
  if (!std::getline(in, line) || line.rfind("#ids", 0) != 0) return fail();
  VcfLite vcf;
  std::istringstream ids(line.substr(4));
  std::string id;
  while (ids >> id) vcf.snp_ids.push_back(id);
  if (vcf.snp_ids.size() != snps.value()) return fail();
  vcf.genotypes = GenotypeMatrix(individuals.value(), snps.value());
  for (std::uint64_t n = 0; n < individuals.value(); ++n) {
    if (!std::getline(in, line) || line.size() != snps.value()) return fail();
    for (std::uint64_t l = 0; l < snps.value(); ++l) {
      if (line[l] == '1') {
        vcf.genotypes.set(n, l, true);
      } else if (line[l] != '0') {
        return fail();
      }
    }
  }
  return vcf;
}

void expect_same_result(const common::Result<VcfLite>& got,
                        const common::Result<VcfLite>& want,
                        const std::string& label) {
  ASSERT_EQ(got.ok(), want.ok())
      << label << ": " << (got.ok() ? "accepted" : got.error().to_string());
  if (want.ok()) {
    EXPECT_EQ(got.value().snp_ids, want.value().snp_ids) << label;
    EXPECT_EQ(got.value().genotypes, want.value().genotypes) << label;
  } else {
    EXPECT_EQ(got.error().code, want.error().code) << label;
  }
}

// Both entry points of the one-pass reader agree with the legacy reader.
void expect_same_as_legacy(const std::string& text, const std::string& label) {
  const auto want = legacy_read_vcf_lite(text);
  expect_same_result(read_vcf_lite(text), want, label + " (text)");
  // One file per test: ctest runs the tests of this binary in parallel.
  const std::string path =
      ::testing::TempDir() + "/vcf_lite_legacy_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".vcf";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  expect_same_result(read_vcf_lite_file(path), want, label + " (file)");
  std::remove(path.c_str());
}

std::string random_vcf_text(common::Rng& rng, std::size_t n, std::size_t l) {
  VcfLite vcf;
  for (std::size_t j = 0; j < l; ++j) vcf.snp_ids.push_back("rs" + std::to_string(j));
  vcf.genotypes = GenotypeMatrix(n, l);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      if (rng.bernoulli(0.5)) vcf.genotypes.set(i, j, true);
    }
  }
  return write_vcf_lite(vcf);
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t p = text.find(from); p != std::string::npos;
       p = text.find(from, p + to.size())) {
    text.replace(p, from.size(), to);
  }
  return text;
}

// Variants of a valid file: each accepted or rejected the same way by both
// readers. `rows_at` is where the genotype lines start.
std::vector<std::pair<std::string, std::string>> variants(
    const std::string& text, std::size_t n, std::size_t l) {
  const std::size_t rows_at = text.size() - n * (l + 1);
  const std::size_t width = l + 1;
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("as written", text);
  out.emplace_back("no final newline", text.substr(0, text.size() - 1));
  out.emplace_back("CRLF", replace_all(text, "\n", "\r\n"));
  out.emplace_back("CRLF rows", text.substr(0, rows_at) +
                                    replace_all(text.substr(rows_at), "\n", "\r\n"));
  out.emplace_back("CRLF ids only",
                   text.substr(0, rows_at - 1) + "\r" + text.substr(rows_at - 1));
  out.emplace_back("trailing row", text + std::string(l, '1') + "\n");
  out.emplace_back("trailing junk", text + "junk\x01\n\n2");
  out.emplace_back("trailing junk, no final newline",
                   text.substr(0, text.size() - 1) + "x");
  out.emplace_back("blank line", text + "\n");
  out.emplace_back("one individual more",
                   replace_all(text, "##individuals=" + std::to_string(n) + "\n",
                               "##individuals=" + std::to_string(n + 1) + "\n"));
  if (n > 0) {
    out.emplace_back("one individual fewer",
                     replace_all(text, "##individuals=" + std::to_string(n) + "\n",
                                 "##individuals=" + std::to_string(n - 1) + "\n"));
  }
  out.emplace_back("one SNP more",
                   replace_all(text, "##snps=" + std::to_string(l) + "\n",
                               "##snps=" + std::to_string(l + 1) + "\n"));
  out.emplace_back("header only", text.substr(0, rows_at));
  out.emplace_back("ids line without newline", text.substr(0, rows_at - 1));
  out.emplace_back("cut in the header", text.substr(0, rows_at / 2));
  for (const std::size_t cut : {std::size_t{1}, std::size_t{2}, l / 2 + 1, width,
                                width + 1, 2 * width - 1}) {
    if (cut <= n * width) {
      out.emplace_back("cut " + std::to_string(cut) + " bytes early",
                       text.substr(0, text.size() - cut));
    }
  }
  for (const std::size_t row : {std::size_t{0}, n / 2, n == 0 ? 0 : n - 1}) {
    if (row >= n || l == 0) continue;
    const std::size_t at = rows_at + row * width;
    const std::string tag = " in row " + std::to_string(row);
    for (const std::size_t col : {std::size_t{0}, l / 2, l - 1}) {
      for (const char bad : {'2', '/', 'p', 'q', '\r', '\n', ' ', '\0',
                             static_cast<char>(0xB0), static_cast<char>(0xB1)}) {
        std::string mutated = text;
        mutated[at + col] = bad;
        out.emplace_back("char " + std::to_string(int(bad)) + " at column " +
                             std::to_string(col) + tag,
                         mutated);
      }
    }
    std::string shorter = text;
    shorter.erase(at + l / 2, 1);
    out.emplace_back("short line" + tag, shorter);
    std::string longer = text;
    longer.insert(at + l / 2, "0");
    out.emplace_back("long line" + tag, longer);
    std::string split = text;
    split.insert(at + l / 2, "\n");
    out.emplace_back("split line" + tag, split);
    std::string no_newline = text;
    no_newline[at + l] = '0';
    out.emplace_back("newline replaced" + tag, no_newline);
  }
  return out;
}

TEST(VcfLiteIngestTest, MatchesLegacyReaderOnEveryShapeAndDefect) {
  common::Rng rng(41);
  for (const std::size_t l : {0, 1, 7, 8, 9, 64, 65, 1000}) {
    for (const std::size_t n : {0, 1, 63, 64, 65}) {
      const std::string text = random_vcf_text(rng, n, l);
      for (const auto& [label, variant] : variants(text, n, l)) {
        expect_same_as_legacy(variant, "L=" + std::to_string(l) +
                                           " N=" + std::to_string(n) + ": " +
                                           label);
      }
    }
  }
}

TEST(VcfLiteIngestTest, MatchesLegacyReaderOnHeaderDefects) {
  const std::string rows = "010\n111\n";
  for (const std::string header : {
           "", "\n", "##gendpr-vcf-lite v1", "##gendpr-vcf-lite v1\n",
           "##gendpr-vcf-lite v2\n##individuals=2\n##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\r\n##individuals=2\n##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=\n##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=+2\n##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=-2\n##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=02\n##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=2 \n##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=2\r\n##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=99999999999999999999\n"
           "##snps=3\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##snps=3\n##individuals=2\n#ids a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=2\n##snps=3\n",
           "##gendpr-vcf-lite v1\n##individuals=2\n##snps=3\n#id a b c\n",
           "##gendpr-vcf-lite v1\n##individuals=2\n##snps=3\n#idsa b c\n",
           "##gendpr-vcf-lite v1\n##individuals=2\n##snps=3\n#ids\ta\t b\vc \n",
           "##gendpr-vcf-lite v1\n##individuals=2\n##snps=3\n#ids a b\n",
           "##gendpr-vcf-lite v1\n##individuals=2\n##snps=3\n#ids a b c d\n",
           "##gendpr-vcf-lite v1\n##individuals=2\n##snps=3\n#ids a b c\r\n",
       }) {
    expect_same_as_legacy(header, "header alone: " + header);
    expect_same_as_legacy(header + rows, "header: " + header);
  }
}

// Files larger than the reader's 1 MiB chunk: rows straddle chunk ends, and
// with 1.5M SNPs one row (and the #ids line) is longer than a chunk.
TEST(VcfLiteIngestTest, MatchesLegacyReaderAcrossChunkBoundaries) {
  common::Rng rng(43);
  for (const auto& [n, l] : {std::pair<std::size_t, std::size_t>{1100, 1000},
                             {2, 1500000}}) {
    const std::string text = random_vcf_text(rng, n, l);
    const std::string tag = "L=" + std::to_string(l) + " N=" + std::to_string(n);
    expect_same_as_legacy(text, tag);
    expect_same_as_legacy(text.substr(0, text.size() - 1), tag + " no final newline");
    expect_same_as_legacy(text.substr(0, text.size() - l / 2), tag + " cut mid-row");
    std::string mutated = text;
    const std::size_t rows_at = text.size() - n * (l + 1);
    // The first genotype past the 1 MiB mark, and the very last one.
    for (const std::size_t at : {std::max(rows_at, std::size_t{1} << 20),
                                 text.size() - 2}) {
      mutated = text;
      if (mutated[at] == '\n') continue;
      mutated[at] = 'x';
      expect_same_as_legacy(mutated, tag + " bad char at byte " + std::to_string(at));
    }
  }
}

// The header's counts are checked against the bytes that follow before the
// matrix is sized from them: a 60-byte file cannot claim 2^40 rows (or a row
// count whose N·(L+1) overflows). No legacy comparison: the old reader
// would try the allocation.
TEST(VcfLiteIngestTest, RejectsCountsTheFileCannotHold) {
  for (const std::string individuals : {"1099511627776", "9223372036854775808",
                                        "18446744073709551615"}) {
    const std::string text = "##gendpr-vcf-lite v1\n##individuals=" +
                             individuals + "\n##snps=1\n#ids a\n0\n1\n";
    const auto parsed = read_vcf_lite(text);
    ASSERT_FALSE(parsed.ok()) << individuals;
    EXPECT_EQ(parsed.error().code, common::Errc::bad_message);

    const std::string path = ::testing::TempDir() + "/vcf_lite_huge.vcf";
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    const auto from_file = read_vcf_lite_file(path);
    std::remove(path.c_str());
    ASSERT_FALSE(from_file.ok()) << individuals;
    EXPECT_EQ(from_file.error().code, common::Errc::bad_message);
  }
}

TEST(DatasetManifestTest, SignVerifyRoundTrip) {
  const std::string text = write_vcf_lite(sample_vcf());
  const common::Bytes key = common::to_bytes("gdo-3 signing key");
  const DatasetManifest manifest = sign_dataset("amd-study", text, key);
  EXPECT_EQ(manifest.num_individuals, 2u);
  EXPECT_EQ(manifest.num_snps, 3u);
  EXPECT_TRUE(verify_dataset(manifest, text, key).ok());
}

TEST(DatasetManifestTest, TamperedContentRejected) {
  std::string text = write_vcf_lite(sample_vcf());
  const common::Bytes key = common::to_bytes("key");
  const DatasetManifest manifest = sign_dataset("study", text, key);
  // Flip one genotype character: simulates a GDO tampering with its data.
  text[text.size() - 2] = text[text.size() - 2] == '0' ? '1' : '0';
  const auto status = verify_dataset(manifest, text, key);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::attestation_rejected);
}

TEST(DatasetManifestTest, WrongKeyRejected) {
  const std::string text = write_vcf_lite(sample_vcf());
  const DatasetManifest manifest =
      sign_dataset("study", text, common::to_bytes("key-a"));
  EXPECT_FALSE(verify_dataset(manifest, text, common::to_bytes("key-b")).ok());
}

TEST(DatasetManifestTest, TamperedMetadataRejected) {
  const std::string text = write_vcf_lite(sample_vcf());
  const common::Bytes key = common::to_bytes("key");
  DatasetManifest manifest = sign_dataset("study", text, key);
  manifest.dataset_name = "different-study";
  EXPECT_FALSE(verify_dataset(manifest, text, key).ok());
}

}  // namespace
}  // namespace gendpr::genome
