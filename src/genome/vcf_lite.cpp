#include "genome/vcf_lite.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "crypto/hmac.hpp"
#include "wire/serialize.hpp"

namespace gendpr::genome {

using common::Errc;
using common::make_error;

std::string write_vcf_lite(const VcfLite& vcf) {
  std::ostringstream out;
  out << "##gendpr-vcf-lite v1\n";
  out << "##individuals=" << vcf.genotypes.num_individuals() << "\n";
  out << "##snps=" << vcf.genotypes.num_snps() << "\n";
  out << "#ids";
  for (const std::string& id : vcf.snp_ids) out << ' ' << id;
  out << "\n";
  for (std::size_t n = 0; n < vcf.genotypes.num_individuals(); ++n) {
    std::string line(vcf.genotypes.num_snps(), '0');
    for (std::size_t l = 0; l < vcf.genotypes.num_snps(); ++l) {
      if (vcf.genotypes.get(n, l)) line[l] = '1';
    }
    out << line << "\n";
  }
  return out.str();
}

namespace {

common::Result<std::uint64_t> parse_header_count(std::string_view line,
                                                 std::string_view prefix) {
  if (!line.starts_with(prefix)) {
    return make_error(Errc::bad_message,
                      "expected header " + std::string(prefix));
  }
  std::uint64_t value = 0;
  const char* begin = line.data() + prefix.size();
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    return make_error(Errc::bad_message,
                      "bad count in header " + std::string(prefix));
  }
  return value;
}

// The next line of `text` from `pos`, without its '\n' (std::getline
// semantics: the last line may lack one; nothing left means no line).
std::optional<std::string_view> next_line(std::string_view text,
                                          std::size_t& pos) {
  if (pos >= text.size()) return std::nullopt;
  const std::size_t newline = text.find('\n', pos);
  const std::size_t end = newline == std::string_view::npos ? text.size()
                                                            : newline;
  const std::string_view line = text.substr(pos, end - pos);
  pos = newline == std::string_view::npos ? text.size() : newline + 1;
  return line;
}

struct Header {
  std::uint64_t individuals = 0;
  std::uint64_t snps = 0;
  std::vector<std::string> snp_ids;
};

// Parses the four header lines, taken one by one from `next_line` (a
// callable returning std::optional<std::string_view>, empty at the end of
// the input).
template <typename NextLine>
common::Result<Header> parse_header(NextLine next_line) {
  const auto magic = next_line();
  if (!magic || *magic != "##gendpr-vcf-lite v1") {
    return make_error(Errc::bad_message, "missing vcf-lite magic header");
  }
  Header header;
  const auto individuals_line = next_line();
  if (!individuals_line) {
    return make_error(Errc::bad_message, "missing individuals header");
  }
  auto individuals = parse_header_count(*individuals_line, "##individuals=");
  if (!individuals.ok()) return individuals.error();
  header.individuals = individuals.value();
  const auto snps_line = next_line();
  if (!snps_line) return make_error(Errc::bad_message, "missing snps header");
  auto snps = parse_header_count(*snps_line, "##snps=");
  if (!snps.ok()) return snps.error();
  header.snps = snps.value();

  const auto ids_line = next_line();
  if (!ids_line || !ids_line->starts_with("#ids")) {
    return make_error(Errc::bad_message, "missing #ids line");
  }
  std::istringstream ids(std::string(ids_line->substr(4)));
  std::string id;
  while (ids >> id) header.snp_ids.push_back(id);
  if (header.snp_ids.size() != header.snps) {
    return make_error(Errc::bad_message,
                      "snp id count does not match ##snps header");
  }
  return header;
}

// Sizes the matrix from the header once the `available` bytes after it can
// hold the rows it claims. Every line but the last takes exactly L+1 bytes
// and the last at least L, so N lines need N·(L+1)−1 bytes; the check is
// written so that it cannot overflow.
common::Result<VcfLite> allocate(Header header, std::uint64_t available) {
  const std::uint64_t width = header.snps + 1;
  if (header.individuals > 0 && header.individuals > (available + 1) / width) {
    return make_error(Errc::bad_message,
                      "header claims " + std::to_string(header.individuals) +
                          " genotype lines of " +
                          std::to_string(header.snps) + " SNPs, but only " +
                          std::to_string(available) + " bytes follow");
  }
  VcfLite vcf;
  vcf.snp_ids = std::move(header.snp_ids);
  vcf.genotypes = GenotypeMatrix(header.individuals, header.snps);
  return vcf;
}

// Packs `snps` genotype characters into a packed row, eight per step: char k
// of a step lands in bit k of its byte. False if any character is not '0'
// or '1'.
bool pack_row(const char* chars, std::size_t snps, std::uint8_t* row) {
  constexpr std::uint64_t kLow = 0x0101010101010101ull;
  std::uint64_t bad = 0;
  std::size_t l = 0;
  for (; l + 8 <= snps; l += 8) {
    std::uint64_t x;
    std::memcpy(&x, chars + l, sizeof x);
    if constexpr (std::endian::native == std::endian::big) {
      x = __builtin_bswap64(x);
    }
    bad |= (x & ~kLow) ^ (0x30 * kLow);
    row[l / 8] = static_cast<std::uint8_t>(
        ((x & kLow) * 0x0102040810204080ull) >> 56);
  }
  if (l < snps) {
    unsigned tail = 0;
    for (std::size_t k = 0; l + k < snps; ++k) {
      const auto c = static_cast<unsigned char>(chars[l + k]);
      bad |= (c & 0xFEu) ^ 0x30u;
      tail |= (c & 1u) << k;
    }
    row[l / 8] = static_cast<std::uint8_t>(tail);
  }
  return bad == 0;
}

// The error for a genotype line that failed the fixed-width check. `line`
// is the input from the line's start, cut at L+1 bytes.
common::Error bad_row(std::string_view line, std::uint64_t row,
                      std::uint64_t snps) {
  if (line.empty()) {
    return make_error(Errc::bad_message,
                      "missing genotype line " + std::to_string(row));
  }
  if (std::min(line.find('\n'), line.size()) != snps) {
    return make_error(Errc::bad_message, "genotype line " +
                                             std::to_string(row) +
                                             " has wrong length");
  }
  return make_error(Errc::bad_message, "non-binary genotype character");
}

// Packs the rows of `data` into `genotypes` from row `next` on. A row is
// parsed once its L+1 bytes are in `data`, or when `data` ends the input
// (the last line's '\n' is optional). Returns the bytes consumed: a
// partial row is left for the next call. Bytes after the last row are
// never read.
common::Result<std::size_t> parse_rows(std::string_view data, bool end_of_input,
                                       GenotypeMatrix& genotypes,
                                       std::uint64_t& next) {
  const std::uint64_t snps = genotypes.num_snps();
  const std::uint64_t width = snps + 1;
  std::size_t pos = 0;
  for (; next < genotypes.num_individuals(); ++next) {
    const std::size_t available = data.size() - pos;
    const char* line = data.data() + pos;
    std::uint8_t* row = genotypes.mutable_row_data(next);
    if (available >= width) {
      if (line[snps] != '\n' || !pack_row(line, snps, row)) {
        return bad_row(data.substr(pos, width), next, snps);
      }
      pos += width;
    } else if (!end_of_input) {
      break;
    } else {
      // The input's last line: L characters and no '\n', or malformed.
      // With nothing left there is no line, even when L is 0.
      if (available == 0 || available != snps || !pack_row(line, snps, row)) {
        return bad_row(data.substr(pos), next, snps);
      }
      pos += available;
    }
  }
  return pos;
}

}  // namespace

common::Result<VcfLite> read_vcf_lite(const std::string& text) {
  std::size_t rows_at = 0;
  auto header = parse_header([&] { return next_line(text, rows_at); });
  if (!header.ok()) return header.error();
  auto vcf = allocate(std::move(header).take(), text.size() - rows_at);
  if (!vcf.ok()) return vcf;
  std::uint64_t next = 0;
  auto rows = parse_rows(std::string_view(text).substr(rows_at), true,
                         vcf.value().genotypes, next);
  if (!rows.ok()) return rows.error();
  return vcf;
}

common::Status write_vcf_lite_file(const std::string& path,
                                   const VcfLite& vcf) {
  std::ofstream out(path);
  if (!out) {
    return make_error(Errc::io_error, "cannot open for write: " + path);
  }
  out << write_vcf_lite(vcf);
  if (!out) return make_error(Errc::io_error, "write failed: " + path);
  return common::Status::success();
}

common::Result<VcfLite> read_vcf_lite_file(const std::string& path) {
  // Whole rows are read in chunks of about 1 MiB into one reused buffer and
  // packed straight into the matrix; the file is never held whole.
  constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  std::ifstream in(path, std::ios::binary);
  std::error_code size_error;
  const std::uintmax_t file_size = std::filesystem::file_size(path, size_error);
  if (!in || size_error) {
    return make_error(Errc::io_error, "cannot open for read: " + path);
  }
  const auto in_file = [&](const common::Error& error) {
    return make_error(error.code, path + ": " + error.message);
  };
  std::string line;
  auto header = parse_header([&]() -> std::optional<std::string_view> {
    if (!std::getline(in, line)) return std::nullopt;
    return line;
  });
  if (!header.ok()) return in_file(header.error());
  bool eof = in.eof();
  const std::uint64_t rows_at =
      eof ? file_size : static_cast<std::uint64_t>(in.tellg());
  auto allocated = allocate(std::move(header).take(),
                            file_size > rows_at ? file_size - rows_at : 0);
  if (!allocated.ok()) return in_file(allocated.error());
  VcfLite vcf = std::move(allocated).take();

  // Rows: read the next chunk of whole rows behind the partial row left at
  // the front of the buffer, parse, and move the new partial row forward.
  const std::size_t width = vcf.genotypes.num_snps() + 1;
  const std::size_t chunk =
      std::max<std::size_t>(1, kChunkBytes / width) * width;
  // The partial row is shorter than `width`, so one chunk always fits.
  std::string buffer(width + chunk, '\0');
  std::size_t filled = 0;  // bytes of `buffer` holding file data
  std::uint64_t next = 0;
  while (next < vcf.genotypes.num_individuals()) {
    if (!eof) {
      in.read(buffer.data() + filled, static_cast<std::streamsize>(chunk));
      filled += static_cast<std::size_t>(in.gcount());
      eof = in.eof();
      if (!eof && !in) {
        return make_error(Errc::io_error, "read failed: " + path);
      }
    }
    auto used = parse_rows(std::string_view(buffer.data(), filled), eof,
                           vcf.genotypes, next);
    if (!used.ok()) return in_file(used.error());
    std::memmove(buffer.data(), buffer.data() + used.value(),
                 filled - used.value());
    filled -= used.value();
  }
  return vcf;
}

crypto::Sha256Digest digest_vcf(const std::string& vcf_text) {
  return crypto::Sha256::hash(common::to_bytes(vcf_text));
}

namespace {

crypto::Sha256Digest manifest_signature(const DatasetManifest& manifest,
                                        common::BytesView signing_key) {
  crypto::HmacSha256 mac(signing_key);
  mac.update(common::to_bytes("gendpr.dataset.manifest.v1"));
  wire::Writer w;
  w.string(manifest.dataset_name);
  w.u64(manifest.num_individuals);
  w.u64(manifest.num_snps);
  w.raw(common::BytesView(manifest.content_digest.data(),
                          manifest.content_digest.size()));
  mac.update(w.buffer());
  return mac.finish();
}

}  // namespace

DatasetManifest sign_dataset(const std::string& dataset_name,
                             const std::string& vcf_text,
                             common::BytesView signing_key) {
  DatasetManifest manifest;
  manifest.dataset_name = dataset_name;
  manifest.content_digest = digest_vcf(vcf_text);
  // Dimensions are advisory metadata; parse errors surface at read time.
  const auto parsed = read_vcf_lite(vcf_text);
  if (parsed.ok()) {
    manifest.num_individuals = parsed.value().genotypes.num_individuals();
    manifest.num_snps = parsed.value().genotypes.num_snps();
  }
  manifest.signature = manifest_signature(manifest, signing_key);
  return manifest;
}

common::Status verify_dataset(const DatasetManifest& manifest,
                              const std::string& vcf_text,
                              common::BytesView signing_key) {
  const crypto::Sha256Digest expected =
      manifest_signature(manifest, signing_key);
  if (!common::ct_equal(
          common::BytesView(expected.data(), expected.size()),
          common::BytesView(manifest.signature.data(),
                            manifest.signature.size()))) {
    return make_error(Errc::attestation_rejected,
                      "dataset manifest signature invalid");
  }
  const crypto::Sha256Digest digest = digest_vcf(vcf_text);
  if (digest != manifest.content_digest) {
    return make_error(Errc::attestation_rejected,
                      "dataset content does not match signed manifest");
  }
  return common::Status::success();
}

}  // namespace gendpr::genome
