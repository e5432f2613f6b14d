// VCF-lite: a minimal text container for binary-encoded GWAS genotypes,
// plus signed dataset manifests.
//
// Real deployments feed VCF files to the pipeline; the paper assumes "the
// trusted part of GenDPR is able to detect whether a federation member has
// tampered with the genome data ... by checking the authenticity of signed
// VCF files" (§4). This module provides (a) a self-describing text format
// for the binary genotype matrices and (b) an HMAC-signed manifest binding
// file content to a dataset name. The manifest is a library facility: the
// CLI's workspaces are not signed and no study verifies them.
//
// Format:
//   ##gendpr-vcf-lite v1
//   ##individuals=<N>
//   ##snps=<L>
//   #ids <id_0> <id_1> ... <id_{L-1}>
//   <N lines of L characters, each '0' or '1'>
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "crypto/sha256.hpp"
#include "genome/genotype.hpp"

namespace gendpr::genome {

struct VcfLite {
  std::vector<std::string> snp_ids;
  GenotypeMatrix genotypes;
};

/// Serializes to the text format.
std::string write_vcf_lite(const VcfLite& vcf);

/// Parses the text format; rejects malformed headers, inconsistent
/// dimensions, header counts the input is too short to hold, and
/// non-binary genotype characters. The last genotype line may lack its
/// '\n'; bytes after the last line are ignored.
common::Result<VcfLite> read_vcf_lite(const std::string& text);

common::Status write_vcf_lite_file(const std::string& path,
                                   const VcfLite& vcf);

/// Reads a file with the same parser as read_vcf_lite, streaming whole
/// genotype lines in ~1 MiB chunks into the packed rows: the file is never
/// held in memory whole. Parse errors name the file.
common::Result<VcfLite> read_vcf_lite_file(const std::string& path);

/// Signed dataset manifest: binds a dataset name and content digest under a
/// GDO signing key registered with the federation.
struct DatasetManifest {
  std::string dataset_name;
  std::uint64_t num_individuals = 0;
  std::uint64_t num_snps = 0;
  crypto::Sha256Digest content_digest{};
  crypto::Sha256Digest signature{};
};

/// Computes the digest of the serialized VCF content.
crypto::Sha256Digest digest_vcf(const std::string& vcf_text);

/// Issues a manifest for `vcf_text` under `signing_key`.
DatasetManifest sign_dataset(const std::string& dataset_name,
                             const std::string& vcf_text,
                             common::BytesView signing_key);

/// Verifies manifest signature and that it matches `vcf_text`.
common::Status verify_dataset(const DatasetManifest& manifest,
                              const std::string& vcf_text,
                              common::BytesView signing_key);

}  // namespace gendpr::genome
