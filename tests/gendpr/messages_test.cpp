#include "gendpr/messages.hpp"

#include <gtest/gtest.h>

#include "wire/serialize.hpp"

namespace gendpr::core {
namespace {

TEST(MessagesTest, StudyAnnounceRoundTrip) {
  StudyAnnounce msg;
  msg.study_id = 99;
  msg.num_snps = 1000;
  msg.config.maf_cutoff = 0.07;
  msg.config.ld_cutoff = 1e-6;
  msg.config.snp_tile_width = 64;
  msg.combinations = {{0, 1, 2}, {0, 1}, {2}};
  const auto restored = StudyAnnounce::deserialize(msg.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().study_id, 99u);
  EXPECT_EQ(restored.value().num_snps, 1000u);
  EXPECT_EQ(restored.value().config, msg.config);
  EXPECT_EQ(restored.value().combinations, msg.combinations);
}

TEST(MessagesTest, SummaryStatsRoundTrip) {
  SummaryStats msg;
  msg.case_counts = {1, 2, 3, 1000000};
  msg.n_case = 4242;
  const auto restored = SummaryStats::deserialize(msg.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().case_counts, msg.case_counts);
  EXPECT_EQ(restored.value().n_case, 4242u);
}

TEST(MessagesTest, Phase1ResultRoundTrip) {
  Phase1Result msg;
  msg.retained = {0, 5, 7, 999};
  const auto restored = Phase1Result::deserialize(msg.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().retained, msg.retained);
}

TEST(MessagesTest, MomentsRequestResponseRoundTrip) {
  MomentsRequest request{17, 3, 4};
  const auto restored_req = MomentsRequest::deserialize(request.serialize());
  ASSERT_TRUE(restored_req.ok());
  EXPECT_EQ(restored_req.value().request_id, 17u);
  EXPECT_EQ(restored_req.value().snp_a, 3u);
  EXPECT_EQ(restored_req.value().snp_b, 4u);

  MomentsResponse response;
  response.request_id = 17;
  response.moments = {10.0, 20.0, 5.0, 10.0, 20.0, 100};
  const auto restored = MomentsResponse::deserialize(response.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().moments.mu_xy, 5.0);
  EXPECT_EQ(restored.value().moments.n, 100u);
}

TEST(MessagesTest, Phase2ResultRoundTrip) {
  Phase2Result msg;
  msg.retained = {1, 2};
  msg.reference_freq = {0.25, 0.5};
  msg.case_counts_per_gdo = {{3, 6}, {2, 4}};
  msg.n_case_per_gdo = {10, 8};
  const auto restored = Phase2Result::deserialize(msg.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().retained, msg.retained);
  EXPECT_EQ(restored.value().reference_freq, msg.reference_freq);
  EXPECT_EQ(restored.value().case_counts_per_gdo, msg.case_counts_per_gdo);
  EXPECT_EQ(restored.value().n_case_per_gdo, msg.n_case_per_gdo);
}

TEST(MessagesTest, Phase2ResultDeadGdosRoundTrip) {
  Phase2Result msg;
  msg.retained = {3};
  msg.reference_freq = {0.125};
  // Dead GDO 1 keeps an empty count slot; indices stay stable on the wire.
  msg.case_counts_per_gdo = {{2}, {}, {5}};
  msg.n_case_per_gdo = {8, 0, 20};
  msg.dead_gdos = {1, 4};
  const auto restored = Phase2Result::deserialize(msg.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().dead_gdos, msg.dead_gdos);
  EXPECT_EQ(restored.value().case_counts_per_gdo, msg.case_counts_per_gdo);
  // An empty dead set round-trips too (the common, all-alive case).
  Phase2Result healthy;
  healthy.retained = {3};
  healthy.reference_freq = {0.125};
  healthy.case_counts_per_gdo = {{2}};
  healthy.n_case_per_gdo = {8};
  const auto restored_healthy = Phase2Result::deserialize(healthy.serialize());
  ASSERT_TRUE(restored_healthy.ok());
  EXPECT_TRUE(restored_healthy.value().dead_gdos.empty());
}

TEST(MessagesTest, Phase2ResultPopulationSizeMismatchRejected) {
  // One count vector but two population sizes: structurally inconsistent.
  Phase2Result msg;
  msg.retained = {3};
  msg.reference_freq = {0.125};
  msg.case_counts_per_gdo = {{2}};
  msg.n_case_per_gdo = {8, 9};
  EXPECT_FALSE(Phase2Result::deserialize(msg.serialize()).ok());
}

TEST(MessagesTest, Phase2CombinationCaseFreqIsExactIntegerRatio) {
  Phase2Result msg;
  msg.retained = {0, 1};
  msg.reference_freq = {0.5, 0.5};
  msg.case_counts_per_gdo = {{1, 2}, {3, 4}, {5, 6}};
  msg.n_case_per_gdo = {10, 20, 30};
  const auto freq = msg.combination_case_freq({0, 2});
  ASSERT_EQ(freq.size(), 2u);
  EXPECT_EQ(freq[0], 6.0 / 40.0);
  EXPECT_EQ(freq[1], 8.0 / 40.0);
}

TEST(MessagesTest, AbortNoticeRoundTrip) {
  AbortNotice msg;
  msg.failed_gdo = 2;
  msg.reason = "LR gather timed out: unresponsive gdo(s): 2";
  const auto restored = AbortNotice::deserialize(msg.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().failed_gdo, 2u);
  EXPECT_EQ(restored.value().reason, msg.reason);

  AbortNotice anonymous;  // no peer to blame
  const auto restored_anon = AbortNotice::deserialize(anonymous.serialize());
  ASSERT_TRUE(restored_anon.ok());
  EXPECT_EQ(restored_anon.value().failed_gdo, AbortNotice::kNoFailedGdo);
  EXPECT_TRUE(restored_anon.value().reason.empty());
}

TEST(MessagesTest, AbortNoticeTruncationRejected) {
  AbortNotice msg;
  msg.failed_gdo = 1;
  msg.reason = "gone";
  const common::Bytes full = msg.serialize();
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(
        AbortNotice::deserialize(common::BytesView(full.data(), len)).ok())
        << "truncation to " << len << " accepted";
  }
}

TEST(MessagesTest, LrBitsRoundTrip) {
  LrBits msg;
  msg.words = {0, 0x8000000000000001ull, 0x5a5a, ~0ull};
  const common::Bytes bytes = msg.serialize();
  EXPECT_EQ(bytes.size(), msg.encoded_size());
  EXPECT_EQ(bytes.size(), 1 + 4 * 8u);  // varint count + 8 bytes per word
  const auto restored = LrBits::deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().words, msg.words);

  const auto empty = LrBits::deserialize(LrBits{}.serialize());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().words.empty());
}

TEST(MessagesTest, Phase3ResultRoundTrip) {
  Phase3Result msg;
  msg.safe = {4, 8, 15};
  msg.final_power = 0.42;
  const auto restored = Phase3Result::deserialize(msg.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().safe, msg.safe);
  EXPECT_DOUBLE_EQ(restored.value().final_power, 0.42);
}

TEST(MessagesTest, EnvelopeRoundTrip) {
  const common::Bytes body = {1, 2, 3};
  const common::Bytes framed = envelope(MsgType::phase1_result, body);
  const auto opened = open_envelope(framed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().first, MsgType::phase1_result);
  const common::Bytes opened_body(opened.value().second.begin(),
                                  opened.value().second.end());
  EXPECT_EQ(opened_body, body);
}

TEST(MessagesTest, EmptyEnvelopeRejected) {
  EXPECT_FALSE(open_envelope({}).ok());
}

TEST(MessagesTest, UnknownTypeRejected) {
  const common::Bytes bad = {0x77, 1, 2};
  EXPECT_FALSE(open_envelope(bad).ok());
  const common::Bytes zero = {0x00};
  EXPECT_FALSE(open_envelope(zero).ok());
}

TEST(MessagesTest, TruncationRejectedEverywhere) {
  StudyAnnounce announce;
  announce.num_snps = 5;
  announce.combinations = {{0, 1}};
  Phase2Result phase2;
  phase2.retained = {1, 2, 3};
  phase2.reference_freq = {0.1, 0.2, 0.3};
  phase2.case_counts_per_gdo = {{1, 2, 3}};
  phase2.n_case_per_gdo = {10};
  LrBits bits;
  bits.words = {1, 2, 3};

  const common::Bytes full_announce = announce.serialize();
  const common::Bytes full_phase2 = phase2.serialize();
  const common::Bytes full_bits = bits.serialize();
  for (std::size_t len = 0; len < full_announce.size(); ++len) {
    EXPECT_FALSE(StudyAnnounce::deserialize(
                     common::BytesView(full_announce.data(), len))
                     .ok())
        << "announce truncated to " << len << " accepted";
  }
  for (std::size_t len = 0; len < full_phase2.size(); ++len) {
    EXPECT_FALSE(
        Phase2Result::deserialize(common::BytesView(full_phase2.data(), len))
            .ok())
        << "phase2 truncated to " << len << " accepted";
  }
  for (std::size_t len = 0; len < full_bits.size(); ++len) {
    EXPECT_FALSE(
        LrBits::deserialize(common::BytesView(full_bits.data(), len)).ok())
        << "LR bits truncated to " << len << " accepted";
  }
}

TEST(MessagesTest, TrailingBytesRejected) {
  Phase1Result msg;
  msg.retained = {1};
  common::Bytes data = msg.serialize();
  data.push_back(0xff);
  EXPECT_FALSE(Phase1Result::deserialize(data).ok());
}

TEST(MessagesTest, MaliciousMatrixDimensionsRejected) {
  // Claim a huge bit matrix with no body: must fail cleanly, not allocate.
  wire::Writer huge;
  huge.varint(0xffffffffffull);  // word count
  EXPECT_FALSE(LrBits::deserialize(huge.buffer()).ok());

  // A word count one past the body is a truncation, not a short read.
  wire::Writer short_body;
  short_body.varint(3);
  short_body.u64(1);
  short_body.u64(2);
  EXPECT_FALSE(LrBits::deserialize(short_body.buffer()).ok());
}

}  // namespace
}  // namespace gendpr::core
