// TrafficMeter: per-link byte and message accounting.
#include <gtest/gtest.h>

#include "net/traffic_meter.hpp"

namespace gendpr::net {
namespace {

TEST(TrafficMeterTest, RecordsBytesAndMessages) {
  TrafficMeter meter;
  meter.record(1, 2, 100);
  meter.record(1, 2, 50);
  meter.record(2, 1, 25);
  EXPECT_EQ(meter.total_bytes(), 175u);
  EXPECT_EQ(meter.total_messages(), 3u);
  EXPECT_EQ(meter.bytes_sent_by(1), 150u);
  EXPECT_EQ(meter.bytes_received_by(1), 25u);
  EXPECT_EQ(meter.bytes_received_by(2), 150u);
}

TEST(TrafficMeterTest, BroadcastCountsPerReceiver) {
  // A broadcast is one frame per receiver, and each is metered on its own
  // link.
  TrafficMeter meter;
  for (const NodeId to : {2u, 3u}) meter.record(1, to, 10);
  EXPECT_EQ(meter.total_bytes(), 20u);
  EXPECT_EQ(meter.total_messages(), 2u);
  const std::vector<TrafficMeter::Link> links = meter.snapshot();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].to, 2u);
  EXPECT_EQ(links[1].to, 3u);
  EXPECT_EQ(links[1].bytes, 10u);
  EXPECT_EQ(links[1].messages, 1u);
}

TEST(TrafficMeterTest, ResetClears) {
  TrafficMeter meter;
  meter.record(1, 2, 10);
  meter.reset();
  EXPECT_EQ(meter.total_bytes(), 0u);
  EXPECT_TRUE(meter.snapshot().empty());
}

}  // namespace
}  // namespace gendpr::net
