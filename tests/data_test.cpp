// Dataset freezing/IO and JSONL export.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "data/dataset.h"
#include "data/jsonl.h"
#include "measure/testbed.h"
#include "netbase/byte_io.h"
#include "netbase/checksum.h"
#include "util/rng.h"

namespace rr::data {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    measure::TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 606;
    testbed_ = new measure::Testbed{config};
    measure::CampaignConfig campaign_config;
    campaign_config.destination_stride = 3;
    campaign_ = new measure::Campaign{
        measure::Campaign::run(*testbed_, campaign_config)};
    dataset_ = new CampaignDataset{
        CampaignDataset::from_campaign(*campaign_, "unit-test snapshot")};
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete campaign_;
    delete testbed_;
  }

  static measure::Testbed* testbed_;
  static measure::Campaign* campaign_;
  static CampaignDataset* dataset_;
};

measure::Testbed* DatasetTest::testbed_ = nullptr;
measure::Campaign* DatasetTest::campaign_ = nullptr;
CampaignDataset* DatasetTest::dataset_ = nullptr;

TEST_F(DatasetTest, FreezingPreservesShapeAndObservations) {
  EXPECT_EQ(dataset_->num_vps(), campaign_->num_vps());
  EXPECT_EQ(dataset_->num_destinations(), campaign_->num_destinations());
  for (std::size_t v = 0; v < dataset_->num_vps(); v += 3) {
    for (std::size_t d = 0; d < dataset_->num_destinations(); d += 17) {
      EXPECT_EQ(dataset_->at(v, d), campaign_->at(v, d));
    }
  }
}

TEST_F(DatasetTest, OfflineQueriesMatchTheLiveCampaign) {
  for (std::size_t d = 0; d < dataset_->num_destinations(); d += 5) {
    EXPECT_EQ(dataset_->rr_responsive(d), campaign_->rr_responsive(d));
    EXPECT_EQ(dataset_->rr_reachable(d), campaign_->rr_reachable(d));
  }
}

TEST_F(DatasetTest, OfflineTable1MatchesLiveTable1) {
  const auto offline = dataset_->response_table();
  const auto live = measure::build_response_table(*campaign_);
  for (std::size_t i = 0; i < offline.by_ip.size(); ++i) {
    EXPECT_EQ(offline.by_ip[i].probed, live.by_ip[i].probed);
    EXPECT_EQ(offline.by_ip[i].ping_responsive,
              live.by_ip[i].ping_responsive);
    EXPECT_EQ(offline.by_ip[i].rr_responsive, live.by_ip[i].rr_responsive);
    EXPECT_EQ(offline.by_as[i].probed, live.by_as[i].probed);
    EXPECT_EQ(offline.by_as[i].rr_responsive, live.by_as[i].rr_responsive);
  }
}

TEST_F(DatasetTest, SerializeParseRoundTrip) {
  const auto bytes = dataset_->serialize();
  const auto parsed = CampaignDataset::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, *dataset_);
}

TEST_F(DatasetTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/rropt_dataset_test.rrds";
  ASSERT_TRUE(dataset_->save(path));
  const auto loaded = CampaignDataset::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, *dataset_);
  std::remove(path.c_str());
}

TEST_F(DatasetTest, CorruptionIsDetected) {
  auto bytes = dataset_->serialize();
  util::Rng rng{9};
  for (int trial = 0; trial < 40; ++trial) {
    auto corrupted = bytes;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    EXPECT_FALSE(CampaignDataset::parse(corrupted).has_value());
  }
  // Truncation.
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(CampaignDataset::parse(bytes).has_value());
  EXPECT_FALSE(CampaignDataset::parse({}).has_value());
}

TEST_F(DatasetTest, LoadOfMissingFileFails) {
  EXPECT_FALSE(CampaignDataset::load("/tmp/does_not_exist.rrds").has_value());
}

/// A crafted file's fields up to the VP table: magic, version, an empty
/// description and the two counts.
net::ByteWriter crafted_header(std::uint32_t n_vps, std::uint32_t n_dests) {
  net::ByteWriter out;
  out.u32(CampaignDataset::kMagic);
  out.u16(CampaignDataset::kVersion);
  out.u32(0);
  out.u32(n_vps);
  out.u32(n_dests);
  return out;
}

/// Appends the trailer serialize() writes (a zero pad to even length, then
/// the RFC 1071 checksum), so a crafted body gets past the checksum and
/// reaches the parser's own checks.
std::vector<std::uint8_t> seal(net::ByteWriter body) {
  if (body.size() % 2 != 0) body.u8(0);
  body.u16(net::internet_checksum(body.view()));
  return std::move(body).take();
}

TEST(DatasetParse, RejectsOutOfRangeAsType) {
  // One VP, one destination of the given AS type, one observation.
  const auto file = [](std::uint8_t as_type) {
    net::ByteWriter body = crafted_header(1, 1);
    body.u32(0);  // empty site
    body.u8(0);   // platform
    body.u32(0x0a000001);
    body.u32(64512);
    body.u8(as_type);
    body.u8(1);
    body.u32(0);
    return seal(std::move(body));
  };
  const auto valid = CampaignDataset::parse(
      file(static_cast<std::uint8_t>(topo::kNumAsTypes - 1)));
  ASSERT_TRUE(valid.has_value());
  EXPECT_EQ(valid->response_table().by_ip[0].probed, 1u);
  EXPECT_FALSE(CampaignDataset::parse(
                   file(static_cast<std::uint8_t>(topo::kNumAsTypes)))
                   .has_value());
  EXPECT_FALSE(CampaignDataset::parse(file(200)).has_value());
}

TEST(DatasetParse, RejectsCountsBeyondTheBytes) {
  // 50,000,000 destinations declared, 6 bytes of them present.
  net::ByteWriter body = crafted_header(0, 50000000);
  body.zeros(6);
  const auto bytes = seal(std::move(body));
  ASSERT_EQ(bytes.size(), 26u);
  EXPECT_FALSE(CampaignDataset::parse(bytes).has_value());
}

TEST(DatasetParse, HugeDeclaredMatrixIsRejectedWithoutThrowing) {
  // 100,000 empty VP records, then nothing of the 50,000,000 destinations
  // or of the 5e12-cell matrix they declare.
  constexpr std::uint32_t kVps = 100000;
  net::ByteWriter body = crafted_header(kVps, 50000000);
  for (std::uint32_t v = 0; v < kVps; ++v) {
    body.u32(0);
    body.u8(0);
  }
  const auto bytes = seal(std::move(body));
  ASSERT_EQ(bytes.size(), 500020u);
  std::optional<CampaignDataset> parsed;
  EXPECT_NO_THROW(parsed = CampaignDataset::parse(bytes));
  EXPECT_FALSE(parsed.has_value());
}

TEST(Jsonl, EscapesStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string_view{"\x01", 1}), "\\u0001");
}

TEST(Jsonl, ObjectWriter) {
  std::ostringstream out;
  {
    JsonObject object(out);
    object.field("s", "x\"y");
    object.field("i", 42);
    object.field("d", 1.5);
    object.field("b", true);
  }
  EXPECT_EQ(out.str(), R"({"s":"x\"y","i":42,"d":1.5,"b":true})");
}

TEST(Jsonl, ProbeLineContainsTheRecordedRoute) {
  probe::ProbeResult result;
  result.type = probe::ProbeType::kPingRr;
  result.target = *net::IPv4Address::parse("198.51.100.1");
  result.kind = probe::ResponseKind::kEchoReply;
  result.responder = result.target;
  result.rtt = 0.0123;
  result.rr_option_in_reply = true;
  result.rr_recorded = {*net::IPv4Address::parse("10.0.0.1"),
                        *net::IPv4Address::parse("10.0.0.2")};
  result.rr_free_slots = 7;

  std::ostringstream out;
  write_probe_line(out, result, "mlab-001");
  const std::string line = out.str();
  EXPECT_NE(line.find("\"vp\":\"mlab-001\""), std::string::npos);
  EXPECT_NE(line.find("\"type\":\"ping-RR\""), std::string::npos);
  EXPECT_NE(line.find("\"rr\":[\"10.0.0.1\",\"10.0.0.2\"]"),
            std::string::npos);
  EXPECT_NE(line.find("\"rr_free\":7"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(Jsonl, UnansweredProbeOmitsResponseFields) {
  probe::ProbeResult result;
  result.type = probe::ProbeType::kPing;
  result.target = *net::IPv4Address::parse("203.0.113.9");
  std::ostringstream out;
  write_probe_line(out, result);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"result\":\"none\""), std::string::npos);
  EXPECT_EQ(line.find("\"from\""), std::string::npos);
  EXPECT_EQ(line.find("\"rr\""), std::string::npos);
}

TEST(Jsonl, FigureExportTagsSeries) {
  analysis::FigureData figure("t", "x", "y");
  figure.add_series("curve").add(1, 0.5);
  std::ostringstream out;
  write_figure_jsonl(out, figure);
  EXPECT_EQ(out.str(), "{\"series\":\"curve\",\"x\":1,\"y\":0.5}\n");
}

}  // namespace
}  // namespace rr::data
