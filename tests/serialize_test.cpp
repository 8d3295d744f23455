#include <gtest/gtest.h>
#include <memory>

#include "core/serialize.h"
#include "eval/harness.h"
#include "service/archive.h"

namespace revtr {
namespace {

using topology::HostId;

topology::TopologyConfig small_config() {
  topology::TopologyConfig config;
  config.seed = 111;
  config.num_ases = 150;
  config.num_vps = 8;
  config.num_vps_2016 = 3;
  config.num_probe_hosts = 40;
  return config;
}

class SerializeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = std::make_unique<eval::Lab>(small_config());
    source_ = lab_->topo.vantage_points()[0];
    lab_->bootstrap_source(source_, 30);
    util::SimClock clock;
    for (std::size_t i = 0; i < 6; ++i) {
      results_.push_back(lab_->engine.measure(lab_->topo.probe_hosts()[i],
                                              source_, clock));
    }
  }
  static void TearDownTestSuite() {
    lab_.reset();
    results_.clear();
  }
  static std::unique_ptr<eval::Lab> lab_;
  static HostId source_;
  static std::vector<core::ReverseTraceroute> results_;
};

std::unique_ptr<eval::Lab> SerializeFixture::lab_;
HostId SerializeFixture::source_ = topology::kInvalidId;
std::vector<core::ReverseTraceroute> SerializeFixture::results_;

TEST_F(SerializeFixture, JsonContainsCoreFields) {
  const auto json = core::to_json(results_[0], lab_->topo);
  EXPECT_TRUE(json.find("destination")->is_string());
  EXPECT_TRUE(json.find("source")->is_string());
  EXPECT_TRUE(json.find("status")->is_string());
  EXPECT_EQ(json.find("hops")->as_array().size(), results_[0].hops.size());
  EXPECT_TRUE(json.find("flags")->find("dbr_suspect")->is_bool());
  EXPECT_GE(json.find("probes")->find("spoofed_rr")->as_int(), 0);
}

TEST_F(SerializeFixture, RoundTripPreservesEverything) {
  for (const auto& result : results_) {
    const auto json = core::to_json(result, lab_->topo);
    // Through text and back, like the archive does.
    const auto reparsed = util::Json::parse(json.dump());
    ASSERT_TRUE(reparsed);
    const auto restored =
        core::reverse_traceroute_from_json(*reparsed, lab_->topo);
    ASSERT_TRUE(restored);
    EXPECT_EQ(restored->destination, result.destination);
    EXPECT_EQ(restored->source, result.source);
    EXPECT_EQ(restored->status, result.status);
    ASSERT_EQ(restored->hops.size(), result.hops.size());
    for (std::size_t h = 0; h < result.hops.size(); ++h) {
      EXPECT_EQ(restored->hops[h].source, result.hops[h].source);
      if (result.hops[h].source != core::HopSource::kSuspiciousGap) {
        EXPECT_EQ(restored->hops[h].addr, result.hops[h].addr);
      }
    }
    EXPECT_EQ(restored->span.duration(), result.span.duration());
    EXPECT_EQ(restored->probes.spoofed_rr, result.probes.spoofed_rr);
    EXPECT_EQ(restored->symmetry_assumptions, result.symmetry_assumptions);
    EXPECT_EQ(restored->has_suspicious_gap, result.has_suspicious_gap);
  }
}

// Pins the wire format byte-for-byte: key order (std::map), compact
// separators, hop encoding (gap hops omit "addr"), and flag spelling. Any
// change to hop storage that altered serialization would shift these bytes.
TEST_F(SerializeFixture, GoldenWireFormatIsByteStable) {
  core::ReverseTraceroute r;
  r.destination = lab_->topo.probe_hosts()[0];
  r.source = source_;
  r.status = core::RevtrStatus::kComplete;
  r.hops.push_back(core::ReverseHop{*net::Ipv4Addr::parse("203.0.113.7"),
                                    core::HopSource::kDestination});
  r.hops.push_back(core::ReverseHop{*net::Ipv4Addr::parse("198.51.100.9"),
                                    core::HopSource::kSpoofedRecordRoute});
  r.hops.push_back(
      core::ReverseHop{net::Ipv4Addr{}, core::HopSource::kSuspiciousGap});
  r.hops.push_back(core::ReverseHop{*net::Ipv4Addr::parse("192.0.2.1"),
                                    core::HopSource::kAssumedSymmetric});
  r.span.begin = 0;
  r.span.end = 1234;
  r.probes.ping = 1;
  r.probes.rr = 2;
  r.probes.spoofed_rr = 9;
  r.probes.ts = 3;
  r.probes.spoofed_ts = 4;
  r.probes.traceroute_packets = 5;
  r.spoofed_batches = 2;
  r.symmetry_assumptions = 1;
  r.has_suspicious_gap = true;

  const std::string dst = lab_->topo.host(r.destination).addr.to_string();
  const std::string src = lab_->topo.host(r.source).addr.to_string();
  const std::string expected =
      "{\"destination\":\"" + dst +
      "\",\"flags\":{\"dbr_suspect\":false,\"interdomain_symmetry\":false,"
      "\"private_hops\":false,\"stale_traceroute\":false,"
      "\"suspicious_gap\":true},"
      "\"hops\":[{\"addr\":\"203.0.113.7\",\"via\":\"destination\"},"
      "{\"addr\":\"198.51.100.9\",\"via\":\"spoofed-rr\"},"
      "{\"via\":\"*\"},"
      "{\"addr\":\"192.0.2.1\",\"via\":\"assumed-symmetric\"}],"
      "\"latency_us\":1234,"
      "\"probes\":{\"ping\":1,\"rr\":2,\"spoofed_rr\":9,\"spoofed_ts\":4,"
      "\"traceroute_packets\":5,\"ts\":3},"
      "\"source\":\"" + src +
      "\",\"spoofed_batches\":2,\"status\":\"complete\","
      "\"symmetry_assumptions\":1}";
  EXPECT_EQ(core::to_json(r, lab_->topo).dump(), expected);

  // And the golden bytes survive a decode/encode cycle unchanged.
  const auto reparsed = util::Json::parse(expected);
  ASSERT_TRUE(reparsed);
  const auto restored =
      core::reverse_traceroute_from_json(*reparsed, lab_->topo);
  ASSERT_TRUE(restored);
  EXPECT_EQ(core::to_json(*restored, lab_->topo).dump(), expected);
  EXPECT_TRUE(restored->hops == r.hops);
}

// Every measured result re-serializes to the same bytes after a decode:
// dump -> parse -> from_json -> to_json -> dump is the identity.
TEST_F(SerializeFixture, ReserializationIsByteIdentical) {
  for (const auto& result : results_) {
    const std::string bytes = core::to_json(result, lab_->topo).dump();
    const auto reparsed = util::Json::parse(bytes);
    ASSERT_TRUE(reparsed);
    const auto restored =
        core::reverse_traceroute_from_json(*reparsed, lab_->topo);
    ASSERT_TRUE(restored);
    EXPECT_EQ(core::to_json(*restored, lab_->topo).dump(), bytes);
  }
}

TEST_F(SerializeFixture, MalformedDocumentsRejected) {
  EXPECT_FALSE(core::reverse_traceroute_from_json(util::Json(), lab_->topo));
  util::Json missing_status = core::to_json(results_[0], lab_->topo);
  missing_status.as_object().erase("status");
  EXPECT_FALSE(
      core::reverse_traceroute_from_json(missing_status, lab_->topo));
  util::Json bad_addr = core::to_json(results_[0], lab_->topo);
  bad_addr["destination"] = "999.999.0.1";
  EXPECT_FALSE(core::reverse_traceroute_from_json(bad_addr, lab_->topo));
  util::Json unknown_host = core::to_json(results_[0], lab_->topo);
  unknown_host["destination"] = "203.0.113.1";  // Not a host in the topo.
  EXPECT_FALSE(core::reverse_traceroute_from_json(unknown_host, lab_->topo));
}

// --------------------------------------------------------------------------
// MeasurementArchive
// --------------------------------------------------------------------------

TEST_F(SerializeFixture, ArchiveRecordsAndQueries) {
  service::MeasurementArchive archive(lab_->topo);
  for (std::size_t i = 0; i < results_.size(); ++i) {
    archive.record(results_[i], static_cast<util::SimClock::Micros>(i) *
                                    util::SimClock::kHour);
  }
  EXPECT_EQ(archive.size(), results_.size());
  EXPECT_EQ(archive.by_source(source_).size(), results_.size());
  EXPECT_EQ(archive.by_destination(results_[2].destination).size(), 1u);
  EXPECT_EQ(archive.since(4 * util::SimClock::kHour).size(), 2u);

  const auto stats = archive.stats();
  EXPECT_EQ(stats.total, results_.size());
  EXPECT_EQ(stats.complete + stats.aborted + stats.unreachable,
            results_.size());
}

TEST_F(SerializeFixture, ArchiveNdjsonRoundTrip) {
  service::MeasurementArchive archive(lab_->topo);
  for (const auto& result : results_) archive.record(result, 42);
  const auto ndjson = archive.export_ndjson();
  EXPECT_EQ(std::count(ndjson.begin(), ndjson.end(), '\n'),
            static_cast<long>(results_.size()));

  service::MeasurementArchive restored(lab_->topo);
  EXPECT_EQ(restored.import_ndjson(ndjson), results_.size());
  EXPECT_EQ(restored.size(), archive.size());
  for (std::size_t i = 0; i < results_.size(); ++i) {
    EXPECT_EQ(restored.entries()[i].measurement.status, results_[i].status);
    EXPECT_EQ(restored.entries()[i].recorded_at, 42);
  }
}

// The online/offline probe split (Table 4 accounting) must survive the
// round trip; offline_probes is emitted only when nonzero.
TEST_F(SerializeFixture, OfflineProbesRoundTrip) {
  auto result = results_[0];
  result.offline_probes = probing::ProbeCounters{};
  result.offline_probes.rr = 17;
  result.offline_probes.traceroute_packets = 42;
  const auto json = core::to_json(result, lab_->topo);
  const auto restored = core::reverse_traceroute_from_json(json, lab_->topo);
  ASSERT_TRUE(restored);
  EXPECT_EQ(restored->offline_probes.rr, 17u);
  EXPECT_EQ(restored->offline_probes.traceroute_packets, 42u);

  auto none = results_[0];
  none.offline_probes = probing::ProbeCounters{};
  EXPECT_EQ(core::to_json(none, lab_->topo).find("offline_probes"), nullptr);
  const auto restored_none =
      core::reverse_traceroute_from_json(core::to_json(none, lab_->topo),
                                         lab_->topo);
  ASSERT_TRUE(restored_none);
  EXPECT_EQ(restored_none->offline_probes.total(), 0u);
}

TEST_F(SerializeFixture, ArchiveImportSkipsGarbageLines) {
  service::MeasurementArchive archive(lab_->topo);
  archive.record(results_[0], 1);
  std::string ndjson = archive.export_ndjson();
  ndjson = "not json\n" + ndjson + "\n{\"recorded_at_us\": 5}\n\n";
  service::MeasurementArchive restored(lab_->topo);
  EXPECT_EQ(restored.import_ndjson(ndjson), 1u);
}

}  // namespace
}  // namespace revtr
