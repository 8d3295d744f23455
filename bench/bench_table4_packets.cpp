// Table 4: number and type of packets sent per system configuration,
// with the incremental improvements of the revtr 2.0 components:
//
//   revtr 2.0 = revtr 1.0 + ingress + cache - TS + RR atlas
//
// Paper result: revtr 2.0 sends 26% as many probes as revtr 1.0 (73K vs
// 275K for 8,093 reverse traceroutes), with the VP-selection technique
// contributing most of the savings.
//
// Writes BENCH_table4_packets.json (bench::write_bench_artifact): packets by
// type per configuration, the total, and its ratio to revtr 1.0. Packet
// counts are deterministic for a given set of flags, so unlike the timing
// artifacts they compare exactly across runs and machines.
#include <cstdio>

#include "ablation.h"
#include "bench_common.h"

using namespace revtr;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto setup = bench::parse_setup(flags);
  bench::warn_unknown_flags(flags);
  bench::print_header("Table 4: packets sent, with incremental components",
                      setup);

  const auto chain = bench::table4_chain();
  std::vector<bench::AblationResult> results;
  for (const auto& config : chain) {
    results.push_back(bench::run_ablation(setup, config));
  }

  util::TextTable table({"Configuration", "RR", "Spoof RR", "TS", "Spoof TS",
                         "Traceroute", "Total", "vs revtr 1.0"});
  const double baseline =
      static_cast<double>(results.front().online.total());
  for (const auto& result : results) {
    const auto& c = result.online;
    table.add_row({result.label, util::cell_count(c.rr),
                   util::cell_count(c.spoofed_rr), util::cell_count(c.ts),
                   util::cell_count(c.spoofed_ts),
                   util::cell_count(c.traceroute_packets),
                   util::cell_count(c.total()),
                   util::cell_percent(
                       baseline == 0
                           ? 0.0
                           : static_cast<double>(c.total()) / baseline)});
  }
  std::printf("%s\n", table.render().c_str());

  util::Json configurations = util::Json::array();
  for (const auto& result : results) {
    const auto& c = result.online;
    util::Json row = util::Json::object();
    row["configuration"] = result.label;
    row["ping"] = c.ping;
    row["rr"] = c.rr;
    row["spoofed_rr"] = c.spoofed_rr;
    row["ts"] = c.ts;
    row["spoofed_ts"] = c.spoofed_ts;
    row["traceroute_packets"] = c.traceroute_packets;
    row["traceroutes"] = c.traceroutes;
    row["total"] = c.total();
    row["ratio_to_revtr1"] =
        baseline == 0 ? 0.0 : static_cast<double>(c.total()) / baseline;
    row["attempted"] = static_cast<std::uint64_t>(result.attempted);
    row["coverage"] = result.coverage();
    configurations.push_back(std::move(row));
  }

  // Mean spoofed-RR probes per measured path (Insight 1.8: 9 vs 29).
  util::TextTable rr_table(
      {"Configuration", "mean spoofed RR / path", "coverage"});
  for (const auto& result : results) {
    const double mean =
        result.attempted == 0
            ? 0.0
            : static_cast<double>(result.online.spoofed_rr) /
                  static_cast<double>(result.attempted);
    rr_table.add_row({result.label, util::cell(mean),
                      util::cell_percent(result.coverage())});
  }
  std::printf("%s\n", rr_table.render().c_str());
  std::printf(
      "paper: revtr 2.0 sends ~26%% of revtr 1.0's probes; ingress-based\n"
      "VP selection contributes the largest share of the savings.\n");

  // The top level repeats the headline (first = revtr 1.0, last = revtr
  // 2.0) so the check.sh schema smoke can read it without JSON tooling.
  util::Json config = util::Json::object();
  config["ases"] = static_cast<std::uint64_t>(setup.topo.num_ases);
  config["vps"] = static_cast<std::uint64_t>(setup.topo.num_vps);
  config["probes"] = static_cast<std::uint64_t>(setup.topo.num_probe_hosts);
  config["revtrs"] = static_cast<std::uint64_t>(setup.revtrs);
  config["atlas"] = static_cast<std::uint64_t>(setup.atlas_size);
  config["sources"] = static_cast<std::uint64_t>(setup.sources);
  config["seed"] = setup.seed;
  const auto& revtr2 = results.back().online;
  util::Json out = util::Json::object();
  out["config"] = std::move(config);
  out["configurations"] = std::move(configurations);
  out["revtr1_total"] = results.front().online.total();
  out["revtr2_total"] = revtr2.total();
  out["revtr2_traceroute_packets"] = revtr2.traceroute_packets;
  out["revtr2_ratio_to_revtr1"] =
      baseline == 0 ? 0.0 : static_cast<double>(revtr2.total()) / baseline;
  out["peak_rss_bytes"] = static_cast<double>(bench::peak_rss_bytes());
  bench::write_bench_artifact("table4_packets", out);
  return 0;
}
