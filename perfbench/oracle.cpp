#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "probing/prober.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace perfbench {

namespace rt = revtr;

namespace {

std::uint64_t pair_key(const Request& r) {
  return (static_cast<std::uint64_t>(r.source_index) << 32) | r.dest_index;
}

struct Reference {
  rt::core::RevtrStatus status = rt::core::RevtrStatus::kUnreachable;
  std::vector<rt::server::ResultHop> hops;
};

// A private measurement stack over the shared, read-only world, like one
// daemon worker's: same network seed, caches off.
struct OracleStack {
  rt::sim::Network network;
  rt::probing::Prober prober;
  rt::core::RevtrEngine engine;

  OracleStack(const World& world, const rt::core::EngineConfig& config,
              std::uint64_t net_seed)
      : network(world.lab->topo, world.lab->plane, net_seed),
        prober(network),
        engine(prober, world.lab->topo, world.lab->atlas, world.lab->ingress,
               world.lab->ip2as, world.lab->relationships, config, net_seed) {}
};

}  // namespace

Verdict check_against_oracle(const Workload& workload, const World& world,
                             const std::vector<Observed>& observed,
                             std::size_t threads) {
  std::vector<std::uint64_t> keys;
  keys.reserve(observed.size());
  for (const Observed& o : observed) keys.push_back(pair_key(o.request));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  rt::core::EngineConfig config = rt::core::EngineConfig::revtr2();
  config.use_cache = false;
  const std::uint64_t net_seed = rt::util::mix_hash(workload.lab_seed, 0x6e7ULL);
  const auto& hosts = world.lab->topo.probe_hosts();

  std::vector<Reference> refs(keys.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    OracleStack stack(world, config, net_seed);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= keys.size()) return;
      const auto dest = static_cast<std::uint32_t>(keys[i] & 0xffffffffULL);
      const auto src = static_cast<std::uint32_t>(keys[i] >> 32);
      stack.engine.reseed(rt::util::mix_hash(workload.lab_seed, keys[i]));
      rt::util::SimClock clock;
      const auto measured =
          stack.engine.measure(hosts[dest], world.sources[src], clock);
      refs[i].status = measured.status;
      for (const auto& hop : measured.hops) {
        refs[i].hops.push_back(rt::server::ResultHop{hop.addr, hop.source});
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back(work);
  }
  work();
  for (auto& thread : pool) thread.join();

  Verdict verdict;
  verdict.distinct_pairs = keys.size();
  for (const Observed& o : observed) {
    const auto it =
        std::lower_bound(keys.begin(), keys.end(), pair_key(o.request));
    const Reference& ref = refs[static_cast<std::size_t>(it - keys.begin())];
    ++verdict.checked;
    if (o.status == ref.status && o.hops == ref.hops) continue;
    ++verdict.wrong;
    if (o.status != ref.status) {
      ++verdict.wrong_status;
      continue;
    }
    bool same_addresses = o.hops.size() == ref.hops.size();
    for (std::size_t h = 0; same_addresses && h < o.hops.size(); ++h) {
      same_addresses = o.hops[h].addr == ref.hops[h].addr;
    }
    if (same_addresses) {
      ++verdict.wrong_provenance;
    } else {
      ++verdict.wrong_address;
    }
  }
  return verdict;
}

}  // namespace perfbench
