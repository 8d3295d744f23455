// Concurrency regression suite. Everything here is meant to run under TSan
// (scripts/check.sh builds the tsan preset and runs this binary): the tests
// exercise exactly the shared paths of a parallel campaign — the thread
// pool, the synchronized Distribution, the lock-striped caches — plus the
// end-to-end guarantee that a campaign's measurement set is independent of
// worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/harness.h"
#include "obs/metrics.h"
#include "service/parallel.h"
#include "util/stats.h"
#include "util/striped_map.h"
#include "util/thread_pool.h"

namespace revtr {
namespace {

using topology::HostId;

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  util::ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i, &order] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPool, RunsEveryTaskAcrossWorkers) {
  util::ThreadPool pool(4);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&done] {
      const std::size_t w = util::ThreadPool::current_worker();
      EXPECT_LT(w, 4u);
      done.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, SubmitReturnsTaskValue) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  util::ThreadPool pool(2);
  auto boom = pool.submit([]() -> int {
    throw std::runtime_error("probe batch failed");
  });
  EXPECT_THROW(boom.get(), std::runtime_error);
  // The worker that threw must keep serving tasks.
  auto ok = pool.submit([] { return 7; });
  EXPECT_EQ(ok.get(), 7);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    util::ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // Destructor must wait for all 50, not just the running one.
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, TinyQueueStillCompletesEverything) {
  // Capacity 1 forces submitters to block on the not-full condition; every
  // task must still run exactly once.
  util::ThreadPool pool(2, /*queue_capacity=*/1);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit(
        [&done] { done.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, CurrentWorkerOutsidePoolIsSentinel) {
  EXPECT_EQ(util::ThreadPool::current_worker(), util::ThreadPool::kNotAWorker);
}

// Shutdown racing a submitter parked on a full queue: the destructor's
// shutdown broadcast must wake the blocked submitter into a throw, not a
// deadlock (submitter waiting on not_full_ forever, destructor waiting on
// join) and not a process abort.
TEST(ThreadPool, ShutdownWhileQueueFullThrowsInsteadOfDeadlocking) {
  std::atomic<bool> release{false};
  std::atomic<bool> submitter_threw{false};
  std::atomic<bool> submitter_parked{false};
  auto pool = std::make_unique<util::ThreadPool>(1, /*queue_capacity=*/1);

  // Occupy the single worker until released...
  pool->submit([&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // ...and fill the one queue slot behind it.
  auto queued = pool->submit([] {});

  // The submitter must not read the unique_ptr itself once the destroyer
  // starts reset()ing it — only the pool object, whose destructor cannot
  // finish while the worker is pinned on `release`.
  util::ThreadPool& pool_ref = *pool;
  std::thread submitter([&pool_ref, &submitter_threw, &submitter_parked] {
    submitter_parked.store(true, std::memory_order_release);
    try {
      // Queue is full: this blocks on not_full_ until shutdown wakes it.
      pool_ref.submit([] {});
    } catch (const std::runtime_error&) {
      submitter_threw.store(true, std::memory_order_release);
    }
  });
  while (!submitter_parked.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Give the submitter time to actually park inside submit().
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The worker is still pinned on `release`, so the queue slot cannot free
  // up: the only thing that can wake the parked submitter is the
  // destructor's shutdown broadcast, and it must wake into a throw.
  std::thread destroyer([&pool] { pool.reset(); });
  submitter.join();
  EXPECT_TRUE(submitter_threw.load());
  // Now let the worker finish so the destructor can drain and join.
  release.store(true, std::memory_order_release);
  destroyer.join();
  queued.get();  // Work queued before shutdown is never dropped.

  // And an unambiguous post-shutdown submit on a live-then-dead pool also
  // throws rather than aborting (can't test after reset; recreate).
  util::ThreadPool fresh(1);
  auto ok = fresh.submit([] { return 3; });
  EXPECT_EQ(ok.get(), 3);
}

// --- Distribution (the const_cast data race, fixed) ----------------------

// Regression for the ensure_sorted const_cast: quantile() used to sort the
// sample vector through a const_cast with no synchronization, so a reader
// racing a writer corrupted the vector. Under TSan this test fails on the
// old code; on any build it must not crash and must keep counts exact.
TEST(DistributionConcurrency, ReaderRacingWriterIsSafe) {
  util::Distribution dist;
  constexpr int kSamples = 20000;
  std::thread writer([&dist] {
    for (int i = 0; i < kSamples; ++i) dist.add(i);
  });
  std::thread reader([&dist] {
    // quantile() of an empty distribution throws; start once the writer's
    // first add() has landed.
    while (dist.count() == 0) std::this_thread::yield();
    for (int i = 0; i < 2000; ++i) {
      const double q = dist.quantile(0.5);
      EXPECT_GE(q, 0.0);
      EXPECT_GE(dist.cdf_at(static_cast<double>(kSamples)), 0.0);
      (void)dist.mean();
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(dist.count(), static_cast<std::size_t>(kSamples));
  EXPECT_DOUBLE_EQ(dist.max(), kSamples - 1.0);
  EXPECT_DOUBLE_EQ(dist.quantile(0.0), 0.0);
}

TEST(DistributionConcurrency, TwoQuantileReadersShareSafely) {
  // Two pure readers both trigger the lazy sort; the old code let them sort
  // the same vector simultaneously.
  util::Distribution dist;
  for (int i = 5000; i-- > 0;) dist.add(i);
  std::thread a([&dist] {
    for (int i = 0; i < 3000; ++i) (void)dist.quantile(0.9);
  });
  std::thread b([&dist] {
    for (int i = 0; i < 3000; ++i) (void)dist.median();
  });
  a.join();
  b.join();
  EXPECT_DOUBLE_EQ(dist.median(), 2499.5);
}

// --- StripedMap ----------------------------------------------------------

TEST(StripedMap, ConcurrentInsertAndLookup) {
  util::StripedMap<std::vector<int>> map;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto key =
            static_cast<std::uint64_t>(t) * kPerThread + static_cast<std::uint64_t>(i);
        map.insert_or_assign(key, std::vector<int>{t, i});
        // Read back own writes and probe other threads' keys.
        const auto mine = map.lookup(key);
        ASSERT_TRUE(mine.has_value());
        EXPECT_EQ((*mine)[0], t);
        (void)map.lookup(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kThreads * kPerThread));
  const auto probe = map.lookup(3 * kPerThread + 17);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ((*probe)[1], 17);
}

// Writers hammer a deliberately small overlapping key range so every stripe's
// FlatMap sees concurrent overwrites AND growth-triggered rehashes while
// readers walk the same stripes under shared locks. TSan validates that the
// stripe locks fully cover the flat tables' internal mutation (rehash moves
// every slot, backward pressure on the same cache lines readers scan).
TEST(StripedMap, OverlappingChurnWithConcurrentReaders) {
  util::StripedMap<std::uint64_t> map;
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kKeySpace = 512;  // Small => same-stripe collisions.
  constexpr int kOpsPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&map, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const auto key = static_cast<std::uint64_t>(i) % kKeySpace;
        map.insert_or_assign(key, static_cast<std::uint64_t>(t) << 32 |
                                      static_cast<std::uint64_t>(i));
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&map, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::uint64_t key = 0; key < kKeySpace; ++key) {
          const auto value = map.lookup(key);
          if (value.has_value()) {
            // Values are (writer << 32 | op); op stays within bounds.
            EXPECT_LT(*value & 0xffffffffu,
                      static_cast<std::uint64_t>(kOpsPerWriter));
          }
          (void)map.contains(key);
        }
        (void)map.size();
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  // Every key in the space was written by every writer; the last write of
  // some writer won each slot, so all keys must be present.
  EXPECT_EQ(map.size(), kKeySpace);
  for (std::uint64_t key = 0; key < kKeySpace; ++key) {
    EXPECT_TRUE(map.contains(key)) << key;
  }
}

// --- Sharded metrics ------------------------------------------------------

// Pool workers and non-pool threads hammer the same counter cells; the
// merged total must equal the number of adds. TSan validates that the
// relaxed per-shard atomics really are race-free.
TEST(ShardedMetrics, ConcurrentCounterAddsMergeExactly) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("revtr_test_adds_total");
  constexpr int kTasks = 64;
  constexpr std::uint64_t kAddsPerTask = 5000;
  {
    util::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kTasks; ++t) {
      futures.push_back(pool.submit([&counter] {
        for (std::uint64_t i = 0; i < kAddsPerTask; ++i) counter.add();
      }));
    }
    // A non-pool writer exercises shard 0 concurrently with the workers.
    std::thread outsider([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerTask; ++i) counter.add(2);
    });
    for (auto& f : futures) f.get();
    outsider.join();
  }
  EXPECT_EQ(counter.total(), (kTasks + 2) * kAddsPerTask);
}

TEST(ShardedMetrics, ConcurrentHistogramRecordsMergeExactly) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("revtr_test_latency_us");
  constexpr int kTasks = 32;
  constexpr std::uint64_t kSamplesPerTask = 2000;
  std::uint64_t want_sum = 0;
  for (std::uint64_t i = 0; i < kSamplesPerTask; ++i) want_sum += i * 7;
  {
    util::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kTasks; ++t) {
      futures.push_back(pool.submit([&hist] {
        for (std::uint64_t i = 0; i < kSamplesPerTask; ++i) hist.record(i * 7);
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(hist.count(), kTasks * kSamplesPerTask);
  EXPECT_EQ(hist.sum(), static_cast<std::uint64_t>(kTasks) * want_sum);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    bucket_total += hist.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, hist.count());
}

// Snapshots (the campaign's merge-at-barrier) run concurrently with
// writers and with get-or-create registration of fresh names. Mid-run
// snapshot values are racy by design; the invariants are: no TSan report,
// handles are stable, and the final merged totals are exact.
TEST(ShardedMetrics, SnapshotAndRegistrationDuringConcurrentWrites) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("revtr_test_probes_total");
  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snapshot = registry.snapshot();
      EXPECT_GE(snapshot.counters.size(), 1u);
    }
  });
  constexpr int kTasks = 32;
  constexpr std::uint64_t kAddsPerTask = 3000;
  {
    util::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kTasks; ++t) {
      futures.push_back(pool.submit([&registry, &counter, t] {
        // Same-name registration from many threads must converge on one cell.
        obs::Counter& again = registry.counter("revtr_test_probes_total");
        EXPECT_EQ(&again, &counter);
        obs::Gauge& mine = registry.gauge(
            "revtr_test_worker_gauge{worker=\"" + std::to_string(t % 4) +
            "\"}");
        mine.set(t);
        for (std::uint64_t i = 0; i < kAddsPerTask; ++i) again.add();
      }));
    }
    for (auto& f : futures) f.get();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(counter.total(), kTasks * kAddsPerTask);
  EXPECT_EQ(registry.size(), 1u + 4u);  // Counter + one gauge per worker id.
}

// --- TracerouteAtlas (refresh racing readers, fixed) ----------------------

// Regression for the atlas refresh-vs-read race: refresh() clears and
// re-measures a source's traceroute vector in place, and the old accessors
// handed out references into that vector, so a reader racing the daily
// refresh walked freed hop storage. Under TSan the old code reports here;
// the fix serializes content access through the per-source stripe and
// returns snapshots by value (atlas.h).
TEST(AtlasConcurrency, RefreshRacingReadersIsSafe) {
  topology::TopologyConfig config;
  config.seed = 77;
  config.num_ases = 150;
  config.num_vps = 8;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 50;
  eval::Lab lab(config);
  const HostId source = lab.topo.vantage_points()[0];
  static constexpr std::size_t kAtlasSize = 25;
  lab.atlas.build(source, kAtlasSize, lab.rng);
  lab.atlas.build_rr_alias_index(source);
  // Probe the initial snapshot's hop addresses: refresh keeps re-measuring
  // over them, so lookups keep hitting live and stale entries alike.
  std::vector<net::Ipv4Addr> addrs;
  for (const auto& tr : lab.atlas.traceroutes(source)) {
    for (const auto hop : tr.hops) addrs.push_back(hop);
  }
  ASSERT_FALSE(addrs.empty());

  std::atomic<bool> stop{false};
  // The Prober is not thread-safe: only the refresher thread measures.
  std::thread refresher([&lab, &stop, source] {
    util::Rng rng(123);
    for (int round = 1; round <= 6; ++round) {
      lab.atlas.refresh(source, rng, round * util::SimClock::kDay);
      lab.atlas.build_rr_alias_index(source);
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&lab, &stop, &addrs, source] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto addr = addrs[i++ % addrs.size()];
        if (const auto hit = lab.atlas.intersect(source, addr, true)) {
          // A stale hit must degrade to an empty suffix, never a crash.
          (void)lab.atlas.suffix_after(source, *hit);
          (void)lab.atlas.touch(source, *hit, util::SimClock::kDay);
        }
        EXPECT_EQ(lab.atlas.traceroute_count(source), kAtlasSize);
        (void)lab.atlas.rr_index_size(source);
        // Snapshots stay internally consistent mid-refresh: right size,
        // every traceroute measured (refresh rewrites them in one critical
        // section, so a half-refreshed vector must never be visible).
        const auto snapshot = lab.atlas.traceroutes(source);
        EXPECT_EQ(snapshot.size(), kAtlasSize);
        for (const auto& tr : snapshot) {
          EXPECT_NE(tr.probe, topology::kInvalidId);
        }
      }
    });
  }
  refresher.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(lab.atlas.traceroute_count(source), kAtlasSize);
}

// --- IngressDiscovery (re-survey racing plan readers, fixed) ---------------

// Regression for the ingress plan rebuild-vs-read race revtr_lint's
// guard-escape pass flagged: discover() used to rebuild a prefix's
// PrefixPlan in place inside the guarded map and both it and plan_for()
// handed out references into that map, so a campaign worker reading a plan
// raced a concurrent re-survey of the same prefix. The fix builds each
// survey into a fresh shared_ptr<const PrefixPlan> and swaps the map entry,
// so an earlier snapshot stays internally consistent however many
// re-surveys land after it. Under TSan the old code reports here.
TEST(IngressConcurrency, RediscoveryRacingPlanReadersIsSafe) {
  topology::TopologyConfig config;
  config.seed = 83;
  config.num_ases = 150;
  config.num_vps = 8;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 50;
  eval::Lab lab(config);
  const auto prefixes = lab.customer_prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto prefix = prefixes[0];
  const auto vps = lab.topo.vantage_points();
  const auto first = lab.ingress.discover(prefix, vps, lab.rng);
  ASSERT_NE(first, nullptr);
  const std::size_t first_vps = first->vp_info.size();
  const std::size_t first_ingresses = first->ingresses.size();

  std::atomic<bool> stop{false};
  // The Prober is not thread-safe: only the surveyor thread re-discovers.
  std::thread surveyor([&lab, &stop, prefix, vps] {
    util::Rng rng(321);
    for (int round = 0; round < 6; ++round) {
      (void)lab.ingress.discover(prefix, vps, rng);
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back(
        [&lab, &stop, &first, prefix, first_vps, first_ingresses] {
          while (!stop.load(std::memory_order_acquire)) {
            // The pre-survey snapshot never changes under re-discovery.
            EXPECT_EQ(first->vp_info.size(), first_vps);
            EXPECT_EQ(first->ingresses.size(), first_ingresses);
            (void)first->fallback_ranking();
            // plan_for hands out some complete survey (old or new), never
            // a half-built plan.
            const auto current = lab.ingress.plan_for(prefix);
            ASSERT_NE(current, nullptr);
            EXPECT_EQ(current->prefix, prefix);
            (void)vpselect::attempt_plan(*current);
          }
        });
  }
  surveyor.join();
  for (auto& t : readers) t.join();
}

// --- ParallelCampaignDriver ----------------------------------------------

class ParallelCampaignTest : public ::testing::Test {
 protected:
  static topology::TopologyConfig small_config() {
    topology::TopologyConfig config;
    config.seed = 91;
    config.num_ases = 150;
    config.num_vps = 10;
    config.num_vps_2016 = 4;
    config.num_probe_hosts = 40;
    return config;
  }

  void SetUp() override {
    lab_ = std::make_unique<eval::Lab>(small_config());
    source_ = lab_->topo.vantage_points()[0];
    lab_->bootstrap_source(source_, 30);
    const auto dests = lab_->responsive_destinations(true);
    for (std::size_t i = 0; i < 16 && i < dests.size(); ++i) {
      pairs_.emplace_back(dests[i], source_);
    }
    ASSERT_GE(pairs_.size(), 8u);
  }

  service::CampaignDeps deps() {
    return {lab_->topo,  lab_->plane, lab_->atlas,
            lab_->ingress, lab_->ip2as, lab_->relationships};
  }

  service::ParallelCampaignReport run_with(
      std::size_t workers, bool use_cache = true,
      service::EngineMode mode = service::EngineMode::kBlocking,
      bool coalesce = true) {
    service::ParallelCampaignOptions options;
    options.workers = workers;
    options.seed = 7;
    options.engine.use_cache = use_cache;
    options.mode = mode;
    options.sched.coalesce = coalesce;
    service::ParallelCampaignDriver driver(deps(), options);
    return driver.run(pairs_);
  }

  // The measurement identity the driver promises is worker-count-invariant:
  // endpoints, status, and the exact hop sequence (address + provenance).
  static std::string signature(const core::ReverseTraceroute& r) {
    std::string s = std::to_string(r.destination) + ">" +
                    std::to_string(r.source) + ":" + core::to_string(r.status);
    for (const auto& hop : r.hops) {
      s += "|";
      s += hop.addr.to_string();
      s += "/";
      s += core::to_string(hop.source);
    }
    return s;
  }

  std::unique_ptr<eval::Lab> lab_;
  HostId source_ = topology::kInvalidId;
  std::vector<std::pair<HostId, HostId>> pairs_;
};

TEST_F(ParallelCampaignTest, MatchesSingleThreadedMeasurements) {
  const auto solo = run_with(1);
  const auto fleet = run_with(3);
  ASSERT_EQ(solo.results.size(), pairs_.size());
  ASSERT_EQ(fleet.results.size(), pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    EXPECT_EQ(signature(solo.results[i]), signature(fleet.results[i]))
        << "request " << i << " measured differently on 3 workers";
  }
  EXPECT_EQ(solo.stats.completed, fleet.stats.completed);
  EXPECT_EQ(solo.stats.aborted, fleet.stats.aborted);
  EXPECT_EQ(solo.stats.unreachable, fleet.stats.unreachable);
}

TEST_F(ParallelCampaignTest, SharedCacheDoesNotChangeResults) {
  const auto cold = run_with(2, /*use_cache=*/false);
  const auto warm = run_with(2, /*use_cache=*/true);
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    EXPECT_EQ(signature(cold.results[i]), signature(warm.results[i]))
        << "cache changed the outcome of request " << i;
  }
  // Caching can only save probes, never spend more.
  EXPECT_LE(warm.stats.probes.total(), cold.stats.probes.total());
}

TEST_F(ParallelCampaignTest, MergedStatsAreConsistent) {
  const auto report = run_with(4);
  const auto& stats = report.stats;
  EXPECT_EQ(stats.requested, pairs_.size());
  EXPECT_EQ(stats.completed + stats.aborted + stats.unreachable,
            pairs_.size());
  EXPECT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.latency_seconds.count(), pairs_.size());
  EXPECT_GT(stats.probes.total(), 0u);
  ASSERT_EQ(report.worker_busy_seconds.size(), 4u);
  double busy_sum = 0;
  double busiest = 0;
  for (const double b : report.worker_busy_seconds) {
    busy_sum += b;
    busiest = std::max(busiest, b);
  }
  EXPECT_NEAR(stats.busy_seconds, busy_sum, 1e-9);
  EXPECT_NEAR(stats.duration_seconds, busiest, 1e-9);
  EXPECT_LE(stats.duration_seconds, stats.busy_seconds + 1e-9);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(stats.processed_per_second(), 0.0);
  EXPECT_GE(stats.processed_per_second(), stats.completed_per_second());
}

// The tentpole equivalence: the staged scheduler-driven engine must measure
// the exact same paths as the blocking engine, for every worker count, with
// coalescing on or off. Probe *accounting* may differ under coalescing (a
// coalesced demand moves to coalesced_probes instead of the issued-probe
// counters); with coalescing off even the probe counters must match.
TEST_F(ParallelCampaignTest, StagedMatchesBlockingAcrossWorkersAndCoalescing) {
  // Caches off for the strict comparison: with the shared cache on, probe
  // totals are legitimately schedule-dependent (staged admits every request
  // before the cache warms; blocking warms it request by request), exactly
  // as they already are between blocking worker counts.
  const auto blocking = run_with(1, /*use_cache=*/false);
  ASSERT_EQ(blocking.results.size(), pairs_.size());
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const bool coalesce : {true, false}) {
      const auto staged = run_with(workers, /*use_cache=*/false,
                                   service::EngineMode::kStaged, coalesce);
      ASSERT_EQ(staged.results.size(), pairs_.size());
      ASSERT_TRUE(staged.sched.has_value());
      for (std::size_t i = 0; i < pairs_.size(); ++i) {
        const auto& b = blocking.results[i];
        const auto& s = staged.results[i];
        EXPECT_EQ(signature(b), signature(s))
            << "request " << i << " diverged (workers=" << workers
            << " coalesce=" << coalesce << ")";
        EXPECT_EQ(b.spoofed_batches, s.spoofed_batches) << "request " << i;
        EXPECT_EQ(b.symmetry_assumptions, s.symmetry_assumptions)
            << "request " << i;
        if (coalesce) {
          // Coalescing can only save a request probes, never spend more.
          EXPECT_LE(s.probes.total(), b.probes.total()) << "request " << i;
        } else {
          // Without coalescing every demand issues: accounting must be
          // byte-identical to the blocking engine.
          EXPECT_EQ(s.probes.total(), b.probes.total()) << "request " << i;
          EXPECT_EQ(s.coalesced_probes, 0u) << "request " << i;
        }
      }
      EXPECT_EQ(blocking.stats.completed, staged.stats.completed);
      EXPECT_EQ(blocking.stats.aborted, staged.stats.aborted);
      EXPECT_EQ(blocking.stats.unreachable, staged.stats.unreachable);
      // Every demand is accounted exactly once: issued or coalesced.
      EXPECT_EQ(staged.sched->demanded,
                staged.sched->issued + staged.sched->coalesced);
    }
  }
  // With the shared cache on, the measurement *set* must still be mode-
  // invariant even though probe accounting shifts with replay scheduling.
  const auto warm_blocking = run_with(1);
  const auto warm_staged =
      run_with(2, /*use_cache=*/true, service::EngineMode::kStaged);
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    EXPECT_EQ(signature(warm_blocking.results[i]),
              signature(warm_staged.results[i]))
        << "request " << i << " diverged with warm caches";
  }
}

// Blocking mode must never report coalesced probes: the field exists so the
// service can refund them, and the blocking path issues every demand itself.
TEST_F(ParallelCampaignTest, BlockingModeReportsNoCoalescedProbes) {
  const auto report = run_with(2);
  EXPECT_FALSE(report.sched.has_value());
  for (const auto& result : report.results) {
    EXPECT_EQ(result.coalesced_probes, 0u);
  }
}

// Duplicate-heavy workload: many requests over few destinations. The staged
// scheduler must recognize the identical in-flight demands and answer them
// with shared wire probes, and the per-request/coalesced accounting must
// reconcile exactly with the scheduler's own counters.
TEST_F(ParallelCampaignTest, StagedCoalescesDuplicateDemands) {
  std::vector<std::pair<HostId, HostId>> dup_pairs;
  for (std::size_t i = 0; i < 24; ++i) {
    dup_pairs.emplace_back(pairs_[i % 3].first, source_);
  }
  service::ParallelCampaignOptions options;
  options.workers = 4;
  options.seed = 7;
  // Cache off: replay would otherwise hide duplicates from the scheduler.
  options.engine.use_cache = false;
  options.mode = service::EngineMode::kStaged;
  service::ParallelCampaignDriver driver(deps(), options);
  const auto report = driver.run(dup_pairs);

  ASSERT_TRUE(report.sched.has_value());
  EXPECT_GT(report.sched->coalesced, 0u);
  EXPECT_LT(report.sched->issued, report.sched->demanded);
  std::uint64_t charged = 0;
  std::uint64_t coalesced = 0;
  for (const auto& result : report.results) {
    charged += result.probes.total();
    coalesced += result.coalesced_probes;
  }
  // Wire probes all land in some worker's prober; merged counters must see
  // exactly the probes the requests charged themselves — no more, no less.
  EXPECT_EQ(charged, report.stats.probes.total());
  EXPECT_EQ(coalesced, report.sched->coalesced);
  // All 24 requests are the same 3 measurements.
  for (std::size_t i = 3; i < dup_pairs.size(); ++i) {
    EXPECT_EQ(signature(report.results[i]), signature(report.results[i % 3]));
  }
}

// Cache replay racing an in-flight duplicate: with the lock-striped
// EngineCaches shared across staged workers, one request's rr-cache insert
// races another's lookup of the same key while a third holds the identical
// demand in the scheduler. TSan (scripts/check.sh) validates the striping;
// the measurement set must stay worker-count-invariant throughout.
TEST(StripedMapEngineCaches, ReplayHitRacesInFlightDuplicate) {
  topology::TopologyConfig config;
  config.seed = 91;
  config.num_ases = 150;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 40;
  eval::Lab lab(config);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 30);
  const auto dests = lab.responsive_destinations(true);
  ASSERT_GE(dests.size(), 4u);
  std::vector<std::pair<HostId, HostId>> pairs;
  for (std::size_t i = 0; i < 32; ++i) {
    pairs.emplace_back(dests[i % 4], source);
  }
  service::CampaignDeps deps{lab.topo,    lab.plane, lab.atlas,
                             lab.ingress, lab.ip2as, lab.relationships};
  service::ParallelCampaignOptions options;
  options.workers = 4;
  options.seed = 11;
  options.engine.use_cache = true;  // Shared striped caches on the hot path.
  options.mode = service::EngineMode::kStaged;
  service::ParallelCampaignDriver staged_driver(deps, options);
  const auto staged = staged_driver.run(pairs);

  options.mode = service::EngineMode::kBlocking;
  options.workers = 1;
  service::ParallelCampaignDriver blocking_driver(deps, options);
  const auto blocking = blocking_driver.run(pairs);

  ASSERT_EQ(staged.results.size(), blocking.results.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(blocking.results[i].status, staged.results[i].status);
    ASSERT_EQ(blocking.results[i].hops.size(), staged.results[i].hops.size())
        << "request " << i;
    for (std::size_t h = 0; h < blocking.results[i].hops.size(); ++h) {
      EXPECT_EQ(blocking.results[i].hops[h].addr,
                staged.results[i].hops[h].addr);
    }
  }
}

TEST_F(ParallelCampaignTest, PacingHoldsWorkerSlots) {
  service::ParallelCampaignOptions options;
  options.workers = 2;
  options.seed = 7;
  options.pacing_scale = 1e-4;
  service::ParallelCampaignDriver driver(deps(), options);
  const auto report = driver.run(pairs_);
  // Each request held its slot for latency * scale real seconds; with two
  // workers the wall clock must cover at least half the total hold time.
  EXPECT_GE(report.wall_seconds,
            options.pacing_scale * report.stats.busy_seconds / 2 * 0.5);
}

}  // namespace
}  // namespace revtr
