// The parallel trial-execution engine: thread-pool mechanics, and the
// determinism contract — a grid of reported tests through parallel_map
// must produce bit-identical results regardless of thread count.
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "parallel/thread_pool.hpp"

using namespace wehey;
using namespace wehey::experiments;

namespace {

// ---------------------------------------------------------- pool mechanics

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndSingle) {
  parallel::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, MaxThreadsOneRunsSerially) {
  parallel::ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> off_thread{false};
  pool.parallel_for(
      64,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) off_thread = true;
      },
      /*max_threads=*/1);
  EXPECT_FALSE(off_thread.load());
}

TEST(ThreadPool, PropagatesExceptions) {
  parallel::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("trial failed");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFallsBackToSerial) {
  parallel::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Inner call re-enters the engine from a parallel region; it must run
    // inline instead of deadlocking on the shared pool.
    parallel::ThreadPool::global().parallel_for(
        16, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8u * 16u);
}

TEST(ThreadPool, MapNestedInASerialMapStaysOnTheCallingThread) {
  // parallel_map(n, f, 1) is a grid's serial baseline: a map nested in f
  // (a test's phases) must not spread over the pool either.
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  parallel::parallel_map(
      2,
      [&](std::size_t) {
        return parallel::parallel_map(32, [&](std::size_t) {
          if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return 0;
        });
      },
      /*threads=*/1);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  const auto out = parallel::parallel_map(
      257, [](std::size_t i) { return i * i; }, 8);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

// ------------------------------------------------------------- determinism

/// Bit-exact equality for doubles (1.0/-0.0/NaN treated by representation,
/// as the determinism contract demands).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_identical(const netsim::ReplayMeasurement& a,
                      const netsim::ReplayMeasurement& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.tx_times, b.tx_times);
  EXPECT_EQ(a.loss_times, b.loss_times);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].at, b.deliveries[i].at);
    EXPECT_EQ(a.deliveries[i].bytes, b.deliveries[i].bytes);
  }
  ASSERT_EQ(a.rtt_ms.size(), b.rtt_ms.size());
  for (std::size_t i = 0; i < a.rtt_ms.size(); ++i) {
    EXPECT_TRUE(same_bits(a.rtt_ms[i], b.rtt_ms[i])) << "rtt sample " << i;
  }
}

void expect_identical(const PhaseReport& a, const PhaseReport& b) {
  EXPECT_EQ(a.limiter_drops, b.limiter_drops);
  EXPECT_TRUE(same_bits(a.p1.retx_rate, b.p1.retx_rate));
  EXPECT_TRUE(same_bits(a.p1.avg_queuing_delay_ms, b.p1.avg_queuing_delay_ms));
  EXPECT_TRUE(same_bits(a.p1.avg_throughput_bps, b.p1.avg_throughput_bps));
  EXPECT_TRUE(same_bits(a.p2.retx_rate, b.p2.retx_rate));
  EXPECT_TRUE(same_bits(a.p2.avg_queuing_delay_ms, b.p2.avg_queuing_delay_ms));
  EXPECT_TRUE(same_bits(a.p2.avg_throughput_bps, b.p2.avg_throughput_bps));
  expect_identical(a.p1.meas, b.p1.meas);
  expect_identical(a.p2.meas, b.p2.meas);
}

std::vector<ScenarioConfig> small_grid() {
  std::vector<ScenarioConfig> configs;
  std::uint64_t seed = 1;
  for (const char* app : {"Netflix", "Zoom"}) {
    for (double factor : {1.5, 2.5}) {
      auto cfg = default_scenario(app, seed++);
      cfg.replay_duration = seconds(5);
      cfg.input_rate_factor = factor;
      configs.push_back(cfg);
    }
  }
  return configs;
}

/// The reported §6.2 test of every config, on `threads` workers.
std::vector<ReportedTest> reported_grid(
    const std::vector<ScenarioConfig>& configs, unsigned threads) {
  return parallel::parallel_map(
      configs.size(),
      [&](std::size_t i) {
        return run_simultaneous_test_reported(configs[i],
                                              "grid.r" + std::to_string(i));
      },
      threads);
}

void expect_identical(const ReportedTest& a, const ReportedTest& b) {
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t p = 0; p < a.phases.size(); ++p) {
    SCOPED_TRACE("phase " + std::to_string(p));
    expect_identical(a.phases[p], b.phases[p]);
  }
  EXPECT_EQ(a.report.to_json(&a.metrics), b.report.to_json(&b.metrics));
}

TEST(ParallelMap, ReportedTestsBitIdenticalAcrossThreadCounts) {
  const auto configs = small_grid();
  const auto serial = reported_grid(configs, 1);
  const auto threaded = reported_grid(configs, 8);
  const auto threaded2 = reported_grid(configs, 2);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(threaded.size(), configs.size());
  ASSERT_EQ(threaded2.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    expect_identical(serial[i], threaded[i]);
    expect_identical(serial[i], threaded2[i]);
  }
}

TEST(ParallelMap, ReportedTestDeterministicUnderNesting) {
  // The reported test parallelizes its own phases; nested under an outer
  // parallel_map those inner calls take the serial path. Either way the
  // phases and the report must match the fully serial run, and repeats of
  // one config must match each other.
  auto cfg = default_scenario("Zoom", 42);
  cfg.replay_duration = seconds(5);
  const std::vector<ScenarioConfig> configs(3, cfg);

  const auto serial = reported_grid(configs, 1);
  const auto threaded = reported_grid(configs, 8);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    expect_identical(serial[i], threaded[i]);
    expect_identical(serial[0].phases[0], threaded[i].phases[0]);
  }
}

}  // namespace
