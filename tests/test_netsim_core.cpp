// Simulator event queue, queue disciplines, links, demux.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "netsim/event_heap.hpp"
#include "netsim/link.hpp"
#include "netsim/measure.hpp"
#include "netsim/queue.hpp"
#include "netsim/ring.hpp"
#include "netsim/sack_log.hpp"
#include "netsim/simulator.hpp"
#include "netsim/timer.hpp"

namespace wehey::netsim {
namespace {

Packet make_packet(std::uint32_t size, std::uint8_t dscp = 0,
                   FlowId flow = 1) {
  Packet p;
  p.flow = flow;
  p.size = size;
  p.payload = size;
  p.dscp = dscp;
  return p;
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(3), [&] { order.push_back(3); });
  sim.schedule(milliseconds(1), [&] { order.push_back(1); });
  sim.schedule(milliseconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(3));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(1), [&] { order.push_back(1); });
  sim.schedule(milliseconds(1), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilStopsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(seconds(10), [&] { ++fired; });
  sim.run(seconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), seconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int count = 0;
  sim.schedule(milliseconds(1), [&] {
    ++count;
    sim.schedule(milliseconds(1), [&] { ++count; });
  });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), milliseconds(2));
}

TEST(Simulator, ClearDropsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule(milliseconds(1), [&] { ++fired; });
  sim.clear();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, ClearPreservesClock) {
  Simulator sim;
  sim.schedule(milliseconds(5), [] {});
  sim.run();
  ASSERT_EQ(sim.now(), milliseconds(5));
  sim.schedule(milliseconds(5), [] {});
  sim.clear();
  // Phases of one experiment share a timeline: clear() drops events but
  // must never rewind the clock.
  EXPECT_EQ(sim.now(), milliseconds(5));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.schedule(milliseconds(1), [] {});  // scheduling again still works
  sim.run();
  EXPECT_EQ(sim.now(), milliseconds(6));
}

// Regression guard for the EventHeap rewrite: a large batch of same-time
// events — pushed both up-front and from inside running events, with pops
// interleaved so action slots get recycled — must fire in exact insertion
// order.
TEST(Simulator, SameTimeEventsFireInInsertionOrderUnderChurn) {
  Simulator sim;
  std::vector<int> order;
  static constexpr int kBatch = 200;
  for (int i = 0; i < kBatch; ++i) {
    sim.schedule(milliseconds(1), [&order, i] { order.push_back(i); });
  }
  // From the first same-time event, append another same-time batch; it
  // must fire after every already-queued event at that timestamp.
  sim.schedule(milliseconds(1), [&] {
    for (int i = 0; i < kBatch; ++i) {
      sim.schedule(0, [&order, i] { order.push_back(kBatch + 1 + i); });
    }
    order.push_back(kBatch);
  });
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kBatch + 1));
  // order[kBatch] is the appending event itself; indices are contiguous.
  for (int i = 0; i < 2 * kBatch + 1; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "position " << i;
  }
}

TEST(Simulator, RescheduleCurrentRepeatsWithoutCopyingState) {
  struct Counting {
    int copies = 0;
    Counting() = default;
    Counting(const Counting& o) : copies(o.copies + 1) {}
    Counting(Counting&&) = default;
  };
  Simulator sim;
  std::vector<Time> fire_times;
  int ticks = 0;
  sim.schedule(milliseconds(1), [&, payload = Counting{}] {
    fire_times.push_back(sim.now());
    // The capture was moved into its slot at schedule() and is never
    // copied again — not even across repeats.
    EXPECT_EQ(payload.copies, 0);
    if (++ticks < 4) sim.reschedule_current(milliseconds(2));
  });
  sim.run();
  EXPECT_EQ(fire_times, (std::vector<Time>{milliseconds(1), milliseconds(3),
                                           milliseconds(5), milliseconds(7)}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RescheduleCurrentOrdersAfterEventsTheActionScheduled) {
  // The re-arm takes effect when the action returns, so at an equal
  // timestamp the repeat fires after events the action itself scheduled.
  Simulator sim;
  std::vector<int> order;
  bool first = true;
  sim.schedule(milliseconds(1), [&] {
    if (first) {
      first = false;
      sim.schedule(milliseconds(2), [&] { order.push_back(1); });
      sim.reschedule_current(milliseconds(2));
    } else {
      order.push_back(2);
    }
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ------------------------------------------------------ reserved keys

/// Dispatch log of two series of items, run either through
/// schedule_series or as one schedule_at per item, with plain events at
/// the items' times scheduled before, between and after the series and
/// from inside the items' actions.
std::vector<std::string> series_log(bool as_series) {
  Simulator sim;
  std::vector<std::string> log;
  const auto plain = [&log](std::string name) {
    return [&log, name = std::move(name)] { log.push_back(name); };
  };
  const auto schedule = [&](const std::string& name,
                            const std::vector<Time>& times) {
    const auto item = [&sim, &log, plain, name](std::size_t i) {
      const std::string tag = name + std::to_string(i);
      log.push_back(tag);
      sim.schedule(0, plain(tag + ".now"));
      if (i % 2 == 0) sim.schedule(milliseconds(1), plain(tag + ".later"));
    };
    if (as_series) {
      sim.schedule_series(times, item);
    } else {
      for (std::size_t i = 0; i < times.size(); ++i) {
        sim.schedule_at(times[i], [item, i] { item(i); });
      }
    }
  };
  sim.schedule_at(milliseconds(1), plain("before@1"));
  sim.schedule_at(milliseconds(2), plain("before@2"));
  schedule("a", {milliseconds(1), milliseconds(1), milliseconds(2),
                 milliseconds(2), milliseconds(3), milliseconds(5)});
  sim.schedule_at(milliseconds(2), plain("between@2"));
  schedule("b", {milliseconds(1), milliseconds(2), milliseconds(2),
                 milliseconds(3), milliseconds(3)});
  sim.schedule_at(milliseconds(1), plain("after@1"));
  sim.schedule_at(milliseconds(3), plain("after@3"));
  if (as_series) {
    EXPECT_EQ(sim.pending_events(), 7u);  // 5 plain events + 2 series
  }
  sim.run();
  return log;
}

TEST(Simulator, SeriesDispatchesLikeOneEventPerItem) {
  const std::vector<std::string> one_by_one = series_log(false);
  // 5 plain events; 11 items, each with its ".now" event; 6 ".later"s.
  EXPECT_EQ(one_by_one.size(), 5u + 2u * 11u + 6u);
  EXPECT_EQ(series_log(true), one_by_one);
}

TEST(SimulatorDeathTest, SeriesWithDecreasingTimesFailsLoudly) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule_series({milliseconds(2), milliseconds(1)},
                                   [](std::size_t) {}),
               "Precondition failed");
}

TEST(EventHeapDeathTest, KeyedRearmToAnEarlierKeyFailsLoudly) {
  EventHeap heap;
  Time now = 0;
  const std::uint64_t first = heap.reserve_seq(2);
  heap.push_keyed(milliseconds(2), first + 1, [&heap, first] {
    heap.rearm_current_keyed(milliseconds(2), first);
  });
  EXPECT_DEATH(heap.run_until(-1, now, 10), "Precondition failed");
}

/// The timer pattern Timer replaced: one event per arm(), and a
/// generation counter so that superseded events do nothing when they fire.
class GenerationTimer {
 public:
  GenerationTimer(Simulator& sim, std::function<void()> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}
  void arm(Time at) {
    const std::uint64_t gen = ++generation_;
    armed_ = true;
    sim_.schedule_at(at, [this, gen] {
      if (armed_ && gen == generation_) {
        armed_ = false;
        on_fire_();
      }
    });
  }
  void cancel() {
    ++generation_;
    armed_ = false;
  }
  bool armed() const { return armed_; }

 private:
  Simulator& sim_;
  std::function<void()> on_fire_;
  bool armed_ = false;
  std::uint64_t generation_ = 0;
};

struct TimerRun {
  std::vector<std::string> log;  ///< plain events and firings, in order
  std::uint64_t dispatched = 0;
};

/// A seeded random mix of arm, cancel, later and earlier re-arms and
/// re-arms from inside the callback, on a coarse time grid so firings
/// often share their timestamp with plain events — ones scheduled up
/// front and ones scheduled between the arms.
template <typename T>
TimerRun drive_timer(std::uint64_t seed) {
  constexpr Time kStep = milliseconds(1);
  Simulator sim;
  Rng rng(seed);
  TimerRun run;
  Time deadline = 0;
  std::unique_ptr<T> timer;
  const auto arm = [&](Time at) {
    deadline = at;
    timer->arm(at);
  };
  timer = std::make_unique<T>(sim, [&] {
    run.log.push_back("fire@" + std::to_string(sim.now()));
    if (rng.bernoulli(0.3)) arm(sim.now() + rng.uniform_int(0, 3) * kStep);
  });
  for (int k = 0; k < 300; ++k) {
    const Time at = rng.uniform_int(0, 150) * kStep;
    sim.schedule_at(at, [&, k] {
      const Time now = sim.now();
      run.log.push_back("op" + std::to_string(k) + "@" +
                        std::to_string(now));
      const Time mark = now + rng.uniform_int(0, 6) * kStep;
      sim.schedule_at(mark, [&run, &sim, k] {
        run.log.push_back("mark" + std::to_string(k) + "@" +
                          std::to_string(sim.now()));
      });
      const Time pending = std::max(deadline, now);
      switch (rng.uniform_int(0, 4)) {
        case 0:
          arm(now + rng.uniform_int(0, 6) * kStep);
          break;
        case 1:
          timer->cancel();
          break;
        case 2:  // re-arm later
          arm(pending + rng.uniform_int(0, 4) * kStep);
          break;
        case 3:  // re-arm earlier
          arm(now + (pending - now) / 2);
          break;
        default:
          if (!timer->armed()) arm(now + rng.uniform_int(1, 8) * kStep);
      }
    });
  }
  sim.run();
  run.dispatched = sim.budget_events_dispatched();
  return run;
}

TEST(Timer, FiresAtTheKeysOfOneEventPerArm) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const TimerRun reference = drive_timer<GenerationTimer>(seed);
    const TimerRun timer = drive_timer<Timer>(seed);
    std::size_t fires = 0;
    for (const auto& line : reference.log) {
      fires += line.rfind("fire", 0) == 0;
    }
    ASSERT_GT(fires, 10u) << "seed " << seed;
    EXPECT_EQ(timer.log, reference.log) << "seed " << seed;
    EXPECT_LT(timer.dispatched, reference.dispatched) << "seed " << seed;
  }
}

TEST(Timer, KeepsOneEventAcrossLaterRearmsAndIgnoresSupersededOnes) {
  Simulator sim;
  std::vector<Time> fired;
  Timer timer(sim, [&] { fired.push_back(sim.now()); });
  timer.arm(milliseconds(5));
  timer.arm(milliseconds(8));  // later: the pending event follows
  EXPECT_EQ(sim.pending_events(), 1u);
  timer.arm(milliseconds(3));  // earlier: a new event; the old one idles
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{milliseconds(3)}));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(sim.now(), milliseconds(5));  // the superseded event idled
}

TEST(Timer, ArmsAgainAfterClearDroppedItsEvent) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(milliseconds(5));
  sim.clear();
  timer.arm(milliseconds(6));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(6));
}

TEST(InplaceAction, InlineCaptureAvoidsHeapAndRunsDestructor) {
  struct Tracker {
    int* destroyed;
    explicit Tracker(int* d) : destroyed(d) {}
    Tracker(Tracker&& o) noexcept : destroyed(o.destroyed) {
      o.destroyed = nullptr;
    }
    ~Tracker() {
      if (destroyed != nullptr) ++*destroyed;
    }
  };
  int destroyed = 0;
  int fired = 0;
  {
    InplaceAction a([t = Tracker(&destroyed), &fired] { ++fired; });
    static_assert(sizeof(Tracker) <= InplaceAction::kInlineCapacity);
    a();
    EXPECT_EQ(fired, 1);
    InplaceAction b = std::move(a);
    b();
    EXPECT_EQ(fired, 2);
  }
  EXPECT_EQ(destroyed, 1);  // exactly one live Tracker across the moves
}

TEST(InplaceAction, OversizedCaptureFallsBackToHeap) {
  struct Big {
    std::array<std::byte, InplaceAction::kInlineCapacity + 64> payload{};
    int value = 7;
  };
  Big big;
  int got = 0;
  InplaceAction a([big, &got] { got = big.value; });
  InplaceAction b = std::move(a);
  b();
  EXPECT_EQ(got, 7);
}

// Every packet event carries a Packet by value; these guards keep a new
// field from silently inflating every event slot and queue entry. Link's
// transmit and propagation closures are asserted to fit inline where they
// are built (link.cpp).
static_assert(sizeof(Packet) <= 96, "Packet must stay small");
static_assert(sizeof(InplaceAction) <= 128, "event-heap slot must stay small");

TEST(SackLog, ReleasesThePrefixAndReusesTheRing) {
  SackLog log;
  const std::uint32_t first = log.next_index();
  for (std::uint64_t i = 0; i < 100; ++i) log.append({i, i + 1});
  EXPECT_EQ(log.live(), 100u);
  EXPECT_EQ(log.at(first + 42).start, 42u);
  log.release_before(first + 60);
  EXPECT_EQ(log.live(), 40u);
  EXPECT_EQ(log.at(first + 60).start, 60u);
  for (std::uint64_t i = 100; i < 200; ++i) log.append({i, i + 1});
  std::vector<std::uint64_t> seen;
  log.consume(first + 150, 3,
              [&seen](const SackBlock& b) { seen.push_back(b.start); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{150, 151, 152}));
  EXPECT_EQ(log.live(), 47u);
  EXPECT_EQ(log.next_index(), first + 200);
}

TEST(SackLogDeathTest, ReadingAReleasedBlockFailsLoudly) {
  SackLog log;
  log.append({0, 1});
  log.append({1, 2});
  log.release_before(1);
  // An ACK overtaken by a later one would point below the base.
  EXPECT_DEATH(log.at(0), "Precondition failed");
}

TEST(PacketRing, FifoOrderAcrossGrowthAndWraparound) {
  PacketRing ring;
  std::uint64_t next_push = 0, next_pop = 0;
  // Interleave pushes and pops so head wraps while the buffer grows.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) {
      auto p = make_packet(100);
      p.id = next_push++;
      ring.push_back(p);
    }
    for (int i = 0; i < 5 && !ring.empty(); ++i) {
      ASSERT_EQ(ring.front().id, next_pop++);
      ring.pop_front();
    }
  }
  while (!ring.empty()) {
    ASSERT_EQ(ring.front().id, next_pop++);
    ring.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(Ring, GrowsWhileWrappedAndReleasesItsBuffer) {
  Ring<std::uint64_t> ring;
  std::uint64_t next_push = 0, next_pop = 0;
  ring.push_back(next_push++);
  const std::size_t cap = ring.capacity();
  ASSERT_GE(cap, 4u);
  while (ring.size() < cap) ring.push_back(next_push++);
  // Slide the window by half a buffer: the ring is full and wrapped, its
  // front in the middle of the buffer.
  for (std::size_t i = 0; i < cap / 2; ++i) {
    ASSERT_EQ(ring.front(), next_pop++);
    ring.pop_front();
    ring.push_back(next_push++);
  }
  ASSERT_EQ(ring.capacity(), cap);
  ASSERT_EQ(ring.size(), cap);

  ring.push_back(next_push++);  // grows while wrapped
  EXPECT_EQ(ring.capacity(), 2 * cap);
  ASSERT_EQ(ring.size(), cap + 1);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], next_pop + i) << "element " << i;
  }
  ring.pop_front(3);
  next_pop += 3;
  while (!ring.empty()) {
    ASSERT_EQ(ring.front(), next_pop++);
    ring.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);

  ring.release();
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push_back(7);
  EXPECT_EQ(ring.front(), 7u);
}

TEST(Fifo, DropsWhenFull) {
  FifoDisc q(250);
  EXPECT_TRUE(q.enqueue(make_packet(100), 0));
  EXPECT_TRUE(q.enqueue(make_packet(100), 0));
  EXPECT_FALSE(q.enqueue(make_packet(100), 0));  // 300 > 250
  EXPECT_EQ(q.drop_count(), 1u);
  EXPECT_EQ(q.backlog_bytes(), 200);
  EXPECT_EQ(q.backlog_packets(), 2u);
}

TEST(Fifo, FifoOrder) {
  FifoDisc q(0);  // unlimited
  auto a = make_packet(100);
  a.seq = 1;
  auto b = make_packet(100);
  b.seq = 2;
  q.enqueue(a, 0);
  q.enqueue(b, 0);
  EXPECT_EQ(q.dequeue(0)->seq, 1u);
  EXPECT_EQ(q.dequeue(0)->seq, 2u);
  EXPECT_FALSE(q.dequeue(0).has_value());
}

TEST(Fifo, NextReady) {
  FifoDisc q(0);
  EXPECT_EQ(q.next_ready(5), kNever);
  q.enqueue(make_packet(10), 5);
  EXPECT_EQ(q.next_ready(5), 5);
}

TEST(Tbf, PassesWithinBurst) {
  // 1 Mbps, 10 kB bucket: two 4 kB packets pass immediately.
  TbfDisc q(1e6, 10000, 100000);
  q.enqueue(make_packet(4000), 0);
  q.enqueue(make_packet(4000), 0);
  EXPECT_TRUE(q.dequeue(0).has_value());
  EXPECT_TRUE(q.dequeue(0).has_value());
}

TEST(Tbf, GatesWhenTokensExhausted) {
  TbfDisc q(1e6, 10000, 100000);
  q.enqueue(make_packet(8000), 0);
  q.enqueue(make_packet(8000), 0);
  EXPECT_TRUE(q.dequeue(0).has_value());
  // 2000 tokens left, need 8000: 6000 bytes at 1 Mbps = 48 ms.
  EXPECT_FALSE(q.dequeue(0).has_value());
  const Time ready = q.next_ready(0);
  EXPECT_NEAR(to_seconds(ready), 0.048, 1e-6);
  EXPECT_FALSE(q.dequeue(ready - kMillisecond).has_value());
  EXPECT_TRUE(q.dequeue(ready).has_value());
}

TEST(Tbf, TokensCappedAtBurst) {
  TbfDisc q(1e6, 10000, 100000);
  EXPECT_DOUBLE_EQ(q.tokens(seconds(100)), 10000.0);
}

TEST(Tbf, PolicesWhenQueueFull) {
  TbfDisc q(1e6, 1500, 3000);
  EXPECT_TRUE(q.enqueue(make_packet(1500), 0));
  EXPECT_TRUE(q.enqueue(make_packet(1500), 0));
  EXPECT_FALSE(q.enqueue(make_packet(1500), 0));
  EXPECT_EQ(q.drop_count(), 1u);
}

TEST(Tbf, LongRunRateMatchesConfig) {
  // Offer 2x the rate for 10 simulated seconds; delivered bytes must
  // approach rate * time (property of the token bucket).
  const Rate rate = 2e6;
  TbfDisc q(rate, 25000, 50000);
  Time now = 0;
  std::int64_t delivered = 0;
  const Time step = microseconds(500);  // 1000 B / 0.5 ms = 16 Mbps offered
  for (int i = 0; i < 20000; ++i) {
    q.enqueue(make_packet(1000), now);
    while (auto p = q.dequeue(now)) delivered += p->size;
    now += step;
  }
  const double achieved = static_cast<double>(delivered) * 8 / to_seconds(now);
  EXPECT_NEAR(achieved / rate, 1.0, 0.05);
}

TEST(RateLimiter, ClassifiesByDscp) {
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(1e6, 3000, 3000);
  RateLimiterDisc rl(std::move(fifo), std::move(tbf));
  // Default-class traffic is never token-gated.
  for (int i = 0; i < 10; ++i) {
    rl.enqueue(make_packet(1500, kDscpDefault), 0);
  }
  int forwarded = 0;
  while (rl.dequeue(0)) ++forwarded;
  EXPECT_EQ(forwarded, 10);

  // Differentiated traffic is policed: burst 3000, queue 3000.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    accepted += rl.enqueue(make_packet(1500, kDscpDifferentiated), 0);
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(rl.throttled_drops(), 8u);
}

TEST(RateLimiter, ReportsTheDropsOfBothClasses) {
  auto fifo = std::make_unique<FifoDisc>(3000);
  auto tbf = std::make_unique<TbfDisc>(1e6, 3000, 3000);
  RateLimiterDisc rl(std::move(fifo), std::move(tbf));
  int heard_default = 0, heard_throttled = 0;
  rl.set_drop_listener([&](const Packet& p, Time) {
    ++(p.dscp == kDscpDifferentiated ? heard_throttled : heard_default);
  });
  // The FIFO holds two of four; the TBF polices eight of ten.
  for (int i = 0; i < 4; ++i) rl.enqueue(make_packet(1500, kDscpDefault), 0);
  for (int i = 0; i < 10; ++i) {
    rl.enqueue(make_packet(1500, kDscpDifferentiated), 0);
  }
  EXPECT_EQ(rl.default_class().drop_count(), 2u);
  EXPECT_EQ(rl.throttled_drops(), 8u);
  EXPECT_EQ(rl.drop_count(), 10u);
  EXPECT_EQ(heard_default, 2);
  EXPECT_EQ(heard_throttled, 8);
}

TEST(PerFlowRateLimiter, ReportsTheDropsOfEveryBucket) {
  PerFlowRateLimiterDisc rl(std::make_unique<FifoDisc>(3000), 1e6, 3000,
                            3000);
  std::vector<int> heard(3, 0);  // by flow; flow 0 is the default class
  rl.set_drop_listener([&](const Packet& p, Time) {
    ++heard[p.dscp == kDscpDifferentiated ? p.flow : 0];
  });
  for (int i = 0; i < 4; ++i) rl.enqueue(make_packet(1500, kDscpDefault), 0);
  // Two flows, two buckets created on first sight: each polices 8 of 10.
  for (int i = 0; i < 10; ++i) {
    rl.enqueue(make_packet(1500, kDscpDifferentiated, 1), 0);
    rl.enqueue(make_packet(1500, kDscpDifferentiated, 2), 0);
  }
  ASSERT_EQ(rl.flow_bucket_count(), 2u);
  EXPECT_EQ(rl.throttled_drops(), 16u);
  EXPECT_EQ(rl.drop_count(), 18u);
  EXPECT_EQ(heard, (std::vector<int>{2, 8, 8}));
}

TEST(RateLimiter, RoundRobinAlternates) {
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(1e9, 100000, 100000);
  RateLimiterDisc rl(std::move(fifo), std::move(tbf));
  for (int i = 0; i < 3; ++i) {
    auto d = make_packet(100, kDscpDefault);
    d.seq = 10 + i;
    rl.enqueue(d, 0);
    auto t = make_packet(100, kDscpDifferentiated);
    t.seq = 20 + i;
    rl.enqueue(t, 0);
  }
  // With both classes backlogged, consecutive dequeues alternate classes.
  std::vector<std::uint64_t> seqs;
  while (auto p = rl.dequeue(0)) seqs.push_back(p->seq);
  ASSERT_EQ(seqs.size(), 6u);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    const bool prev_throttled = seqs[i - 1] >= 20;
    const bool cur_throttled = seqs[i] >= 20;
    EXPECT_NE(prev_throttled, cur_throttled);
  }
}

TEST(Link, SerializationAndPropagation) {
  Simulator sim;
  struct Recorder final : PacketSink {
    std::vector<Time> arrivals;
    Simulator* sim = nullptr;
    void receive(Packet) override { arrivals.push_back(sim->now()); }
  } rec;
  rec.sim = &sim;
  // 1500 B at 12 Mbps = 1 ms serialization; 5 ms propagation.
  Link link(sim, mbps(12), milliseconds(5), std::make_unique<FifoDisc>(0),
            &rec);
  link.receive(make_packet(1500));
  link.receive(make_packet(1500));
  sim.run();
  ASSERT_EQ(rec.arrivals.size(), 2u);
  EXPECT_EQ(rec.arrivals[0], milliseconds(6));
  EXPECT_EQ(rec.arrivals[1], milliseconds(7));  // queued behind the first
  EXPECT_EQ(link.delivered_packets(), 2u);
}

TEST(Link, TokenGatedWakeup) {
  Simulator sim;
  NullSink sink;
  // TBF allows 1000 B immediately, then 1000 B per 8 ms (1 Mbps).
  Link link(sim, kGbps, 0,
            std::make_unique<TbfDisc>(1e6, 1000, 100000), &sink);
  for (int i = 0; i < 3; ++i) link.receive(make_packet(1000));
  sim.run();
  EXPECT_EQ(sink.packets(), 3u);
  // Third packet waits two refill periods: ~16 ms.
  EXPECT_NEAR(to_seconds(sim.now()), 0.016, 0.001);
}

TEST(Link, BandwidthChangeAffectsLaterPackets) {
  Simulator sim;
  struct Recorder final : PacketSink {
    std::vector<Time> arrivals;
    Simulator* sim = nullptr;
    void receive(Packet) override { arrivals.push_back(sim->now()); }
  } rec;
  rec.sim = &sim;
  Link link(sim, mbps(12), 0, std::make_unique<FifoDisc>(0), &rec);
  link.receive(make_packet(1500));  // 1 ms at 12 Mbps
  sim.run();
  link.set_bandwidth(mbps(6));
  sim.schedule(0, [&] { link.receive(make_packet(1500)); });  // 2 ms at 6 Mbps
  sim.run();
  ASSERT_EQ(rec.arrivals.size(), 2u);
  EXPECT_EQ(rec.arrivals[0], milliseconds(1));
  EXPECT_EQ(rec.arrivals[1], milliseconds(3));
}

/// A next hop that logs when each packet arrives and which one it is.
struct ArrivalLog final : PacketSink {
  Simulator* sim = nullptr;
  std::vector<Time> at;
  std::vector<std::uint64_t> seq;
  void receive(Packet p) override {
    at.push_back(sim->now());
    seq.push_back(p.seq);
  }
};

TEST(Link, FifoHopDispatchesOneEventPerPacketAndTbfHopTwo) {
  const auto events = [](std::unique_ptr<QueueDisc> disc) {
    Simulator sim;
    NullSink sink;
    Link link(sim, mbps(12), milliseconds(5), std::move(disc), &sink);
    for (int i = 0; i < 10; ++i) {
      sim.schedule_at(i * kMillisecond / 2,
                      [&] { link.receive(make_packet(1500)); });
    }
    sim.run();
    EXPECT_EQ(sink.packets(), 10u);
    return sim.budget_events_dispatched() - 10;  // less the senders'
  };
  EXPECT_EQ(events(std::make_unique<FifoDisc>(0)), 10u);
  // Tokens for every packet: the TBF never sleeps, and each packet costs
  // its transmit-done and its arrival events.
  EXPECT_EQ(events(std::make_unique<TbfDisc>(1e9, 100000, 100000)), 20u);
}

TEST(Link, FifoArrivalsLeaveWhenThePreviousTransmissionEnds) {
  Simulator sim;
  ArrivalLog next;
  next.sim = &sim;
  constexpr Time kDelay = milliseconds(5);
  Link link(sim, mbps(8), kDelay, std::make_unique<FifoDisc>(0), &next);
  // 1000 B take 1 ms at 8 Mbps. Arrivals in a burst, into a busy link and
  // after it went idle.
  const std::vector<Time> arrivals = {0, 0, kMillisecond / 2, milliseconds(2),
                                      milliseconds(7), milliseconds(7)};
  const std::vector<std::uint32_t> sizes = {1000, 500, 1000, 2000, 250, 1000};
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    sim.schedule_at(arrivals[k], [&, k] {
      Packet p = make_packet(sizes[k]);
      p.seq = k;
      link.receive(p);
    });
  }
  sim.run();
  ASSERT_EQ(next.at.size(), arrivals.size());
  Time done = 0;  // d_{k-1}: the previous transmission's end
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    done = std::max(arrivals[k], done) + transmission_time(sizes[k], mbps(8));
    EXPECT_EQ(next.seq[k], k);
    EXPECT_EQ(next.at[k], done + kDelay) << "packet " << k;
  }
}

TEST(Link, FifoDropTailCountsOnlyBytesNotYetTransmitting) {
  Simulator sim;
  ArrivalLog next;
  next.sim = &sim;
  // 1000 B take 1 ms; 3000 B may wait.
  Link link(sim, mbps(8), milliseconds(5), std::make_unique<FifoDisc>(3000),
            &next);
  const auto send = [&](std::uint64_t id) {
    Packet p = make_packet(1000);
    p.seq = id;
    link.receive(p);
  };
  // At 1 ms, the instant packet 1 begins, it no longer counts: packet 5
  // fills the limit again and packet 6 is dropped.
  sim.schedule_at(milliseconds(1), [&] {
    send(5);
    send(6);
  });
  sim.schedule_at(0, [&] {
    for (std::uint64_t id = 0; id < 5; ++id) send(id);
  });
  sim.run();
  // Packet 0 transmits at once, 1–3 fill the 3000 B exactly, 4 is dropped.
  EXPECT_EQ(next.seq, (std::vector<std::uint64_t>{0, 1, 2, 3, 5}));
  EXPECT_EQ(link.disc().drop_count(), 2u);
  EXPECT_EQ(link.disc().backlog_bytes(), 0);
  EXPECT_EQ(link.disc().backlog_packets(), 0u);
}

TEST(Link, FifoBandwidthChangeRetimesOnlyWaitingPackets) {
  Simulator sim;
  ArrivalLog next;
  next.sim = &sim;
  Link link(sim, mbps(12), milliseconds(5), std::make_unique<FifoDisc>(0),
            &next);
  // Three 1500 B packets: 1 ms each at 12 Mbps, 2 ms at 6 Mbps. Halfway
  // through the first the rate halves: the first keeps its 1 ms, the
  // two waiting behind it take 2 ms each.
  for (int i = 0; i < 3; ++i) link.receive(make_packet(1500));
  sim.schedule_at(kMillisecond / 2, [&] { link.set_bandwidth(mbps(6)); });
  sim.run();
  EXPECT_EQ(next.at, (std::vector<Time>{milliseconds(6), milliseconds(8),
                                        milliseconds(10)}));
  EXPECT_EQ(link.busy_time(), milliseconds(5));
}

TEST(Link, FifoCountersReadMidRunCountFinishedTransmissions) {
  Simulator sim;
  NullSink sink;
  Link link(sim, mbps(8), milliseconds(10), std::make_unique<FifoDisc>(0),
            &sink);
  std::vector<Time> heard;
  link.set_tx_listener([&](const Packet&, Time at) {
    heard.push_back(at);
    // A listener may read the link: the read settles it again, and no
    // transmission is counted or heard twice.
    (void)link.delivered_packets();
  });
  for (int i = 0; i < 5; ++i) link.receive(make_packet(1000));  // 1 ms each
  // No packet reaches the next hop before 11 ms: the reads settle the link.
  std::vector<std::uint64_t> delivered;
  std::vector<Time> busy;
  std::vector<std::size_t> listened;
  for (const Time at : {kMillisecond / 2, milliseconds(2) + kMillisecond / 2,
                        milliseconds(3)}) {
    sim.schedule_at(at, [&] {
      delivered.push_back(link.delivered_packets());
      busy.push_back(link.busy_time());
      listened.push_back(heard.size());
    });
  }
  sim.run();
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 2, 3}));
  EXPECT_EQ(busy, (std::vector<Time>{0, milliseconds(2), milliseconds(3)}));
  EXPECT_EQ(listened, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(heard, (std::vector<Time>{milliseconds(1), milliseconds(2),
                                      milliseconds(3), milliseconds(4),
                                      milliseconds(5)}));
  EXPECT_EQ(link.delivered_packets(), 5u);
  EXPECT_EQ(link.delivered_bytes(), 5000);
  EXPECT_EQ(sink.packets(), 5u);
}

TEST(Pipe, FixedDelay) {
  Simulator sim;
  struct Recorder final : PacketSink {
    Time arrival = -1;
    Simulator* sim = nullptr;
    void receive(Packet) override { arrival = sim->now(); }
  } rec;
  rec.sim = &sim;
  Pipe pipe(sim, milliseconds(17), &rec);
  pipe.receive(make_packet(52));
  sim.run();
  EXPECT_EQ(rec.arrival, milliseconds(17));
}

TEST(Demux, RoutesByFlow) {
  Demux demux;
  NullSink a, b;
  demux.add_route(1, &a);
  demux.add_route(2, &b);
  demux.receive(make_packet(100, 0, 1));
  demux.receive(make_packet(100, 0, 2));
  demux.receive(make_packet(100, 0, 2));
  demux.receive(make_packet(100, 0, 99));  // unrouted
  EXPECT_EQ(a.packets(), 1u);
  EXPECT_EQ(b.packets(), 2u);
  EXPECT_EQ(demux.unrouted_packets(), 1u);
}

TEST(Measure, ThroughputSamples) {
  ReplayMeasurement m;
  m.start = 0;
  m.end = seconds(10);
  // 1000 bytes at t=0.5 s and 2000 bytes at t=9.5 s.
  m.deliveries = {{milliseconds(500), 1000}, {milliseconds(9500), 2000}};
  const auto samples = m.throughput_samples(10);
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_DOUBLE_EQ(samples[0], 1000 * 8.0 / 1.0);
  EXPECT_DOUBLE_EQ(samples[9], 2000 * 8.0 / 1.0);
  for (int i = 1; i < 9; ++i) EXPECT_DOUBLE_EQ(samples[i], 0.0);
}

TEST(Measure, LossBinning) {
  ReplayMeasurement m;
  m.start = 0;
  m.end = seconds(2);
  m.tx_times = {milliseconds(100), milliseconds(200), milliseconds(1100)};
  m.loss_times = {milliseconds(150), milliseconds(1900)};
  const auto s = bin_losses(m, seconds(1));
  ASSERT_EQ(s.txed.size(), 2u);
  EXPECT_EQ(s.txed[0], 2u);
  EXPECT_EQ(s.txed[1], 1u);
  EXPECT_EQ(s.lost[0], 1u);
  EXPECT_EQ(s.lost[1], 1u);
}

TEST(Measure, LossRateAndAverages) {
  ReplayMeasurement m;
  m.start = 0;
  m.end = seconds(1);
  m.tx_times = {1, 2, 3, 4};
  m.loss_times = {5};
  m.deliveries = {{milliseconds(100), 125000}};
  EXPECT_DOUBLE_EQ(m.loss_rate(), 0.25);
  EXPECT_DOUBLE_EQ(m.average_throughput(), mbps(1));
}

}  // namespace
}  // namespace wehey::netsim
