#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace cxlgraph::sim {
namespace {

// The EventQueue stores type-tagged PODs; these tests drive it directly
// and read the popped events' payloads — no handlers involved.

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(30, 0, 0, 3);
  q.push(10, 0, 0, 1);
  q.push(20, 0, 0, 2);
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesPreserveInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.push(5, 0, 0, i);
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(42, 0, 0);
  q.push(7, 0, 0);
  EXPECT_EQ(q.next_time(), 7u);
}

TEST(EventQueue, CarriesListenerOpcodeAndPayload) {
  EventQueue q;
  q.push(1, 3, 7, 0xdeadbeef, 0xfeed);
  const Event e = q.pop();
  EXPECT_EQ(e.time, 1u);
  EXPECT_EQ(e.listener, 3u);
  EXPECT_EQ(e.opcode, 7u);
  EXPECT_EQ(e.a, 0xdeadbeefu);
  EXPECT_EQ(e.b, 0xfeedu);
}

TEST(EventQueue, HeavyEqualTimestampLoadPreservesInsertionOrder) {
  // The determinism guarantee the parallel sweep leans on: ten thousand
  // events at one timestamp must drain in exactly insertion order, even
  // when the heap has rebalanced thousands of times.
  constexpr std::uint64_t kEvents = 10000;
  EventQueue q;
  for (std::uint64_t i = 0; i < kEvents; ++i) q.push(123, 0, 0, i);
  std::vector<std::uint64_t> order;
  order.reserve(kEvents);
  while (!q.empty()) order.push_back(q.pop().a);
  ASSERT_EQ(order.size(), kEvents);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(order[i], i) << "tie-break broke at event " << i;
  }
}

TEST(EventQueue, EqualTimestampBatchesInterleavedWithOtherTimes) {
  // Mixed load: bursts at equal timestamps separated by earlier/later
  // events. Expected order: all of time 5 in insertion order, then all of
  // time 10 in insertion order, regardless of push interleaving.
  EventQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.push(10, 0, 0, 1000 + i);
    q.push(5, 0, 0, i);
  }
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  ASSERT_EQ(order.size(), 200u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(order[100 + i], 1000 + i);
  }
}

TEST(EventQueue, PushDuringDrainKeepsEqualTimeOrdering) {
  // Events pushed *while draining* at the same timestamp run after the
  // already-queued ones: the FIFO-run fast path appends, and sequence
  // numbers keep growing monotonically.
  EventQueue q;
  q.push(1, 0, 0, 0);
  q.push(1, 0, 0, 1);
  std::vector<std::uint64_t> order;
  order.push_back(q.pop().a);  // starts the run at time 1
  q.push(1, 0, 0, 2);          // appended to the live run
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(EventQueue, PushLaterTimeDuringRunGoesToHeap) {
  EventQueue q;
  q.push(1, 0, 0, 0);
  q.push(1, 0, 0, 1);
  std::vector<std::uint64_t> order;
  order.push_back(q.pop().a);
  q.push(2, 0, 0, 3);  // later than the run: heap
  q.push(1, 0, 0, 2);  // run append
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(EventQueue, InterleavedPushPopStaysSorted) {
  // Stress the 4-ary heap with an adversarial interleaving: pushes at
  // pseudo-random times mixed with pops; the output must be globally
  // sorted by (time, seq).
  EventQueue q;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<Event> popped;
  SimTime floor = 0;  // discrete-event rule: never push before "now"
  for (int round = 0; round < 2000; ++round) {
    const int pushes = 1 + static_cast<int>(next() % 4);
    for (int p = 0; p < pushes; ++p) {
      q.push(floor + next() % 1000, 0, 0, popped.size());
    }
    if (next() % 2 == 0 && !q.empty()) {
      popped.push_back(q.pop());
      floor = popped.back().time;
    }
  }
  while (!q.empty()) popped.push_back(q.pop());
  for (std::size_t i = 1; i < popped.size(); ++i) {
    const bool ordered =
        popped[i - 1].time < popped[i].time ||
        (popped[i - 1].time == popped[i].time &&
         popped[i - 1].seq < popped[i].seq);
    ASSERT_TRUE(ordered) << "disorder at pop " << i;
  }
}

TEST(EventQueue, SizeCountsRunAndHeap) {
  EventQueue q;
  q.push(1, 0, 0);
  q.push(1, 0, 0);
  q.push(2, 0, 0);
  EXPECT_EQ(q.size(), 3u);
  q.pop();  // run of time 1 active, one served
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MatchesReferenceHeapOnRandomMix) {
  // Differential check against a plain priority queue ordered on
  // (time, insertion seq). The mix spans 80 (listener, opcode) classes —
  // more than the queue has lanes, so the overflow lane is used — with
  // monotone per-class streams, out-of-order pushes, equal-timestamp
  // bursts, full drains that empty every lane before it refills, and one
  // lane grown past 2048 events so its served prefix is compacted while
  // it still has a tail.
  struct Ref {
    SimTime time;
    std::uint64_t seq;
    std::uint16_t listener;
    std::uint16_t opcode;
  };
  const auto later = [](const Ref& x, const Ref& y) {
    return x.time != y.time ? x.time > y.time : x.seq > y.seq;
  };
  std::priority_queue<Ref, std::vector<Ref>, decltype(later)> ref(later);
  EventQueue q;
  std::mt19937_64 rng(0x5eed1e55ULL);
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };

  constexpr std::uint32_t kClasses = 80;
  std::vector<SimTime> clock(kClasses, 0);  // per-class monotone stream
  SimTime now = 0;
  std::uint64_t seq = 0;
  std::uint64_t pops = 0;

  const auto push = [&](std::uint32_t cls, SimTime time) {
    const auto listener = static_cast<std::uint16_t>(cls % 20);
    const auto opcode = static_cast<std::uint16_t>(cls / 20);
    q.push(time, listener, opcode, static_cast<std::uint32_t>(seq), cls);
    ref.push(Ref{time, seq, listener, opcode});
    ++seq;
  };
  const auto push_monotone = [&](std::uint32_t cls) {
    clock[cls] = std::max(clock[cls], now) + below(1000);
    push(cls, clock[cls]);
  };
  const auto pop = [&]() {
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_FALSE(q.empty());
    const Ref want = ref.top();
    ref.pop();
    ASSERT_EQ(q.next_time(), want.time) << "at pop " << pops;
    const Event got = q.pop();
    ASSERT_EQ(got.time, want.time) << "at pop " << pops;
    ASSERT_EQ(got.a, static_cast<std::uint32_t>(want.seq)) << "at pop " << pops;
    ASSERT_EQ(got.listener, want.listener);
    ASSERT_EQ(got.opcode, want.opcode);
    now = got.time;
    ++pops;
  };

  for (int round = 0; round < 40 && !HasFailure(); ++round) {
    if (round == 7) {
      // One long monotone lane, drained while it keeps growing.
      for (int i = 0; i < 3000; ++i) push_monotone(0);
      for (int i = 0; i < 2500 && !HasFailure(); ++i) {
        pop();
        if (below(2) == 0) push_monotone(0);
      }
    }
    for (int step = 0; step < 2000 && !HasFailure(); ++step) {
      const std::uint64_t roll = below(100);
      if (roll < 45 && !ref.empty()) {
        pop();
      } else if (roll < 80) {
        push_monotone(static_cast<std::uint32_t>(below(kClasses)));
      } else if (roll < 92) {
        // Out of order: may land before its class's latest push.
        push(static_cast<std::uint32_t>(below(kClasses)), now + below(1500));
      } else {
        // Equal-timestamp burst across random classes.
        const SimTime at = now + below(50);
        const std::uint64_t burst = 2 + below(12);
        for (std::uint64_t i = 0; i < burst; ++i) {
          push(static_cast<std::uint32_t>(below(kClasses)), at);
        }
      }
    }
    if (round % 5 == 4) {
      while (!ref.empty() && !HasFailure()) pop();
      if (!HasFailure()) {
        EXPECT_TRUE(q.empty());
      }
    }
  }
  while (!ref.empty() && !HasFailure()) pop();
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 50000u);
}

// ------------------------------------------------------------ simulator ----

TEST(Simulator, AdvancesTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule_at(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_at(50, [&] {
    times.push_back(sim.now());
    sim.schedule_after(25, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{50, 75}));
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(100, [&] {
    EXPECT_THROW(sim.schedule_at(50, [] {}), std::logic_error);
  });
  sim.run();
}

TEST(Simulator, CascadedEventsAllRun) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 99u);
  EXPECT_EQ(sim.events_processed(), 100u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (SimTime t = 0; t < 10; ++t) {
    sim.schedule_at(t * 10, [&] { ++count; });
  }
  sim.run_until(45);
  EXPECT_EQ(count, 5);  // events at 0,10,20,30,40
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilExecutesEventExactlyAtDeadline) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(100, [&] { ran = true; });
  sim.run_until(100);
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventBudgetGuardsRunaway) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.schedule_after(1, forever); };
  sim.schedule_at(0, forever);
  EXPECT_THROW(sim.run(/*max_events=*/1000), std::runtime_error);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(static_cast<SimTime>((i * 37) % 13),
                      [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  EXPECT_EQ(sim.run(), 7u);
}

// ------------------------------------------- POD listeners + dispatch ----

/// A listener that records (opcode, a, time) per delivered event.
struct Recorder {
  Simulator& sim;
  std::vector<std::uint64_t> log;

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t /*b*/) {
    auto* r = static_cast<Recorder*>(self);
    r->log.push_back(opcode * 1'000'000 + a * 1'000 + r->sim.now());
  }
};

TEST(PodDispatch, EventsReachTheRegisteredListener) {
  Simulator sim;
  Recorder rec{sim, {}};
  const std::uint16_t id = sim.add_listener(&rec, &Recorder::on_event);
  sim.schedule_at(5, id, /*opcode=*/2, /*a=*/1);
  sim.schedule_at(3, id, /*opcode=*/1, /*a=*/9);
  sim.run();
  ASSERT_EQ(rec.log.size(), 2u);
  EXPECT_EQ(rec.log[0], 1u * 1'000'000 + 9 * 1'000 + 3);
  EXPECT_EQ(rec.log[1], 2u * 1'000'000 + 1 * 1'000 + 5);
}

TEST(PodDispatch, DispatchInvokesImmediately) {
  Simulator sim;
  Recorder rec{sim, {}};
  const std::uint16_t id = sim.add_listener(&rec, &Recorder::on_event);
  sim.dispatch(Callback{id, 4, 2, 0});
  EXPECT_EQ(rec.log.size(), 1u);
  EXPECT_EQ(sim.events_processed(), 0u);  // no queue traffic
}

TEST(PodDispatch, CallbackScheduleMatchesPodSchedule) {
  Simulator sim;
  Recorder rec{sim, {}};
  const std::uint16_t id = sim.add_listener(&rec, &Recorder::on_event);
  const Callback cb{id, 1, 2, 0};
  sim.schedule_at(10, cb);
  sim.schedule_after(20, cb);
  sim.run();
  ASSERT_EQ(rec.log.size(), 2u);
  EXPECT_EQ(rec.log[0] % 1000, 10u);
  EXPECT_EQ(rec.log[1] % 1000, 20u);
}

TEST(PodDispatch, MakeCallbackIsOneShotAndReusesSlots) {
  Simulator sim;
  int calls = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(static_cast<SimTime>(i),
                    sim.make_callback([&calls] { ++calls; }));
  }
  sim.run();
  EXPECT_EQ(calls, 100);
}

/// Equivalence: the same logical schedule issued once through closures and
/// once through POD events must execute in exactly the same order — the
/// two paths share one queue and one (time, seq) contract.
TEST(PodDispatch, ClosureAndPodSchedulingInterleaveDeterministically) {
  struct Tagger {
    std::vector<int>* out;
    static void on_event(void* self, std::uint16_t /*op*/, std::uint32_t a,
                         std::uint32_t /*b*/) {
      static_cast<Tagger*>(self)->out->push_back(static_cast<int>(a));
    }
  };
  auto run_once = [](bool pod_first) {
    Simulator sim;
    std::vector<int> order;
    Tagger tagger{&order};
    const std::uint16_t id = sim.add_listener(&tagger, &Tagger::on_event);
    for (int i = 0; i < 64; ++i) {
      const SimTime t = static_cast<SimTime>((i * 13) % 7);
      if ((i % 2 == 0) == pod_first) {
        sim.schedule_at(t, id, 0, static_cast<std::uint32_t>(i));
      } else {
        sim.schedule_at(t, [&order, i] { order.push_back(i); });
      }
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(true), run_once(true));
  // Same timestamps, same push order, mirrored transport: same order.
  EXPECT_EQ(run_once(true), run_once(false));
}

TEST(PodDispatch, MillionEventStressIsDeterministic) {
  // 1M mixed-time events through the 4-ary heap + FIFO-run fast path;
  // the execution order must be identical across runs and the event
  // count exact.
  auto run_once = [] {
    Simulator sim;
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    struct Mixer {
      std::uint64_t* checksum;
      Simulator* sim;
      static void on_event(void* self, std::uint16_t /*op*/,
                           std::uint32_t a, std::uint32_t /*b*/) {
        auto* m = static_cast<Mixer*>(self);
        *m->checksum = (*m->checksum ^ (a + m->sim->now())) *
                       0x100000001b3ULL;
      }
    };
    Mixer mixer{&checksum, &sim};
    const std::uint16_t id = sim.add_listener(&mixer, &Mixer::on_event);
    std::uint64_t x = 12345;
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Three bands: heavy same-timestamp bursts, a sparse tail, and a
      // mid band — exercising run-append, heap push, and cohort drain.
      const SimTime t = i % 3 == 0 ? 1000 : 1000 + x % 5000;
      sim.schedule_at(t, id, 0, static_cast<std::uint32_t>(i));
    }
    const std::uint64_t processed = sim.run();
    EXPECT_EQ(processed, 1'000'000u);
    return checksum;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace cxlgraph::sim
