// Golden event-order tests for the overhauled engine.
//
// The indexed 4-ary heap, the immediate-event FIFO bypass and lazy
// cancellation must preserve the engine's observable contract exactly:
// events execute in (time, priority, sequence) order, FIFO among ties.
// Every test here drives the production des::Engine and a straight-line
// reference implementation (std::priority_queue + hash-set cancellation,
// the pre-overhaul design) through the same script and requires the
// recorded execution orders to match event for event.
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "support/reference_engine.h"

namespace {

/// One recorded execution step: which scripted event ran, and when.
struct Fired {
  int label = 0;
  des::SimTime at{};

  bool operator==(const Fired&) const = default;
};

/// A schedule/cancel script interpreted against either engine. Ops are
/// applied up front; `nested` ops run from inside event `from_label`'s
/// callback with times relative to now (offset 0 = an immediate event, the
/// FIFO-bypass path), which is how the bypass and in-callback
/// cancellations get exercised.
struct ScriptOp {
  enum Kind { kSchedule, kCancel } kind = kSchedule;
  int label = 0;        ///< identity of the scheduled event
  std::int64_t at = 0;  ///< absolute ns (top-level) or now-offset (nested)
  int priority = 0;
  int cancel_label = 0;  ///< label whose event to cancel (cancel)
};

struct Script {
  std::vector<ScriptOp> top_level;
  /// label -> ops performed inside that event's callback.
  std::vector<std::pair<int, std::vector<ScriptOp>>> nested;
};

template <typename EngineT>
std::vector<Fired> replay(const Script& script) {
  EngineT engine;
  std::vector<Fired> order;
  std::vector<typename EngineT::EventId> ids(1024);

  std::function<void(const ScriptOp&, bool)> apply = [&](const ScriptOp& op,
                                                         bool nested) {
    if (op.kind == ScriptOp::kCancel) {
      engine.cancel(ids[op.cancel_label]);
      return;
    }
    const auto callback = [&, label = op.label] {
      order.push_back(Fired{label, engine.now()});
      for (const auto& [from, ops] : script.nested) {
        if (from == label) {
          for (const ScriptOp& nested_op : ops) apply(nested_op, true);
        }
      }
    };
    ids[op.label] = nested
                        ? engine.schedule_in(des::Duration{op.at}, callback,
                                             op.priority)
                        : engine.schedule_at(des::SimTime{op.at}, callback,
                                             op.priority);
  };
  for (const ScriptOp& op : script.top_level) apply(op, false);
  engine.run();
  return order;
}

void expect_same_order(const Script& script) {
  const std::vector<Fired> ref = replay<refdes::Engine>(script);
  const std::vector<Fired> got = replay<des::Engine>(script);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].label, got[i].label) << "diverged at step " << i;
    EXPECT_EQ(ref[i].at, got[i].at) << "diverged at step " << i;
  }
}

TEST(EngineGolden, RecordedScheduleCancelScript) {
  // Hand-written worst-case mix: same-time ties at t=50 across priorities,
  // cancellation of a pending event, re-scheduling and immediate events
  // from inside callbacks, and a cancel issued from a callback against a
  // later event.
  Script script;
  script.top_level = {
      {ScriptOp::kSchedule, 1, 100, 0, 0},
      {ScriptOp::kSchedule, 2, 50, 0, 0},
      {ScriptOp::kSchedule, 3, 50, -1, 0},
      {ScriptOp::kSchedule, 4, 50, 0, 0},   // FIFO tie with label 2
      {ScriptOp::kSchedule, 5, 200, 1, 0},
      {ScriptOp::kSchedule, 6, 200, 0, 0},
      {ScriptOp::kCancel, 0, 0, 0, 1},      // cancel label 1 before it runs
      {ScriptOp::kSchedule, 7, 150, 0, 0},
  };
  script.nested = {
      {2, {{ScriptOp::kSchedule, 8, 0, 0, 0},     // immediate (offset 0)
           {ScriptOp::kSchedule, 9, 10, 0, 0},
           {ScriptOp::kCancel, 0, 0, 0, 7}}},     // cancel a pending event
      {8, {{ScriptOp::kSchedule, 10, 0, 0, 0}}},  // immediate from immediate
      {6, {{ScriptOp::kSchedule, 11, 10, -5, 0}}},
  };
  expect_same_order(script);
}

TEST(EngineGolden, RandomInterleavingsMatchReference) {
  // Property: for seeded random scripts (schedules at random offsets and
  // priorities, cancels aimed at random earlier labels, nested ops behind
  // roughly a third of the events), both engines execute the identical
  // sequence. 40 seeds x 60 ops covers tie groups, heap churn and
  // cancel-of-executed races.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL;
    const auto rnd = [&state](std::uint64_t bound) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return (state >> 33) % bound;
    };
    Script script;
    int next_label = 1;
    const auto make_op = [&](std::int64_t base) {
      if (next_label > 1 && rnd(4) == 0) {
        return ScriptOp{ScriptOp::kCancel, 0, 0, 0,
                        static_cast<int>(1 + rnd(next_label - 1))};
      }
      const int label = next_label++;
      return ScriptOp{ScriptOp::kSchedule, label,
                      base + static_cast<std::int64_t>(rnd(8)),
                      static_cast<int>(rnd(3)) - 1, 0};
    };
    for (int i = 0; i < 40; ++i) {
      script.top_level.push_back(make_op(static_cast<std::int64_t>(rnd(20))));
    }
    for (int label = 1; label < next_label; ++label) {
      if (rnd(3) != 0) continue;
      std::vector<ScriptOp> ops;
      const int count = static_cast<int>(1 + rnd(2));
      for (int i = 0; i < count && next_label < 1000; ++i) {
        // Nested schedules land at now + offset; offset 0 exercises the
        // immediate-FIFO bypass against heap-resident ties.
        ops.push_back(make_op(0));
      }
      script.nested.emplace_back(label, std::move(ops));
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_order(script);
  }
}

TEST(EngineGolden, CancellationStress) {
  // Schedule a block, cancel every other event (some before, some after
  // unrelated dispatches), and verify exactly the survivors run, in order.
  des::Engine engine;
  std::vector<des::Engine::EventId> ids;
  std::vector<int> fired;
  constexpr int kEvents = 2000;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(engine.schedule_at(des::SimTime{10 + (i % 97)}, [&fired, i] {
      fired.push_back(i);
    }));
  }
  int cancelled = 0;
  for (int i = 0; i < kEvents; i += 2) {
    EXPECT_TRUE(engine.cancel(ids[i]));
    EXPECT_FALSE(engine.cancel(ids[i])) << "double-cancel must fail";
    ++cancelled;
  }
  EXPECT_EQ(engine.pending(), kEvents - cancelled);
  engine.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents - cancelled));
  for (const int i : fired) EXPECT_EQ(i % 2, 1);
  // Post-run, every handle is stale; cancel must refuse them all.
  for (const auto& id : ids) EXPECT_FALSE(engine.cancel(id));
}

TEST(EngineGolden, StaleHandleAfterSlotReuseIsRejected) {
  // The generation tag must keep an old EventId from cancelling an
  // unrelated event that happens to recycle the same pool slot.
  des::Engine engine;
  bool second_ran = false;
  const auto first = engine.schedule_at(des::SimTime{1}, [] {});
  engine.run();  // first's slot is released and goes back on the free list
  const auto second = engine.schedule_at(des::SimTime{2}, [&second_ran] {
    second_ran = true;
  });
  EXPECT_EQ(first.slot, second.slot) << "test assumes LIFO slot reuse";
  EXPECT_FALSE(engine.cancel(first)) << "stale generation must be rejected";
  engine.run();
  EXPECT_TRUE(second_ran);
}

TEST(EngineGolden, CancelFromInsideCallbackOfSameTimestamp) {
  // An event may cancel a same-time event that is still queued behind it;
  // both engines must agree that the victim never runs.
  Script script;
  script.top_level = {
      {ScriptOp::kSchedule, 1, 10, 0, 0},
      {ScriptOp::kSchedule, 2, 10, 0, 0},
      {ScriptOp::kSchedule, 3, 10, 0, 0},
  };
  script.nested = {{1, {{ScriptOp::kCancel, 0, 0, 0, 3}}}};
  expect_same_order(script);
}

// ---------------------------------------------------------------------------
// Conservative-parallel golden runs: the PartitionSet's determinism
// contract is that the per-partition execution order (and every event
// timestamp) is a pure function of the scripted workload — independent of
// how many worker threads drive the windows. Each test replays the same
// partitioned script at 1, 2, 4 and 8 threads and requires the recorded
// streams to match step for step.
// ---------------------------------------------------------------------------

/// One recorded step of a partitioned replay.
struct PartFired {
  int partition = 0;
  int label = 0;
  des::SimTime at{};

  bool operator==(const PartFired&) const = default;
};

constexpr des::Duration kLookahead{10};

/// Replays a seeded random partitioned workload: every partition starts
/// with a few local events; each event may schedule further local work at
/// random offsets and post cross-partition continuations at >= lookahead.
/// Returns the per-partition execution streams concatenated in partition
/// order (each stream is internally ordered by execution).
std::vector<std::vector<PartFired>> replay_partitioned(std::uint64_t seed,
                                                       int partitions,
                                                       unsigned threads) {
  des::PartitionSet sim{partitions, kLookahead};
  std::vector<std::vector<PartFired>> streams(partitions);

  // Deterministic per-event RNG: derived from the seed and the event's
  // identity, NOT from execution order, so every thread count draws the
  // same numbers for the same event.
  const auto mix = [seed](std::uint64_t a, std::uint64_t b) {
    std::uint64_t x = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                      (b * 0xbf58476d1ce4e5b9ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  };

  // Each event runs `body(partition, label, depth)`: records itself, then
  // fans out bounded further work.
  std::function<void(int, int, int)> body = [&](int part, int label,
                                                int depth) {
    des::Engine& engine = sim.engine(des::PartitionId{part});
    streams[part].push_back(PartFired{part, label, engine.now()});
    if (depth >= 3) return;
    const std::uint64_t r = mix(static_cast<std::uint64_t>(part) * 1000 + label,
                                static_cast<std::uint64_t>(depth));
    // Local follow-up, possibly at the same timestamp (tie-break path).
    if (r % 3 != 0) {
      const int child = label * 7 + 1;
      engine.schedule_in(des::Duration{static_cast<std::int64_t>(r % 4)},
                         [&body, part, child, depth] {
                           body(part, child, depth + 1);
                         },
                         static_cast<int>(r % 3) - 1);
    }
    // Cross-partition post one lookahead (or more) out.
    if (partitions > 1 && r % 2 == 0) {
      const int to = static_cast<int>((r >> 8) % partitions);
      if (to != part) {
        const int child = label * 7 + 2;
        sim.post(des::PartitionId{part}, des::PartitionId{to},
                 engine.now() + kLookahead +
                     des::Duration{static_cast<std::int64_t>(r % 5)},
                 [&body, to, child, depth] { body(to, child, depth + 1); });
      }
    }
  };

  for (int part = 0; part < partitions; ++part) {
    for (int i = 0; i < 4; ++i) {
      const int label = 100 + i;
      const des::SimTime at{static_cast<std::int64_t>(mix(part, i) % 6)};
      sim.engine(des::PartitionId{part}).schedule_at(at, [&body, part, label] {
        body(part, label, 0);
      });
    }
  }
  sim.run(threads);
  return streams;
}

TEST(PartitionedGolden, RandomWorkloadsMatchAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto reference = replay_partitioned(seed, 4, 1);
    std::size_t total = 0;
    for (const auto& stream : reference) total += stream.size();
    ASSERT_GT(total, 0u);
    for (const unsigned threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const auto got = replay_partitioned(seed, 4, threads);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t p = 0; p < reference.size(); ++p) {
        ASSERT_EQ(got[p].size(), reference[p].size()) << "partition " << p;
        for (std::size_t i = 0; i < reference[p].size(); ++i) {
          EXPECT_EQ(got[p][i], reference[p][i])
              << "partition " << p << " diverged at step " << i;
        }
      }
    }
  }
}

TEST(PartitionedGolden, RecordedCrossPostScript) {
  // Hand-written boundary cases: posts landing exactly at the lookahead
  // horizon, same-timestamp ties between an injected and a local event
  // (the injected event's schedule time decides), and a chain that
  // ping-pongs between partitions.
  const auto run_once = [](unsigned threads) {
    des::PartitionSet sim{2, kLookahead};
    std::vector<PartFired> log;
    const auto record = [&log, &sim](int part, int label) {
      log.push_back(
          PartFired{part, label, sim.engine(des::PartitionId{part}).now()});
    };
    // Local event in partition 1 at t=10 (scheduled at t=0)...
    sim.engine(des::PartitionId{1}).schedule_at(des::SimTime{10},
                                                [&] { record(1, 1); });
    // ...and an injected event also at t=10, posted from partition 0 at
    // t=0: the injected event carries schedule time 0 and ties with the
    // local one, resolved by the (time, priority, sched, seq) key.
    sim.engine(des::PartitionId{0}).schedule_at(des::SimTime{0}, [&] {
      record(0, 2);
      sim.post(des::PartitionId{0}, des::PartitionId{1}, des::SimTime{10},
               [&] { record(1, 3); });
      // Ping-pong chain: 0 -> 1 -> 0, each hop exactly one lookahead out.
      sim.post(des::PartitionId{0}, des::PartitionId{1},
               des::SimTime{} + kLookahead, [&] {
                 record(1, 4);
                 sim.post(des::PartitionId{1}, des::PartitionId{0},
                          sim.engine(des::PartitionId{1}).now() + kLookahead,
                          [&] { record(0, 5); });
               });
    });
    sim.run(threads);
    return log;
  };
  // Partition-streams interleave nondeterministically in wall time, so the
  // recorded log is only comparable per partition; split before comparing.
  const auto split = [](const std::vector<PartFired>& log) {
    std::vector<std::vector<PartFired>> streams(2);
    for (const PartFired& f : log) streams[f.partition].push_back(f);
    return streams;
  };
  const auto reference = split(run_once(1));
  ASSERT_EQ(reference[0].size() + reference[1].size(), 5u);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(split(run_once(threads)), reference);
  }
}

TEST(PartitionedGolden, SinglePartitionMatchesPlainEngine) {
  // K = 1 must be the plain engine bit for bit: run the recorded script
  // from RecordedScheduleCancelScript through a one-partition set and the
  // reference engine and require identical streams.
  struct SetAdapter {
    des::PartitionSet sim{1, des::Duration{1}};
    using EventId = des::Engine::EventId;
    [[nodiscard]] des::SimTime now() {
      return sim.engine(des::PartitionId{0}).now();
    }
    EventId schedule_at(des::SimTime t, std::function<void()> fn,
                        int priority = 0) {
      return sim.engine(des::PartitionId{0})
          .schedule_at(t, std::move(fn), priority);
    }
    EventId schedule_in(des::Duration dt, std::function<void()> fn,
                        int priority = 0) {
      return sim.engine(des::PartitionId{0})
          .schedule_in(dt, std::move(fn), priority);
    }
    bool cancel(EventId id) {
      return sim.engine(des::PartitionId{0}).cancel(id);
    }
    void run() { sim.run(4); }  // extra threads must be inert at K = 1
  };
  Script script;
  script.top_level = {
      {ScriptOp::kSchedule, 1, 100, 0, 0},
      {ScriptOp::kSchedule, 2, 50, 0, 0},
      {ScriptOp::kSchedule, 3, 50, -1, 0},
      {ScriptOp::kSchedule, 4, 50, 0, 0},
      {ScriptOp::kSchedule, 5, 200, 1, 0},
      {ScriptOp::kCancel, 0, 0, 0, 1},
      {ScriptOp::kSchedule, 6, 150, 0, 0},
  };
  script.nested = {
      {2, {{ScriptOp::kSchedule, 7, 0, 0, 0},
           {ScriptOp::kCancel, 0, 0, 0, 6}}},
  };
  const std::vector<Fired> ref = replay<refdes::Engine>(script);
  const std::vector<Fired> got = replay<SetAdapter>(script);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "diverged at step " << i;
  }
}

TEST(PartitionedGolden, PostBelowLookaheadIsRejected) {
  des::PartitionSet sim{2, kLookahead};
  // A cross-partition post inside the lookahead window would break the
  // conservative execution guarantee; it must be refused loudly.
  EXPECT_THROW(sim.post(des::PartitionId{0}, des::PartitionId{1},
                        des::SimTime{} + kLookahead - des::Duration{1}, [] {}),
               std::logic_error);
  // At exactly now + lookahead it is legal.
  sim.post(des::PartitionId{0}, des::PartitionId{1},
           des::SimTime{} + kLookahead, [] {});
  sim.run(2);
  EXPECT_EQ(sim.processed(), 1u);
}

TEST(EngineGolden, RunUntilHonoursCancellationAndResumes) {
  des::Engine engine;
  std::vector<int> fired;
  engine.schedule_at(des::SimTime{10}, [&] { fired.push_back(10); });
  const auto mid =
      engine.schedule_at(des::SimTime{20}, [&] { fired.push_back(20); });
  engine.schedule_at(des::SimTime{30}, [&] { fired.push_back(30); });
  engine.cancel(mid);
  engine.run_until(des::SimTime{25});
  EXPECT_EQ(fired, (std::vector<int>{10}));
  EXPECT_EQ(engine.now(), des::SimTime{25});
  engine.run();
  EXPECT_EQ(fired, (std::vector<int>{10, 30}));
}

}  // namespace
