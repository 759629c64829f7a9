// Unit + scenario tests for the lock-dependency subsystem
// (src/lockdep/):
//   * the order graph — class registration/retirement/recycling, edge
//     dedup, table-full fail-open;
//   * the per-thread acquisition stack, including overflow fail-open;
//   * the misuse event ring (SPSC semantics, drop accounting, shield
//     violations arriving as timestamped events);
//   * detection semantics through real Shield<L> locks: AB/BA flagged
//     on first occurrence with no wedge, dining-philosophers cycle,
//     no false positives on consistent ordering across TAS/Ticket/MCS,
//     trylock neutrality, §5 escape-hatch stack hygiene;
//   * the mode engine (report/abort/off) and the verify-layer
//     scenario matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/lock_registry.hpp"
#include "core/mcs.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "interpose/transparent_mutex.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "shield/shield.hpp"
#include "verify/lockdep_matrix.hpp"

using namespace resilock;
using lockdep::AcqStack;
using lockdep::EventKind;
using lockdep::EventRing;
using lockdep::Graph;
using lockdep::LockdepEnabledGuard;
using lockdep::TraceBuffer;
using response::ResponseRulesGuard;

namespace {

lockdep::LockdepStats stats() { return Graph::instance().stats(); }

// The trace buffer is process-global; tests that assert on drained
// events clear leftovers from earlier tests first.
void clear_trace() { TraceBuffer::instance().drain_all(); }

}  // namespace

// ---------------------------------------------------------------------
// On/off switch.
// ---------------------------------------------------------------------

TEST(LockdepSwitch, GuardRestoresOnScopeExit) {
  const bool before = lockdep::lockdep_enabled();
  {
    LockdepEnabledGuard pin(!before);
    EXPECT_EQ(lockdep::lockdep_enabled(), !before);
  }
  EXPECT_EQ(lockdep::lockdep_enabled(), before);
}

// ---------------------------------------------------------------------
// Graph: classes and edges.
// ---------------------------------------------------------------------

TEST(LockdepGraph, RegisterRetireRecycle) {
  auto& g = Graph::instance();
  int x = 0, y = 0;
  const auto live_before = stats().classes_live;
  const lockdep::ClassId a = g.register_class(&x, "A");
  const lockdep::ClassId b = g.register_class(&y, "B");
  ASSERT_TRUE(lockdep::class_tracked(a));
  ASSERT_TRUE(lockdep::class_tracked(b));
  EXPECT_NE(a, b);
  EXPECT_STREQ(g.label_of(a), "A");
  EXPECT_EQ(stats().classes_live, live_before + 2);

  g.ensure_edge(a, b, &y);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));

  // Retirement clears both the row and the column, so a recycled id
  // starts with no inherited order constraints.
  g.retire_class(a);
  g.retire_class(b);
  EXPECT_EQ(stats().classes_live, live_before);
  const lockdep::ClassId b2 = g.register_class(&y, "B2");
  const lockdep::ClassId a2 = g.register_class(&x, "A2");
  EXPECT_FALSE(g.has_edge(a2, b2));
  EXPECT_FALSE(g.has_edge(b2, a2));
  g.retire_class(a2);
  g.retire_class(b2);
}

TEST(LockdepGraph, EdgeDedupAndSelfEdgeSkip) {
  auto& g = Graph::instance();
  int x = 0, y = 0;
  const auto a = g.register_class(&x, nullptr);
  const auto b = g.register_class(&y, nullptr);
  const auto edges_before = stats().edges;
  g.ensure_edge(a, b, &y);
  g.ensure_edge(a, b, &y);  // duplicate: no new edge
  g.ensure_edge(a, a, &x);  // self edge: skipped
  EXPECT_EQ(stats().edges, edges_before + 1);
  g.retire_class(a);
  g.retire_class(b);
}

TEST(LockdepGraph, TableFullFailsOpen) {
  auto& g = Graph::instance();
  int dummy = 0;
  const auto refused_before = stats().class_table_full;
  // Clamp growth at the currently-mapped capacity, then fill every
  // free slot: the next registration has nowhere to grow to, which is
  // the 4M-slot hard ceiling in miniature.
  lockdep::CapacityLimitGuard clamp(g.capacity());
  std::vector<lockdep::ClassId> ids;
  for (;;) {
    const auto id = g.register_class(&dummy, "filler");
    if (id == lockdep::kUntrackedClass) break;
    ids.push_back(id);
    ASSERT_LE(ids.size(), g.capacity());
  }
  EXPECT_GT(stats().class_table_full, refused_before);
  // Untracked ids are inert everywhere, including the hot-path probe.
  ASSERT_FALSE(ids.empty());
  g.ensure_edge(lockdep::kUntrackedClass, ids.front(), &dummy);
  EXPECT_FALSE(g.has_edge(lockdep::kUntrackedClass, ids.front()));
  EXPECT_FALSE(g.has_edge(ids.front(), lockdep::kInvalidClass));
  g.retire_class(lockdep::kUntrackedClass);
  g.retire_class(lockdep::kInvalidClass);
  for (const auto id : ids) g.retire_class(id);
  // The table works again after retirement: the freed slots sit in
  // epoch limbo until no reader is pinned, then recycle.
  const auto id = g.register_class(&dummy, "post");
  EXPECT_TRUE(lockdep::class_tracked(id));
  g.retire_class(id);
}

// ---------------------------------------------------------------------
// Acquisition stack.
// ---------------------------------------------------------------------

TEST(LockdepAcqStack, PushRemoveOutOfOrder) {
  // A fresh thread gets a fresh thread-local stack, so this cannot
  // disturb the main thread's (shared with every shield it touches).
  std::thread([] {
    auto& st = AcqStack::mine();
    int a = 0, b = 0, c = 0;
    EXPECT_EQ(st.depth(), 0u);
    EXPECT_TRUE(st.push(&a, 1));
    EXPECT_TRUE(st.push(&b, 2));
    EXPECT_TRUE(st.push(&c, 3));
    EXPECT_TRUE(st.contains(&b));
    st.remove(&b);  // out-of-LIFO release
    EXPECT_FALSE(st.contains(&b));
    EXPECT_EQ(st.depth(), 2u);
    // Order of the survivors is preserved.
    EXPECT_EQ(st.begin()[0].lock, &a);
    EXPECT_EQ(st.begin()[1].lock, &c);
    st.remove(&b);  // absent: no-op
    EXPECT_EQ(st.depth(), 2u);
    st.remove(&a);
    st.remove(&c);
    EXPECT_EQ(st.depth(), 0u);
  }).join();
}

TEST(LockdepAcqStack, OverflowFailsOpen) {
  std::thread([] {
    auto& st = AcqStack::mine();
    const auto overflow_before = stats().stack_overflow;
    std::vector<int> locks(AcqStack::kMaxDepth + 1);
    for (std::size_t i = 0; i < AcqStack::kMaxDepth; ++i) {
      EXPECT_TRUE(st.push(&locks[i], 0));
    }
    EXPECT_FALSE(st.push(&locks.back(), 0));  // full: counted, dropped
    EXPECT_EQ(stats().stack_overflow, overflow_before + 1);
    for (auto& l : locks) st.remove(&l);
    EXPECT_EQ(st.depth(), 0u);
  }).join();
}

// ---------------------------------------------------------------------
// Event ring.
// ---------------------------------------------------------------------

TEST(LockdepEventRing, PushPopWrapAndDrop) {
  EventRing r;
  lockdep::TraceEvent e;
  EXPECT_FALSE(r.pop(e));
  for (std::size_t round = 0; round < 3; ++round) {
    // Partial fill + drain exercises wraparound.
    for (std::size_t i = 0; i < EventRing::kCapacity / 2 + 3; ++i) {
      lockdep::TraceEvent in;
      in.a = static_cast<std::uint16_t>(i);
      EXPECT_TRUE(r.push(in));
    }
    std::size_t n = 0;
    while (r.pop(e)) ++n;
    EXPECT_EQ(n, EventRing::kCapacity / 2 + 3);
  }
  // Overfill: newest events drop, counted.
  for (std::size_t i = 0; i < EventRing::kCapacity + 5; ++i) {
    lockdep::TraceEvent in;
    r.push(in);
  }
  EXPECT_EQ(r.dropped(), 5u);
  std::size_t n = 0;
  while (r.pop(e)) ++n;
  EXPECT_EQ(n, EventRing::kCapacity);
}

TEST(LockdepEventRing, SpscAcrossThreads) {
  EventRing r;
  constexpr std::uint64_t kEvents = 20000;
  std::atomic<bool> done{false};
  std::uint64_t received = 0, last = 0;
  bool ordered = true;
  std::thread consumer([&] {
    lockdep::TraceEvent e;
    auto record = [&] {
      if (e.ns < last) ordered = false;
      last = e.ns;
      ++received;
    };
    for (;;) {
      if (r.pop(e)) {
        record();
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        while (r.pop(e)) record();  // final drain after the last push
        break;
      }
      std::this_thread::yield();
    }
  });
  std::uint64_t sent = 0;
  for (std::uint64_t i = 1; i <= kEvents; ++i) {
    lockdep::TraceEvent in;
    in.ns = i;
    if (r.push(in)) ++sent;
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sent + r.dropped(), kEvents);
  EXPECT_EQ(sent, received);
}

TEST(LockdepTraceBuffer, ShieldMisuseArrivesAsEvent) {
  clear_trace();
  ResponseRulesGuard rules("");  // misuse=suppress
  Shield<TatasLock> s;
  EXPECT_FALSE(s.release());  // unbalanced unlock
  bool seen = false;
  TraceBuffer::instance().drain([&](const lockdep::TraceEvent& e) {
    if (e.lock == &s && e.kind == EventKind::kUnbalancedUnlock) {
      EXPECT_GT(e.ns, 0u);
      EXPECT_EQ(e.pid, platform::self_pid());
      seen = true;
    }
  });
  EXPECT_TRUE(seen);
}

// ---------------------------------------------------------------------
// Detection semantics through real shields.
// ---------------------------------------------------------------------

TEST(Lockdep, InversionFlaggedOnFirstOccurrenceWithoutWedge) {
  LockdepEnabledGuard on(true);
  ResponseRulesGuard rules("");
  clear_trace();
  Shield<TatasLock> a, b;
  const auto before = stats().inversions;
  a.acquire();
  b.acquire();  // edge a→b
  b.release();
  a.release();
  b.acquire();
  a.acquire();  // edge b→a: AB/BA closed — flagged right here, single
  EXPECT_EQ(stats().inversions, before + 1);  // threaded, nothing wedged
  a.release();
  b.release();
  // Same reversed order again: the edge is known, no report spam.
  b.acquire();
  a.acquire();
  a.release();
  b.release();
  EXPECT_EQ(stats().inversions, before + 1);

  // The report was also emitted into the event ring with the two
  // class ids of the cycle.
  bool seen = false;
  TraceBuffer::instance().drain([&](const lockdep::TraceEvent& e) {
    if (e.kind != EventKind::kOrderInversion) return;
    const auto ca = a.lockdep_class();
    const auto cb = b.lockdep_class();
    if ((e.a == ca && e.b == cb) || (e.a == cb && e.b == ca)) seen = true;
  });
  EXPECT_TRUE(seen);
}

TEST(Lockdep, DiningPhilosophersCycleDetectedSequentially) {
  LockdepEnabledGuard on(true);
  ResponseRulesGuard rules("");
  constexpr int kPhil = 5;
  Shield<TatasLock> fork[kPhil];
  const auto before = stats().cycles;
  // Each philosopher dines alone, in turn: no two threads, no blocking,
  // yet the last one's left-then-right pickup closes the 5-cycle.
  for (int p = 0; p < kPhil; ++p) {
    fork[p].acquire();
    fork[(p + 1) % kPhil].acquire();
    fork[(p + 1) % kPhil].release();
    fork[p].release();
  }
  EXPECT_EQ(stats().cycles, before + 1);
}

TEST(Lockdep, NoFalsePositiveOnConsistentOrderAcrossLockTypes) {
  // Acceptance gate: consistently ordered nesting across three lock
  // FAMILIES (plain word lock, FIFO counter lock, context queue lock)
  // must never report, from any number of threads.
  LockdepEnabledGuard on(true);
  ResponseRulesGuard rules("");
  Shield<TatasLock> outer;
  Shield<TicketLock> middle;
  Shield<McsLock> inner;
  const auto before = stats().reports();
  std::vector<std::thread> team;
  for (int t = 0; t < 3; ++t) {
    team.emplace_back([&] {
      Shield<McsLock>::Context ctx;
      for (int i = 0; i < 200; ++i) {
        outer.acquire();
        middle.acquire();
        inner.acquire(ctx);
        inner.release(ctx);
        middle.release();
        outer.release();
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(stats().reports(), before);
}

TEST(Lockdep, HeterogeneousCycleAcrossLockTypesIsFlagged) {
  // The graph is lock-agnostic: a cycle spanning three different
  // protocols is still a cycle.
  LockdepEnabledGuard on(true);
  ResponseRulesGuard rules("");
  Shield<TatasLock> a;
  Shield<TicketLock> b;
  Shield<McsLock> c;
  Shield<McsLock>::Context ctx;
  const auto before = stats().cycles;
  a.acquire();
  b.acquire();
  b.release();
  a.release();
  b.acquire();
  c.acquire(ctx);
  c.release(ctx);
  b.release();
  c.acquire(ctx);
  a.acquire();  // closes a→b→c→a
  EXPECT_EQ(stats().cycles, before + 1);
  a.release();
  c.release(ctx);
}

TEST(Lockdep, TrylockAddsNoEdgesButJoinsHeldSet) {
  LockdepEnabledGuard on(true);
  ResponseRulesGuard rules("");
  const auto before = stats().reports();
  {
    // held-while-TRYlocking records no order: a trylock cannot wedge.
    Shield<TatasLock> a, b;
    a.acquire();
    EXPECT_TRUE(b.try_acquire());  // no edge a→b
    b.release();
    a.release();
    b.acquire();
    a.acquire();  // b→a is new but closes nothing
    a.release();
    b.release();
    EXPECT_EQ(stats().reports(), before);
  }
  {
    // ...but a TRY-acquired lock is genuinely held: blocking acquires
    // under it must record edges.
    Shield<TatasLock> x, y;
    EXPECT_TRUE(x.try_acquire());
    y.acquire();  // edge x→y
    y.release();
    x.release();
    y.acquire();
    x.acquire();  // closes x/y inversion
    x.release();
    y.release();
    EXPECT_EQ(stats().reports(), before + 1);
  }
}

TEST(Lockdep, ClassRetiredOnShieldDestruction) {
  LockdepEnabledGuard on(true);
  const auto live_before = stats().classes_live;
  {
    Shield<TatasLock> s;
    s.acquire();  // lazily registers the class
    EXPECT_TRUE(lockdep::class_tracked(s.lockdep_class()));
    EXPECT_EQ(stats().classes_live, live_before + 1);
    s.release();
  }
  EXPECT_EQ(stats().classes_live, live_before);
}

TEST(Lockdep, OffModeTracksNothing) {
  LockdepEnabledGuard off(false);
  ResponseRulesGuard rules("");
  Shield<TatasLock> a, b;
  const auto before = stats();
  a.acquire();
  b.acquire();
  b.release();
  a.release();
  b.acquire();
  a.acquire();
  a.release();
  b.release();
  EXPECT_EQ(stats().reports(), before.reports());
  EXPECT_EQ(stats().classes_registered, before.classes_registered);
  EXPECT_EQ(a.lockdep_class(), lockdep::kInvalidClass);  // never touched
}

TEST(Lockdep, EscapeHatchHandoffLeavesStackClean) {
  // §5 hand-off: the acquiring thread's stack entry goes stale when the
  // lock leaves it cross-thread; the next acquire's heal path must
  // purge it (no accumulation, no bogus edge sources).
  LockdepEnabledGuard on(true);
  ResponseRulesGuard rules("");
  const auto depth_before = AcqStack::mine().depth();
  Shield<TatasLock> s;
  s.acquire();
  {
    MisuseCheckGuard off(false);
    std::thread t([&] { EXPECT_TRUE(s.release()); });
    t.join();
  }
  EXPECT_EQ(AcqStack::mine().depth(), depth_before + 1);  // stale
  s.acquire();  // heals: purge + fresh entry
  EXPECT_EQ(AcqStack::mine().depth(), depth_before + 1);
  EXPECT_TRUE(s.release());
  EXPECT_EQ(AcqStack::mine().depth(), depth_before);
}

TEST(Lockdep, HandoffStaleEntryFeedsNoBogusEdges) {
  // After a §5 hand-off the acquirer's stack entry is stale even though
  // it never reacquires the lock. The entry must not source order
  // edges: without validation, a.acquire-handoff + b.acquire would
  // record a→b here, and the legitimate b-then-a sequence below would
  // be reported as an inversion this thread never created (a spurious
  // abort under RESILOCK_LOCKDEP=abort).
  LockdepEnabledGuard on(true);
  ResponseRulesGuard rules("");
  Shield<TatasLock> a;
  Shield<TatasLock> b;
  const auto before = stats().reports();
  a.acquire();
  {
    MisuseCheckGuard off(false);
    std::thread t([&] { EXPECT_TRUE(a.release()); });  // sanctioned
    t.join();
  }
  b.acquire();  // stale `a` entry is purged, NOT recorded as a→b
  EXPECT_FALSE(AcqStack::mine().contains(&a));
  b.release();
  b.acquire();
  a.acquire();  // legitimate first b-then-a order: nothing to invert
  a.release();
  b.release();
  EXPECT_EQ(stats().reports(), before);
}

TEST(LockdepDeathTest, AbortModeDiesBeforeTheWedge) {
  EXPECT_DEATH(
      {
        lockdep::set_lockdep_enabled(true);
        response::ResponseEngine::instance().configure("lockdep=abort");
        Shield<TatasLock> a;
        Shield<TatasLock> b;
        a.acquire();
        b.acquire();
        b.release();
        a.release();
        b.acquire();
        a.acquire();  // aborts here — both locks are FREE, nothing
                      // has wedged yet
      },
      "lock-order inversion");
}

// ---------------------------------------------------------------------
// Interposition: lockdep for free through TransparentMutex.
// ---------------------------------------------------------------------

TEST(Lockdep, TransparentMutexGetsDetectionForFree) {
  LockdepEnabledGuard on(true);
  ResponseRulesGuard rules("");
  interpose::TransparentMutex a, b;  // env default: shield<MCS>
  const auto before = stats().inversions;
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  b.lock();
  a.lock();
  EXPECT_EQ(stats().inversions, before + 1);
  a.unlock();
  b.unlock();
}

// ---------------------------------------------------------------------
// Verify-layer scenario matrix.
// ---------------------------------------------------------------------

TEST(LockdepMatrix, AllScenariosPassForTasTicketMcs) {
  const auto rows = verify::run_lockdep_matrix();
  verify::print_lockdep_matrix(rows);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.ordered_clean) << r.lock;
    EXPECT_TRUE(r.inversion_flagged) << r.lock;
    EXPECT_TRUE(r.inversion_once) << r.lock;
    EXPECT_TRUE(r.cycle_flagged) << r.lock;
    if (r.wedge_applicable) {
      EXPECT_TRUE(r.wedge_forewarned) << r.lock;
      EXPECT_TRUE(r.probes_joined) << r.lock;
    }
    EXPECT_TRUE(r.all_pass()) << r.lock;
  }
  // TAS and Ticket have rescue tooling; the wedge scenario must have
  // actually run somewhere.
  EXPECT_TRUE(rows[0].wedge_applicable);
  EXPECT_TRUE(rows[1].wedge_applicable);
}
