// Unit tests for the ownership-shield subsystem (src/shield/):
//   * HeldLockTable — fast path, spillover, and the two exemplar bugs
//     fixed (off-by-one at the fast-path boundary, overflow loss);
//   * the full verdict matrix — {suppress, abort, log, passthrough}
//     rules x {unbalanced unlock, double unlock, non-owner unlock,
//     reentrant relock} — across three lock families (TAS,
//     Ticket, MCS: one plain word lock, one plain FIFO lock, one
//     context queue lock);
//   * telemetry snapshots, the §5 escape hatch, registry composites,
//     and the shield-vs-native verify matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/lock_registry.hpp"
#include "core/mcs.hpp"
#include "core/stats_lock.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "lock_test_util.hpp"
#include "response/response.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/shield.hpp"
#include "verify/misuse_matrix.hpp"

using namespace resilock;
using shield::HeldLockTable;
using shield::MisuseKind;
using response::ResponseRulesGuard;
namespace rt = resilock::test;

// Shield<L> must stay inside the lock vocabulary for every family.
static_assert(Lockable<Shield<TatasLock>>);
static_assert(Lockable<Shield<McsLock>>);
static_assert(PlainLock<Shield<TicketLockResilient>>);
static_assert(ContextLock<Shield<McsLockResilient>>);

// ---------------------------------------------------------------------
// HeldLockTable
// ---------------------------------------------------------------------

TEST(HeldLockTable, TracksDepthPerLock) {
  HeldLockTable t;
  int a = 0, b = 0;
  EXPECT_EQ(t.depth(&a), 0u);
  t.note_acquired(&a);
  t.note_acquired(&a);
  t.note_acquired(&b);
  EXPECT_EQ(t.depth(&a), 2u);
  EXPECT_EQ(t.depth(&b), 1u);
  EXPECT_EQ(t.held_count(), 2u);
  EXPECT_EQ(t.note_released(&a), 1);
  EXPECT_EQ(t.note_released(&a), 0);
  EXPECT_EQ(t.depth(&a), 0u);
  EXPECT_EQ(t.note_released(&a), HeldLockTable::kNotHeld);
  EXPECT_EQ(t.note_released(&b), 0);
  EXPECT_EQ(t.held_count(), 0u);
}

TEST(HeldLockTable, ExactlyFullFastPathStillReleases) {
  // The exemplar's DecrementRef guard (`lock_count < MAX_LOCKS`) refused
  // releases when the table was exactly full; ours must not.
  HeldLockTable t;
  int locks[HeldLockTable::kFastSlots];
  for (auto& l : locks) t.note_acquired(&l);
  EXPECT_EQ(t.held_count(), HeldLockTable::kFastSlots);
  EXPECT_TRUE(t.fast_path_only());
  for (auto& l : locks) EXPECT_EQ(t.note_released(&l), 0);
  EXPECT_EQ(t.held_count(), 0u);
}

TEST(HeldLockTable, OverflowSpillsInsteadOfDropping) {
  // The exemplar silently dropped entries past MAX_LOCKS (and wrote one
  // past the array end on the way). Here deep nests spill to the map
  // and every entry stays exact.
  HeldLockTable t;
  constexpr std::size_t kLocks = 3 * HeldLockTable::kFastSlots;
  std::vector<int> locks(kLocks);
  for (auto& l : locks) t.note_acquired(&l);
  EXPECT_EQ(t.held_count(), kLocks);
  EXPECT_FALSE(t.fast_path_only());
  for (auto& l : locks) EXPECT_EQ(t.depth(&l), 1u);
  // Release in reverse order; nothing may be reported missing.
  for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
    EXPECT_EQ(t.note_released(&*it), 0);
  }
  EXPECT_EQ(t.held_count(), 0u);
  EXPECT_TRUE(t.fast_path_only());
}

TEST(HeldLockTable, SpillPromotionKeepsFastPathHot) {
  HeldLockTable t;
  std::vector<int> locks(HeldLockTable::kFastSlots + 2);
  for (auto& l : locks) t.note_acquired(&l);
  // Free a fast slot: one spilled entry must be promoted into it.
  EXPECT_EQ(t.note_released(&locks[0]), 0);
  EXPECT_EQ(t.note_released(&locks[1]), 0);
  EXPECT_TRUE(t.fast_path_only());
  for (std::size_t i = 2; i < locks.size(); ++i) {
    EXPECT_EQ(t.depth(&locks[i]), 1u) << i;
  }
}

// ---------------------------------------------------------------------
// Verdict matrix: verdict x misuse kind x {TAS, Ticket, MCS}.
// ---------------------------------------------------------------------

// Runs the four misuse scenarios under "misuse=suppress" (or
// "misuse=log") and checks interception, counters, and that the base
// never corrupts.
template <typename Base>
void suppressing_verdict_matrix(std::string_view rules) {
  using S = Shield<Base>;
  ResponseRulesGuard pin(rules);

  {  // unbalanced unlock of a free lock
    S s;
    context_of_t<S> ctx;
    EXPECT_FALSE(generic_release(s, ctx));
    const auto snap = s.snapshot();
    EXPECT_EQ(snap.count(MisuseKind::kUnbalancedUnlock), 1u);
    EXPECT_EQ(snap.suppressed, 1u);
    generic_acquire(s, ctx);  // still functional
    EXPECT_TRUE(generic_release(s, ctx));
  }

  {  // double unlock by the previous owner
    S s;
    context_of_t<S> ctx;
    generic_acquire(s, ctx);
    EXPECT_TRUE(generic_release(s, ctx));
    EXPECT_FALSE(generic_release(s, ctx));
    EXPECT_EQ(s.snapshot().count(MisuseKind::kDoubleUnlock), 1u);
  }

  {  // unlock while another thread holds the lock
    S s;
    std::atomic<bool> held{false}, done{false};
    std::thread t([&] {
      context_of_t<S> ctx;
      generic_acquire(s, ctx);
      held.store(true);
      while (!done.load()) std::this_thread::yield();
      EXPECT_TRUE(generic_release(s, ctx));
    });
    while (!held.load()) std::this_thread::yield();
    context_of_t<S> ctx;
    EXPECT_FALSE(generic_release(s, ctx));  // intercepted, owner unharmed
    EXPECT_EQ(s.snapshot().count(MisuseKind::kNonOwnerUnlock), 1u);
    done.store(true);
    t.join();
    generic_acquire(s, ctx);
    EXPECT_TRUE(generic_release(s, ctx));
  }

  {  // reentrant relock, absorbed as a depth bump (§3.9 remedy)
    S s;
    context_of_t<S> ctx;
    generic_acquire(s, ctx);
    generic_acquire(s, ctx);  // would self-deadlock unshielded
    EXPECT_EQ(s.held_depth(), 2u);
    const auto snap = s.snapshot();
    EXPECT_EQ(snap.count(MisuseKind::kReentrantRelock), 1u);
    EXPECT_EQ(snap.reentrant_absorbed, 1u);
    EXPECT_TRUE(generic_release(s, ctx));  // absorbed
    EXPECT_TRUE(generic_release(s, ctx));  // reaches the base
    EXPECT_EQ(s.held_depth(), 0u);
    generic_acquire(s, ctx);
    EXPECT_TRUE(generic_release(s, ctx));
  }
}

TEST(ShieldVerdictMatrix, SuppressTas) {
  suppressing_verdict_matrix<TatasLock>("misuse=suppress");
  suppressing_verdict_matrix<TatasLockResilient>("misuse=suppress");
}
TEST(ShieldVerdictMatrix, SuppressTicket) {
  suppressing_verdict_matrix<TicketLock>("misuse=suppress");
  suppressing_verdict_matrix<TicketLockResilient>("misuse=suppress");
}
TEST(ShieldVerdictMatrix, SuppressMcs) {
  suppressing_verdict_matrix<McsLock>("misuse=suppress");
  suppressing_verdict_matrix<McsLockResilient>("misuse=suppress");
}

TEST(ShieldVerdictMatrix, LogAndSuppressTas) {
  suppressing_verdict_matrix<TatasLock>("misuse=log");
}
TEST(ShieldVerdictMatrix, LogAndSuppressTicket) {
  suppressing_verdict_matrix<TicketLock>("misuse=log");
}
TEST(ShieldVerdictMatrix, LogAndSuppressMcs) {
  suppressing_verdict_matrix<McsLock>("misuse=log");
}

TEST(ShieldVerdictMatrix, LogVerdictWritesDiagnostic) {
  ResponseRulesGuard pin("misuse=log");
  Shield<TatasLock> s;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(s.release());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unbalanced-unlock"), std::string::npos) << err;
}

// Abort: every misuse kind dies with a diagnostic. Death tests fork,
// so each scenario builds its whole world inside the statement.
template <typename Base>
void abort_verdict_matrix() {
  using S = Shield<Base>;
  EXPECT_DEATH(
      {
        ResponseRulesGuard pin("misuse=abort");
        S s;
        context_of_t<S> ctx;
        generic_release(s, ctx);  // unbalanced unlock
      },
      "unbalanced-unlock");
  EXPECT_DEATH(
      {
        ResponseRulesGuard pin("misuse=abort");
        S s;
        context_of_t<S> ctx;
        generic_acquire(s, ctx);
        generic_release(s, ctx);
        generic_release(s, ctx);  // double unlock
      },
      "double-unlock");
  EXPECT_DEATH(
      {
        ResponseRulesGuard pin("misuse=abort");
        S s;
        std::atomic<bool> held{false};
        std::thread t([&] {
          context_of_t<S> ctx;
          generic_acquire(s, ctx);
          held.store(true);
          for (;;) std::this_thread::yield();  // the abort kills us
        });
        while (!held.load()) std::this_thread::yield();
        context_of_t<S> ctx;
        generic_release(s, ctx);  // non-owner unlock
      },
      "non-owner-unlock");
  EXPECT_DEATH(
      {
        ResponseRulesGuard pin("misuse=abort");
        S s;
        context_of_t<S> ctx;
        generic_acquire(s, ctx);
        generic_acquire(s, ctx);  // reentrant relock
      },
      "reentrant-relock");
}

TEST(ShieldVerdictMatrixDeathTest, AbortTas) {
  abort_verdict_matrix<TatasLock>();
}
TEST(ShieldVerdictMatrixDeathTest, AbortTicket) {
  abort_verdict_matrix<TicketLock>();
}
TEST(ShieldVerdictMatrixDeathTest, AbortMcs) {
  abort_verdict_matrix<McsLock>();
}

// Passthrough over a RESILIENT base: the shield counts, the base's own
// in-protocol check still refuses — observable behavior matches the
// bare resilient lock.
template <typename Base>
void passthrough_over_resilient_matrix() {
  using S = Shield<Base>;
  ResponseRulesGuard pin("misuse=passthrough");

  {  // unbalanced + double unlock reach the base and are refused there
    S s;
    context_of_t<S> ctx;
    EXPECT_FALSE(generic_release(s, ctx));
    generic_acquire(s, ctx);
    EXPECT_TRUE(generic_release(s, ctx));
    EXPECT_FALSE(generic_release(s, ctx));
    const auto snap = s.snapshot();
    EXPECT_EQ(snap.count(MisuseKind::kUnbalancedUnlock), 1u);
    EXPECT_EQ(snap.count(MisuseKind::kDoubleUnlock), 1u);
    EXPECT_EQ(snap.passed_through, 2u);
    EXPECT_EQ(snap.suppressed, 0u);
  }

  {  // reentrant relock probed via trylock: the base's CAS refuses
    S s;
    context_of_t<S> ctx;
    generic_acquire(s, ctx);
    EXPECT_FALSE(generic_try_acquire(s, ctx));
    const auto snap = s.snapshot();
    EXPECT_EQ(snap.count(MisuseKind::kReentrantRelock), 1u);
    EXPECT_EQ(snap.reentrant_absorbed, 0u);
    EXPECT_TRUE(generic_release(s, ctx));
  }
}

TEST(ShieldVerdictMatrix, PassThroughTas) {
  passthrough_over_resilient_matrix<TatasLockResilient>();
}
TEST(ShieldVerdictMatrix, PassThroughTicket) {
  passthrough_over_resilient_matrix<TicketLockResilient>();
}
TEST(ShieldVerdictMatrix, PassThroughMcs) {
  passthrough_over_resilient_matrix<McsLockResilient>();
}

TEST(ShieldVerdictMatrix, PassThroughOverOriginalIsFaithful) {
  // Over an ORIGINAL base, pass-through hands the misuse to the
  // protocol untouched: a non-owner release of a TAS lock really frees
  // the word (the paper's §3.1 consequence), and the shield only keeps
  // the tally.
  ResponseRulesGuard pin("misuse=passthrough");
  Shield<TatasLock> s;
  std::atomic<bool> held{false}, done{false};
  std::thread t([&] {
    s.acquire();
    held.store(true);
    while (!done.load()) std::this_thread::yield();
    s.release();
    done.store(false);
  });
  while (!held.load()) std::this_thread::yield();
  EXPECT_TRUE(s.release());  // original protocol: blind store, "succeeds"
  EXPECT_FALSE(s.base().is_locked());  // corruption passed through
  EXPECT_EQ(s.snapshot().count(MisuseKind::kNonOwnerUnlock), 1u);
  EXPECT_EQ(s.snapshot().passed_through, 1u);
  done.store(true);
  t.join();
}

// ---------------------------------------------------------------------
// Verdicts come from the rules installed at misuse time.
// ---------------------------------------------------------------------

TEST(ShieldVerdicts, RuleChangeAppliesToExistingShield) {
  ResponseRulesGuard outer("misuse=suppress");
  Shield<TatasLockResilient> s;
  EXPECT_FALSE(s.release());
  EXPECT_EQ(s.snapshot().suppressed, 1u);
  {
    ResponseRulesGuard inner("misuse=passthrough");
    EXPECT_FALSE(s.release());  // now the base's check answers
    EXPECT_EQ(s.snapshot().passed_through, 1u);
  }
  EXPECT_FALSE(s.release());  // the outer rules are back
  EXPECT_EQ(s.snapshot().suppressed, 2u);
}

// ---------------------------------------------------------------------
// Semantics under load, escape hatch, composition.
// ---------------------------------------------------------------------

TEST(Shield, MutualExclusionPreserved) {
  Shield<TicketLock> plain;
  rt::mutex_stress(plain, 4, 1500);
  Shield<McsLockResilient> ctxlock;
  rt::mutex_stress(ctxlock, 4, 1500);
}

TEST(Shield, ShieldedOriginalSurvivesConcurrentMisuse) {
  // The headline property: an ORIGINAL protocol behind the shield keeps
  // mutual exclusion while a rogue thread hammers unbalanced releases.
  ResponseRulesGuard pin("misuse=suppress");
  Shield<TicketLock> s;
  verify::MutexChecker chk;
  std::uint64_t counter = 0;
  runtime::ThreadTeam::run(4, [&](std::uint32_t tid) {
    if (tid == 3) {
      for (int i = 0; i < 200; ++i) {
        EXPECT_FALSE(s.release());
        std::this_thread::yield();
      }
      return;
    }
    for (int i = 0; i < 1000; ++i) {
      s.acquire();
      chk.enter();
      ++counter;
      chk.exit();
      ASSERT_TRUE(s.release());
    }
  });
  EXPECT_EQ(chk.max_simultaneous(), 1);
  EXPECT_EQ(counter, 3000u);
  // Concurrent rogue releases classify as non-owner (someone held the
  // lock) or unbalanced (it was free); either way the tally is nonzero.
  EXPECT_GT(s.snapshot().total_misuses(), 0u);
}

TEST(Shield, EscapeHatchDisablesInterception) {
  // §5: with checks off, one thread acquires and another releases, and
  // the shield stays out of the way entirely.
  ResponseRulesGuard pin("misuse=abort");  // loudest verdict
  Shield<TatasLockResilient> s;
  s.acquire();
  {
    MisuseCheckGuard off(false);
    std::thread t([&] { EXPECT_TRUE(s.release()); });
    t.join();
  }
  EXPECT_FALSE(s.base().is_locked());
  EXPECT_EQ(s.snapshot().total_misuses(), 0u);  // nothing was flagged
  // The acquiring thread's table entry went stale when the lock left it
  // cross-thread; the next acquire must self-heal, not flag a relock
  // (which would abort under these rules).
  s.acquire();
  EXPECT_TRUE(s.release());
  EXPECT_EQ(s.snapshot().total_misuses(), 0u);
}

TEST(Shield, StaleEntryCannotReleaseAnotherThreadsLock) {
  // After a §5 hand-off (cross-thread release with checks disabled) the
  // original acquirer's table entry is stale. With checks back on, its
  // erroneous release() must NOT free the lock a third thread now
  // holds — release() validates the entry against the owner tag.
  ResponseRulesGuard pin("misuse=suppress");
  Shield<TatasLockResilient> s;
  s.acquire();
  {
    MisuseCheckGuard off(false);
    std::thread t([&] { EXPECT_TRUE(s.release()); });  // sanctioned
    t.join();
  }
  std::atomic<bool> held{false}, done{false};
  std::thread holder([&] {
    s.acquire();
    held.store(true);
    while (!done.load()) std::this_thread::yield();
    EXPECT_TRUE(s.release());
  });
  while (!held.load()) std::this_thread::yield();
  EXPECT_FALSE(s.release());  // stale entry: flagged, owner unharmed
  EXPECT_TRUE(s.base().is_locked());
  EXPECT_EQ(s.snapshot().count(MisuseKind::kNonOwnerUnlock), 1u);
  done.store(true);
  holder.join();
}

TEST(Shield, AbsorbedRelockReleasesBaseWithAcquiringContext) {
  // A relock absorbed with a *different* context must not poison the
  // final base release: whatever context the caller passes, the base is
  // released with the one it was acquired with (a foreign MCS qnode
  // would self-deadlock).
  ResponseRulesGuard pin("misuse=suppress");
  Shield<McsLockResilient> s;
  Shield<McsLockResilient>::Context c1, c2;
  s.acquire(c1);
  s.acquire(c2);  // absorbed; c2 never reaches the base
  EXPECT_EQ(s.held_depth(), 2u);
  EXPECT_TRUE(s.release(c1));  // absorbed
  EXPECT_TRUE(s.release(c2));  // must release the base via c1, not hang
  EXPECT_EQ(s.held_depth(), 0u);
  s.acquire(c2);  // still functional with either context
  EXPECT_TRUE(s.release(c2));
}

TEST(Shield, ComposesWithStatsLock) {
  // Wrappers stack: stats outside, shield inside, protocol at the core.
  StatsLock<Shield<TicketLock>> s;
  s.acquire();
  EXPECT_TRUE(s.release());
  EXPECT_FALSE(s.release());  // shield refuses; stats counts a misuse
  EXPECT_EQ(s.snapshot().detected_misuses, 1u);
}

TEST(Shield, TrylockSemantics) {
  Shield<TatasLockResilient> s;
  EXPECT_TRUE(s.try_acquire());
  std::thread t([&] { EXPECT_FALSE(s.try_acquire()); });
  t.join();
  EXPECT_TRUE(s.release());
}

TEST(Shield, DeepRecursionBeyondFastPath) {
  // One shield absorbed past the fast-path size: the spillover keeps
  // the depth exact (no false unbalanced report at any depth).
  ResponseRulesGuard pin("misuse=suppress");
  Shield<TatasLock> s;
  constexpr std::uint32_t kDepth = 3 * HeldLockTable::kFastSlots;
  for (std::uint32_t i = 0; i < kDepth; ++i) s.acquire();
  EXPECT_EQ(s.held_depth(), kDepth);
  for (std::uint32_t i = 0; i < kDepth; ++i) EXPECT_TRUE(s.release());
  EXPECT_EQ(s.held_depth(), 0u);
  EXPECT_FALSE(s.release());  // one more is a genuine misuse again
}

// ---------------------------------------------------------------------
// Registry composites and interposer routing.
// ---------------------------------------------------------------------

TEST(ShieldRegistry, CompositeNamesRegisteredForEveryBase) {
  for (const auto& name : lock_names()) {
    if (is_shielded_name(name)) continue;
    EXPECT_TRUE(is_lock_name(shielded_name(name))) << name;
  }
}

TEST(ShieldRegistry, NameHelpersRoundTrip) {
  EXPECT_EQ(shielded_name("MCS"), "shield<MCS>");
  EXPECT_TRUE(is_shielded_name("shield<MCS>"));
  EXPECT_EQ(shield_base_name("shield<MCS>"), "MCS");
  EXPECT_FALSE(is_shielded_name("MCS"));
  EXPECT_FALSE(is_shielded_name("shield<>"));
  EXPECT_TRUE(shield_base_name("Ticket").empty());
}

TEST(ShieldRegistry, ShieldedOriginalDetectsThroughTypeErasure) {
  // The registry's whole point: protection for locks with no bespoke
  // resilient variant — the ORIGINAL flavor behind shield<> detects.
  for (const char* name : {"shield<TAS>", "shield<Ticket>", "shield<MCS>",
                           "shield<CLH>", "shield<HMCS>"}) {
    auto lock = make_lock(name, kOriginal);
    EXPECT_FALSE(lock->release()) << name;  // misuse on a free lock
    lock->acquire();
    EXPECT_TRUE(lock->release()) << name;
  }
}

// ---------------------------------------------------------------------
// Shield-vs-native verify matrix.
// ---------------------------------------------------------------------

TEST(ShieldMatrix, ShieldedOriginalMatchesNativeResilient) {
  const auto rows = verify::run_shield_matrix({"TAS", "Ticket", "MCS"});
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    for (int i = 0; i < 4; ++i) {
      const auto& cell = row.shielded[i];
      if (!cell.applicable) continue;
      EXPECT_TRUE(cell.detected) << row.lock << " scenario " << i;
      EXPECT_TRUE(cell.mutex_preserved) << row.lock << " scenario " << i;
      EXPECT_TRUE(cell.functional_after) << row.lock << " scenario " << i;
    }
    EXPECT_TRUE(row.shield_matches_native()) << row.lock;
  }
}
