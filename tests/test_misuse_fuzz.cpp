// Randomized misuse fuzzing over the resilient flavors.
//
// A deterministic RNG drives random interleavings of legitimate
// lock/unlock episodes and injected unbalanced releases across threads.
// Invariants checked on every schedule:
//   I1 — mutual exclusion never violated (MutexChecker);
//   I2 — a release paired with an acquire returns true;
//   I3 — an unbalanced release returns false (except HCLH, which is
//        immune and has nothing to detect);
//   I4 — the lock keeps making progress afterwards (the run finishes).
// Complements the scripted scenarios of test_misuse.cpp with breadth:
// the scripts pin down the paper's exact interleavings, the fuzzer walks
// thousands of others.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>

#include "core/ahmcs.hpp"
#include "core/hclh.hpp"
#include "core/hmcs.hpp"
#include "core/lock_registry.hpp"
#include "core/rw/crw.hpp"
#include "lock_test_util.hpp"
#include "shield/shield.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "shield/rw_shield.hpp"
#include "verify/checkers.hpp"

using namespace resilock;
namespace rv = resilock::verify;

using FuzzParam = std::tuple<std::string, std::uint64_t>;  // lock, seed

class MisuseFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(MisuseFuzz, RandomScheduleKeepsInvariants) {
  const auto& [name, seed] = GetParam();
  auto lock = make_lock(name, kResilient);
  rv::MutexChecker chk;
  std::atomic<std::uint64_t> balanced_failures{0};
  std::atomic<std::uint64_t> misuse_accepted{0};
  constexpr std::uint32_t kThreads = 4;
  constexpr int kSteps = 400;

  runtime::ThreadTeam::run(kThreads, [&, seed = seed,
                                      name = name](std::uint32_t tid) {
    runtime::Xoshiro256ss rng(seed * 1000003 + tid);
    for (int step = 0; step < kSteps; ++step) {
      switch (rng.bounded(4)) {
        case 0:
        case 1: {  // legitimate episode
          lock->acquire();
          chk.enter();
          runtime::busy_work(rng.bounded(64));
          chk.exit();
          if (!lock->release()) balanced_failures.fetch_add(1);
          break;
        }
        case 2: {  // legitimate trylock episode
          if (lock->try_acquire()) {
            chk.enter();
            chk.exit();
            if (!lock->release()) balanced_failures.fetch_add(1);
          }
          break;
        }
        case 3: {  // injected misuse: unbalanced release
          if (lock->release() && name != "HCLH") {
            misuse_accepted.fetch_add(1);
          }
          break;
        }
      }
    }
  });

  EXPECT_EQ(chk.max_simultaneous(), 1)
      << name << ": mutual exclusion violated under misuse fuzzing";
  EXPECT_EQ(balanced_failures.load(), 0u)
      << name << ": a balanced release was refused";
  EXPECT_EQ(misuse_accepted.load(), 0u)
      << name << ": an unbalanced release was accepted";
  // I4: one final clean episode.
  lock->acquire();
  EXPECT_TRUE(lock->release());
}

// ---------------------------------------------------------------------
// Reader-writer misuse fuzzing over the mode-aware shield: racing
// threads interleave legitimate read/write episodes with injected
// unbalanced read unlocks (the §4 misuse that silently corrupts every
// compact indicator) and bogus write unlocks. Invariants:
//   R1 — writers always mutually exclusive (MutexChecker on the W CS);
//   R2 — balanced runlock/wunlock never refused;
//   R3 — every injected misuse refused (shield interception);
//   R4 — the indicator balances out at the end (no §4 skew) and the
//        lock stays functional for both sides.
// ---------------------------------------------------------------------

class RwMisuseFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RwMisuseFuzz, RandomScheduleKeepsInvariants) {
  const std::uint64_t seed = GetParam();
  response::ResponseRulesGuard rules("");
  using Rw = CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>;
  shield::RwShield<Rw> rw;
  rv::MutexChecker wchk;
  std::atomic<std::uint64_t> balanced_failures{0};
  std::atomic<std::uint64_t> misuse_accepted{0};
  constexpr std::uint32_t kThreads = 4;
  constexpr int kSteps = 300;

  runtime::ThreadTeam::run(kThreads, [&, seed](std::uint32_t tid) {
    runtime::Xoshiro256ss rng(seed * 7777777 + tid);
    Rw::Context ctx;
    for (int step = 0; step < kSteps; ++step) {
      switch (rng.bounded(6)) {
        case 0:
        case 1: {  // legitimate read episode
          rw.rlock(ctx);
          runtime::busy_work(rng.bounded(32));
          if (!rw.runlock(ctx)) balanced_failures.fetch_add(1);
          break;
        }
        case 2: {  // legitimate write episode
          rw.wlock(ctx);
          wchk.enter();
          runtime::busy_work(rng.bounded(32));
          wchk.exit();
          if (!rw.wunlock(ctx)) balanced_failures.fetch_add(1);
          break;
        }
        case 3: {  // nested (recursive) read, absorbed by the shield
          rw.rlock(ctx);
          rw.rlock(ctx);
          if (!rw.runlock(ctx)) balanced_failures.fetch_add(1);
          if (!rw.runlock(ctx)) balanced_failures.fetch_add(1);
          break;
        }
        case 4: {  // injected misuse: unbalanced read unlock
          if (rw.runlock(ctx)) misuse_accepted.fetch_add(1);
          break;
        }
        case 5: {  // injected misuse: bogus write unlock
          if (rw.wunlock(ctx)) misuse_accepted.fetch_add(1);
          break;
        }
      }
    }
  });

  EXPECT_EQ(wchk.max_simultaneous(), 1)
      << "writer mutual exclusion violated under rw misuse fuzzing";
  EXPECT_EQ(balanced_failures.load(), 0u)
      << "a balanced rw release was refused";
  EXPECT_EQ(misuse_accepted.load(), 0u)
      << "an injected rw misuse was accepted";
  // R4: no §4 skew — the indicator balanced out, both sides functional.
  EXPECT_TRUE(rw.base().indicator().is_empty());
  Rw::Context c;
  rw.rlock(c);
  EXPECT_TRUE(rw.runlock(c));
  rw.wlock(c);
  EXPECT_TRUE(rw.wunlock(c));
  EXPECT_GT(rw.snapshot().total_misuses(), 0u);  // the fuzz really misused
}

INSTANTIATE_TEST_SUITE_P(Seeds, RwMisuseFuzz,
                         ::testing::Values(1ull, 2ull, 3ull));

// ---------------------------------------------------------------------
// Hierarchical misuse fuzzing under churn: deep fanout trees behind the
// ownership shield, with threads spread across leaves (so injected
// bogus releases land at random depths/paths of the hierarchy) and the
// AHMCS adaptive streak naturally flipping contexts between leaf-path
// and mid-tree root entry. Invariants:
//   H1 — mutual exclusion never violated;
//   H2 — balanced episodes never refused;
//   H3 — every injected unbalanced/non-owner release refused before
//        the base tree sees it;
//   H4 — shield counters reconcile after the storm: every injection is
//        accounted as an intercepted misuse and every interception was
//        suppressed (nothing leaked through to corrupt a parent-level
//        hand-off), and the tree still round-trips.
// ---------------------------------------------------------------------

using HierFuzzParam = std::tuple<std::string, std::uint64_t>;

class HierMisuseFuzz : public ::testing::TestWithParam<HierFuzzParam> {};

namespace {

template <typename L, typename... Args>
void hier_fuzz_storm(std::uint64_t seed, Args&&... args) {
  // Pinned rules make every verdict suppress, so the counter
  // reconciliation below is exact.
  response::ResponseRulesGuard rules("misuse=suppress");
  shield::Shield<L> lock(std::forward<Args>(args)...);
  rv::MutexChecker chk;
  std::atomic<std::uint64_t> balanced_failures{0};
  std::atomic<std::uint64_t> misuse_accepted{0};
  std::atomic<std::uint64_t> injected{0};
  constexpr std::uint32_t kThreads = 4;
  constexpr int kSteps = 250;

  runtime::ThreadTeam::run(kThreads, [&, seed](std::uint32_t tid) {
    runtime::Xoshiro256ss rng(seed * 600011 + tid);
    typename shield::Shield<L>::Context ctx;
    for (int step = 0; step < kSteps; ++step) {
      switch (rng.bounded(3)) {
        case 0:
        case 1: {  // legitimate episode (the pid picks the leaf/depth)
          lock.acquire(ctx);
          chk.enter();
          runtime::busy_work(rng.bounded(48));
          chk.exit();
          if (!lock.release(ctx)) balanced_failures.fetch_add(1);
          break;
        }
        case 2: {  // injected misuse: unbalanced/non-owner release
          typename shield::Shield<L>::Context bogus;
          if (lock.release(bogus)) {
            misuse_accepted.fetch_add(1);
          } else {
            injected.fetch_add(1);
          }
          break;
        }
      }
    }
  });

  EXPECT_EQ(chk.max_simultaneous(), 1)
      << "hierarchical mutual exclusion violated under misuse fuzzing";
  EXPECT_EQ(balanced_failures.load(), 0u)
      << "a balanced hierarchical release was refused";
  EXPECT_EQ(misuse_accepted.load(), 0u)
      << "an injected hierarchical misuse was accepted";
  // H4: counters reconciled — every injection intercepted, every
  // interception suppressed, nothing passed through to the tree.
  const auto snap = lock.snapshot();
  EXPECT_GT(injected.load(), 0u);  // the storm really injected
  EXPECT_EQ(snap.total_misuses(), injected.load());
  EXPECT_EQ(snap.suppressed, injected.load());
  EXPECT_EQ(snap.passed_through, 0u);
  EXPECT_EQ(snap.acquisitions, snap.releases);
  typename shield::Shield<L>::Context fin;
  lock.acquire(fin);
  EXPECT_TRUE(lock.release(fin));
}

}  // namespace

TEST_P(HierMisuseFuzz, DeepTreeKeepsInvariantsUnderChurn) {
  const auto& [family, seed] = GetParam();
  const std::vector<std::uint32_t> fanouts{2, 2};
  if (family == "HMCS") {
    hier_fuzz_storm<HmcsLock>(seed, fanouts);
  } else if (family == "AHMCS") {
    hier_fuzz_storm<AhmcsLock>(seed, fanouts);
  } else {
    hier_fuzz_storm<HclhLock>(seed, platform::Topology::uniform(2, 2));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, HierMisuseFuzz,
    ::testing::Combine(::testing::Values(std::string("HMCS"),
                                         std::string("HCLH"),
                                         std::string("AHMCS")),
                       ::testing::Values(1ull, 2ull)),
    [](const ::testing::TestParamInfo<HierFuzzParam>& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

namespace {

std::vector<FuzzParam> fuzz_params() {
  std::vector<FuzzParam> params;
  for (const auto& name : lock_names()) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      params.emplace_back(name, seed);
    }
  }
  return params;
}

std::string fuzz_name(const ::testing::TestParamInfo<FuzzParam>& info) {
  return test::gtest_safe_name(std::get<0>(info.param) + "_s" +
                               std::to_string(std::get<1>(info.param)));
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(AllResilientLocks, MisuseFuzz,
                         ::testing::ValuesIn(fuzz_params()), fuzz_name);
