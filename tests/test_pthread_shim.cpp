// Unit tests for the C-style pthread shim: init/lock/trylock/unlock/
// destroy with errorcheck semantics (EPERM on unbalanced unlock, §7).
#include <gtest/gtest.h>

#include <cerrno>
#include <thread>

#include "interpose/pthread_shim.hpp"
#include "lockdep/lockdep.hpp"
#include "runtime/thread_team.hpp"

using namespace resilock::interpose;

TEST(PthreadShim, InitLockUnlockDestroy) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, "MCS", 1), 0);
  EXPECT_EQ(rl_mutex_lock(&m), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(PthreadShim, UnknownAlgorithmRejected) {
  rl_mutex_t m{};
  EXPECT_EQ(rl_mutex_init(&m, "NoSuchLock", 1), EINVAL);
  EXPECT_EQ(rl_mutex_init(nullptr, "MCS", 1), EINVAL);
}

TEST(PthreadShim, NullAlgorithmUsesEnvironmentDefault) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, nullptr, 1), 0);
  EXPECT_EQ(rl_mutex_lock(&m), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(PthreadShim, ErrorcheckSemanticsEPERM) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, "Ticket", 1), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), EPERM);  // unlock without lock
  EXPECT_EQ(rl_mutex_lock(&m), 0);
  std::thread t([&] { EXPECT_EQ(rl_mutex_unlock(&m), EPERM); });
  t.join();
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(PthreadShim, TrylockEBUSY) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, "TAS", 0), 0);
  EXPECT_EQ(rl_mutex_trylock(&m), 0);
  std::thread t([&] { EXPECT_EQ(rl_mutex_trylock(&m), EBUSY); });
  t.join();
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(PthreadShim, UseAfterDestroyRejected) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, "MCS", 1), 0);
  ASSERT_EQ(rl_mutex_destroy(&m), 0);
  EXPECT_EQ(rl_mutex_lock(&m), EINVAL);
  EXPECT_EQ(rl_mutex_unlock(&m), EINVAL);
  EXPECT_EQ(rl_mutex_destroy(&m), EBUSY);
}

// ---------------------------------------------------------------------
// pthread_rwlock-shaped trylocks (EBUSY semantics; no lockdep edges).
// ---------------------------------------------------------------------

TEST(RwlockShim, TrylocksUncontendedSucceedAndUnlockRoutes) {
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np", 1), 0);
  EXPECT_EQ(rl_rwlock_tryrdlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_trywrlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  // Post-trylock misuse is still errorcheck'd.
  EXPECT_EQ(rl_rwlock_unlock(&rw), EPERM);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
}

TEST(RwlockShim, TrylockEBUSYAgainstAWriter) {
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np", 1), 0);
  ASSERT_EQ(rl_rwlock_wrlock(&rw), 0);
  std::thread t([&] {
    EXPECT_EQ(rl_rwlock_tryrdlock(&rw), EBUSY);
    EXPECT_EQ(rl_rwlock_trywrlock(&rw), EBUSY);
  });
  t.join();
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
}

TEST(RwlockShim, TrywrlockEBUSYAgainstReadersAndBacksOutCleanly) {
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np", 1), 0);
  ASSERT_EQ(rl_rwlock_rdlock(&rw), 0);
  std::thread t([&] {
    // A live reader: the write attempt would spin on the indicator —
    // EBUSY instead, with the cohort lock released on the way out.
    EXPECT_EQ(rl_rwlock_trywrlock(&rw), EBUSY);
    // The backout left the lock fully takeable for readers.
    EXPECT_EQ(rl_rwlock_tryrdlock(&rw), 0);
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  });
  t.join();
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  // ...and for a writer once the readers drained.
  EXPECT_EQ(rl_rwlock_trywrlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
}

TEST(RwlockShim, TrylocksAddNoLockdepEdges) {
  using resilock::lockdep::Graph;
  resilock::lockdep::LockdepEnabledGuard lockdep_on(true);
  rl_mutex_t m{};
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_mutex_init(&m, "MCS", 1), 0);
  ASSERT_EQ(rl_rwlock_init(&rw, "np", 1), 0);
  // Prime both classes (first acquires register them).
  ASSERT_EQ(rl_mutex_lock(&m), 0);
  ASSERT_EQ(rl_mutex_unlock(&m), 0);
  ASSERT_EQ(rl_rwlock_tryrdlock(&rw), 0);
  ASSERT_EQ(rl_rwlock_unlock(&rw), 0);
  const std::uint64_t edges_before = Graph::instance().stats().edges;
  ASSERT_EQ(rl_mutex_lock(&m), 0);
  // Held-while-trylocking: a blocking rdlock would record an order
  // edge here; the trylock must not.
  ASSERT_EQ(rl_rwlock_tryrdlock(&rw), 0);
  ASSERT_EQ(rl_rwlock_unlock(&rw), 0);
  ASSERT_EQ(rl_rwlock_trywrlock(&rw), 0);
  ASSERT_EQ(rl_rwlock_unlock(&rw), 0);
  ASSERT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(Graph::instance().stats().edges, edges_before);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(RwlockShim, TrylocksAcrossPreferences) {
  // The rp/wp variants route their preference barriers through the try
  // paths too (pending-writer deference, reader backoff).
  for (const char* pref : {"rp", "wp"}) {
    rl_rwlock_t rw{};
    ASSERT_EQ(rl_rwlock_init(&rw, pref, 0), 0) << pref;
    ASSERT_EQ(rl_rwlock_trywrlock(&rw), 0) << pref;
    std::thread t([&] { EXPECT_EQ(rl_rwlock_trywrlock(&rw), EBUSY); });
    t.join();
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_tryrdlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_destroy(&rw), 0) << pref;
  }
}

TEST(PthreadShim, MutualExclusionThroughShim) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, "CLH", 1), 0);
  std::uint64_t counter = 0;
  resilock::runtime::ThreadTeam::run(4, [&](std::uint32_t) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rl_mutex_lock(&m), 0);
      ++counter;
      ASSERT_EQ(rl_mutex_unlock(&m), 0);
    }
  });
  EXPECT_EQ(counter, 4000u);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}
