// Shared helpers for lock unit tests.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <string>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "core/generic.hpp"
#include "runtime/thread_team.hpp"
#include "verify/checkers.hpp"

namespace resilock::test {

// gtest test names must be alphanumeric: registry names like "C-BO-BO"
// and "shield<TAS>" need mangling before use in parameterized suites.
inline std::string gtest_safe_name(std::string n) {
  for (auto& c : n) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return n;
}

// Kernel thread id of the caller, for task_syscall_path().
inline long current_tid() {
#if defined(__linux__)
  return ::syscall(SYS_gettid);
#else
  return -1;
#endif
}

// The syscall a blocked thread sleeps in (first field), or "running".
inline std::string task_syscall_path(long tid) {
  return "/proc/self/task/" + std::to_string(tid) + "/syscall";
}

// Whether this platform exposes task_syscall_path() at all.
inline bool task_syscall_available() {
  return std::ifstream(task_syscall_path(current_tid())).good();
}

// True once thread `tid` is asleep in the futex syscall. A parked
// count >= 1 is not enough: it rises before futex_wait, so a wake sent
// then lands before the sleep and the wait is no park.
inline bool asleep_in_futex(long tid) {
#if defined(__linux__)
  std::ifstream in(task_syscall_path(tid));
  long nr = -1;
  return static_cast<bool>(in >> nr) && nr == SYS_futex;
#else
  (void)tid;
  return false;
#endif
}

// The canonical mutual-exclusion check: N threads increment a plain
// (non-atomic) counter under the lock; any lost update or checker
// violation fails. Works for PlainLock and ContextLock via generic
// dispatch; every thread gets its own context.
template <typename Lock>
void mutex_stress(Lock& lock, std::uint32_t threads, std::uint64_t iters) {
  std::uint64_t counter = 0;  // intentionally non-atomic
  verify::MutexChecker chk;
  runtime::ThreadTeam::run(threads, [&](std::uint32_t) {
    context_of_t<Lock> ctx;
    for (std::uint64_t i = 0; i < iters; ++i) {
      generic_acquire(lock, ctx);
      chk.enter();
      counter += 1;
      chk.exit();
      ASSERT_TRUE(generic_release(lock, ctx));
    }
  });
  EXPECT_EQ(counter, static_cast<std::uint64_t>(threads) * iters);
  EXPECT_EQ(chk.max_simultaneous(), 1);
}

// Same, with one context reused across iterations per thread (contexts
// are designed for reuse).
template <typename Lock>
void reuse_context_stress(Lock& lock, std::uint32_t threads,
                          std::uint64_t iters) {
  mutex_stress(lock, threads, iters);
}

}  // namespace resilock::test
