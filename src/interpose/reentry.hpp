// Interposition reentrancy guard.
//
// When libresilock_preload.so overrides pthread_mutex_lock for a whole
// process, EVERY pthread call in the process routes through it —
// including the ones resilock itself makes while servicing an
// interposed call (lockdep's graph mutex, the telemetry collector's
// lifecycle locks, libstdc++ internals reached through make_lock).
// Adopting those would recurse: adopting lockdep's own mutex requires
// registering a lockdep class, which locks that same mutex.
//
// The guard is a per-thread depth counter. Every preload entry point
// bumps it for the duration of the rl_* call it forwards to, so any
// pthread call made WHILE resilock code is on the stack sees a nonzero
// depth and forwards straight to the real glibc symbol. The invariant
// that falls out: resilock-internal locks are only ever operated
// through the real implementation, never adopted — by construction,
// because resilock code only runs inside guarded frames or on pinned
// threads.
//
// Threads that run resilock code OUTSIDE an interposed frame (the
// telemetry collector's duty cycle is the one such thread today) pin
// themselves permanently with preload_pin_thread() at thread start.
//
// Thread-exit TLS destructors that touch resilock locks (lockdep's
// epoch-pin lease) open a PreloadReentryScope, and never pin: glibc
// runs C++ TLS destructors before the application's pthread_key
// destructors, so a pinned thread would send a later TSD destructor
// that locks a shared mutex to the raw glibc object while other
// threads use the adopted handle — mutual exclusion lost silently.
#pragma once

#include <cstdint>

namespace resilock::interpose {

namespace detail {
inline thread_local std::uint32_t preload_depth = 0;
}  // namespace detail

// Nonzero while resilock machinery is on the calling thread's stack
// (or the thread is pinned): the preload must forward to glibc.
inline bool preload_reentered() noexcept {
  return detail::preload_depth != 0;
}

// Permanently route this thread's pthread calls to the real
// implementation. Called at the top of resilock-owned threads (the
// telemetry collector) whose entire lifetime is internal machinery.
inline void preload_pin_thread() noexcept {
  detail::preload_depth |= 0x8000'0000u;
}

class PreloadReentryScope {
 public:
  PreloadReentryScope() noexcept { ++detail::preload_depth; }
  ~PreloadReentryScope() { --detail::preload_depth; }
  PreloadReentryScope(const PreloadReentryScope&) = delete;
  PreloadReentryScope& operator=(const PreloadReentryScope&) = delete;
};

}  // namespace resilock::interpose
