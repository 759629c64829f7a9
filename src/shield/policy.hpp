// Misuse kinds and diagnostics for the ownership-shield subsystem.
//
// The paper bakes its remedies into each protocol (`Resilience::kResilient`
// per lock in src/core/); the shield takes the complementary, glibc-style
// route of a generic ownership layer *outside* the protocol. What that
// layer should do when it catches a misuse is a deployment decision, not a
// protocol decision — debug builds want a loud abort (Go's panic, §7),
// production wants silent suppression (the paper's resilient remedies),
// migrations want logging, and measurement runs want faithful
// pass-through so the original consequences stay observable.
//
// That decision belongs to the response engine (src/response/), whose
// built-in tail suppresses every misuse no other rule claims. There is
// no per-shield policy: RESILOCK_SHIELD_POLICY=X is an alias the engine
// translates into the rule "misuse=X" at start, and a scope that needs
// another verdict installs rules (ResponseRulesGuard, with
// "@class=<label>" to single out one lock class).
#pragma once

#include <cstdint>
#include <cstdio>

#include "platform/thread_registry.hpp"
#include "response/response.hpp"

namespace resilock::shield {

// What the shield caught. `kDoubleUnlock` is the special case of an
// unbalanced unlock where the caller *was* the previous owner and simply
// unlocked once too often; `kUnbalancedUnlock` covers releases of a lock
// the caller never held (including a completely free lock);
// `kNonOwnerUnlock` is a release while another thread holds the lock —
// the paper's headline scenario; `kReentrantRelock` is a second acquire
// by the current owner of a non-reentrant lock (self-deadlock or
// protocol corruption in the original protocols).
enum class MisuseKind : std::uint8_t {
  kUnbalancedUnlock = 0,
  kDoubleUnlock = 1,
  kNonOwnerUnlock = 2,
  kReentrantRelock = 3,
};

inline constexpr std::size_t kMisuseKinds = 4;

constexpr const char* to_string(MisuseKind k) noexcept {
  switch (k) {
    case MisuseKind::kUnbalancedUnlock: return "unbalanced-unlock";
    case MisuseKind::kDoubleUnlock: return "double-unlock";
    case MisuseKind::kNonOwnerUnlock: return "non-owner-unlock";
    case MisuseKind::kReentrantRelock: return "reentrant-relock";
  }
  return "?";
}

// Diagnostic line for abort and log verdicts. stderr + fprintf (not a
// logging framework) so it works inside interposed pthread programs.
inline void report_misuse(MisuseKind kind, const void* lock) {
  std::fprintf(stderr,
               "resilock[shield]: %s on lock %p by thread pid %u\n",
               to_string(kind), lock,
               static_cast<unsigned>(platform::self_pid()));
}

// Same line for the event kinds with no MisuseKind value (the rw
// misuses RwShield intercepts).
inline void report_misuse(response::ResponseEvent kind, const void* lock) {
  std::fprintf(stderr,
               "resilock[shield]: %s on lock %p by thread pid %u\n",
               response::to_string(kind), lock,
               static_cast<unsigned>(platform::self_pid()));
}

}  // namespace resilock::shield
