// Unified adaptive response engine: one verdict pipeline for every
// protection layer.
//
// The paper frames the *remedy* for a caught misuse as a per-protocol
// decision. A deployment, however, wants to express responses in terms
// of what is actually at stake RIGHT NOW: an unbalanced unlock of an
// uncontended lock is harmless to forward, the same unlock with waiters
// queued deserves a log line, and an order cycle reported while threads
// are already blocked on the lock is an imminent wedge worth dying for.
//
// This engine is the ONLY decision point. The Shield<L> / RwShield<L>
// misuse interception, the HMCS-family refused release and the lockdep
// inversion/cycle report all route through
//
//   decide(event kind, lock telemetry, lockdep state) -> Action
//
// where telemetry is the lightweight contention probe threaded through
// the shield (core/contention.hpp) and the lockdep state is whether the
// lock's class sits on a reported order cycle.
//
// Rules come from RESILOCK_POLICY — an ordered, first-match-wins rule
// string:
//
//   RESILOCK_POLICY = rule[;rule...] | "adaptive" | "legacy"
//   rule   = events[@cond[@cond...]]=action
//            (several @cond clauses AND together: the rule matches
//            only when every clause holds — e.g.
//            "misuse@class=app.db@waiters>=2=abort" aborts misuse on
//            the app.db class only once two waiters are queued)
//   events = *|misuse|rw|lockdep|unbalanced-unlock|double-unlock|
//            non-owner-unlock|reentrant-relock|inversion|cycle|
//            unbalanced-read-unlock|rw-mode-mismatch|
//            non-owner-write-unlock
//            (several joined with '|')
//   cond   = uncontended | contended (alias: waiters) | incycle |
//            waiters>=N (live-waiter threshold, N a positive integer) |
//            parked>=N (threshold over waiters PARKED in futex_wait —
//            the blast radius of an absorbed unlock misuse: a parked
//            waiter wedges where a spinner merely burns cycles) |
//            class=<name> (per-class scope: the rule matches only
//            events attributed to the lockdep class named <name> — a
//            LockClassKey label such as "hmcs.level1", resolved to a
//            ClassId at rule-install time when the class is already
//            registered, by label comparison from then on otherwise)
//   action = passthrough | suppress | log | abort
//
// "adaptive" expands to the ROADMAP escalation ladder:
//   reentrant-relock=suppress; non-owner-unlock|rw=log;
//   misuse@uncontended=passthrough; misuse@contended=log;
//   lockdep@contended=abort; lockdep=log; misuse=suppress
//
// Every installed rule set ends in the built-in tail
// "misuse=suppress;lockdep=log", so some rule always matches; "legacy"
// or an empty spec installs the tail alone. The older static knobs are
// aliases, translated into rule text once, when the engine starts
// (alias_rules()): RESILOCK_SHIELD_POLICY=X appends "misuse=X" and
// RESILOCK_LOCKDEP=abort appends "lockdep=abort", after the
// RESILOCK_POLICY rules and before the tail. A rule set installed
// later (configure(), ResponseRulesGuard) replaces the whole set,
// aliases included.
//
// Log verdicts can additionally be rate-limited (token bucket per
// event kind, RESILOCK_LOG_RATE tokens/second): a log verdict with the
// bucket empty degrades to suppress, so noisy production misuse cannot
// flood stderr or the trace ring.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace resilock::response {

// One tag space across layers. Values 0..3 mirror shield::MisuseKind,
// 4..5 the lockdep half of lockdep::EventKind, 6..8 the reader-writer
// misuses RwShield intercepts (static_asserts at the call sites keep
// them in lock step).
enum class ResponseEvent : std::uint8_t {
  kUnbalancedUnlock = 0,
  kDoubleUnlock = 1,
  kNonOwnerUnlock = 2,
  kReentrantRelock = 3,
  kOrderInversion = 4,
  kDeadlockCycle = 5,
  kUnbalancedReadUnlock = 6,
  kRwModeMismatch = 7,
  kNonOwnerWriteUnlock = 8,
};

inline constexpr std::size_t kResponseEvents = 9;

constexpr const char* to_string(ResponseEvent e) noexcept {
  switch (e) {
    case ResponseEvent::kUnbalancedUnlock: return "unbalanced-unlock";
    case ResponseEvent::kDoubleUnlock: return "double-unlock";
    case ResponseEvent::kNonOwnerUnlock: return "non-owner-unlock";
    case ResponseEvent::kReentrantRelock: return "reentrant-relock";
    case ResponseEvent::kOrderInversion: return "inversion";
    case ResponseEvent::kDeadlockCycle: return "cycle";
    case ResponseEvent::kUnbalancedReadUnlock:
      return "unbalanced-read-unlock";
    case ResponseEvent::kRwModeMismatch: return "rw-mode-mismatch";
    case ResponseEvent::kNonOwnerWriteUnlock:
      return "non-owner-write-unlock";
  }
  return "?";
}

// What the consulted layer should do with the event. For shield
// misuses: forward to the base protocol / swallow / print + swallow /
// die. For lockdep reports (which cannot be "forwarded"): passthrough
// and suppress both mean count + trace silently, log prints the report,
// abort prints and dies before the acquisition can wedge.
enum class Action : std::uint8_t {
  kPassthrough = 0,
  kSuppress = 1,
  kLog = 2,
  kAbort = 3,
};

inline constexpr std::size_t kActions = 4;

constexpr const char* to_string(Action a) noexcept {
  switch (a) {
    case Action::kPassthrough: return "passthrough";
    case Action::kSuppress: return "suppress";
    case Action::kLog: return "log";
    case Action::kAbort: return "abort";
  }
  return "?";
}

std::optional<Action> action_from_name(std::string_view name) noexcept;

// Mirrors lockdep::kInvalidClass without pulling the lockdep headers in
// (response sits below lockdep in the include order). ClassIds are
// generation-stamped 32-bit values (slot + recycle generation).
inline constexpr std::uint32_t kNoClass = 0xFFFFFFFFu;

// Telemetry snapshot the reporting layer hands to decide().
struct EventContext {
  std::uint32_t waiters = 0;      // threads blocked on the lock now
  // Of those, threads parked in futex_wait (src/park/) at event time.
  // 0 when the base lock has no parking tier or RESILOCK_PARK is off.
  std::uint32_t waiters_parked = 0;
  bool contended = false;         // waiters > 0
  bool in_flagged_cycle = false;  // lock's class is on a reported cycle
  // Lockdep class the event is attributed to (and its label), when the
  // reporting layer knows one: the shield's own class for a misuse, the
  // closing-edge destination for an inversion/cycle, the entry-level
  // class for a hierarchical-lock misuse. kNoClass/nullptr disables
  // @class= rule scoping for the event.
  std::uint32_t cls = kNoClass;
  const char* cls_label = nullptr;
};

enum class Condition : std::uint8_t {
  kAlways,
  kUncontended,     // !contended
  kContended,       // contended (env alias: "waiters")
  kInCycle,         // in_flagged_cycle
  kWaitersAtLeast,  // waiters >= threshold ("waiters>=N")
  kParkedAtLeast,   // waiters_parked >= threshold ("parked>=N")
  kClassScope,      // event attributed to the named class ("class=<name>")
};

// One @cond clause, evaluated against the event context. Rules AND an
// arbitrary number of these together (compound conditions like
// "@class=app.db@waiters>=2").
struct CondClause {
  Condition cond = Condition::kAlways;
  std::uint32_t threshold = 0;  // kWaitersAtLeast / kParkedAtLeast
  // kClassScope only: the LockClassKey label the clause is scoped to,
  // and the ClassId it resolved to at install time (kNoClass when the
  // class was not yet registered — the clause then matches by label, so
  // a scope installed before the first acquire of its class still
  // works).
  std::string cls_name;
  std::uint32_t cls = kNoClass;

  bool matches(const EventContext& ctx) const noexcept {
    switch (cond) {
      case Condition::kAlways: return true;
      case Condition::kUncontended: return !ctx.contended;
      case Condition::kContended: return ctx.contended;
      case Condition::kInCycle: return ctx.in_flagged_cycle;
      case Condition::kWaitersAtLeast: return ctx.waiters >= threshold;
      case Condition::kParkedAtLeast:
        return ctx.waiters_parked >= threshold;
      case Condition::kClassScope:
        // The install-time id pin distinguishes same-label classes
        // (two trees both labeled "hmcs.level1"). Ids carry a recycle
        // generation, so a retired class's slot can never alias the
        // pin; the label check still corroborates the label-only
        // (pre-registration) install path.
        if (cls != kNoClass && ctx.cls != cls) return false;
        return ctx.cls_label != nullptr && cls_name == ctx.cls_label;
    }
    return false;
  }
};

struct Rule {
  std::uint16_t events = 0x1FF;  // bitmask over ResponseEvent values
  Action action = Action::kSuppress;
  std::vector<CondClause> conds;  // all must hold; empty matches always

  bool matches(ResponseEvent ev, const EventContext& ctx) const noexcept {
    if ((events & (1u << static_cast<unsigned>(ev))) == 0) return false;
    for (const CondClause& c : conds) {
      if (!c.matches(ctx)) return false;
    }
    return true;
  }
};

// Parses a rule spec ("adaptive"/"legacy" presets included), without
// the built-in tail. Returns nullopt on any malformed rule — a policy
// string must be all-or-nothing, a half-installed escalation ladder is
// worse than none.
std::optional<std::vector<Rule>> parse_rules(std::string_view spec);

// The "adaptive" preset, spelled out (bench and verify install it).
std::string_view adaptive_policy_spec() noexcept;

// The built-in tail every installed rule set ends in.
std::string_view tail_policy_spec() noexcept;

// The rule text the legacy knobs stand for, given their values ("" when
// unset): RESILOCK_SHIELD_POLICY=X -> "misuse=X" for a valid action X,
// RESILOCK_LOCKDEP=abort -> "lockdep=abort". Other values add nothing
// (the tail already gives suppress and log). Pure, so the alias gate
// can check every combination without touching the environment.
std::string alias_rules(std::string_view shield_policy,
                        std::string_view lockdep);

struct ResponseStats {
  std::uint64_t decisions = 0;  // the sum of by_event
  std::uint64_t log_rate_limited = 0;  // log verdicts degraded to suppress
  std::uint64_t by_action[kActions] = {};
  std::uint64_t by_event[kResponseEvents] = {};
};

class ResponseEngine {
 public:
  static ResponseEngine& instance();

  // The verdict pipeline: rules are consulted in order, first match
  // wins, and the tail guarantees a match. Lock-free: the installed
  // rule set is immutable and published through one atomic pointer.
  // Called only on the cold path (a caught misuse or a first-seen
  // order violation), never per lock operation.
  Action decide(ResponseEvent ev, const EventContext& ctx) noexcept;

  // Installs `spec` plus the tail (true) or rejects it untouched
  // (false). An empty spec or "legacy" installs the tail alone.
  bool configure(std::string_view spec);
  // The installed set, tail included.
  std::vector<Rule> rules() const;

  ResponseStats stats() const;
  void reset_stats();

  // -- log-verdict rate limiting (token bucket per event kind) ---------
  // `per_sec` tokens refill per second with an equal burst capacity;
  // 0 disables limiting (the default). Seeded from RESILOCK_LOG_RATE.
  // When the bucket for an event kind is empty, a kLog decision
  // degrades to kSuppress and counts in stats().log_rate_limited —
  // the misuse is still intercepted and traced, just not printed.
  void set_log_rate_limit(std::uint32_t per_sec) noexcept;
  std::uint32_t log_rate_limit() const noexcept {
    return log_rate_.load(std::memory_order_acquire);
  }

 private:
  friend class ResponseRulesGuard;

  // An installed rule set. Never freed: installs are cold (environment
  // at start, guards in tests and verify), and a decide() racing an
  // install may still be walking the set it loaded. `older` chains
  // every set ever built, so leak checkers see retired sets as
  // reachable.
  struct RuleSet {
    std::vector<Rule> rules;
    const RuleSet* older;
  };

  // Reads RESILOCK_POLICY, the RESILOCK_SHIELD_POLICY / RESILOCK_LOCKDEP
  // aliases, and RESILOCK_LOG_RATE.
  ResponseEngine();
  ResponseEngine(const ResponseEngine&) = delete;
  ResponseEngine& operator=(const ResponseEngine&) = delete;

  void install(std::vector<Rule> rules);  // appends the tail
  void publish(const RuleSet* set) noexcept {
    current_.store(set, std::memory_order_release);
  }

  // True when the calling kLog decision may print; false degrades it.
  bool take_log_token(ResponseEvent ev) noexcept;

  std::atomic<const RuleSet*> current_{nullptr};
  // Head of the `older` chain. A CAS push, not a mutex: under the
  // preload the engine may first be built outside an interposed frame,
  // where a pthread mutex would be adopted as an application lock.
  std::atomic<const RuleSet*> allocated_{nullptr};

  struct LogBucket {  // guarded by bucket_mutex_
    double tokens = 0.0;
    std::uint64_t last_refill_ns = 0;
  };
  mutable std::mutex bucket_mutex_;  // cold path: log verdicts only
  LogBucket buckets_[kResponseEvents] = {};
  std::atomic<std::uint32_t> log_rate_{0};  // tokens/sec; 0 = unlimited

  std::atomic<std::uint64_t> log_rate_limited_{0};
  std::atomic<std::uint64_t> by_action_[kActions] = {};
  std::atomic<std::uint64_t> by_event_[kResponseEvents] = {};
};

// ---------------------------------------------------------------------
// Abort dispatch. kAbort verdicts funnel through here so the verify
// layer can observe "this would have died" without dying: the default
// handler calls std::abort(); a test/verify handler records and
// returns, and the caller then degrades to suppression.
// ---------------------------------------------------------------------

using AbortHandler = void (*)(ResponseEvent ev, const void* lock);

// Installs `h` (nullptr restores the default std::abort behavior);
// returns the previous handler.
AbortHandler set_abort_handler(AbortHandler h) noexcept;

// Invokes the current handler. Returns only when a non-default handler
// chose not to die.
void dispatch_abort(ResponseEvent ev, const void* lock);

// Flush hook run on the DEFAULT (dying) abort path, immediately before
// std::abort(). std::abort() skips atexit handlers, so without this an
// aborting verdict — the engine's strongest response — lost the very
// trace that justified it. The telemetry plane installs a hook that
// stops the collector (final drain included) and dumps any queued
// events to RESILOCK_TRACE_FILE. Not invoked when a custom
// AbortHandler intercepts the abort (the process survives; the normal
// pipeline keeps running). Returns the previous hook.
using AbortFlushHook = void (*)();
AbortFlushHook set_abort_flush_hook(AbortFlushHook h) noexcept;

// RAII pin for the installed rule set: restores the exact previous set
// on scope exit.
class ResponseRulesGuard {
 public:
  // Installs `spec` for the scope ("" / "legacy" pins the tail alone).
  // A malformed spec pins the tail alone rather than throwing — the
  // guard is used in verify/bench paths that must not die on a typo'd
  // environment.
  explicit ResponseRulesGuard(std::string_view spec);
  ~ResponseRulesGuard();
  ResponseRulesGuard(const ResponseRulesGuard&) = delete;
  ResponseRulesGuard& operator=(const ResponseRulesGuard&) = delete;

 private:
  const ResponseEngine::RuleSet* previous_;
};

class ScopedAbortHandler {
 public:
  explicit ScopedAbortHandler(AbortHandler h) : prev_(set_abort_handler(h)) {}
  ~ScopedAbortHandler() { set_abort_handler(prev_); }
  ScopedAbortHandler(const ScopedAbortHandler&) = delete;
  ScopedAbortHandler& operator=(const ScopedAbortHandler&) = delete;

 private:
  AbortHandler prev_;
};

// RAII pin for the log-verdict rate limit (tests, measurement runs).
class LogRateLimitGuard {
 public:
  explicit LogRateLimitGuard(std::uint32_t per_sec)
      : previous_(ResponseEngine::instance().log_rate_limit()) {
    ResponseEngine::instance().set_log_rate_limit(per_sec);
  }
  ~LogRateLimitGuard() {
    ResponseEngine::instance().set_log_rate_limit(previous_);
  }
  LogRateLimitGuard(const LogRateLimitGuard&) = delete;
  LogRateLimitGuard& operator=(const LogRateLimitGuard&) = delete;

 private:
  const std::uint32_t previous_;
};

}  // namespace resilock::response
