// Out-of-line half of the response engine: the RESILOCK_POLICY rule
// parser, the singleton (env-seeded), verdict bookkeeping, and abort
// dispatch.
#include "response/response.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "lockdep/lockdep.hpp"
#include "platform/env.hpp"
#include "runtime/timer.hpp"

namespace resilock::response {

namespace {

// The escalation ladder, ordered most-specific first:
//   * a reentrant relock is NEVER forwarded — on a non-reentrant base
//     protocol passthrough is a guaranteed self-deadlock, not a
//     "harmless radius" misuse; absorbing it (suppress) is the §3.9
//     remedy;
//   * a non-owner unlock means another thread HOLDS the lock, so
//     forwarding it is the paper's headline corruption even with no
//     waiters queued: log + suppress;
//   * the remaining release misuses (unbalanced/double unlock of a
//     free lock) forward faithfully when nobody is queued, escalate to
//     log once waiters exist;
//   * every reader-writer misuse is logged + suppressed regardless of
//     contention: an unbalanced read unlock skews the ReadIndicator
//     FOREVER (§4's writer-starvation corruption), so there is no
//     "harmless radius" tier for the rw family;
//   * lockdep reports abort when the flagged order closes against a
//     contended lock (waiters queued or held by another thread — the
//     imminent-wedge shape), otherwise log.
constexpr std::string_view kAdaptiveSpec =
    "reentrant-relock=suppress;non-owner-unlock|rw=log;"
    "misuse@uncontended=passthrough;misuse@contended=log;"
    "lockdep@contended=abort;lockdep=log;misuse=suppress";

// What every rule set falls through to: the shield's suppress remedy
// for misuse, a printed report for lockdep.
constexpr std::string_view kTailSpec = "misuse=suppress;lockdep=log";

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// One event token -> bitmask over ResponseEvent values; 0 on error.
std::uint16_t event_mask(std::string_view tok) {
  if (tok == "*" || tok == "any") return 0x1FF;
  // "misuse" is every intercepted caller mistake — the four exclusive
  // ownership kinds plus the three rw kinds; "rw" names just the
  // reader-writer tail; "lockdep" the order-graph reports.
  if (tok == "misuse") return 0x1CF;
  if (tok == "rw") return 0x1C0;
  if (tok == "lockdep") return 0x30;  // inversion + cycle
  for (std::size_t i = 0; i < kResponseEvents; ++i) {
    const auto ev = static_cast<ResponseEvent>(i);
    if (tok == to_string(ev)) return static_cast<std::uint16_t>(1u << i);
  }
  // Long-form lockdep aliases (the EventKind names) and short rw
  // aliases.
  if (tok == "order-inversion") return 0x10;
  if (tok == "deadlock-cycle") return 0x20;
  if (tok == "read-unlock") return 0x40;
  if (tok == "mode-mismatch") return 0x80;
  return 0;
}

// Fills one @cond clause from the text after an '@'; false on error.
bool parse_cond(std::string_view tok, CondClause& c) {
  if (tok == "uncontended") {
    c.cond = Condition::kUncontended;
    return true;
  }
  if (tok == "contended" || tok == "waiters") {
    c.cond = Condition::kContended;
    return true;
  }
  if (tok == "incycle" || tok == "in-cycle") {
    c.cond = Condition::kInCycle;
    return true;
  }
  // Per-class scope: class=<name> (a LockClassKey label, e.g.
  // "hmcs.level1"). Resolution to a ClassId happens at rule-install
  // time (ResponseEngine::install); an unresolved scope matches by
  // label instead, so rules may precede the class's first acquire.
  constexpr std::string_view kClassPrefix = "class=";
  if (tok.size() > kClassPrefix.size() &&
      tok.substr(0, kClassPrefix.size()) == kClassPrefix) {
    const std::string_view name = trim(tok.substr(kClassPrefix.size()));
    if (name.empty()) return false;
    c.cond = Condition::kClassScope;
    c.cls_name = std::string(name);
    return true;
  }
  // Threshold forms: waiters>=N / parked>=N (N a positive decimal
  // integer; ">=0" is just kAlways and is rejected).
  const auto threshold_form = [&](std::string_view prefix,
                                  Condition cond) -> int {
    if (tok.size() <= prefix.size() ||
        tok.substr(0, prefix.size()) != prefix) {
      return -1;  // not this form
    }
    std::string_view num = trim(tok.substr(prefix.size()));
    if (num.empty()) return 0;
    std::uint64_t n = 0;
    for (const char ch : num) {
      if (ch < '0' || ch > '9') return 0;
      n = n * 10 + static_cast<std::uint64_t>(ch - '0');
      if (n > 0xFFFFFFFFull) return 0;
    }
    if (n == 0) return 0;
    c.cond = cond;
    c.threshold = static_cast<std::uint32_t>(n);
    return 1;
  };
  int r = threshold_form("waiters>=", Condition::kWaitersAtLeast);
  if (r < 0) r = threshold_form("parked>=", Condition::kParkedAtLeast);
  return r == 1;
}

std::optional<Rule> parse_rule(std::string_view text) {
  const std::size_t eq = text.find('=');
  if (eq == std::string_view::npos) return std::nullopt;
  // The condition may itself contain '=' ("waiters>=3"): the
  // action's '=' is the LAST one.
  const std::size_t last_eq = text.rfind('=');
  const auto action = action_from_name(trim(text.substr(last_eq + 1)));
  if (!action) return std::nullopt;

  std::string_view lhs = trim(text.substr(0, last_eq));
  Rule r;
  r.action = *action;
  // Compound conditions: every '@' introduces a clause, all ANDed
  // ("misuse@class=app.db@waiters>=2=abort").
  std::size_t at = lhs.find('@');
  if (at != std::string_view::npos) {
    std::string_view conds = lhs.substr(at + 1);
    lhs = trim(lhs.substr(0, at));
    while (true) {
      const std::size_t next = conds.find('@');
      CondClause c;
      // "@@" rejects too.
      if (!parse_cond(trim(conds.substr(0, next)), c)) return std::nullopt;
      r.conds.push_back(std::move(c));
      if (next == std::string_view::npos) break;
      conds = conds.substr(next + 1);
    }
  }
  // Event list: tok['|'tok...].
  r.events = 0;
  while (!lhs.empty()) {
    const std::size_t bar = lhs.find('|');
    const std::string_view tok = trim(lhs.substr(0, bar));
    const std::uint16_t mask = event_mask(tok);
    if (mask == 0) return std::nullopt;
    r.events |= mask;
    if (bar == std::string_view::npos) break;
    lhs = lhs.substr(bar + 1);
  }
  if (r.events == 0) return std::nullopt;
  return r;
}

}  // namespace

std::optional<Action> action_from_name(std::string_view name) noexcept {
  if (name == "passthrough") return Action::kPassthrough;
  if (name == "suppress") return Action::kSuppress;
  if (name == "log") return Action::kLog;
  if (name == "abort") return Action::kAbort;
  return std::nullopt;
}

std::string_view adaptive_policy_spec() noexcept { return kAdaptiveSpec; }

std::string_view tail_policy_spec() noexcept { return kTailSpec; }

std::string alias_rules(std::string_view shield_policy,
                        std::string_view lockdep) {
  std::string spec;
  if (action_from_name(shield_policy)) {
    spec = "misuse=" + std::string(shield_policy) + ";";
  }
  if (lockdep == "abort") spec += "lockdep=abort;";
  return spec;
}

std::optional<std::vector<Rule>> parse_rules(std::string_view spec) {
  spec = trim(spec);
  if (spec == "adaptive") spec = kAdaptiveSpec;
  std::vector<Rule> rules;
  if (spec.empty() || spec == "legacy") return rules;  // no-rules state
  while (true) {
    const std::size_t semi = spec.find(';');
    const std::string_view text = trim(spec.substr(0, semi));
    if (!text.empty()) {
      auto r = parse_rule(text);
      if (!r) return std::nullopt;
      rules.push_back(std::move(*r));
    }
    if (semi == std::string_view::npos) break;
    spec = spec.substr(semi + 1);
  }
  return rules;
}

ResponseEngine& ResponseEngine::instance() {
  static ResponseEngine e;
  return e;
}

ResponseEngine::ResponseEngine() {
  log_rate_.store(platform::env_u32("RESILOCK_LOG_RATE", 0),
                  std::memory_order_relaxed);
  std::vector<Rule> rules;
  if (const char* spec = platform::env_raw("RESILOCK_POLICY")) {
    if (auto parsed = parse_rules(spec)) {
      rules = std::move(*parsed);
    } else {
      std::fprintf(stderr,
                   "resilock[response]: malformed RESILOCK_POLICY \"%s\" "
                   "ignored (aliases and the built-in tail stay in "
                   "effect)\n",
                   spec);
    }
  }
  const char* shield_policy = platform::env_raw("RESILOCK_SHIELD_POLICY");
  const char* lockdep = platform::env_raw("RESILOCK_LOCKDEP");
  const auto aliases = parse_rules(alias_rules(
      shield_policy != nullptr ? shield_policy : "",
      lockdep != nullptr ? lockdep : ""));
  rules.insert(rules.end(), aliases->begin(), aliases->end());
  install(std::move(rules));
}

Action ResponseEngine::decide(ResponseEvent ev,
                              const EventContext& ctx) noexcept {
  Action a = Action::kSuppress;  // never kept: the tail matches every event
  for (const Rule& r : current_.load(std::memory_order_acquire)->rules) {
    if (r.matches(ev, ctx)) {
      a = r.action;
      break;
    }
  }
  // Rate-limit the diagnostic, never the protection: an over-budget
  // log verdict still suppresses the misuse, it just stays quiet.
  if (a == Action::kLog && !take_log_token(ev)) a = Action::kSuppress;
  by_action_[static_cast<std::size_t>(a)].fetch_add(
      1, std::memory_order_relaxed);
  by_event_[static_cast<std::size_t>(ev)].fetch_add(
      1, std::memory_order_relaxed);
  return a;
}

bool ResponseEngine::configure(std::string_view spec) {
  auto rules = parse_rules(spec);
  if (!rules) return false;
  install(std::move(*rules));
  return true;
}

void ResponseEngine::install(std::vector<Rule> rules) {
  // Resolve @class= scopes against the live lockdep class table once,
  // at install time; a scope whose class is not yet registered keeps
  // matching by label (CondClause::matches) until reinstalled.
  static_assert(kNoClass == lockdep::kInvalidClass);
  for (Rule& r : rules) {
    for (CondClause& c : r.conds) {
      if (c.cond == Condition::kClassScope && c.cls == kNoClass) {
        c.cls = lockdep::Graph::instance().find_class(c.cls_name);
      }
    }
  }
  static const std::vector<Rule> tail = *parse_rules(kTailSpec);
  rules.insert(rules.end(), tail.begin(), tail.end());
  auto* set = new RuleSet{std::move(rules),
                          allocated_.load(std::memory_order_relaxed)};
  while (!allocated_.compare_exchange_weak(set->older, set,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
  publish(set);
}

std::vector<Rule> ResponseEngine::rules() const {
  return current_.load(std::memory_order_acquire)->rules;
}

bool ResponseEngine::take_log_token(ResponseEvent ev) noexcept {
  const std::uint32_t rate = log_rate_.load(std::memory_order_acquire);
  if (rate == 0) return true;  // limiting disabled
  std::lock_guard<std::mutex> g(bucket_mutex_);
  LogBucket& b = buckets_[static_cast<std::size_t>(ev)];
  const std::uint64_t now = runtime::now_ns();
  if (b.last_refill_ns == 0) {
    b.tokens = static_cast<double>(rate);  // fresh bucket: full burst
  } else if (now > b.last_refill_ns) {
    const double refill = static_cast<double>(now - b.last_refill_ns) *
                          1e-9 * static_cast<double>(rate);
    b.tokens = std::min(b.tokens + refill, static_cast<double>(rate));
  }
  b.last_refill_ns = now;
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return true;
  }
  log_rate_limited_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ResponseEngine::set_log_rate_limit(std::uint32_t per_sec) noexcept {
  std::lock_guard<std::mutex> g(bucket_mutex_);
  log_rate_.store(per_sec, std::memory_order_release);
  // Restart every bucket at full burst under the new rate so a guard
  // entering/leaving a scope gives deterministic budgets.
  for (auto& b : buckets_) b = LogBucket{};
}

ResponseStats ResponseEngine::stats() const {
  ResponseStats s;
  s.log_rate_limited = log_rate_limited_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kActions; ++i) {
    s.by_action[i] = by_action_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kResponseEvents; ++i) {
    s.by_event[i] = by_event_[i].load(std::memory_order_relaxed);
    s.decisions += s.by_event[i];
  }
  return s;
}

void ResponseEngine::reset_stats() {
  log_rate_limited_.store(0, std::memory_order_relaxed);
  for (auto& a : by_action_) a.store(0, std::memory_order_relaxed);
  for (auto& e : by_event_) e.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Abort dispatch.
// ---------------------------------------------------------------------

namespace {
std::atomic<AbortHandler> g_abort_handler{nullptr};
std::atomic<AbortFlushHook> g_abort_flush_hook{nullptr};
}  // namespace

AbortHandler set_abort_handler(AbortHandler h) noexcept {
  return g_abort_handler.exchange(h, std::memory_order_acq_rel);
}

AbortFlushHook set_abort_flush_hook(AbortFlushHook h) noexcept {
  return g_abort_flush_hook.exchange(h, std::memory_order_acq_rel);
}

void dispatch_abort(ResponseEvent ev, const void* lock) {
  AbortHandler h = g_abort_handler.load(std::memory_order_acquire);
  if (h != nullptr) {
    h(ev, lock);
    return;  // the handler chose to survive; caller degrades to suppress
  }
  // Genuinely dying: give telemetry one chance to get the queued trace
  // (including the event that earned this verdict — every caller emits
  // before dispatching) out of the process.
  if (AbortFlushHook flush =
          g_abort_flush_hook.load(std::memory_order_acquire)) {
    flush();
  }
  std::abort();
}

ResponseRulesGuard::ResponseRulesGuard(std::string_view spec)
    : previous_(
          ResponseEngine::instance().current_.load(std::memory_order_acquire)) {
  if (!ResponseEngine::instance().configure(spec)) {
    ResponseEngine::instance().install({});
  }
}

ResponseRulesGuard::~ResponseRulesGuard() {
  ResponseEngine::instance().publish(previous_);
}

}  // namespace resilock::response
