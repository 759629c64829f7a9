// Unit + scenario tests for the unified response engine
// (src/response/):
//   * the RESILOCK_POLICY rule parser — grammar, presets, rejection of
//     malformed specs;
//   * decide() — first-match-wins ordering, condition gating, the
//     built-in tail;
//   * engine-routed Shield verdicts including the abort trap;
//   * the verify-layer escalation matrix across TAS/Ticket/MCS and the
//     alias gate for the legacy RESILOCK_SHIELD_POLICY /
//     RESILOCK_LOCKDEP knobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "shield/shield.hpp"
#include "verify/escalation_matrix.hpp"

using namespace resilock;
using response::Action;
using response::CondClause;
using response::Condition;
using response::EventContext;
using response::parse_rules;
using response::ResponseEngine;
using response::ResponseEvent;
using response::ResponseRulesGuard;
using response::Rule;

namespace {

EventContext contended_ctx(std::uint32_t waiters = 1) {
  EventContext c;
  c.waiters = waiters;
  c.contended = waiters > 0;
  return c;
}

CondClause clause(Condition cond, std::uint32_t threshold = 0) {
  CondClause c;
  c.cond = cond;
  c.threshold = threshold;
  return c;
}

// The single @cond clause of a one-condition rule.
const CondClause& only_cond(const Rule& r) {
  EXPECT_EQ(r.conds.size(), 1u);
  return r.conds.at(0);
}

// Rules the built-in tail adds to every installed set.
const std::size_t kTailRules =
    parse_rules(response::tail_policy_spec())->size();

}  // namespace

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

TEST(ResponseParser, SingleRule) {
  const auto rules = parse_rules("misuse@contended=log");
  ASSERT_TRUE(rules.has_value());
  ASSERT_EQ(rules->size(), 1u);
  // "misuse" covers the four exclusive ownership kinds AND the rw tail.
  EXPECT_EQ((*rules)[0].events, 0x1CF);
  EXPECT_EQ(only_cond((*rules)[0]).cond, Condition::kContended);
  EXPECT_EQ((*rules)[0].action, Action::kLog);
}

TEST(ResponseParser, EventGroupsAndAliases) {
  const auto rules = parse_rules(
      "unbalanced-unlock|double-unlock=passthrough;"
      "lockdep=abort;*=suppress;inversion|cycle@waiters=abort");
  ASSERT_TRUE(rules.has_value());
  ASSERT_EQ(rules->size(), 4u);
  EXPECT_EQ((*rules)[0].events, 0x03);
  EXPECT_EQ((*rules)[1].events, 0x30);
  EXPECT_EQ((*rules)[2].events, 0x1FF);
  EXPECT_EQ((*rules)[3].events, 0x30);
  // "waiters" is an alias of "contended".
  EXPECT_EQ(only_cond((*rules)[3]).cond, Condition::kContended);
}

TEST(ResponseParser, RwEventTokens) {
  const auto rules = parse_rules(
      "rw=log;unbalanced-read-unlock=suppress;"
      "rw-mode-mismatch|non-owner-write-unlock=abort;"
      "read-unlock|mode-mismatch=log");
  ASSERT_TRUE(rules.has_value());
  ASSERT_EQ(rules->size(), 4u);
  EXPECT_EQ((*rules)[0].events, 0x1C0);  // the three rw kinds
  EXPECT_EQ((*rules)[1].events, 0x040);
  EXPECT_EQ((*rules)[2].events, 0x180);
  EXPECT_EQ((*rules)[3].events, 0x0C0);  // short aliases
}

TEST(ResponseParser, WaitersThresholdCondition) {
  const auto rules =
      parse_rules("misuse@waiters>=3=abort;lockdep@waiters>=10=abort");
  ASSERT_TRUE(rules.has_value());
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ(only_cond((*rules)[0]).cond, Condition::kWaitersAtLeast);
  EXPECT_EQ(only_cond((*rules)[0]).threshold, 3u);
  EXPECT_EQ(only_cond((*rules)[1]).threshold, 10u);
  // Malformed thresholds poison the spec.
  EXPECT_FALSE(parse_rules("misuse@waiters>==log").has_value());
  EXPECT_FALSE(parse_rules("misuse@waiters>=x=log").has_value());
  EXPECT_FALSE(parse_rules("misuse@waiters>=0=log").has_value());
  EXPECT_FALSE(parse_rules("misuse@waiters>=-1=log").has_value());
}

TEST(ResponseParser, ClassScopeCondition) {
  const auto rules = parse_rules(
      "inversion@class=hmcs.level1=abort;misuse@class=app.cache=log");
  ASSERT_TRUE(rules.has_value());
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ(only_cond((*rules)[0]).cond, Condition::kClassScope);
  EXPECT_EQ(only_cond((*rules)[0]).cls_name, "hmcs.level1");
  EXPECT_EQ(only_cond((*rules)[0]).cls,
            resilock::response::kNoClass);  // unresolved
  EXPECT_EQ((*rules)[0].action, Action::kAbort);
  EXPECT_EQ(only_cond((*rules)[1]).cls_name, "app.cache");
  // An empty scope poisons the spec.
  EXPECT_FALSE(parse_rules("inversion@class==abort").has_value());

  // Matching: unresolved scopes compare labels; resolved scopes
  // require the id AND a corroborating label (ids recycle — a recycled
  // id alone must never re-trigger a pinned rule). An event with no
  // attribution matches neither.
  EventContext ctx;
  EXPECT_FALSE((*rules)[0].matches(ResponseEvent::kOrderInversion, ctx));
  ctx.cls = 11;
  ctx.cls_label = "hmcs.level1";
  EXPECT_TRUE((*rules)[0].matches(ResponseEvent::kOrderInversion, ctx));
  Rule pinned = (*rules)[0];
  pinned.conds[0].cls = 12;  // resolved elsewhere: label no longer enough
  EXPECT_FALSE(pinned.matches(ResponseEvent::kOrderInversion, ctx));
  ctx.cls = 12;
  EXPECT_TRUE(pinned.matches(ResponseEvent::kOrderInversion, ctx));
  ctx.cls_label = "recycled.tenant";  // id reused by an unrelated class
  EXPECT_FALSE(pinned.matches(ResponseEvent::kOrderInversion, ctx));
}

TEST(ResponseParser, CompoundConditionsParse) {
  const auto rules =
      parse_rules("misuse@class=app.db@waiters>=2=abort;lockdep=log");
  ASSERT_TRUE(rules.has_value());
  ASSERT_EQ(rules->size(), 2u);
  // Clauses keep their written order.
  ASSERT_EQ((*rules)[0].conds.size(), 2u);
  EXPECT_EQ((*rules)[0].conds[0].cond, Condition::kClassScope);
  EXPECT_EQ((*rules)[0].conds[0].cls_name, "app.db");
  EXPECT_EQ((*rules)[0].conds[1].cond, Condition::kWaitersAtLeast);
  EXPECT_EQ((*rules)[0].conds[1].threshold, 2u);
  EXPECT_TRUE((*rules)[1].conds.empty());

  // Three clauses chain too.
  const auto three = parse_rules(
      "misuse@contended@class=app.db@waiters>=5=abort");
  ASSERT_TRUE(three.has_value());
  ASSERT_EQ((*three)[0].conds.size(), 3u);
  EXPECT_EQ((*three)[0].conds[0].cond, Condition::kContended);
  EXPECT_EQ((*three)[0].conds[1].cond, Condition::kClassScope);
  EXPECT_EQ((*three)[0].conds[2].cond, Condition::kWaitersAtLeast);

  // A malformed clause anywhere in the chain poisons the spec.
  EXPECT_FALSE(parse_rules("misuse@class=app.db@@waiters>=2=log")
                   .has_value());
  EXPECT_FALSE(parse_rules("misuse@class=app.db@sideways=log")
                   .has_value());
  EXPECT_FALSE(parse_rules("misuse@class=app.db@waiters>=0=log")
                   .has_value());
}

TEST(ResponseRule, CompoundConditionsAndTogether) {
  const auto rules =
      parse_rules("misuse@class=app.db@waiters>=2=abort");
  ASSERT_TRUE(rules.has_value());
  const Rule& r = (*rules)[0];
  EventContext ctx;
  ctx.cls_label = "app.db";
  ctx.waiters = 1;
  ctx.contended = true;
  EXPECT_FALSE(r.matches(ResponseEvent::kDoubleUnlock, ctx));  // few waiters
  ctx.waiters = 2;
  EXPECT_TRUE(r.matches(ResponseEvent::kDoubleUnlock, ctx));
  ctx.cls_label = "app.cache";  // wrong class, enough waiters
  EXPECT_FALSE(r.matches(ResponseEvent::kDoubleUnlock, ctx));

  // The same clauses in the opposite order gate identically.
  const auto flipped =
      parse_rules("misuse@waiters>=2@class=app.db=abort");
  ASSERT_TRUE(flipped.has_value());
  ctx.cls_label = "app.db";
  for (std::uint32_t w : {1u, 2u, 5u}) {
    ctx.waiters = w;
    EXPECT_EQ((*rules)[0].matches(ResponseEvent::kDoubleUnlock, ctx),
              (*flipped)[0].matches(ResponseEvent::kDoubleUnlock, ctx));
  }
}

TEST(ResponseEngineConfig, CompoundClassClauseResolvesAtInstall) {
  // Register the class first, so install() can pin the live id into
  // a later clause, not just the first.
  lockdep::LockdepEnabledGuard lockdep_on(true);
  Shield<TasLock> lock;
  lock.set_lockdep_label("response.compound.pin");
  lock.acquire();
  lock.release();
  const auto cls =
      lockdep::Graph::instance().find_class("response.compound.pin");
  ASSERT_NE(cls, lockdep::kInvalidClass);

  ResponseRulesGuard rules(
      "misuse@waiters>=2@class=response.compound.pin=abort");
  const auto installed = ResponseEngine::instance().rules();
  ASSERT_EQ(installed.size(), 1u + kTailRules);
  ASSERT_EQ(installed[0].conds.size(), 2u);
  EXPECT_EQ(installed[0].conds[1].cond, Condition::kClassScope);
  EXPECT_EQ(installed[0].conds[1].cls, cls);
}

TEST(ResponseParser, WhitespaceTolerated) {
  const auto rules =
      parse_rules(" misuse @ uncontended = passthrough ; lockdep = log ");
  ASSERT_TRUE(rules.has_value());
  EXPECT_EQ(rules->size(), 2u);
  EXPECT_EQ(only_cond((*rules)[0]).cond, Condition::kUncontended);
}

TEST(ResponseParser, PresetsAndEmpty) {
  const auto adaptive = parse_rules("adaptive");
  ASSERT_TRUE(adaptive.has_value());
  EXPECT_GE(adaptive->size(), 4u);
  EXPECT_EQ(parse_rules("legacy")->size(), 0u);
  EXPECT_EQ(parse_rules("")->size(), 0u);
  // The spelled-out adaptive spec parses to the same ladder.
  EXPECT_EQ(parse_rules(response::adaptive_policy_spec())->size(),
            adaptive->size());
}

TEST(ResponseParser, MalformedSpecsRejectedWhole) {
  EXPECT_FALSE(parse_rules("misuse=explode").has_value());   // bad action
  EXPECT_FALSE(parse_rules("bogus=log").has_value());        // bad event
  EXPECT_FALSE(parse_rules("misuse@sideways=log").has_value());  // bad cond
  EXPECT_FALSE(parse_rules("misuse").has_value());           // no '='
  // One bad rule poisons the whole spec (all-or-nothing).
  EXPECT_FALSE(parse_rules("misuse=log;bogus=abort").has_value());
}

TEST(ResponseRule, WaitersThresholdGating) {
  Rule r;
  r.conds = {clause(Condition::kWaitersAtLeast, 3)};
  EXPECT_FALSE(r.matches(ResponseEvent::kDoubleUnlock, contended_ctx(2)));
  EXPECT_TRUE(r.matches(ResponseEvent::kDoubleUnlock, contended_ctx(3)));
  EXPECT_TRUE(r.matches(ResponseEvent::kDoubleUnlock, contended_ctx(7)));
}

TEST(ResponseEngineDecide, ThresholdEscalatesAboveContended) {
  // A three-tier ladder: quiet -> log, some waiters -> log, a crowd ->
  // abort. The threshold rule must outrank the plain contended rule by
  // ordering, not by specificity magic.
  ResponseRulesGuard rules(
      "misuse@waiters>=4=abort;misuse@contended=log;misuse=suppress");
  auto& e = ResponseEngine::instance();
  EXPECT_EQ(e.decide(ResponseEvent::kUnbalancedUnlock, EventContext{}),
            Action::kSuppress);
  EXPECT_EQ(e.decide(ResponseEvent::kUnbalancedUnlock, contended_ctx(1)),
            Action::kLog);
  EXPECT_EQ(e.decide(ResponseEvent::kUnbalancedUnlock, contended_ctx(4)),
            Action::kAbort);
}

TEST(ResponseRule, ConditionGating) {
  Rule r;
  r.events = 0x0F;
  r.conds = {clause(Condition::kContended)};
  EXPECT_TRUE(r.matches(ResponseEvent::kDoubleUnlock, contended_ctx()));
  EXPECT_FALSE(r.matches(ResponseEvent::kDoubleUnlock, EventContext{}));
  EXPECT_FALSE(r.matches(ResponseEvent::kOrderInversion, contended_ctx()));
  Rule incycle;
  incycle.conds = {clause(Condition::kInCycle)};
  EventContext flagged;
  flagged.in_flagged_cycle = true;
  EXPECT_TRUE(incycle.matches(ResponseEvent::kNonOwnerUnlock, flagged));
  EXPECT_FALSE(incycle.matches(ResponseEvent::kNonOwnerUnlock,
                               EventContext{}));
}

// ---------------------------------------------------------------------
// decide(): ordering, the tail, stats.
// ---------------------------------------------------------------------

TEST(ResponseEngineDecide, EmptySpecInstallsTheTailAlone) {
  ResponseRulesGuard none("");
  auto& e = ResponseEngine::instance();
  EXPECT_EQ(e.rules().size(), kTailRules);
  for (std::size_t i = 0; i < response::kResponseEvents; ++i) {
    const auto ev = static_cast<ResponseEvent>(i);
    const bool report = ev == ResponseEvent::kOrderInversion ||
                        ev == ResponseEvent::kDeadlockCycle;
    const Action want = report ? Action::kLog : Action::kSuppress;
    EXPECT_EQ(e.decide(ev, EventContext{}), want) << to_string(ev);
    EXPECT_EQ(e.decide(ev, contended_ctx()), want) << to_string(ev);
  }
}

TEST(ResponseEngineDecide, FirstMatchWins) {
  ResponseRulesGuard rules("misuse@contended=abort;misuse=log");
  auto& e = ResponseEngine::instance();
  EXPECT_EQ(e.decide(ResponseEvent::kDoubleUnlock, contended_ctx()),
            Action::kAbort);
  EXPECT_EQ(e.decide(ResponseEvent::kDoubleUnlock, EventContext{}),
            Action::kLog);
  // An event kind no user rule names falls to the tail.
  EXPECT_EQ(e.decide(ResponseEvent::kOrderInversion, contended_ctx()),
            Action::kLog);
}

TEST(ResponseEngineDecide, StatsCountDecisions) {
  ResponseRulesGuard rules("misuse=passthrough");
  auto& e = ResponseEngine::instance();
  const auto before = e.stats();
  e.decide(ResponseEvent::kDoubleUnlock, EventContext{});
  e.decide(ResponseEvent::kOrderInversion, EventContext{});
  const auto after = e.stats();
  EXPECT_EQ(after.decisions, before.decisions + 2);
  EXPECT_EQ(after.by_action[static_cast<int>(Action::kPassthrough)],
            before.by_action[static_cast<int>(Action::kPassthrough)] + 1);
  EXPECT_EQ(after.by_event[static_cast<int>(ResponseEvent::kDoubleUnlock)],
            before.by_event[static_cast<int>(ResponseEvent::kDoubleUnlock)] +
                1);
}

TEST(ResponseEngineDecide, LogRateLimitDegradesToSuppress) {
  ResponseRulesGuard rules("misuse=log");
  auto& e = ResponseEngine::instance();
  response::LogRateLimitGuard limit(1);  // burst 1, refill 1/sec
  const auto before = e.stats();
  int logged = 0, suppressed = 0;
  for (int i = 0; i < 5; ++i) {
    const Action a = e.decide(ResponseEvent::kUnbalancedUnlock,
                              EventContext{});
    if (a == Action::kLog) ++logged;
    if (a == Action::kSuppress) ++suppressed;
  }
  // The first verdict spends the burst token; later ones degrade
  // unless a slow run refilled the bucket — never to passthrough.
  EXPECT_GE(logged, 1);
  EXPECT_GE(suppressed, 1);
  EXPECT_EQ(logged + suppressed, 5);
  const auto after = e.stats();
  EXPECT_EQ(after.log_rate_limited,
            before.log_rate_limited + static_cast<std::uint64_t>(suppressed));
}

TEST(ResponseEngineDecide, RateLimitBucketsArePerEventKind) {
  ResponseRulesGuard rules("*=log");
  auto& e = ResponseEngine::instance();
  response::LogRateLimitGuard limit(1);
  // One kind exhausting its bucket must not silence another kind.
  EXPECT_EQ(e.decide(ResponseEvent::kUnbalancedUnlock, EventContext{}),
            Action::kLog);
  EXPECT_EQ(e.decide(ResponseEvent::kUnbalancedUnlock, EventContext{}),
            Action::kSuppress);  // bucket drained
  EXPECT_EQ(e.decide(ResponseEvent::kNonOwnerUnlock, EventContext{}),
            Action::kLog);  // separate bucket, still full
}

TEST(ResponseEngineDecide, RateLimitOffByDefaultAndRestoredByGuard) {
  auto& e = ResponseEngine::instance();
  const std::uint32_t outer = e.log_rate_limit();
  {
    response::LogRateLimitGuard limit(7);
    EXPECT_EQ(e.log_rate_limit(), 7u);
  }
  EXPECT_EQ(e.log_rate_limit(), outer);
}

TEST(ResponseEngineConfig, GuardRestoresPreviousRules) {
  ResponseRulesGuard outer("misuse=log");
  {
    ResponseRulesGuard inner("adaptive");
    EXPECT_GE(ResponseEngine::instance().rules().size(), 4u);
  }
  const auto restored = ResponseEngine::instance().rules();
  ASSERT_EQ(restored.size(), 1u + kTailRules);
  EXPECT_EQ(restored[0].action, Action::kLog);
}

TEST(ResponseEngineConfig, MalformedConfigureRejectedUntouched) {
  ResponseRulesGuard base("misuse=log");
  EXPECT_FALSE(ResponseEngine::instance().configure("nope=never"));
  ASSERT_EQ(ResponseEngine::instance().rules().size(), 1u + kTailRules);
}

// ---------------------------------------------------------------------
// Engine-routed Shield verdicts.
// ---------------------------------------------------------------------

TEST(ResponseShield, ShieldFollowsRules) {
  // Rules turn the tail's suppress into passthrough: the resilient
  // base sees and refuses the unbalanced unlock.
  ResponseRulesGuard rules("misuse=passthrough");
  Shield<TatasLockResilient> s;
  EXPECT_FALSE(s.release());
  const auto snap = s.snapshot();
  EXPECT_EQ(snap.passed_through, 1u);
  EXPECT_EQ(snap.suppressed, 0u);
}

TEST(ResponseShield, ContendedRuleEscalatesOnLiveWaiters) {
  ResponseRulesGuard rules("misuse@uncontended=passthrough;misuse=log");
  Shield<TicketLockResilient> s;
  // Uncontended: passthrough (base refuses).
  EXPECT_FALSE(s.release());
  EXPECT_EQ(s.snapshot().passed_through, 1u);
  // Contended: a thread parks on the lock, the same misuse now logs.
  std::atomic<bool> held{false}, go{false};
  std::thread owner([&] {
    s.acquire();
    held.store(true);
    while (!go.load()) std::this_thread::yield();
    s.release();
  });
  while (!held.load()) std::this_thread::yield();
  std::thread waiter([&] {
    s.acquire();
    s.release();
  });
  while (s.waiters() == 0) std::this_thread::yield();
  EXPECT_FALSE(s.release());  // non-owner unlock: logged + suppressed
  EXPECT_EQ(s.snapshot().suppressed, 1u);
  go.store(true);
  owner.join();
  waiter.join();
  EXPECT_GE(s.contended_total(), 1u);
}

TEST(ResponseShield, AbortVerdictHitsTrapAndDegradesToSuppress) {
  static std::atomic<int> trapped{0};
  trapped.store(0);
  ResponseRulesGuard rules("misuse=abort");
  response::ScopedAbortHandler trap(
      [](ResponseEvent, const void*) { trapped.fetch_add(1); });
  Shield<TatasLockResilient> s;
  EXPECT_FALSE(s.release());  // abort verdict -> trap -> suppressed
  EXPECT_EQ(trapped.load(), 1);
  EXPECT_EQ(s.snapshot().suppressed, 1u);
  // Still functional.
  s.acquire();
  EXPECT_TRUE(s.release());
}

TEST(ResponseShield, AdaptivePresetAbsorbsReentrantRelock) {
  // Regression: the uncontended-passthrough tier must NOT forward a
  // reentrant relock — on a non-reentrant base that is a guaranteed
  // self-deadlock, not a harmless misuse. The preset pins relocks to
  // suppress, so the second acquire is absorbed as a depth bump.
  ResponseRulesGuard rules(response::adaptive_policy_spec());
  Shield<TatasLock> s;
  s.acquire();
  s.acquire();  // would spin forever if passed through
  EXPECT_EQ(s.held_depth(), 2u);
  EXPECT_EQ(s.snapshot().reentrant_absorbed, 1u);
  EXPECT_TRUE(s.release());
  EXPECT_TRUE(s.release());
}

TEST(ResponseShield, AdaptivePresetNeverForwardsNonOwnerUnlock) {
  // A non-owner unlock is the paper's headline corruption even with an
  // empty waiter queue: the preset logs + suppresses it instead of
  // forwarding it under the uncontended tier.
  ResponseRulesGuard rules(response::adaptive_policy_spec());
  Shield<TatasLock> s;  // ORIGINAL base: a forwarded unlock would free it
  std::atomic<bool> held{false}, go{false};
  std::thread owner([&] {
    s.acquire();
    held.store(true);
    while (!go.load()) std::this_thread::yield();
    s.release();
  });
  while (!held.load()) std::this_thread::yield();
  EXPECT_FALSE(s.release());  // no waiters, still refused
  EXPECT_TRUE(s.base().is_locked());  // the owner was not dispossessed
  EXPECT_EQ(s.snapshot().suppressed, 1u);
  go.store(true);
  owner.join();
}

namespace {
std::atomic<int> g_wedge_trapped{0};
std::atomic<bool> g_wedge_release{false};
void wedge_trap(ResponseEvent, const void*) {
  g_wedge_trapped.fetch_add(1);
  // Unstick the holder: the verdict fired at the ATTEMPT, before the
  // caller blocks, so releasing here lets the scenario complete.
  g_wedge_release.store(true, std::memory_order_release);
}
}  // namespace

TEST(ResponseLockdep, OwnedLockCountsAsContendedForCycleVerdict) {
  // Regression for the canonical two-thread AB/BA wedge: the closing
  // lock has ZERO queued waiters (its holder is parked on the OTHER
  // lock), but it is held by another thread — the abort tier must
  // still fire on the closing edge.
  g_wedge_trapped.store(0);
  g_wedge_release.store(false);
  lockdep::LockdepEnabledGuard lockdep_on(true);
  ResponseRulesGuard rules("lockdep@contended=abort;lockdep=log");
  Shield<TatasLockResilient> a, b;
  a.acquire();
  b.acquire();  // edge A->B
  EXPECT_TRUE(b.release());
  EXPECT_TRUE(a.release());

  std::atomic<bool> held{false};
  std::thread holder([&] {
    a.acquire();  // holds A — the "parked on the other lock" twin
    held.store(true);
    // Released by the trap; the deadline keeps a missed verdict from
    // hanging the test (it then fails on the trap count instead).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!g_wedge_release.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    a.release();
  });
  while (!held.load()) std::this_thread::yield();
  {
    response::ScopedAbortHandler trap(wedge_trap);
    b.acquire();
    a.acquire();  // closing edge B->A: A owned, 0 waiters -> abort
    EXPECT_TRUE(a.release());
    EXPECT_TRUE(b.release());
  }
  holder.join();
  EXPECT_EQ(g_wedge_trapped.load(), 1);
}

// ---------------------------------------------------------------------
// Verify layer: the alias gate and the escalation matrix.
// ---------------------------------------------------------------------

// Every RESILOCK_SHIELD_POLICY value x every RESILOCK_LOCKDEP value,
// translated into rules, must give the verdict the old static fallback
// gave — for all nine events in every context.
TEST(EscalationMatrix, LegacyAliasesKeepTheirVerdicts) {
  // The old fallback: an unset or unknown RESILOCK_SHIELD_POLICY meant
  // suppress; RESILOCK_LOCKDEP=abort aborted every report and any other
  // value logged it.
  struct ShieldAlias {
    const char* value;
    Action misuse;
  };
  const ShieldAlias shield_aliases[] = {
      {"", Action::kSuppress},      {"suppress", Action::kSuppress},
      {"abort", Action::kAbort},    {"log", Action::kLog},
      {"passthrough", Action::kPassthrough},
      {"bogus", Action::kSuppress},
  };
  struct LockdepAlias {
    const char* value;
    Action report;
  };
  const LockdepAlias lockdep_aliases[] = {
      {"", Action::kLog},      {"report", Action::kLog},
      {"off", Action::kLog},   {"abort", Action::kAbort},
      {"bogus", Action::kLog},
  };
  EventContext in_cycle;
  in_cycle.in_flagged_cycle = true;
  const EventContext contexts[] = {EventContext{}, contended_ctx(2),
                                   in_cycle};
  response::LogRateLimitGuard unlimited(0);
  auto& e = ResponseEngine::instance();
  for (const ShieldAlias& sp : shield_aliases) {
    for (const LockdepAlias& ld : lockdep_aliases) {
      ResponseRulesGuard rules(response::alias_rules(sp.value, ld.value));
      for (std::size_t i = 0; i < response::kResponseEvents; ++i) {
        const auto ev = static_cast<ResponseEvent>(i);
        const bool report = ev == ResponseEvent::kOrderInversion ||
                            ev == ResponseEvent::kDeadlockCycle;
        for (const EventContext& ctx : contexts) {
          EXPECT_EQ(e.decide(ev, ctx), report ? ld.report : sp.misuse)
              << "RESILOCK_SHIELD_POLICY=" << sp.value
              << " RESILOCK_LOCKDEP=" << ld.value << " " << to_string(ev);
        }
      }
    }
  }
}

TEST(EscalationMatrix, AliasesSitBetweenUserRulesAndTheTail) {
  // RESILOCK_POLICY rules come first, the aliases second: a contended
  // misuse takes the user's log, an uncontended one the alias's abort.
  EXPECT_EQ(response::alias_rules("abort", "abort"),
            "misuse=abort;lockdep=abort;");
  ResponseRulesGuard rules("misuse@contended=log;" +
                           response::alias_rules("abort", "report"));
  response::LogRateLimitGuard unlimited(0);
  auto& e = ResponseEngine::instance();
  EXPECT_EQ(e.decide(ResponseEvent::kDoubleUnlock, contended_ctx()),
            Action::kLog);
  EXPECT_EQ(e.decide(ResponseEvent::kDoubleUnlock, EventContext{}),
            Action::kAbort);
  EXPECT_EQ(e.decide(ResponseEvent::kDeadlockCycle, EventContext{}),
            Action::kLog);
}

TEST(EscalationMatrix, AllTiersFireAcrossFamilies) {
  const auto rows = verify::run_escalation_matrix();
  verify::print_escalation_matrix(rows);
  ASSERT_EQ(rows.size(), 3u);  // TAS, Ticket, MCS
  for (const auto& r : rows) {
    EXPECT_TRUE(r.uncontended_passthrough) << r.lock;
    EXPECT_TRUE(r.contended_logged) << r.lock;
    EXPECT_TRUE(r.contended_suppressed) << r.lock;
    EXPECT_TRUE(r.cycle_abort_verdict) << r.lock;
    EXPECT_TRUE(r.threads_joined) << r.lock;
    EXPECT_TRUE(r.all_pass()) << r.lock;
  }
}
