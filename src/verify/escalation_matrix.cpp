#include "verify/escalation_matrix.hpp"

#include <atomic>
#include <cstdio>
#include <memory>

#include "core/lock_registry.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "verify/checkers.hpp"

namespace resilock::verify {
namespace {

using response::Action;
using response::ResponseEngine;
using response::ResponseEvent;

std::uint64_t action_count(Action a) {
  return ResponseEngine::instance().stats().by_action[
      static_cast<std::size_t>(a)];
}

// Abort-trap plumbing: the handler is a bare function pointer, so the
// scenario parks its flags here before installing it. A trapped abort
// records the verdict and releases the scenario's held lock so the
// deliberately-wedging acquire can complete.
std::atomic<bool>* g_trap_fired = nullptr;
std::atomic<bool>* g_trap_release = nullptr;

void abort_trap(ResponseEvent, const void*) {
  if (g_trap_fired != nullptr) {
    g_trap_fired->store(true, std::memory_order_release);
  }
  if (g_trap_release != nullptr) {
    g_trap_release->store(true, std::memory_order_release);
  }
}

// Tier 1 — unbalanced unlock of a free lock, nobody waiting: the
// adaptive ladder forwards it to the base protocol (whose resilient
// check refuses it) instead of spending a diagnostic on a harmless
// slip.
bool run_uncontended(const std::string& shielded) {
  auto lock = make_lock(shielded, kResilient);
  const std::uint64_t pass_before = action_count(Action::kPassthrough);
  const bool refused = !lock->release();  // resilient base returns false
  return refused && action_count(Action::kPassthrough) == pass_before + 1 &&
         lock->misuse_total() == 1;
}

// Tier 2 — non-owner unlock while a waiter is queued: must be logged
// AND suppressed (the owner keeps the lock, the waiter keeps its
// place).
void run_contended(const std::string& shielded, bool& logged,
                   bool& suppressed, bool& joined) {
  auto lock = make_lock(shielded, kResilient);
  std::atomic<bool> held{false}, release{false};
  Probe owner([&] {
    lock->acquire();
    held.store(true, std::memory_order_release);
    wait_for([&] { return release.load(std::memory_order_acquire); },
             20 * kWatchWindow);
    lock->release();
  });
  wait_for([&] { return held.load(std::memory_order_acquire); });
  Probe waiter([&] { lock->acquire(); lock->release(); });
  // The waiter registers on the shield's contention probe the moment it
  // blocks; that live gauge is what flips the engine's verdict.
  wait_for([&] { return lock->waiters() == 1; });

  const std::uint64_t log_before = action_count(Action::kLog);
  suppressed = !lock->release();  // non-owner unlock, refused
  logged = action_count(Action::kLog) == log_before + 1;

  release.store(true, std::memory_order_release);
  joined = wait_for([&] { return owner.done() && waiter.done(); },
                    20 * kWatchWindow);
}

// Tier 3 — AB/BA inversion whose closing edge lands while the acquired
// lock has live waiters: the adaptive ladder's abort rule must fire.
// The trap stands in for the death, then unsticks the scenario.
void run_cycle_with_waiters(const std::string& shielded, bool& verdict,
                            bool& joined) {
  auto a = make_lock(shielded, kResilient);
  auto b = make_lock(shielded, kResilient);

  // Teach the graph A→B with everything quiet.
  a->acquire();
  b->acquire();
  b->release();
  a->release();

  std::atomic<bool> held{false}, release{false}, trapped{false};
  Probe holder([&] {
    a->acquire();
    held.store(true, std::memory_order_release);
    // Released by the abort trap — or by the timeout, so a missed
    // verdict fails the row instead of wedging the run.
    wait_for([&] { return release.load(std::memory_order_acquire); },
             20 * kWatchWindow);
    a->release();
  });
  wait_for([&] { return held.load(std::memory_order_acquire); });
  Probe waiter([&] { a->acquire(); a->release(); });
  wait_for([&] { return a->waiters() == 1; });

  const std::uint64_t abort_before = action_count(Action::kAbort);
  g_trap_fired = &trapped;
  g_trap_release = &release;
  {
    response::ScopedAbortHandler trap(abort_trap);
    b->acquire();
    a->acquire();  // closes B→A with a waiter queued: abort verdict here
    a->release();
    b->release();
  }
  g_trap_fired = nullptr;
  g_trap_release = nullptr;
  release.store(true, std::memory_order_release);

  joined = wait_for([&] { return holder.done() && waiter.done(); },
                    20 * kWatchWindow);
  verdict = trapped.load(std::memory_order_acquire) &&
            action_count(Action::kAbort) == abort_before + 1;
}

EscalationReport run_row(const std::string& name) {
  EscalationReport r;
  r.lock = name;
  const std::string shielded = shielded_name(name);
  bool contended_joined = false, cycle_joined = false;
  r.uncontended_passthrough = run_uncontended(shielded);
  run_contended(shielded, r.contended_logged, r.contended_suppressed,
                contended_joined);
  run_cycle_with_waiters(shielded, r.cycle_abort_verdict, cycle_joined);
  r.threads_joined = contended_joined && cycle_joined;
  return r;
}

}  // namespace

std::vector<EscalationReport> run_escalation_matrix(
    const std::vector<std::string>& names) {
  // Pin every global policy surface for the run: the adaptive rules
  // under test and lockdep tracking (edges must be recorded; the
  // verdict comes from the rules).
  response::ResponseRulesGuard rules(response::adaptive_policy_spec());
  lockdep::LockdepEnabledGuard lockdep_on(true);
  const std::vector<std::string> defaults = {"TAS", "Ticket", "MCS"};
  std::vector<EscalationReport> out;
  for (const auto& n : names.empty() ? defaults : names) {
    out.push_back(run_row(n));
  }
  return out;
}

void print_escalation_matrix(const std::vector<EscalationReport>& reports) {
  std::printf("%-10s %14s %12s %12s %12s %8s\n", "Lock", "uncontended",
              "contended", "suppressed", "cycle", "joined");
  for (const auto& r : reports) {
    std::printf("%-10s %14s %12s %12s %12s %8s\n", r.lock.c_str(),
                r.uncontended_passthrough ? "passthrough" : "WRONG",
                r.contended_logged ? "logged" : "SILENT",
                r.contended_suppressed ? "yes" : "NO",
                r.cycle_abort_verdict ? "abort" : "MISSED",
                r.threads_joined ? "yes" : "NO");
  }
}

}  // namespace resilock::verify
