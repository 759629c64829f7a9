// dining_philosophers: lockdep flags the classic deadlock before it can
// happen.
//
// Five philosophers, five forks, each picks up the left fork then the
// right — the textbook circular wait. This demo never risks the actual
// deadlock: it runs a single-threaded "rehearsal" in which each
// philosopher dines alone, in turn. No acquisition ever blocks, yet
// the moment the last philosopher picks up fork 4 then fork 0, the
// lock-order graph closes a 5-cycle and lockdep reports the potential
// deadlock — the whole point of order tracking: the hazard is a
// property of the ORDER, not of the unlucky interleaving.
//
// The concurrent dinner then runs with the standard fix (lowest-index
// fork first) to show the asymmetric order is report-free and safe.
//
//   ./example_dining_philosophers                # flags the cycle
//   RESILOCK_LOCKDEP=off ./example_dining_philosophers   # blind
#include <cstdio>
#include <memory>
#include <vector>

#include "core/lock_registry.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "runtime/thread_team.hpp"

using namespace resilock;

namespace {

constexpr int kPhilosophers = 5;

lockdep::LockdepStats stats() {
  return lockdep::Graph::instance().stats();
}

void drain_and_print_events() {
  std::size_t n = 0;
  lockdep::TraceBuffer::instance().drain(
      [&](const lockdep::TraceEvent& e) {
        std::printf(
            "  event[%zu] t=%lluns pid=%u kind=%s classes %u -> %u\n",
            n++, static_cast<unsigned long long>(e.ns), e.pid,
            lockdep::to_string(e.kind), e.a, e.b);
      });
  if (n == 0) std::printf("  (no events recorded)\n");
}

}  // namespace

int main() {
  // Reports should never kill the demo, and the one deliberate misuse
  // below should be absorbed quietly: the built-in rule tail alone.
  response::ResponseRulesGuard rules("");

  std::vector<std::unique_ptr<AnyLock>> fork;
  for (int i = 0; i < kPhilosophers; ++i) {
    fork.push_back(make_lock("shield<TAS>", kOriginal));
  }

  std::printf("== dining_philosophers: %d forks, left-then-right ==\n\n",
              kPhilosophers);
  std::printf(
      "Rehearsal: each philosopher dines ALONE, one after another —\n"
      "no contention, no blocking, no deadlock possible right now.\n\n");

  const auto before = stats();
  for (int p = 0; p < kPhilosophers; ++p) {
    const int left = p;
    const int right = (p + 1) % kPhilosophers;
    fork[left]->acquire();
    fork[right]->acquire();
    // eat
    fork[right]->release();
    fork[left]->release();
  }
  const auto after = stats();

  if (after.reports() > before.reports()) {
    std::printf(
        "\nlockdep flagged the circular fork order during the\n"
        "single-threaded rehearsal (see the report above): the cycle\n"
        "fork0 -> fork1 -> ... -> fork4 -> fork0 is a deadlock waiting\n"
        "for the right interleaving, and it was caught the FIRST time\n"
        "the order was seen — not when five threads finally wedge.\n\n");
  } else if (!lockdep::lockdep_enabled()) {
    std::printf(
        "\nRESILOCK_LOCKDEP=off: nobody watched the fork order. The\n"
        "concurrent dinner below survives only because it uses the\n"
        "ordered-fork fix; the left-then-right version could wedge at\n"
        "any moment.\n\n");
  } else {
    std::printf("\n!! expected a lockdep report and saw none\n\n");
  }

  // The rehearsal's circular order is now a recorded constraint on
  // those five lock classes — taking fork0 before fork4 would be a
  // (correctly!) flagged inversion against it. Lay a fresh table:
  // destroying a shielded lock retires its class and clears its edges.
  for (auto& f : fork) f = make_lock("shield<TAS>", kOriginal);

  std::printf(
      "Dinner on a fresh set of forks, with the classic fix "
      "(lowest-numbered fork first):\n");
  std::uint64_t meals = 0;
  runtime::ThreadTeam::run(kPhilosophers, [&](std::uint32_t p) {
    const int a = static_cast<int>(p);
    const int b = (a + 1) % kPhilosophers;
    const int first = a < b ? a : b;
    const int second = a < b ? b : a;
    for (int round = 0; round < 200; ++round) {
      fork[first]->acquire();
      fork[second]->acquire();
      __atomic_fetch_add(&meals, 1, __ATOMIC_RELAXED);
      fork[second]->release();
      fork[first]->release();
    }
  });
  const auto dinner = stats();
  std::printf(
      "  %llu meals eaten; new lockdep reports during the ordered "
      "dinner: %llu (the\n  asymmetric order is cycle-free, so lockdep "
      "stays silent)\n\n",
      static_cast<unsigned long long>(meals),
      static_cast<unsigned long long>(dinner.reports() -
                                      after.reports()));

  // One deliberate misuse so the trace shows both layers feeding the
  // same ring: a shield interception next to the lockdep reports.
  fork[0]->release();  // unbalanced unlock, suppressed by the shield

  std::printf("Misuse event ring (timestamped, exportable):\n");
  drain_and_print_events();

  std::printf(
      "\nShield misuse tallies per fork (detection, not just "
      "survival):\n");
  for (int i = 0; i < kPhilosophers; ++i) {
    std::printf("  fork%d: %llu misuse(s) intercepted\n", i,
                static_cast<unsigned long long>(fork[i]->misuse_total()));
  }
  return 0;
}
