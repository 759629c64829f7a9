#include "verify/rw_matrix.hpp"

#include <atomic>
#include <cstdio>

#include "core/cohort.hpp"
#include "core/rw/crw.hpp"
#include "core/rw/read_indicator.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "shield/rw_shield.hpp"
#include "verify/checkers.hpp"

namespace resilock::verify {
namespace {

using response::Action;
using response::ResponseEngine;
using response::ResponseEvent;
using shield::RwShield;

std::uint64_t report_count() {
  return lockdep::Graph::instance().stats().reports();
}

std::uint64_t inversion_count() {
  return lockdep::Graph::instance().stats().inversions;
}

std::uint64_t rr_skip_count() {
  return lockdep::Graph::instance().stats().rr_skipped;
}

std::uint64_t event_count(ResponseEvent ev) {
  return ResponseEngine::instance().stats().by_event[
      static_cast<std::size_t>(ev)];
}

std::uint64_t action_count(Action a) {
  return ResponseEngine::instance().stats().by_action[
      static_cast<std::size_t>(a)];
}

// Two threads, two rw locks, OPPOSITE read-nesting orders, rendezvous
// inside the read CS so the acquisitions are genuinely concurrent:
// R–R dependencies must add no edges and no reports.
template <typename Rw>
void run_rr_clean(bool& clean, bool& edge_free) {
  RwShield<Rw> a, b;
  using Ctx = typename Rw::Context;
  const std::uint64_t reports_before = report_count();
  const std::uint64_t skips_before = rr_skip_count();
  std::atomic<int> inside{0};
  std::atomic<bool> go{false};
  auto reader = [&](RwShield<Rw>& first, RwShield<Rw>& second) {
    Ctx c1, c2;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    first.rlock(c1);
    inside.fetch_add(1, std::memory_order_acq_rel);
    // Hold the first read until BOTH threads are inside, so the nested
    // read acquisition below happens with the opposite order live.
    wait_for([&] { return inside.load(std::memory_order_acquire) == 2; });
    second.rlock(c2);  // A(r) held while acquiring B(r) — and vice versa
    second.runlock(c2);
    first.runlock(c1);
  };
  Probe p1([&] { reader(a, b); });
  Probe p2([&] { reader(b, a); });
  go.store(true, std::memory_order_release);
  p1.join();
  p2.join();
  clean = report_count() == reports_before;
  // Edge-free between the two rw CLASSES specifically: the neutral
  // preference also touches the cohort-level classes on the way
  // through (attribution edges rw→cohort.local/global), which are
  // acyclic here and not what this gate measures.
  const lockdep::Graph& g = lockdep::Graph::instance();
  edge_free = !g.has_edge(a.lockdep_class(), b.lockdep_class()) &&
              !g.has_edge(b.lockdep_class(), a.lockdep_class()) &&
              rr_skip_count() >= skips_before + 2;
}

// wlock A-then-B, then B-then-A, strictly sequentially: the
// write-involved inversion flags on the FIRST reversed acquisition,
// and replaying the reversed order adds nothing (first-occurrence
// semantics). The count may exceed one report for the single app-level
// bug: the write CS holds the cohort levels too, so the same inversion
// is also attributed at cohort.local/global granularity — one report
// per (class pair), each on its own first occurrence only.
template <typename Rw>
void run_w_inversion(bool& flagged, bool& once) {
  RwShield<Rw> a, b;
  using Ctx = typename Rw::Context;
  Ctx ca, cb;
  const std::uint64_t before = inversion_count();
  a.wlock(ca);
  b.wlock(cb);  // edge A(w)→B(w)
  b.wunlock(cb);
  a.wunlock(ca);
  b.wlock(cb);
  a.wlock(ca);  // edge B(w)→A(w): closes AB/BA — flags right here
  flagged = inversion_count() > before;
  a.wunlock(ca);
  b.wunlock(cb);
  const std::uint64_t after_first = inversion_count();
  b.wlock(cb);
  a.wlock(ca);  // same reversed order again: no new edge, no new report
  a.wunlock(ca);
  b.wunlock(cb);
  once = inversion_count() == after_first;
}

// rlock(A)-then-wlock(B), then rlock(B)-then-wlock(A): every edge has a
// read SOURCE but a write destination — the cycle still involves write
// acquisitions and must be caught (only pure R–R is exempt).
template <typename Rw>
bool run_rw_mixed_inversion() {
  RwShield<Rw> a, b;
  using Ctx = typename Rw::Context;
  Ctx ca, cb;
  const std::uint64_t before = inversion_count();
  a.rlock(ca);
  b.wlock(cb);  // edge A(r)→B(w)
  b.wunlock(cb);
  a.runlock(ca);
  b.rlock(cb);
  a.wlock(ca);  // edge B(r)→A(w): write-involved cycle — flagged
  a.wunlock(ca);
  b.runlock(cb);
  return inversion_count() > before;
}

// wunlock of a read hold, with an explicit rule naming the verdict:
// the engine must take the named verdict (log), the base must stay
// untouched (the read hold survives and releases cleanly).
template <typename Rw>
bool run_mode_mismatch() {
  response::ResponseRulesGuard rules("rw-mode-mismatch=log");
  RwShield<Rw> rw;
  using Ctx = typename Rw::Context;
  Ctx c;
  rw.rlock(c);
  const std::uint64_t ev_before =
      event_count(ResponseEvent::kRwModeMismatch);
  const std::uint64_t log_before = action_count(Action::kLog);
  const bool refused = !rw.wunlock(c);  // read hold released as write
  const bool verdict_taken =
      event_count(ResponseEvent::kRwModeMismatch) == ev_before + 1 &&
      action_count(Action::kLog) == log_before + 1;
  // The interception left the protocol untouched: the read hold is
  // still live and releases cleanly, then the write side still works.
  const bool functional = rw.runlock(c);
  rw.wlock(c);
  const bool write_ok = rw.wunlock(c);
  return refused && verdict_taken && functional && write_ok &&
         rw.snapshot().count(ResponseEvent::kRwModeMismatch) == 1;
}

// runlock without rlock: intercepted before the indicator can skew —
// afterwards the indicator is still balanced and a writer acquires
// immediately (no §4 writer starvation) while a concurrent reader
// keeps mutual exclusion.
template <typename Rw>
void run_unbalanced_read(bool& refused, bool& intact) {
  RwShield<Rw> rw;
  using Ctx = typename Rw::Context;
  Ctx c;
  refused = !rw.runlock(c) &&
            rw.snapshot().count(ResponseEvent::kUnbalancedReadUnlock) == 1;
  // §4's corruption would leave the indicator non-empty forever (the
  // split counters skew) or negative (writer admitted over a reader).
  // Intercepted, neither happens: empty indicator, writer proceeds.
  const bool balanced = rw.base().indicator().is_empty();
  Probe writer([&] {
    Ctx wc;
    rw.wlock(wc);
    rw.wunlock(wc);
  });
  const bool writer_done = writer.finished_within(4 * kWatchWindow);
  intact = balanced && writer_done;
}

// The agreement gate: the shielded ORIGINAL protocol must answer the
// misuses the native RESILIENT protocol can detect with the same
// refusals — and the R-side misuse (undetectable natively with compact
// indicators, §4) must be detected by the shield AND by the native
// checked-indicator extension.
template <template <Resilience> class CohortFor, RwPreference P>
bool run_agreement() {
  using Original = CrwLock<kOriginal, SplitReadIndicator, P,
                           CohortFor<kOriginal>>;
  using NativeResilient = CrwLock<kResilient, CheckedReadIndicator, P,
                                  CohortFor<kResilient>>;
  // Shielded original: all four probes refused by interception.
  RwShield<Original> s;
  typename Original::Context sc;
  const bool s_wunlock_refused = !s.wunlock(sc);
  const bool s_runlock_refused = !s.runlock(sc);
  s.wlock(sc);
  const bool s_balanced_w = s.wunlock(sc);
  s.rlock(sc);
  const bool s_balanced_r = s.runlock(sc);

  // Native resilient: W side by the ticket PID remedy, R side by the
  // checked indicator's presence bits.
  NativeResilient n;
  typename NativeResilient::Context nc;
  const bool n_wunlock_refused = !n.wunlock(nc);
  const bool n_runlock_refused = !n.runlock(nc);
  n.wlock(nc);
  const bool n_balanced_w = n.wunlock(nc);
  n.rlock(nc);
  const bool n_balanced_r = n.runlock(nc);

  return s_wunlock_refused == n_wunlock_refused &&
         s_runlock_refused == n_runlock_refused &&
         s_balanced_w == n_balanced_w && s_balanced_r == n_balanced_r &&
         s_wunlock_refused && s_runlock_refused;
}

template <template <Resilience> class CohortFor, RwPreference P>
RwReport run_config(const char* name) {
  using Rw = CrwLock<kOriginal, SplitReadIndicator, P, CohortFor<kOriginal>>;
  RwReport r;
  r.config = name;
  run_rr_clean<Rw>(r.rr_clean, r.rr_edge_free);
  run_w_inversion<Rw>(r.w_inversion, r.w_inversion_once);
  r.rw_mixed_inversion = run_rw_mixed_inversion<Rw>();
  r.mismatch_intercepted = run_mode_mismatch<Rw>();
  run_unbalanced_read<Rw>(r.unbalanced_read_refused, r.indicator_intact);
  r.agrees_native = run_agreement<CohortFor, P>();
  return r;
}

}  // namespace

std::vector<RwReport> run_rw_matrix() {
  // Pin every policy surface so results do not depend on the
  // environment; the mismatch scenario scopes its own rule set.
  response::ResponseRulesGuard rules("");
  lockdep::LockdepEnabledGuard lockdep_on(true);
  std::vector<RwReport> out;
  out.push_back(run_config<CPtktTktLock, RwPreference::kNeutral>(
      "C-RW-NP/ptkt-tkt"));
  out.push_back(run_config<CTktTktLock, RwPreference::kReader>(
      "C-RW-RP/tkt-tkt"));
  out.push_back(run_config<CBoBoLock, RwPreference::kWriter>(
      "C-RW-WP/bo-bo"));
  return out;
}

void print_rw_matrix(const std::vector<RwReport>& reports) {
  std::printf("%-18s %8s %9s %7s %5s %6s %9s %8s %7s %7s\n", "Config",
              "rr", "edgefree", "w-inv", "once", "mixed", "mismatch",
              "r-unbal", "intact", "native");
  for (const auto& r : reports) {
    std::printf("%-18s %8s %9s %7s %5s %6s %9s %8s %7s %7s\n",
                r.config.c_str(), r.rr_clean ? "clean" : "NOISY",
                r.rr_edge_free ? "yes" : "NO",
                r.w_inversion ? "yes" : "MISSED",
                r.w_inversion_once ? "yes" : "SPAM",
                r.rw_mixed_inversion ? "yes" : "MISSED",
                r.mismatch_intercepted ? "yes" : "NO",
                r.unbalanced_read_refused ? "yes" : "NO",
                r.indicator_intact ? "yes" : "SKEWED",
                r.agrees_native ? "agree" : "DIFFER");
  }
}

}  // namespace resilock::verify
