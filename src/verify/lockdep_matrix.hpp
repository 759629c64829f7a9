// Lockdep scenario matrix: does the dependency subsystem (src/lockdep/)
// flag what it promises, and nothing more?
//
// Four scripted scenarios per base algorithm, run on shield<X> so the
// order edges come from the real Shield hooks:
//   * ordered   — consistently ordered nesting (A→B→C from several
//                 threads) must produce NO report (false-positive gate);
//   * inversion — A-then-B followed by B-then-A on one thread: the AB/BA
//                 cycle must be flagged on the FIRST occurrence of the
//                 reversed order, with no two-thread wedge anywhere;
//   * cycle     — the dining-philosophers pattern over three locks,
//                 driven sequentially: the 3-cycle must be flagged while
//                 still no thread has ever blocked;
//   * wedge     — two probes REALLY deadlock (T1 holds A wants B, T2
//                 holds B wants A). Lockdep must report before/while
//                 they wedge, and the probes are then rescued through
//                 VerifyAccess back doors so the experiment always
//                 joins. Applicable where a wedged acquire can be
//                 rescued from outside (TAS word reset, Ticket
//                 now-serving sweep); a rescued lock is destroyed.
#pragma once

#include <string>
#include <vector>

namespace resilock::verify {

struct LockdepScenarioReport {
  std::string lock;  // base algorithm name

  bool ordered_clean = false;      // no report on consistent order
  bool inversion_flagged = false;  // AB/BA flagged, first occurrence
  bool inversion_once = false;     // exactly one report for one edge
  bool cycle_flagged = false;      // 3-lock cycle flagged

  bool wedge_applicable = false;   // rescue tooling exists for the base
  bool wedge_forewarned = false;   // report fired while probes wedged
  bool probes_joined = false;      // rescues unstuck every probe

  bool all_pass() const {
    return ordered_clean && inversion_flagged && inversion_once &&
           cycle_flagged && (!wedge_applicable ||
                             (wedge_forewarned && probes_joined));
  }
};

// Runs the matrix for `names` (default: TAS, Ticket, MCS — one word
// lock, one FIFO counter lock, one context queue lock). Pins lockdep on
// and the response rules to the built-in tail alone (misuse=suppress,
// lockdep=log) for the run.
std::vector<LockdepScenarioReport> run_lockdep_matrix(
    const std::vector<std::string>& names = {});

void print_lockdep_matrix(
    const std::vector<LockdepScenarioReport>& reports);

}  // namespace resilock::verify
