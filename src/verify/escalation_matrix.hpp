// Escalation scenario matrix: does the unified response engine
// (src/response/) fire each tier of the adaptive ladder under exactly
// the situation the rule names?
//
// Three scripted scenarios per base algorithm, run on shield<X> from
// the registry with the "adaptive" rule set installed:
//   * uncontended — an unbalanced unlock of a free, waiter-less lock
//                   must take the PASSTHROUGH verdict (the base
//                   protocol, resilient flavor here, refuses it);
//   * contended   — a non-owner unlock while another thread is
//                   blocked on the lock (live waiter queued) must take
//                   the LOG verdict: diagnosed AND suppressed;
//   * cycle       — an AB/BA order inversion whose closing edge is
//                   inserted while the acquired lock has waiters must
//                   take the ABORT verdict. The verify abort trap
//                   records the would-be death and lets the run
//                   continue, so the scenario also proves every thread
//                   still joins.
// The legacy knobs are checked by the alias gate in
// tests/test_response.cpp (EscalationMatrix.LegacyAliasesKeepTheirVerdicts).
#pragma once

#include <string>
#include <vector>

namespace resilock::verify {

struct EscalationReport {
  std::string lock;  // base algorithm name

  bool uncontended_passthrough = false;  // tier 1 verdict observed
  bool contended_logged = false;         // tier 2 verdict observed
  bool contended_suppressed = false;     // ...and the misuse was refused
  bool cycle_abort_verdict = false;      // tier 3 verdict trapped
  bool threads_joined = false;           // nothing wedged on the way

  bool all_pass() const {
    return uncontended_passthrough && contended_logged &&
           contended_suppressed && cycle_abort_verdict && threads_joined;
  }
};

// Runs the matrix for `names` (default: TAS, Ticket, MCS). Installs
// the adaptive rule set and pins lockdep on for the run; every pin is
// restored on return.
std::vector<EscalationReport> run_escalation_matrix(
    const std::vector<std::string>& names = {});

void print_escalation_matrix(const std::vector<EscalationReport>& reports);

}  // namespace resilock::verify
