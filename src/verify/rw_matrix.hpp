// Reader-writer protection matrix: does the mode-aware stack — RwShield
// ownership interception, mode-tagged lockdep edges, and the response
// engine's rw verdicts — deliver what it promises, across C-RW
// configurations?
//
// Five scripted scenarios per configuration, run on RwShield<CrwLock>
// so the mode tags come from the real shield hooks:
//   * rr-clean    — two threads read-acquire two rw locks in OPPOSITE
//                   orders, concurrently inside the read CS: zero
//                   inversion reports and zero new edges (R–R pairs are
//                   edge-free; rr_skipped must grow instead);
//   * w-inversion — wlock A-then-B followed by B-then-A: the
//                   write-involved AB/BA is flagged on the FIRST
//                   occurrence of the reversed order, exactly once;
//   * rw-mixed    — rlock(A)+wlock(B) then rlock(B)+wlock(A): a cycle
//                   of R→W edges (write participates) is still caught;
//   * mismatch    — wunlock of a read hold is intercepted with the
//                   verdict the installed rule names, base untouched;
//   * r-unbalance — runlock without rlock is refused; the indicator
//                   stays balanced and a writer still gets in — the §4
//                   corruption (mutex violation + writer starvation)
//                   does NOT happen, which is the shield's answer to
//                   the paper's open R-side problem;
// plus the agreement gate: the shielded ORIGINAL lock must answer the
// write-side misuses exactly like the native resilient protocol.
#pragma once

#include <string>
#include <vector>

namespace resilock::verify {

struct RwReport {
  std::string config;  // e.g. "C-RW-NP/ptkt-tkt"

  bool rr_clean = false;          // no report from concurrent R–R
  bool rr_edge_free = false;      // R–R pairs skipped, no edges added
  bool w_inversion = false;       // W/W AB/BA flagged on first occurrence
  bool w_inversion_once = false;  // ...and only once on replay
  bool rw_mixed_inversion = false;  // R→W/W→R cycle flagged
  bool mismatch_intercepted = false;  // rw-mode-mismatch verdict observed
  bool unbalanced_read_refused = false;  // bogus runlock intercepted
  bool indicator_intact = false;  // ...and no §4 skew: writer proceeds
  bool agrees_native = false;     // shielded original == native resilient

  bool all_pass() const {
    return rr_clean && rr_edge_free && w_inversion && w_inversion_once &&
           rw_mixed_inversion && mismatch_intercepted &&
           unbalanced_read_refused && indicator_intact && agrees_native;
  }
};

// Runs the matrix over the rw configurations: neutral-preference
// C-RW-NP over the paper's C-PTKT-TKT cohort, reader-preference over
// the C-TKT-TKT cohort, and writer-preference over the C-BO-BO (TAS
// local) cohort. Pins lockdep on and the response rules to the
// built-in tail alone for the run (the mismatch scenario installs its
// own rule set in scope).
std::vector<RwReport> run_rw_matrix();

void print_rw_matrix(const std::vector<RwReport>& reports);

}  // namespace resilock::verify
