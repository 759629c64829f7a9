// The Table 1 engine: empirically derives, per lock algorithm, the
// paper's misuse matrix — does one unbalanced unlock violate mutual
// exclusion? starve the misbehaving thread (Tm)? starve others? — for
// the *original* protocol, and whether the *resilient* protocol detects
// and prevents it.
//
// Every scenario is a scripted deterministic interleaving taken from the
// paper's §3–§5 case analyses (e.g., CLH's Figure 8 re-enqueue, MCS's
// stale-next case 3, GT's missed-toggle). "Starves" is operationalized
// as "makes no progress within verify::kWatchWindow while peers do";
// starved threads are rescued through VerifyAccess so experiments join.
#pragma once

#include <string>
#include <vector>

namespace resilock::verify {

struct MisuseReport {
  std::string lock;

  // Observed on the ORIGINAL protocol under a single misbehaving release.
  bool violates_mutex = false;
  bool tm_starves = false;
  bool others_starve = false;

  // Observed on the RESILIENT protocol under the same script.
  bool detected = false;    // release() returned false
  bool prevented = false;   // no violation, no starvation, still functional

  // The paper's Table 1 claims, for side-by-side printing.
  bool paper_violates = false;
  bool paper_tm = false;
  bool paper_others = false;
  bool paper_detectable = false;
  std::string remedy;  // Table 1 "detection + remedy" column
};

MisuseReport misuse_tas();
MisuseReport misuse_ticket();
MisuseReport misuse_abql();
MisuseReport misuse_graunke_thakkar();
MisuseReport misuse_mcs();
MisuseReport misuse_clh();
MisuseReport misuse_mcs_k42();
MisuseReport misuse_hemlock();
MisuseReport misuse_hmcs();
MisuseReport misuse_hclh();
MisuseReport misuse_hbo();
MisuseReport misuse_cohort_tkt_tkt();
MisuseReport misuse_crw_np();
MisuseReport misuse_peterson();
MisuseReport misuse_fischer();
MisuseReport misuse_lamport1();
MisuseReport misuse_lamport2();
MisuseReport misuse_bakery();

// All of the above, in the paper's Table 1 row order (plus the extra
// rows this repo adds: HBO, C-TKT-TKT).
std::vector<MisuseReport> run_misuse_matrix();

// Pretty-print the matrix next to the paper's claims (used by
// bench/table1_behavior).
void print_misuse_matrix(const std::vector<MisuseReport>& reports);

// ---------------------------------------------------------------------
// Shield-vs-native comparison (src/shield/). The ownership shield
// claims to deliver, from *outside* the protocol, what each bespoke
// kResilient fix delivers from inside. This matrix drives the four
// canonical misuse scenarios — unbalanced unlock of a free lock, double
// unlock by the previous owner, unlock while another thread holds the
// lock, and same-thread reentrant relock — against shield<X> over the
// ORIGINAL protocol and against the native RESILIENT protocol, and
// records whether each one detected the misuse, preserved mutual
// exclusion, and stayed functional afterwards.
// ---------------------------------------------------------------------

struct ShieldCell {
  bool applicable = true;      // false: cannot be driven safely (e.g.
                               // relock on a lock with no trylock)
  bool detected = false;       // misuse refused or safely absorbed
  bool mutex_preserved = true; // no double-entry observed
  bool functional_after = false;
};

struct ShieldComparison {
  std::string lock;  // base algorithm name
  // Cells indexed in shield::MisuseKind order: unbalanced unlock,
  // double unlock, non-owner unlock, reentrant relock.
  ShieldCell shielded[4];  // "shield<lock>" over the kOriginal protocol
  ShieldCell native[4];    // the lock's own kResilient flavor

  bool shield_matches_native() const;
};

// Runs the comparison for `names` (default: the Table 2 six). The
// response rules are pinned to the built-in tail (misuse=suppress) for
// the run so results do not depend on RESILOCK_POLICY or its aliases.
std::vector<ShieldComparison> run_shield_matrix(
    const std::vector<std::string>& names = {});

void print_shield_matrix(const std::vector<ShieldComparison>& reports);

}  // namespace resilock::verify
