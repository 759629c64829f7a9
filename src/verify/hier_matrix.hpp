// Hierarchical lockdep-attribution matrix: does the per-level class-key
// treatment of the HMCS/HCLH/AHMCS trees (core/{hmcs,hclh,ahmcs}.hpp)
// attribute what it promises, at the level it promises, and nothing
// more?
//
// Five scripted gates per configuration (2- and 3-level HMCS trees,
// the two-level HCLH queue hierarchy, 2- and 3-level AHMCS):
//   * ordered   — two trees nested in a consistent order from two
//                 threads produce NO report (false-positive gate; the
//                 internal climbs of both trees stay edge-free while
//                 real cross-tree edges record);
//   * inversion — A-then-B followed by B-then-A on one thread: the
//                 same-level cross-tree AB/BA is flagged on the first
//                 reversed acquisition, attributed to the LEAF level's
//                 class on both ends (the trace event's a/b labels are
//                 the level label, e.g. "hmcs.level2"), and reported
//                 exactly once for that class pair even when the
//                 reversed order is replayed;
//   * climb     — a contended single tree records no order edge
//                 between any two of its own level classes (the
//                 child→parent climb and the implicit ancestor grants
//                 are the protocol's invariant, not app-level facts);
//   * misuse    — a misused release at depth is intercepted BEFORE the
//                 parent-level hand-off can free an ancestor out from
//                 under the legitimate holder, and the trace event is
//                 attributed to the entry level's class — including
//                 the AHMCS adaptive root entry, which must tag from
//                 the level it joined at, not the leaf it bypassed.
//                 HCLH is immune by construction (paper Table 1); its
//                 gate verifies the immunity: a bogus release leaves
//                 the holder and the protocol intact;
//   * scoped    — an "inversion@class=<leaf label>=abort" response
//                 rule fires (through the abort trap) for an inversion
//                 attributed to that level and does NOT fire for an
//                 inversion among unrelated per-instance classes.
#pragma once

#include <string>
#include <vector>

namespace resilock::verify {

struct HierReport {
  std::string config;

  bool ordered_clean = false;       // consistent nesting: no report
  bool inversion_at_level = false;  // AB/BA attributed to the leaf level
  bool inversion_once = false;      // one report per class pair, ever
  bool climb_edge_free = false;     // no edges among own level classes
  bool misuse_intercepted = false;  // release-at-depth refused (HCLH:
                                    // immune and intact)
  bool misuse_attributed = false;   // trace names the entry level class
  bool scoped_rule_fired = false;   // @class= abort fired on its class
  bool scoped_rule_scoped = false;  // ...and only on its class

  bool all_pass() const {
    return ordered_clean && inversion_at_level && inversion_once &&
           climb_edge_free && misuse_intercepted && misuse_attributed &&
           scoped_rule_fired && scoped_rule_scoped;
  }
};

// Runs the matrix across the five configurations. Pins lockdep on and
// the response rules to the built-in tail alone (misuse=suppress,
// lockdep=log); the scoped gate installs its own rule set for its
// scope.
std::vector<HierReport> run_hier_matrix();

void print_hier_matrix(const std::vector<HierReport>& reports);

}  // namespace resilock::verify
