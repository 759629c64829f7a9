#include "verify/hier_matrix.hpp"

#include <atomic>
#include <cstdio>
#include <memory>

#include "core/ahmcs.hpp"
#include "core/hclh.hpp"
#include "core/hmcs.hpp"
#include "core/tas.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "platform/topology.hpp"
#include "response/response.hpp"
#include "shield/shield.hpp"
#include "verify/checkers.hpp"

namespace resilock::verify {
namespace {

using lockdep::EventKind;
using lockdep::Graph;
using lockdep::TraceBuffer;
using lockdep::TraceEvent;

std::uint64_t report_count() { return Graph::instance().stats().reports(); }

void clear_trace() { TraceBuffer::instance().drain_all(); }

// The @class= abort trap: counts would-be deaths instead of dying.
std::atomic<std::uint64_t> g_abort_count{0};
void counting_abort_trap(response::ResponseEvent, const void*) {
  g_abort_count.fetch_add(1, std::memory_order_relaxed);
}

bool label_is(lockdep::ClassId cls, const char* want) {
  const char* l = Graph::instance().label_of(cls);
  return l != nullptr && want != nullptr &&
         std::string_view(l) == want;
}

// Two trees, both nested A-then-B from two threads concurrently: no
// report, and the cross-tree edges that DO record never connect two
// levels of the same tree.
template <typename L, typename Make>
bool run_ordered(const Make& make) {
  auto a = make();
  auto b = make();
  using Ctx = typename L::Context;
  const std::uint64_t before = report_count();
  std::atomic<bool> go{false};
  auto worker = [&] {
    Ctx ca, cb;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 40; ++i) {
      a->acquire(ca);
      b->acquire(cb);
      b->release(cb);
      a->release(ca);
    }
  };
  Probe p1(worker);
  Probe p2(worker);
  go.store(true, std::memory_order_release);
  p1.join();
  p2.join();
  return report_count() == before;
}

// A-then-B, then B-then-A, then the reversed order replayed: the
// same-level cross-tree pair must be reported exactly once, attributed
// to the leaf level's label on both ends.
template <typename L, typename Make>
void run_inversion(const Make& make, std::uint32_t leaf_level,
                   const char* leaf_label, bool& at_level, bool& once) {
  auto a = make();
  auto b = make();
  using Ctx = typename L::Context;
  Ctx ca, cb;
  clear_trace();
  a->acquire(ca);
  b->acquire(cb);  // edges A.* -> B.*
  b->release(cb);
  a->release(ca);
  b->acquire(cb);
  a->acquire(ca);  // closes B.leaf -> A.leaf (and the cross-level pairs)
  a->release(ca);
  b->release(cb);
  b->acquire(cb);  // replay the reversed order: no new edge, no report
  a->acquire(ca);
  a->release(ca);
  b->release(cb);
  const lockdep::ClassId a_leaf = a->level_class(leaf_level);
  const lockdep::ClassId b_leaf = b->level_class(leaf_level);
  std::uint64_t leaf_pair_reports = 0;
  bool leaf_labels_right = false;
  for (const TraceEvent& e : TraceBuffer::instance().drain_all()) {
    if (e.kind != EventKind::kOrderInversion) continue;
    const bool same_level_pair =
        (e.a == b_leaf && e.b == a_leaf) ||
        (e.a == a_leaf && e.b == b_leaf);
    if (!same_level_pair) continue;
    ++leaf_pair_reports;
    // Attribution check: BOTH endpoints carry the level's label — the
    // report names "hmcs.level2 -> hmcs.level2", not raw pointers.
    leaf_labels_right =
        label_is(e.a, leaf_label) && label_is(e.b, leaf_label);
  }
  at_level = leaf_pair_reports >= 1 && leaf_labels_right;
  once = leaf_pair_reports == 1;
}

// One contended tree: after a multi-threaded storm, no order edge may
// connect any two of the tree's own level classes.
template <typename L, typename Make>
bool run_climb(const Make& make, std::uint32_t levels) {
  auto l = make();
  using Ctx = typename L::Context;
  const std::uint64_t before = report_count();
  std::atomic<bool> go{false};
  auto worker = [&] {
    Ctx c;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 60; ++i) {
      l->acquire(c);
      l->release(c);
    }
  };
  Probe p1(worker);
  Probe p2(worker);
  Probe p3(worker);
  go.store(true, std::memory_order_release);
  p1.join();
  p2.join();
  p3.join();
  const Graph& g = Graph::instance();
  for (std::uint32_t i = 0; i < levels; ++i) {
    for (std::uint32_t j = 0; j < levels; ++j) {
      if (i == j) continue;
      if (g.has_edge(l->level_class(i), l->level_class(j))) return false;
    }
  }
  return report_count() == before;
}

// Misused release at depth, injected from a second thread while the
// legitimate holder is inside the CS: must be refused BEFORE the
// parent hand-off (the holder's own release stays clean and the tree
// stays functional), and the trace event must name the entry level's
// class.
template <typename L, typename Make>
void run_misuse(const Make& make, std::uint32_t leaf_level,
                const char* leaf_label, bool& intercepted,
                bool& attributed) {
  auto l = make();
  using Ctx = typename L::Context;
  Ctx hold;
  clear_trace();
  l->acquire(hold);
  std::atomic<bool> refused{false};
  {
    Probe p([&] {
      Ctx bogus;  // never acquired: the §5 misused release at depth
      refused.store(!l->release(bogus), std::memory_order_release);
    });
    p.join();
  }
  // Intercepted before corruption: the holder's release is still
  // honored and a fresh episode round-trips.
  const bool holder_clean = l->release(hold);
  l->acquire(hold);
  const bool functional = l->release(hold);
  intercepted =
      refused.load(std::memory_order_acquire) && holder_clean && functional;
  attributed = false;
  for (const TraceEvent& e : TraceBuffer::instance().drain_all()) {
    if (e.kind == EventKind::kUnbalancedUnlock &&
        e.a == l->level_class(leaf_level) &&
        label_is(e.a, leaf_label)) {
      attributed = true;
    }
  }
}

// HCLH variant: the protocol is immune (paper Table 1) — the gate is
// that a bogus release is HARMLESS: the holder's grant, the global
// queue, and subsequent episodes are unaffected.
template <typename L, typename Make>
void run_misuse_immune(const Make& make, bool& intercepted,
                       bool& attributed) {
  auto l = make();
  using Ctx = typename L::Context;
  Ctx hold;
  l->acquire(hold);
  {
    Probe p([&] {
      Ctx bogus;
      l->release(bogus);  // immune: a store nobody observes
    });
    p.join();
  }
  const bool holder_clean = l->release(hold);
  l->acquire(hold);
  const bool functional = l->release(hold);
  intercepted = holder_clean && functional;
  attributed = true;  // nothing to attribute: no misuse is detectable
}

// AHMCS only: after the adaptive streak the context joins at the ROOT;
// a double release of that context must be attributed to level 0, not
// the leaf the fast path bypassed.
template <typename L, typename Make>
bool run_adaptive_attribution(const Make& make) {
  auto l = make();
  using Ctx = typename L::Context;
  Ctx c;
  // 8 uncontended leaf-path acquisitions build the streak; the 9th
  // enters at the root.
  for (int i = 0; i < 9; ++i) {
    l->acquire(c);
    l->release(c);
  }
  clear_trace();
  const bool refused = !l->release(c);  // double release, root-entry ctx
  bool tagged_root = false;
  for (const TraceEvent& e : TraceBuffer::instance().drain_all()) {
    if (e.kind == EventKind::kUnbalancedUnlock &&
        e.a == l->level_class(0)) {
      tagged_root = true;
    }
  }
  return refused && tagged_root;
}

// An "inversion@class=<leaf label>=abort" rule: fires (via the trap)
// for the same-level cross-tree inversion, and does NOT fire for an
// inversion among unrelated per-instance shield classes.
template <typename L, typename Make>
void run_scoped_rule(const Make& make, const char* leaf_label,
                     bool& fired, bool& scoped) {
  response::ResponseRulesGuard rules(std::string("inversion@class=") +
                                     leaf_label + "=abort;lockdep=log");
  response::ScopedAbortHandler trap(&counting_abort_trap);
  using Ctx = typename L::Context;
  {
    auto a = make();
    auto b = make();
    Ctx ca, cb;
    const std::uint64_t before =
        g_abort_count.load(std::memory_order_relaxed);
    a->acquire(ca);
    b->acquire(cb);
    b->release(cb);
    a->release(ca);
    b->acquire(cb);
    a->acquire(ca);  // closes the leaf-level pair: the scope matches
    a->release(ca);
    b->release(cb);
    fired = g_abort_count.load(std::memory_order_relaxed) > before;
  }
  {
    // Negative control: an AB/BA among two per-instance (unlabeled)
    // shield classes reports through the lockdep=log rule, never the
    // scoped abort.
    Shield<TasLock> x, y;
    const std::uint64_t before =
        g_abort_count.load(std::memory_order_relaxed);
    const std::uint64_t reports_before = report_count();
    x.acquire();
    y.acquire();
    y.release();
    x.release();
    y.acquire();
    x.acquire();
    x.release();
    y.release();
    scoped = g_abort_count.load(std::memory_order_relaxed) == before &&
             report_count() > reports_before;
  }
}

template <typename L, typename Make>
HierReport run_config(const char* name, const Make& make,
                      std::uint32_t levels, const char* leaf_label,
                      bool detects_misuse, bool adaptive) {
  HierReport r;
  r.config = name;
  const std::uint32_t leaf = levels - 1;
  r.ordered_clean = run_ordered<L>(make);
  run_inversion<L>(make, leaf, leaf_label, r.inversion_at_level,
                   r.inversion_once);
  r.climb_edge_free = run_climb<L>(make, levels);
  if (detects_misuse) {
    run_misuse<L>(make, leaf, leaf_label, r.misuse_intercepted,
                  r.misuse_attributed);
    if (adaptive) {
      r.misuse_attributed =
          r.misuse_attributed && run_adaptive_attribution<L>(make);
    }
  } else {
    run_misuse_immune<L>(make, r.misuse_intercepted, r.misuse_attributed);
  }
  run_scoped_rule<L>(make, leaf_label, r.scoped_rule_fired,
                     r.scoped_rule_scoped);
  return r;
}

}  // namespace

std::vector<HierReport> run_hier_matrix() {
  // Pin every policy surface so results do not depend on the
  // environment; the scoped-rule gate installs its own rule set.
  response::ResponseRulesGuard rules("");
  lockdep::LockdepEnabledGuard lockdep_on(true);

  using Hmcs = BasicHmcsLock<kResilient>;
  using Hclh = BasicHclhLock<kResilient>;
  using Ahmcs = BasicAhmcsLock<kResilient>;
  const std::vector<std::uint32_t> two{2};
  const std::vector<std::uint32_t> three{2, 2};

  std::vector<HierReport> out;
  out.push_back(run_config<Hmcs>(
      "HMCS-2lvl", [&] { return std::make_unique<Hmcs>(two); }, 2,
      "hmcs.level1", true, false));
  out.push_back(run_config<Hmcs>(
      "HMCS-3lvl", [&] { return std::make_unique<Hmcs>(three); }, 3,
      "hmcs.level2", true, false));
  out.push_back(run_config<Hclh>(
      "HCLH-2lvl",
      [&] {
        return std::make_unique<Hclh>(platform::Topology::uniform(2, 2));
      },
      2, "hclh.level1", false, false));
  out.push_back(run_config<Ahmcs>(
      "AHMCS-2lvl", [&] { return std::make_unique<Ahmcs>(two); }, 2,
      "ahmcs.level1", true, true));
  out.push_back(run_config<Ahmcs>(
      "AHMCS-3lvl", [&] { return std::make_unique<Ahmcs>(three); }, 3,
      "ahmcs.level2", true, true));
  return out;
}

void print_hier_matrix(const std::vector<HierReport>& reports) {
  std::printf("%-12s %8s %9s %5s %6s %7s %8s %6s %7s\n", "Config",
              "ordered", "inv@lvl", "once", "climb", "misuse", "attrib",
              "rule", "scoped");
  for (const auto& r : reports) {
    std::printf("%-12s %8s %9s %5s %6s %7s %8s %6s %7s\n",
                r.config.c_str(), r.ordered_clean ? "clean" : "NOISY",
                r.inversion_at_level ? "yes" : "MISSED",
                r.inversion_once ? "yes" : "SPAM",
                r.climb_edge_free ? "free" : "EDGED",
                r.misuse_intercepted ? "yes" : "NO",
                r.misuse_attributed ? "yes" : "NO",
                r.scoped_rule_fired ? "fires" : "DEAD",
                r.scoped_rule_scoped ? "yes" : "LEAKY");
  }
}

}  // namespace resilock::verify
