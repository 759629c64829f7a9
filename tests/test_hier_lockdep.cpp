// Direct coverage for the per-level lockdep attribution of the
// hierarchical locks (core/{hmcs,hclh,ahmcs}.hpp):
//   * a 3-level fanout tree puts one acquisition-stack entry per level
//     on the holder's stack, each tagged with the level's shared class;
//   * the AHMCS adaptive fast path joins mid-tree and must tag ONLY
//     from its entry level (the root), not the leaf it bypassed;
//   * concurrent same-level acquisitions across threads and leaves
//     share ONE class slot per level (the whole point of level keys:
//     a tree occupies `levels` slots, not `nodes` or `threads`);
//   * @class=-scoped response rules resolve a level label to a ClassId
//     at install time and fire only for that class;
//   * the HierMatrix gate runs the full verify matrix (CI runs this
//     filter as its own step, and the whole binary under TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/ahmcs.hpp"
#include "core/hclh.hpp"
#include "core/hmcs.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "runtime/thread_team.hpp"
#include "shield/policy.hpp"
#include "verify/hier_matrix.hpp"

using namespace resilock;

namespace {

std::atomic<std::uint64_t> g_trap_count{0};
void counting_trap(response::ResponseEvent, const void*) {
  g_trap_count.fetch_add(1, std::memory_order_relaxed);
}

// The calling thread's acquisition-stack classes (multiset — absorbed
// recursion aside, one entry per held level).
std::vector<lockdep::ClassId> my_stack_classes() {
  std::vector<lockdep::ClassId> out;
  const auto& st = lockdep::AcqStack::mine();
  for (const auto& e : st) out.push_back(e.cls);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// Per-level stack entries.
// ---------------------------------------------------------------------

TEST(HierLockdep, ThreeLevelHoldTagsEveryLevel) {
  lockdep::LockdepEnabledGuard lockdep_on(true);
  BasicHmcsLock<kResilient> tree(std::vector<std::uint32_t>{2, 2});
  ASSERT_EQ(tree.tracked_levels(), 3u);
  BasicHmcsLock<kResilient>::Context ctx;
  const std::size_t depth_before = lockdep::AcqStack::mine().depth();
  tree.acquire(ctx);
  const auto classes = my_stack_classes();
  EXPECT_EQ(classes.size(), depth_before + 3);
  // Every level class is registered and present on the stack exactly
  // once, in leaf→root acquisition order.
  for (std::uint32_t lvl = 0; lvl < 3; ++lvl) {
    const lockdep::ClassId cls = tree.level_class(lvl);
    ASSERT_TRUE(lockdep::class_tracked(cls)) << "level " << lvl;
    EXPECT_EQ(std::count(classes.begin(), classes.end(), cls), 1)
        << "level " << lvl;
  }
  EXPECT_STREQ(lockdep::Graph::instance().label_of(tree.level_class(0)),
               "hmcs.level0");
  EXPECT_STREQ(lockdep::Graph::instance().label_of(tree.level_class(2)),
               "hmcs.level2");
  EXPECT_TRUE(tree.release(ctx));
  EXPECT_EQ(lockdep::AcqStack::mine().depth(), depth_before);
}

TEST(HierLockdep, HclhHoldTagsBothLevels) {
  lockdep::LockdepEnabledGuard lockdep_on(true);
  BasicHclhLock<kResilient> lock(platform::Topology::uniform(2, 2));
  BasicHclhLock<kResilient>::Context ctx;
  const std::size_t depth_before = lockdep::AcqStack::mine().depth();
  lock.acquire(ctx);
  const auto classes = my_stack_classes();
  EXPECT_EQ(classes.size(), depth_before + 2);
  EXPECT_EQ(std::count(classes.begin(), classes.end(),
                       lock.level_class(0)),
            1);
  EXPECT_EQ(std::count(classes.begin(), classes.end(),
                       lock.level_class(1)),
            1);
  EXPECT_STREQ(lockdep::Graph::instance().label_of(lock.level_class(0)),
               "hclh.level0");
  EXPECT_TRUE(lock.release(ctx));
  EXPECT_EQ(lockdep::AcqStack::mine().depth(), depth_before);
}

// ---------------------------------------------------------------------
// AHMCS adaptive entry.
// ---------------------------------------------------------------------

TEST(HierLockdep, AhmcsAdaptiveEntryTagsOnlyFromEntryLevel) {
  lockdep::LockdepEnabledGuard lockdep_on(true);
  BasicAhmcsLock<kResilient> lock(std::vector<std::uint32_t>{2, 2});
  BasicAhmcsLock<kResilient>::Context ctx;
  const std::size_t depth_before = lockdep::AcqStack::mine().depth();

  // Leaf-path entry: all three levels held and tagged.
  lock.acquire(ctx);
  EXPECT_EQ(lockdep::AcqStack::mine().depth(), depth_before + 3);
  EXPECT_TRUE(lock.release(ctx));

  // Build the uncontended streak (the first acquisition above already
  // counted); the next acquire joins at the ROOT.
  for (int i = 0; i < 8; ++i) {
    lock.acquire(ctx);
    EXPECT_TRUE(lock.release(ctx));
  }
  lock.acquire(ctx);
  const auto classes = my_stack_classes();
  EXPECT_EQ(classes.size(), depth_before + 1)
      << "adaptive root entry must tag exactly one level";
  EXPECT_EQ(classes.back(), lock.level_class(0));
  EXPECT_STREQ(lockdep::Graph::instance().label_of(lock.level_class(0)),
               "ahmcs.level0");
  EXPECT_TRUE(lock.release(ctx));
  EXPECT_EQ(lockdep::AcqStack::mine().depth(), depth_before);
}

// ---------------------------------------------------------------------
// Class-slot economy under concurrency.
// ---------------------------------------------------------------------

TEST(HierLockdep, ConcurrentSameLevelAcquisitionsShareOneClassSlot) {
  lockdep::LockdepEnabledGuard lockdep_on(true);
  const auto before = lockdep::Graph::instance().stats();
  {
    // 3 levels, 9 leaves, 6 threads hammering concurrently: the racing
    // lazy registrations must still produce exactly three classes.
    BasicHmcsLock<kResilient> tree(std::vector<std::uint32_t>{3, 3});
    runtime::ThreadTeam::run(6, [&](std::uint32_t) {
      BasicHmcsLock<kResilient>::Context ctx;
      for (int i = 0; i < 200; ++i) {
        tree.acquire(ctx);
        EXPECT_TRUE(tree.release(ctx));
      }
    });
    const auto during = lockdep::Graph::instance().stats();
    EXPECT_EQ(during.classes_live, before.classes_live + 3);
    std::set<lockdep::ClassId> distinct;
    for (std::uint32_t lvl = 0; lvl < 3; ++lvl) {
      const lockdep::ClassId cls = tree.level_class(lvl);
      EXPECT_TRUE(lockdep::class_tracked(cls));
      EXPECT_TRUE(lockdep::Graph::instance().is_shared(cls));
      distinct.insert(cls);
    }
    EXPECT_EQ(distinct.size(), 3u);
  }
  // Destruction returns the level slots.
  EXPECT_EQ(lockdep::Graph::instance().stats().classes_live,
            before.classes_live);
}

// ---------------------------------------------------------------------
// @class= rule scoping (install-time ClassId resolution).
// ---------------------------------------------------------------------

TEST(HierLockdep, ClassScopedRuleResolvesAtInstallAndPinsOneTree) {
  lockdep::LockdepEnabledGuard lockdep_on(true);
  BasicHmcsLock<kResilient> tree(std::vector<std::uint32_t>{2});
  BasicHmcsLock<kResilient>::Context ctx;
  tree.acquire(ctx);
  EXPECT_TRUE(tree.release(ctx));  // registers hmcs.level0/1

  response::ResponseRulesGuard rules(
      "unbalanced-unlock@class=hmcs.level1=abort;*=suppress");
  const auto installed = response::ResponseEngine::instance().rules();
  ASSERT_EQ(installed.size(), 4u);  // two rules + the built-in tail
  ASSERT_EQ(installed[0].conds.size(), 1u);
  EXPECT_EQ(installed[0].conds[0].cond, response::Condition::kClassScope);
  EXPECT_EQ(installed[0].conds[0].cls_name, "hmcs.level1");
  // Install-time resolution pinned the live class id.
  EXPECT_EQ(installed[0].conds[0].cls, tree.level_class(1));

  response::ScopedAbortHandler trap(&counting_trap);
  const std::uint64_t before =
      g_trap_count.load(std::memory_order_relaxed);
  BasicHmcsLock<kResilient>::Context bogus;
  EXPECT_FALSE(tree.release(bogus));  // misuse at the scoped level
  EXPECT_EQ(g_trap_count.load(std::memory_order_relaxed), before + 1);

  // A SECOND tree shares the label but not the pinned id: its misuse
  // takes the suppress rule, not the scoped abort.
  BasicHmcsLock<kResilient> other(std::vector<std::uint32_t>{2});
  BasicHmcsLock<kResilient>::Context octx;
  other.acquire(octx);
  EXPECT_TRUE(other.release(octx));
  BasicHmcsLock<kResilient>::Context obogus;
  EXPECT_FALSE(other.release(obogus));
  EXPECT_EQ(g_trap_count.load(std::memory_order_relaxed), before + 1);
}

TEST(HierLockdep, ClassScopedRuleInstalledBeforeRegistrationMatchesByLabel) {
  lockdep::LockdepEnabledGuard lockdep_on(true);
  // Installed while no hclh class exists anywhere: stays unresolved,
  // matches by label once the class registers.
  response::ResponseRulesGuard rules(
      "unbalanced-unlock@class=hier.test.none=log;*=suppress");
  const auto installed = response::ResponseEngine::instance().rules();
  ASSERT_EQ(installed.size(), 4u);  // two rules + the built-in tail
  ASSERT_EQ(installed[0].conds.size(), 1u);
  EXPECT_EQ(installed[0].conds[0].cls, response::kNoClass);
  // Label matching against a context that names no class: no match.
  response::EventContext ectx;
  EXPECT_FALSE(installed[0].matches(
      response::ResponseEvent::kUnbalancedUnlock, ectx));
  ectx.cls_label = "hier.test.none";
  ectx.cls = 7;
  EXPECT_TRUE(installed[0].matches(
      response::ResponseEvent::kUnbalancedUnlock, ectx));
}

// ---------------------------------------------------------------------
// The verify matrix (CI runs this filter as a dedicated step).
// ---------------------------------------------------------------------

TEST(HierMatrix, AllGatesAcrossConfigurations) {
  const auto rows = verify::run_hier_matrix();
  verify::print_hier_matrix(rows);
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.ordered_clean) << r.config;
    EXPECT_TRUE(r.inversion_at_level) << r.config;
    EXPECT_TRUE(r.inversion_once) << r.config;
    EXPECT_TRUE(r.climb_edge_free) << r.config;
    EXPECT_TRUE(r.misuse_intercepted) << r.config;
    EXPECT_TRUE(r.misuse_attributed) << r.config;
    EXPECT_TRUE(r.scoped_rule_fired) << r.config;
    EXPECT_TRUE(r.scoped_rule_scoped) << r.config;
    EXPECT_TRUE(r.all_pass()) << r.config;
  }
}
