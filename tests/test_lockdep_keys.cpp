// Tests for lockdep class-key strategies (src/lockdep/class_key.hpp +
// the keyed Shield<L> constructor):
//   * N node-mutexes under one key consume ONE class id (the
//     data-structure-heavy workload no longer exhausts the table);
//   * an AB/BA inversion across DIFFERENT instances of two keyed
//     containers is reported — the cross-instance bug per-instance
//     classes can never see;
//   * per-instance default is preserved, keyed and unkeyed mix;
//   * same-key nesting records no self-edge and raises no report;
//   * shared-class entries survive the acquisition-stack staleness
//     purge (many owners per class must not look like stale hand-offs).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/mcs.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "lockdep/class_key.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "shield/shield.hpp"

using namespace resilock;
using lockdep::Graph;
using lockdep::LockClassKey;
using lockdep::LockdepEnabledGuard;

namespace {

lockdep::LockdepStats stats() { return Graph::instance().stats(); }

struct PinnedEnv {
  // Keyed scenarios must not depend on ambient policy configuration.
  response::ResponseRulesGuard rules{""};
  LockdepEnabledGuard lockdep_on{true};
};

}  // namespace

TEST(LockdepKeys, ThousandNodeMutexesShareOneClass) {
  PinnedEnv pin;
  LockClassKey key("list.node");
  const auto live_before = stats().classes_live;
  {
    std::vector<std::unique_ptr<Shield<TatasLock>>> nodes;
    nodes.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      nodes.push_back(std::make_unique<Shield<TatasLock>>(key));
    }
    // Classes register lazily on first acquire; touch every node.
    for (auto& n : nodes) {
      n->acquire();
      EXPECT_TRUE(n->release());
    }
    // 1000 instances, ONE class-table slot.
    EXPECT_EQ(stats().classes_live, live_before + 1);
    EXPECT_EQ(nodes.front()->lockdep_class(), key.id());
    EXPECT_EQ(nodes.back()->lockdep_class(), key.id());
    EXPECT_TRUE(Graph::instance().is_shared(key.id()));
    EXPECT_STREQ(Graph::instance().label_of(key.id()), "list.node");
  }
  // Shield destruction must NOT retire the key's class...
  EXPECT_EQ(stats().classes_live, live_before + 1);
  // ...retiring the key itself returns the slot.
  key.retire();
  EXPECT_EQ(stats().classes_live, live_before);
}

TEST(LockdepKeys, CrossInstanceInversionIsReported) {
  PinnedEnv pin;
  LockClassKey tree_key("tree.node");
  LockClassKey list_key("list.node");
  // Two containers' worth of instances; the inversion happens across
  // DIFFERENT instances of each container.
  Shield<McsLock> tree1(tree_key), tree2(tree_key);
  Shield<McsLock> list1(list_key), list2(list_key);
  McsLock::QNode t1, t2, l1, l2;

  const auto inversions_before = stats().inversions;
  tree1.acquire(t1);
  list1.acquire(l1);  // edge tree.node -> list.node
  EXPECT_TRUE(list1.release(l1));
  EXPECT_TRUE(tree1.release(t1));

  list2.acquire(l2);
  tree2.acquire(t2);  // edge list.node -> tree.node: AB/BA, flagged HERE
  EXPECT_EQ(stats().inversions, inversions_before + 1);
  EXPECT_TRUE(tree2.release(t2));
  EXPECT_TRUE(list2.release(l2));

  // First-occurrence semantics hold for shared classes too: replaying
  // the reversed order through yet other instances adds no report.
  list1.acquire(l1);
  tree1.acquire(t1);
  EXPECT_EQ(stats().inversions, inversions_before + 1);
  EXPECT_TRUE(tree1.release(t1));
  EXPECT_TRUE(list1.release(l1));

  tree_key.retire();
  list_key.retire();
}

TEST(LockdepKeys, PerInstanceDefaultPreservedAndMixes) {
  PinnedEnv pin;
  LockClassKey key("keyed");
  Shield<TicketLock> keyed_a(key), keyed_b(key);
  Shield<TicketLock> plain_a, plain_b;
  keyed_a.acquire();
  keyed_b.acquire();  // same key while keyed_a held: no self-edge
  plain_a.acquire();
  plain_b.acquire();
  EXPECT_TRUE(plain_b.release());
  EXPECT_TRUE(plain_a.release());
  EXPECT_TRUE(keyed_b.release());
  EXPECT_TRUE(keyed_a.release());

  EXPECT_EQ(keyed_a.lockdep_class(), keyed_b.lockdep_class());
  EXPECT_NE(plain_a.lockdep_class(), plain_b.lockdep_class());
  EXPECT_NE(plain_a.lockdep_class(), keyed_a.lockdep_class());
  EXPECT_FALSE(Graph::instance().is_shared(plain_a.lockdep_class()));
  key.retire();
}

TEST(LockdepKeys, SameKeyNestingAddsNoEdgeOrReport) {
  PinnedEnv pin;
  LockClassKey key("node");
  Shield<TatasLock> a(key), b(key);
  const auto edges_before = stats().edges;
  const auto reports_before = stats().reports();
  a.acquire();
  b.acquire();  // hand-over-hand within one container
  EXPECT_TRUE(b.release());
  EXPECT_TRUE(a.release());
  b.acquire();
  a.acquire();  // the reverse: still intra-class, still silent
  EXPECT_TRUE(a.release());
  EXPECT_TRUE(b.release());
  EXPECT_EQ(stats().edges, edges_before);
  EXPECT_EQ(stats().reports(), reports_before);
  key.retire();
}

TEST(LockdepKeys, SharedEntriesSurviveConcurrentOwnership) {
  // Two threads hold different instances of one keyed class at the
  // same time; each then nests an unkeyed lock. With per-instance
  // validation semantics the "other" owner would look stale and the
  // held entry would be purged; shared classes must keep it and record
  // the edge.
  PinnedEnv pin;
  LockClassKey key("node");
  Shield<TicketLock> node1(key), node2(key);
  Shield<TicketLock> inner1, inner2;
  std::atomic<bool> both{false};
  std::atomic<int> holding{0};
  auto run = [&](Shield<TicketLock>& node, Shield<TicketLock>& inner) {
    node.acquire();
    holding.fetch_add(1);
    while (!both.load()) std::this_thread::yield();
    inner.acquire();  // edge key-class -> inner's class, from BOTH threads
    EXPECT_TRUE(inner.release());
    EXPECT_TRUE(node.release());
  };
  std::thread t1([&] { run(node1, inner1); });
  std::thread t2([&] { run(node2, inner2); });
  while (holding.load() != 2) std::this_thread::yield();
  both.store(true);
  t1.join();
  t2.join();
  ASSERT_NE(key.id(), lockdep::kInvalidClass);
  EXPECT_TRUE(Graph::instance().has_edge(key.id(), inner1.lockdep_class()));
  EXPECT_TRUE(Graph::instance().has_edge(key.id(), inner2.lockdep_class()));
  key.retire();
}

TEST(LockdepKeys, ClassScopedRuleReachesKeyedShield) {
  // A keyed shield's misuse is attributed to the key's class, so an
  // @class= rule singles it out while other shields keep the tail.
  PinnedEnv pin;
  LockClassKey key("keys.scoped");
  Shield<TatasLockResilient> s(key);
  Shield<TatasLockResilient> other;
  s.acquire();
  EXPECT_TRUE(s.release());
  EXPECT_EQ(s.lockdep_class(), key.id());
  {
    response::ResponseRulesGuard rules(
        "misuse@class=keys.scoped=passthrough");
    EXPECT_FALSE(s.release());  // forwarded: the resilient base refuses
    EXPECT_EQ(s.snapshot().passed_through, 1u);
    EXPECT_FALSE(other.release());  // another class: the tail suppresses
    EXPECT_EQ(other.snapshot().suppressed, 1u);
  }
  key.retire();
}
