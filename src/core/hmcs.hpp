// HMCS: hierarchical MCS lock (Chabbi, Fagan & Mellor-Crummey, PPoPP'15).
// Paper §3.8.1.
//
// A tree of MCS-style locks mirrors the machine's memory hierarchy (one
// leaf per NUMA domain here, one root). A thread competes at its leaf; a
// leaf queue head competes at the parent with the leaf's embedded qnode.
// The holder's release passes the lock within its leaf cohort up to
// `threshold` consecutive times (the qnode status doubles as the passing
// count); after that — or when no cohort successor exists — it releases
// the parent level first and grants its leaf successor kAcquireParent,
// telling it to go compete at the parent itself.
//
// Unbalanced-unlock behavior (original): all of MCS's §3.4 issues, at
// every level — a misused release walks up the tree and can release the
// parent-level lock out from under the legitimate cohort leader (mutex
// violation), and the misbehaving thread ends up spinning for a successor
// that never links itself (Tm starvation).
//
// Resilient fix (paper §3.8.1): only the leaf needs the MCS remedy,
// because every release starts at the leaf: mark the context "acquired"
// when the acquisition protocol completes, check and clear it in
// release(). The AHMCS refinement keeps per-thread qnodes too, so the
// same remedy applies (§3.8.1).
//
// Parking (src/park/): only the ENTRY level parks — a thread that
// loses the bounded spin at its leaf flips its qnode's 32-bit `park`
// word and futex_waits on it; the granter publishes `status` first,
// then (behind a seq_cst Dekker fence) wakes any parked successor.
// Internal climbs (a level's embedded qnode competing at the parent)
// stay pure spins: the queue head holds a whole level hostage, and a
// descheduled head is exactly the pathology the leaf-level parking
// already bounds. The tree carries one ParkBay so a refused misuse
// can broadcast-rescue parked leaf waiters.
//
// Lockdep attribution: every tree owns one shared LockClassKey per
// LEVEL ("hmcs.level0" = root downwards; the nodes of a level share the
// level's class slot), registered lazily on first tracked acquire. The
// acquisition protocol emits on_acquire_attempt/on_acquired at each
// level transition — including the implicit grants, where a cohort
// hand-off or passing count hands a thread every ancestor level without
// a blocking attempt — so app code acquiring other locks while an HMCS
// tree is held gets its order edges attributed to the level, and a
// same-level AB/BA across two trees is reported against "hmcs.levelK",
// not an anonymous pointer. The internal child→parent climb is
// edge-free: every attempt passes the tree's own level classes as the
// skip set (the arbitrary-depth generalization of cohort's skip_src),
// because the climb order is the protocol's invariant, not an
// app-level fact. A refused misused release is likewise attributed to
// the entry-level class and routed through the response engine, which
// is what lets @class=-scoped rules target the level where the damage
// would have happened.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/resilience.hpp"
#include "core/verify_access.hpp"
#include "lockdep/class_key.hpp"
#include "lockdep/event_ring.hpp"
#include "park/parking_lot.hpp"
#include "platform/cacheline.hpp"
#include "platform/spin.hpp"
#include "platform/thread_registry.hpp"
#include "platform/topology.hpp"
#include "response/response.hpp"
#include "runtime/timer.hpp"

namespace resilock {

template <Resilience R>
class BasicAhmcsLock;

// Per-level class labels, root first. Trees deeper than the table share
// the last slot's key (one class for "level 7 and below" — far beyond
// any real memory hierarchy).
inline constexpr const char* kHmcsLevelLabels[] = {
    "hmcs.level0", "hmcs.level1", "hmcs.level2", "hmcs.level3",
    "hmcs.level4", "hmcs.level5", "hmcs.level6", "hmcs.level7"};
// The AHMCS refinement drives the same tree but is its own protocol
// family for attribution purposes (reports and @class= scopes should
// name what the application instantiated).
inline constexpr const char* kAhmcsLevelLabels[] = {
    "ahmcs.level0", "ahmcs.level1", "ahmcs.level2", "ahmcs.level3",
    "ahmcs.level4", "ahmcs.level5", "ahmcs.level6", "ahmcs.level7"};

template <Resilience R>
class BasicHmcsLock {
 public:
  // Grant-status protocol values (Chabbi et al. 2015).
  static constexpr std::uint64_t kWait = ~std::uint64_t{0};
  static constexpr std::uint64_t kAcquireParent = ~std::uint64_t{0} - 1;
  static constexpr std::uint64_t kCohortStart = 1;

  struct alignas(platform::kCacheLineSize) QNode {
    std::atomic<QNode*> next{nullptr};
    std::atomic<std::uint64_t> status{0};
    // Parking word (status is 64-bit, unfutexable): kWordParked while
    // the owner sleeps in futex_wait, kWordGranted otherwise.
    std::atomic<std::uint32_t> park{park::kWordGranted};
  };

  class Context {
   public:
    Context() = default;
    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

   private:
    friend class BasicHmcsLock;
    friend struct VerifyAccess;
    QNode node_;
    bool acquired_ = false;  // the resilient "I.locked" marker
  };

  // Trees deeper than this fold their tail levels into one shared
  // class (matches the label tables above).
  static constexpr std::uint32_t kMaxTrackedLevels = 8;
  static_assert(sizeof(kHmcsLevelLabels) / sizeof(const char*) ==
                    kMaxTrackedLevels &&
                sizeof(kAhmcsLevelLabels) / sizeof(const char*) ==
                    kMaxTrackedLevels);

  // Two-level tree mirroring the topology: one leaf per NUMA domain
  // under a single root (the paper's evaluation shape).
  explicit BasicHmcsLock(
      const platform::Topology& topo = platform::Topology::host_default(),
      std::uint64_t passing_threshold = 64)
      : topo_(topo), map_by_domain_(true) {
    HNode* root = new_node(nullptr, passing_threshold);
    for (std::uint32_t d = 0; d < topo.num_domains(); ++d) {
      leaves_.push_back(new_node(root, passing_threshold));
    }
    init_level_keys(2);
  }

  // Arbitrary-depth tree: `fanouts` gives the child count per level from
  // the root down (e.g. {2, 3} = root -> 2 mid nodes -> 6 leaves),
  // modeling deeper memory hierarchies (socket / die / core cluster).
  // Threads map to leaves by pid modulo leaf count.
  explicit BasicHmcsLock(const std::vector<std::uint32_t>& fanouts,
                         std::uint64_t passing_threshold = 64)
      : topo_(platform::Topology::uniform(1, 1)), map_by_domain_(false) {
    std::vector<HNode*> frontier = {new_node(nullptr, passing_threshold)};
    for (const std::uint32_t fanout : fanouts) {
      std::vector<HNode*> next;
      next.reserve(frontier.size() * (fanout ? fanout : 1));
      for (HNode* parent : frontier) {
        for (std::uint32_t c = 0; c < (fanout ? fanout : 1); ++c) {
          next.push_back(new_node(parent, passing_threshold));
        }
      }
      frontier = std::move(next);
    }
    leaves_ = std::move(frontier);  // deepest level (== root if empty)
    init_level_keys(static_cast<std::uint32_t>(fanouts.size()) + 1);
  }

  BasicHmcsLock(const BasicHmcsLock&) = delete;
  BasicHmcsLock& operator=(const BasicHmcsLock&) = delete;

  ~BasicHmcsLock() {
    // The level keys are owned by the tree (unlike static app-declared
    // keys); destruction returns their shared class slots.
    for (std::uint32_t i = 0; i < tracked_levels_; ++i) {
      level_keys_[i].retire();
    }
  }

  void acquire(Context& ctx) {
    acquire_at(leaf_of_self(), &ctx.node_, /*can_park=*/true);
    if constexpr (R == kResilient) ctx.acquired_ = true;
  }

  // Shield rescue hook; see BasicMcsLock::misuse_wake. Also invoked
  // internally when the bespoke resilient check refuses a release.
  void misuse_wake() noexcept { bay_.misuse_wake(); }

  std::uint32_t parked_waiters() const noexcept {
    return bay_.parked_count();
  }

  bool release(Context& ctx) {
    HNode* const leaf = leaf_of_self();
    if constexpr (R == kResilient) {
      if (misuse_checks_enabled() && !ctx.acquired_) {
        // Intercepted BEFORE release_at can walk up and free a parent
        // level out from under the legitimate cohort leader — and
        // attributed to the entry level's class, so per-class response
        // rules can target misuse at this depth. A passthrough verdict
        // falls through and corrupts faithfully, like the original.
        if (misuse_refused(leaf)) return false;
      }
      ctx.acquired_ = false;
    }
    pop_level_entries(leaf);
    release_at(leaf, &ctx.node_);
    return true;
  }

  std::uint32_t num_leaves() const {
    return static_cast<std::uint32_t>(leaves_.size());
  }

  // Tree depth in levels (root == level 0); capped at
  // kMaxTrackedLevels for class-key purposes.
  std::uint32_t tracked_levels() const { return tracked_levels_; }

  // The shared lockdep class of one tree level; kInvalidClass before
  // the level's first tracked acquisition. Verify/test surface.
  lockdep::ClassId level_class(std::uint32_t level) const {
    return level_keys_[key_index(level)].id();
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;
  template <Resilience>
  friend class BasicAhmcsLock;  // adaptive entry at chosen levels

  struct alignas(platform::kCacheLineSize) HNode {
    std::atomic<QNode*> tail{nullptr};
    QNode node;  // used by this level's queue head to compete at parent
    HNode* parent{nullptr};
    std::uint64_t threshold{64};
    std::uint32_t level{0};  // root == 0, leaves deepest
  };

  HNode* new_node(HNode* parent, std::uint64_t threshold) {
    nodes_.push_back(std::make_unique<HNode>());
    HNode* n = nodes_.back().get();
    n->parent = parent;
    n->threshold = threshold;
    n->level = parent != nullptr ? parent->level + 1 : 0;
    return n;
  }

  void init_level_keys(std::uint32_t depth) {
    tracked_levels_ = std::min(depth, kMaxTrackedLevels);
    level_keys_ =
        std::make_unique<lockdep::LockClassKey[]>(tracked_levels_);
  }

  std::uint32_t key_index(std::uint32_t level) const {
    return std::min(level, tracked_levels_ - 1);
  }

  // The level's shared class, registering it (under the family's label)
  // on first use.
  lockdep::ClassId ensure_level_class(const HNode* n) {
    const std::uint32_t i = key_index(n->level);
    return level_keys_[i].ensure(level_labels_[i]);
  }

  // Already-registered level classes of THIS tree — the skip set that
  // keeps the internal child→parent climb edge-free.
  std::size_t own_level_classes(lockdep::ClassId* out) const {
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < tracked_levels_; ++i) {
      const lockdep::ClassId id = level_keys_[i].id();
      if (lockdep::class_tracked(id)) out[n++] = id;
    }
    return n;
  }

  // Order edges from app-held locks to this level, with the tree's own
  // levels excluded (the climb is the protocol's invariant).
  void hier_attempt(HNode* level) {
    // Single-lock hot path: an empty acquisition stack records no
    // edges, so skip the class ensure and the skip-set scan entirely
    // (the on_acquired that follows registers the class regardless).
    // Mirrors RwShield::lockdep_attempt.
    if (lockdep::AcqStack::mine().depth() == 0) return;
    const lockdep::ClassId cls = ensure_level_class(level);
    lockdep::ClassId skip[kMaxTrackedLevels];
    const std::size_t n = own_level_classes(skip);
    lockdep::on_acquire_attempt(level, cls, 0, false,
                                AccessMode::kExclusive, skip, n);
  }

  // The caller ceases to hold EVERY level on its path whether the
  // release passes within the cohort or walks up — the successor
  // inherits the ancestors either way (not gated on lockdep_enabled():
  // entries pushed while tracking was on must come off regardless).
  void pop_level_entries(HNode* from) {
    for (HNode* n = from; n != nullptr; n = n->parent) {
      lockdep::on_released(n);
    }
  }

  // A refused release, attributed to `entry`'s level class and routed
  // through the response engine like every other misuse: the tail's
  // "misuse=suppress" is the bespoke remedy's native behavior, and the
  // RESILOCK_SHIELD_POLICY alias governs it too. Returns false only for
  // a passthrough verdict, telling the caller to corrupt faithfully.
  bool misuse_refused(HNode* entry) {
    response::EventContext rctx;
    lockdep::ClassId cls = lockdep::kInvalidClass;
    if (lockdep::lockdep_enabled()) {
      cls = ensure_level_class(entry);
      rctx.cls = cls;
      rctx.cls_label = lockdep::Graph::instance().label_of(cls);
      rctx.in_flagged_cycle = lockdep::Graph::instance().is_flagged(cls);
    }
    const auto ev = response::ResponseEvent::kUnbalancedUnlock;
    rctx.waiters_parked = bay_.parked_count();
    const response::Action action =
        response::ResponseEngine::instance().decide(ev, rctx);
    lockdep::TraceBuffer::instance().emit(
        lockdep::EventKind::kUnbalancedUnlock, entry, cls,
        lockdep::kNoClassTag, static_cast<std::uint8_t>(action));
    if (action == response::Action::kAbort ||
        action == response::Action::kLog) {
      std::fprintf(stderr,
                   "resilock[hmcs]: unbalanced release refused by "
                   "thread pid %u at %s (node %p)\n",
                   static_cast<unsigned>(platform::self_pid()),
                   rctx.cls_label != nullptr ? rctx.cls_label : "?",
                   static_cast<void*>(entry));
    }
    if (action == response::Action::kAbort) {
      response::dispatch_abort(ev, entry);
      misuse_wake();
      return true;  // an abort trap survived: refuse
    }
    if (action != response::Action::kPassthrough) {
      // The bogus release was absorbed: the real owner still holds the
      // lock, but a parked leaf waiter may be sleeping on a hand-off
      // the misbehaving thread was never going to deliver. Broadcast;
      // the woken waiters re-check status and re-park or proceed.
      misuse_wake();
      return true;
    }
    return false;
  }

  HNode* leaf_of_self() const {
    const platform::pid_t pid = platform::self_pid();
    return map_by_domain_
               ? leaves_[topo_.domain_of(pid)]
               : leaves_[pid % leaves_.size()];
  }

  // Returns true iff the acquisition was uncontended at this level and
  // every ancestor (the signal the adaptive AHMCS refinement feeds on).
  // can_park is true only for the entry level's thread-owned qnode;
  // internal climbs never park (see the file comment).
  bool acquire_at(HNode* level, QNode* I, bool can_park = false) {
    const bool dep = lockdep::lockdep_enabled();
    // The attempt hook runs BEFORE the exchange can block, so an
    // imminent cross-tree inversion is flagged (or aborted) while the
    // thread can still back out; the tree's own classes are skipped.
    if (dep) hier_attempt(level);
    I->next.store(nullptr, std::memory_order_relaxed);
    I->status.store(kWait, std::memory_order_relaxed);
    QNode* const pred = level->tail.exchange(I, std::memory_order_acq_rel);
    if (pred == nullptr) {
      // Head of this level's queue: compete at the parent (or, at the
      // root, the lock is ours).
      I->status.store(kCohortStart, std::memory_order_relaxed);
      if (dep) lockdep::on_acquired(level, ensure_level_class(level));
      if (level->parent != nullptr) {
        return acquire_at(level->parent, &level->node);
      }
      return true;
    }
    pred->next.store(I, std::memory_order_release);
    const std::uint64_t st = wait_status(I, can_park);
    if (st == kAcquireParent) {
      // Predecessor exhausted the cohort-passing budget: we own this
      // level but must compete at the parent ourselves.
      if (dep) lockdep::on_acquired(level, ensure_level_class(level));
      I->status.store(kCohortStart, std::memory_order_relaxed);
      acquire_at(level->parent, &level->node);
    } else if (dep) {
      // st is a passing count — this level AND every ancestor were
      // handed to us implicitly. Inherited, not attempted: the holds
      // enter the acquisition stack with no blocking attempt and hence
      // no edges, mirroring the cohort combinator's top_granted path.
      for (HNode* n = level; n != nullptr; n = n->parent) {
        lockdep::on_acquired(n, ensure_level_class(n));
      }
    }
    return false;  // we waited: contended
  }

  void release_at(HNode* level, QNode* I) {
    if (level->parent == nullptr) {
      // Root: plain MCS release; the grant value just has to differ from
      // kWait and kAcquireParent.
      release_mcs_style(level, I, kCohortStart);
      return;
    }
    const std::uint64_t cur = I->status.load(std::memory_order_relaxed);
    if (cur < level->threshold) {
      QNode* const succ = I->next.load(std::memory_order_acquire);
      if (succ != nullptr) {
        // Pass within the cohort; the successor inherits all ancestors.
        grant_status(succ, cur + 1);
        return;
      }
    }
    // Threshold reached or no cohort successor: give the ancestors back,
    // then tell any successor at this level to re-compete upward.
    release_at(level->parent, &level->node);
    release_mcs_style(level, I, kAcquireParent);
  }

  void release_mcs_style(HNode* level, QNode* I, std::uint64_t grant) {
    QNode* succ = I->next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      QNode* expected = I;
      if (level->tail.compare_exchange_strong(expected, nullptr,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
        return;
      }
      platform::SpinWait w;
      while ((succ = I->next.load(std::memory_order_acquire)) == nullptr)
        w.pause();
    }
    grant_status(succ, grant);
  }

  // Spin-then-park on a qnode's 64-bit status, using the adjacent
  // 32-bit park word as the futex. Dekker with grant_status: the
  // waiter writes park then reads status; the granter writes status
  // then reads park, seq_cst fences between each side's write and
  // read, so a sleeping waiter is always either granted-before-sleep
  // or seen-and-woken.
  std::uint64_t wait_status(QNode* I, bool can_park) {
    platform::SpinWait w;
    std::uint64_t st;
    const std::uint32_t budget = park::park_spins();
    for (std::uint32_t i = 0; i < budget; ++i) {
      if ((st = I->status.load(std::memory_order_acquire)) != kWait)
        return st;
      w.pause();
    }
    int slot = -1;
    if (can_park && park::parking_enabled()) {
      slot = bay_.register_parker(&I->park);
    }
    if (slot < 0) {
      while ((st = I->status.load(std::memory_order_acquire)) == kWait)
        w.pause();
      return st;
    }
    park::ParkStats& g = park::ParkStats::instance();
    park::ThreadParkTally& tally = park::ThreadParkTally::mine();
    for (;;) {
      I->park.store(park::kWordParked, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if ((st = I->status.load(std::memory_order_acquire)) != kWait)
        break;
      const std::uint64_t t0 = runtime::now_ns();
      bay_.note_parked();
      g.currently_parked.fetch_add(1, std::memory_order_relaxed);
      const park::WaitResult r =
          park::futex_wait(&I->park, park::kWordParked, nullptr);
      g.currently_parked.fetch_sub(1, std::memory_order_relaxed);
      bay_.note_unparked();
      const bool slept = r != park::WaitResult::kValueChanged;
      if (slept) {
        tally.parks += 1;
        tally.park_ns += runtime::now_ns() - t0;
        g.parks.fetch_add(1, std::memory_order_relaxed);
      }
      if ((st = I->status.load(std::memory_order_acquire)) != kWait) {
        if (slept) {
          tally.wakes += 1;
          g.wakes.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      g.wakes_spurious.fetch_add(1, std::memory_order_relaxed);
    }
    I->park.store(park::kWordGranted, std::memory_order_relaxed);
    bay_.unregister_parker(slot);
    return st;
  }

  // Granter half of the Dekker pairing in wait_status. The park word
  // is CHANGED (not just woken): a wake alone can land between the
  // waiter's status check and its futex_wait and be lost, but the
  // store makes that late futex_wait refuse to sleep (EAGAIN).
  static void grant_status(QNode* succ, std::uint64_t grant) {
    succ->status.store(grant, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (succ->park.load(std::memory_order_relaxed) == park::kWordParked) {
      succ->park.store(park::kWordGranted, std::memory_order_relaxed);
      park::futex_wake_all(&succ->park);
    }
  }

  platform::Topology topo_;  // by value: 8 bytes, no lifetime coupling
  const bool map_by_domain_;
  std::vector<std::unique_ptr<HNode>> nodes_;  // whole tree, root first
  std::vector<HNode*> leaves_;
  // One shared lockdep class per level (root first); the AHMCS wrapper
  // re-labels the family before first use (it is a friend).
  std::uint32_t tracked_levels_ = 1;
  std::unique_ptr<lockdep::LockClassKey[]> level_keys_;
  const char* const* level_labels_ = kHmcsLevelLabels;
  park::ParkBay bay_;  // rescue registry for parked leaf waiters
};

using HmcsLock = BasicHmcsLock<kOriginal>;
using HmcsLockResilient = BasicHmcsLock<kResilient>;

}  // namespace resilock
