// Shield<L>: a lock-agnostic ownership shield around any lock in src/core.
//
// The paper's remedies live *inside* each protocol (one bespoke
// kResilient fix per lock). The shield is the complementary design the
// paper contrasts them with: a generic ownership-tracking layer in front
// of the protocol — glibc's shield_arr approach from the Lock-Bench
// companion repo — that stops unbalanced unlock(), double unlock,
// unlock-by-non-owner, and (non-reentrant) relock *before they reach the
// protocol*. Because the base protocol never observes the misuse, even a
// kOriginal lock behind a shield keeps mutual exclusion and liveness
// under misuse, at the cost of one thread-local table probe per
// operation (bench/shield_overhead.cpp quantifies it against the native
// in-protocol checks).
//
// Interception map (the response engine decides the consequence,
// src/response/response.hpp):
//   acquire while already holding  -> kReentrantRelock
//       suppress: absorbed as a recursion-depth bump (the §3.9 reentrant
//       remedy), so the matching release is absorbed too.
//   release while not holding      -> classified by the shield's owner
//       tag: another thread holds it  -> kNonOwnerUnlock
//             nobody holds, caller was the previous owner
//                                     -> kDoubleUnlock
//             otherwise               -> kUnbalancedUnlock
//
// The §5 escape hatch is honored: with misuse_checks_enabled() == false
// (RESILOCK_DISABLE_CHECK=1) the shield forwards everything verbatim, so
// hand-off designs where one thread acquires and another releases work
// exactly as they do on the unshielded lock.
//
// Shield<L> satisfies the same Lockable shape as L (PlainLock stays
// plain, ContextLock keeps its Context), so it composes with LockGuard,
// StatsLock, AnyLockAdapter, and the registry.
//
// The shield is also the feeding point of the lockdep subsystem
// (src/lockdep/): every blocking acquire attempt records held-while-
// acquiring order edges (flagging AB/BA inversions and deadlock cycles
// before they can wedge; RESILOCK_LOCKDEP=off disengages it), and every
// caught misuse is emitted as a timestamped trace event.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <type_traits>
#include <utility>

#include "core/contention.hpp"
#include "core/generic.hpp"
#include "core/lock_concepts.hpp"
#include "core/resilience.hpp"
#include "lockdep/class_key.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "park/parking_lot.hpp"
#include "platform/thread_registry.hpp"
#include "runtime/timer.hpp"
#include "response/response.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/policy.hpp"
#include "shield/shield_stats.hpp"

namespace resilock::shield {

// The engine's tag space mirrors MisuseKind; keep them in lock step.
static_assert(static_cast<int>(response::ResponseEvent::kUnbalancedUnlock) ==
              static_cast<int>(MisuseKind::kUnbalancedUnlock));
static_assert(static_cast<int>(response::ResponseEvent::kReentrantRelock) ==
              static_cast<int>(MisuseKind::kReentrantRelock));

template <typename Base>
class Shield {
  static constexpr std::uint32_t kNoOwner = 0;

 public:
  using Context = context_of_t<Base>;

  Shield() = default;

  // Keyed construction (lockdep/class_key.hpp): every shield built
  // against `key` shares one lockdep class — container-level order
  // tracking with one class-table slot. Unkeyed shields keep the
  // per-instance default.
  template <typename... Args>
  explicit Shield(lockdep::LockClassKey& key, Args&&... args)
      : base_(std::forward<Args>(args)...), lockdep_key_(&key) {}

  // Perfect forwarding to the base (topology-aware locks take their
  // Topology through here).
  template <typename First, typename... Rest,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<First>,
                                lockdep::LockClassKey> &&
                !std::is_same_v<std::decay_t<First>, Shield>>>
  explicit Shield(First&& first, Rest&&... rest)
      : base_(std::forward<First>(first), std::forward<Rest>(rest)...) {}

  Shield(const Shield&) = delete;
  Shield& operator=(const Shield&) = delete;

  ~Shield() {
    // A keyed class belongs to the key (other instances may still use
    // it); only per-instance classes retire with their shield.
    if (lockdep_key_ == nullptr) {
      lockdep::Graph::instance().retire_class(
          lockdep_class_.load(std::memory_order_relaxed));
    }
  }

  void acquire(Context& ctx) {
    // Lockstat call-site capture must happen HERE, in the body the
    // application called into, so the return address points at
    // application code (a noinline helper would collapse every site
    // into the shield). One relaxed flag load when lockstat is off.
    const bool lockstat = observe::lockstat_enabled();
    const void* site =
        lockstat ? observe::current_site(RESILOCK_RETURN_ADDRESS()) : nullptr;
    if (HeldLockTable::mine().holds(this) && confirm_held_or_heal() &&
        misuse_checks_enabled()) {
      if (intercept_relock()) return;  // absorbed as a depth bump
    }
    // Order edges are recorded at the ATTEMPT, before the base can
    // block: an acquisition about to close an AB/BA cycle is flagged
    // (or aborted) before it can actually wedge. The contention signal
    // rides along so a cycle-with-waiters escalation rule can fire —
    // "held by another thread" counts as contended even with an empty
    // waiter queue, because that is exactly the canonical two-thread
    // wedge shape (the other holder is parked on a DIFFERENT lock and
    // registers on that lock's gauge, not this one's).
    const std::uint32_t holder = owner_.load(std::memory_order_relaxed);
    const bool owned_by_other =
        holder != kNoOwner && holder != platform::self_pid() + 1;
    if (lockdep::lockdep_enabled()) {
      lockdep::on_acquire_attempt(this, lockdep_ensure_class(),
                                  contention_.waiters(), owned_by_other,
                                  AccessMode::kExclusive);
    }
    // Contention telemetry: one relaxed load on the uncontended path;
    // threads that observed the lock held register as live waiters for
    // the duration of the blocking acquire.
    const bool contended = holder != kNoOwner;
    // Telemetry wait spans (opt-in): bracket only the CONTENDED window
    // — an uncontended acquire costs one relaxed flag load and emits
    // nothing, keeping the default fast path identical to before.
    const bool span = contended && lockdep::span_tracing_enabled();
    const std::uint64_t wait_t0 =
        (lockstat && contended) ? runtime::now_ns() : 0;
    if (span) emit_span(lockdep::EventKind::kWaitBegin, site);
    if (contended) contention_.begin_wait();
    // Park attribution: the park layer sits below observe/ and cannot
    // name lockdep classes, so the class hint is stamped into the
    // thread's park tally for the duration of the contended acquire
    // (it rides on kParkBegin spans) and the tally delta is credited
    // to this class afterwards. Uncontended acquires skip all of it.
    park::ThreadParkTally& pt = park::ThreadParkTally::mine();
    const bool tally_parks = contended && (lockstat || span);
    std::uint64_t parks0 = 0, park_ns0 = 0, wakes0 = 0;
    std::uint32_t prev_hint = park::kNoClsHint;
    if (tally_parks) {
      parks0 = pt.parks;
      park_ns0 = pt.park_ns;
      wakes0 = pt.wakes;
      prev_hint = pt.cls_hint;
      pt.cls_hint = lockdep_ensure_class();
    }
    generic_acquire(base_, ctx);
    if (tally_parks) {
      pt.cls_hint = prev_hint;
      if (lockstat && pt.parks != parks0) {
        observe::on_parked(lockdep_ensure_class(), pt.parks - parks0,
                           pt.park_ns - park_ns0, pt.wakes - wakes0);
      }
    }
    if (contended) contention_.end_wait();
    if (span) emit_span(lockdep::EventKind::kWaitEnd, site);
    if (lockstat && contended) {
      observe::on_contended_wait(lockdep_ensure_class(),
                                 runtime::now_ns() - wait_t0);
    }
    note_base_acquired(ctx, site);
  }

  bool try_acquire(Context& ctx)
    requires(generic_has_trylock<Base>())
  {
    const bool lockstat = observe::lockstat_enabled();
    const void* site =
        lockstat ? observe::current_site(RESILOCK_RETURN_ADDRESS()) : nullptr;
    if (HeldLockTable::mine().holds(this) && confirm_held_or_heal() &&
        misuse_checks_enabled()) {
      if (intercept_relock()) return true;  // absorbed
      if (!generic_try_acquire(base_, ctx)) {
        if (lockstat) observe::on_trylock_fail(lockdep_ensure_class());
        return false;
      }
      note_base_acquired(ctx, site);  // passthrough: faithful
      return true;
    }
    if (!generic_try_acquire(base_, ctx)) {
      if (lockstat) observe::on_trylock_fail(lockdep_ensure_class());
      return false;
    }
    note_base_acquired(ctx, site);
    return true;
  }

  bool release(Context& ctx) {
    const std::uint32_t me = platform::self_pid() + 1;
    auto& tbl = HeldLockTable::mine();
    int remaining = tbl.note_released(this);
    if (remaining != HeldLockTable::kNotHeld &&
        owner_.load(std::memory_order_relaxed) != me) {
      // Stale entry: the lock left this thread through the §5 escape
      // hatch (cross-thread release with checks disabled). Releasing on
      // the strength of that entry would free a lock some *other*
      // thread may now hold — drain the stale depth and treat this call
      // as releasing a lock the thread does not hold.
      while (tbl.note_released(this) > 0) {
      }
      lockdep::on_released(this);
      remaining = HeldLockTable::kNotHeld;
    }
    if (remaining > 0) {  // matching release of an absorbed relock
      counters_.bump_release();
      return true;
    }
    if (remaining == 0) {  // balanced: the base really gets released
      if (lockdep::span_tracing_enabled()) {
        emit_span(lockdep::EventKind::kHoldEnd);
      }
      if (observe::lockstat_enabled()) observe::on_released(this);
      lockdep::on_released(this);
      clear_owner_mirror();
      last_owner_.store(me, std::memory_order_relaxed);
      owner_.store(kNoOwner, std::memory_order_relaxed);
      bool ok;
      if constexpr (ContextLock<Base>) {
        // The base was acquired with the context recorded at acquire
        // time; an absorbed relock may hand release() a context the
        // base never enqueued (self-deadlock bait).
        Context* base_ctx = active_ctx_;
        active_ctx_ = nullptr;
        ok = generic_release(base_, base_ctx != nullptr ? *base_ctx : ctx);
      } else {
        ok = generic_release(base_, ctx);
      }
      counters_.bump_release();
      return ok;
    }
    // Not held by this thread.
    if (!misuse_checks_enabled()) {
      // §5 escape hatch: trust the caller and behave like the base.
      // Clearing the owner tag lets the acquiring thread's stale table
      // entry self-heal on its next acquire (confirm_held_or_heal).
      // The releasing thread has no acquisition-stack entry for this
      // lock, so on_released is a no-op here; clearing the graph-side
      // owner mirror is what invalidates the ACQUIRER's stale stack
      // entry — its next blocking acquire purges it instead of
      // recording orders it never held across.
      owner_.store(kNoOwner, std::memory_order_relaxed);
      clear_owner_mirror();
      return generic_release(base_, ctx);
    }
    const MisuseKind kind = classify_release(me);
    if (apply_verdict(kind)) return false;  // suppressed
    return generic_release(base_, ctx);    // passthrough: faithful
  }

  // PlainLock convenience overloads (the context is stateless).
  void acquire()
    requires(std::is_same_v<Context, NoContext>)
  {
    NoContext c;
    acquire(c);
  }
  bool release()
    requires(std::is_same_v<Context, NoContext>)
  {
    NoContext c;
    return release(c);
  }
  bool try_acquire()
    requires(std::is_same_v<Context, NoContext> &&
             generic_has_trylock<Base>())
  {
    NoContext c;
    return try_acquire(c);
  }

  // -- lockdep integration ---------------------------------------------
  // Stable human-readable class label for lockdep reports (the registry
  // passes the algorithm name). Set before first use; not synchronized.
  void set_lockdep_label(const char* label) { lockdep_label_ = label; }

  // This shield's lockdep class id: kInvalidClass before the first
  // tracked acquire, kUntrackedClass if the class table was full.
  lockdep::ClassId lockdep_class() const {
    return lockdep_class_.load(std::memory_order_acquire);
  }

  // -- telemetry --------------------------------------------------------
  ShieldSnapshot snapshot() const { return counters_.snapshot(); }
  void reset_stats() { counters_.reset(); }

  // Live contention telemetry — the signals the response engine keys
  // escalation off (core/contention.hpp).
  std::uint32_t waiters() const { return contention_.waiters(); }
  std::uint64_t contended_total() const {
    return contention_.contended_total();
  }
  ContentionSnapshot contention() const { return contention_.snapshot(); }

  // Calling thread's recursion depth on this shield (0 == not held).
  std::uint32_t held_depth() const {
    return HeldLockTable::mine().depth(this);
  }

  // Every exclusive-shield hold is tagged kExclusive in the (now
  // mode-aware) held-locks table; the rw family records kRead/kWrite
  // through RwShield (shield/rw_shield.hpp).
  AccessMode held_mode() const {
    return HeldLockTable::mine().mode_of(this);
  }

  Base& base() { return base_; }
  const Base& base() const { return base_; }

  static constexpr Resilience resilience() { return Base::resilience(); }

 private:
  // Records the misuse and runs the verdict pipeline shared by every
  // interception point. Returns true when the verdict suppresses the
  // misuse (kAbort only returns through a verify/test abort trap);
  // false means passthrough and the caller must forward to the base
  // protocol, misbehavior and all. The response engine decides from
  // (event, contention telemetry, lockdep state).
  bool apply_verdict(MisuseKind kind) {
    counters_.bump_misuse(kind);
    const auto ev =
        static_cast<response::ResponseEvent>(static_cast<std::uint8_t>(kind));
    // With lockstat on, a misuse must register the class even when it
    // fires before the first acquire, or the per-class misuse tally
    // would silently undercount the shield's own counters.
    const lockdep::ClassId cls =
        observe::lockstat_enabled()
            ? lockdep_ensure_class()
            : lockdep_class_.load(std::memory_order_relaxed);
    if (observe::lockstat_enabled()) observe::on_misuse(cls);
    response::EventContext ctx;
    ctx.waiters = contention_.waiters();
    ctx.waiters_parked = base_parked_waiters();
    ctx.contended = ctx.waiters > 0;
    ctx.in_flagged_cycle = lockdep::Graph::instance().is_flagged(cls);
    ctx.cls = cls;
    ctx.cls_label = lockdep::Graph::instance().label_of(cls);
    const response::Action action =
        response::ResponseEngine::instance().decide(ev, ctx);
    // Every caught misuse also becomes a timestamped trace event
    // (src/lockdep/event_ring.hpp); MisuseKind values map one-to-one
    // onto the low EventKind values, and the shield's lockdep class and
    // the verdict ride along so post-mortem traces show both what the
    // engine decided and which class the misuse is attributed to.
    lockdep::TraceBuffer::instance().emit(
        static_cast<lockdep::EventKind>(static_cast<std::uint8_t>(kind)),
        this, cls, lockdep::kNoClassTag,
        static_cast<std::uint8_t>(action));
    // An absorbed unlock-family misuse orphans the base protocol's
    // waiters: the misbehaving thread will never deliver the hand-off
    // they are waiting for. A spinning waiter rides it out until the
    // REAL owner releases; a parked one would sleep forever. Rescue:
    // broadcast-wake the lock's parked waiters so they re-check and
    // re-park against the legitimate hand-off. (Relock absorption
    // keeps the hold intact — nothing to rescue.)
    if (action != response::Action::kPassthrough &&
        kind != MisuseKind::kReentrantRelock) {
      base_misuse_wake();
    }
    switch (action) {
      case response::Action::kAbort:
        report_misuse(kind, this);
        response::dispatch_abort(ev, this);
        // An abort trap chose to survive: degrade to suppression.
        counters_.bump_suppressed();
        return true;
      case response::Action::kLog:
        report_misuse(kind, this);
        [[fallthrough]];
      case response::Action::kSuppress:
        counters_.bump_suppressed();
        return true;
      case response::Action::kPassthrough:
        counters_.bump_passed_through();
        return false;
    }
    return true;  // unreachable
  }

  // Parking hook points, present only when the base has a parking
  // tier (MCS/CLH/Ticket/HMCS); the TAS/backoff family compiles to
  // no-ops through the requires clauses.
  std::uint32_t base_parked_waiters() const {
    if constexpr (requires(const Base& b) { b.parked_waiters(); }) {
      return base_.parked_waiters();
    } else {
      return 0;
    }
  }

  void base_misuse_wake() {
    if constexpr (requires(Base& b) { b.misuse_wake(); }) {
      base_.misuse_wake();
    }
  }

  // Returns true when the relock was absorbed (caller must not touch the
  // base); false means the verdict is passthrough and the caller should
  // forward to the base protocol.
  bool intercept_relock() {
    if (!apply_verdict(MisuseKind::kReentrantRelock)) return false;
    counters_.bump_absorbed();
    HeldLockTable::mine().note_acquired(this);
    return true;
  }

  // Validates this thread's table entry against the owner tag. True
  // means the thread really holds the base lock (a second acquire is a
  // genuine reentrant relock). A mismatch means the lock left this
  // thread through the §5 escape hatch — a cross-thread release with
  // checks disabled — so the stale entry is dropped and the caller
  // proceeds as a normal first acquire.
  bool confirm_held_or_heal() {
    if (owner_.load(std::memory_order_relaxed) ==
        platform::self_pid() + 1) {
      return true;
    }
    auto& tbl = HeldLockTable::mine();
    while (tbl.note_released(this) > 0) {
    }
    lockdep::on_released(this);  // purge the stale stack entry too
    return false;
  }

  // Lazily registers this shield in the lockdep class table — its own
  // class by default, the key's shared class when keyed. Racing first
  // acquires CAS; the loser returns its surplus id (keyed shields get
  // the same id from the key, so the CAS cannot lose a distinct one).
  lockdep::ClassId lockdep_ensure_class() {
    lockdep::ClassId id = lockdep_class_.load(std::memory_order_acquire);
    if (id != lockdep::kInvalidClass) return id;
    const lockdep::ClassId fresh =
        lockdep_key_ != nullptr
            ? lockdep_key_->ensure(lockdep_label_)
            : lockdep::Graph::instance().register_class(this,
                                                        lockdep_label_);
    lockdep::ClassId expected = lockdep::kInvalidClass;
    if (!lockdep_class_.compare_exchange_strong(
            expected, fresh, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      if (lockdep_key_ == nullptr) {
        lockdep::Graph::instance().retire_class(fresh);
      }
      return expected;
    }
    return fresh;
  }

  // The graph-side owner mirror identifies per-instance classes only;
  // a shared (keyed) class has many concurrent owners, so keyed
  // shields skip it rather than thrash one word across instances.
  void clear_owner_mirror() {
    if (lockdep_key_ == nullptr) {
      lockdep::Graph::instance().clear_owner(
          lockdep_class_.load(std::memory_order_relaxed));
    }
  }

  void note_base_acquired(Context& ctx, const void* site = nullptr) {
    if (lockdep::lockdep_enabled()) {
      // Try-path acquisitions register here (no blocking attempt ran);
      // they add no order edges — a trylock cannot wedge — but must
      // enter the held set so later blocking acquires see them. The
      // graph-side owner mirror is what lets other code validate a
      // stack entry without touching this object (it may be destroyed
      // by then); shared keyed classes have no usable mirror and skip
      // it.
      const lockdep::ClassId cls = lockdep_ensure_class();
      lockdep::on_acquired(this, cls, AccessMode::kExclusive);
      if (lockdep_key_ == nullptr) {
        lockdep::Graph::instance().note_owner(
            cls, platform::self_pid() + 1);
      }
    }
    owner_.store(platform::self_pid() + 1, std::memory_order_relaxed);
    if constexpr (ContextLock<Base>) {
      // Plain locks pass throwaway stack NoContexts — never retain
      // those; only a real base context must be remembered for release.
      active_ctx_ = &ctx;
    } else {
      (void)ctx;
    }
    HeldLockTable::mine().note_acquired(this, AccessMode::kExclusive);
    counters_.bump_acquisition();
    if (observe::lockstat_enabled()) {
      observe::on_acquired(this, lockdep_ensure_class(),
                           AccessMode::kExclusive, site);
    }
    if (lockdep::span_tracing_enabled()) {
      emit_span(lockdep::EventKind::kHoldBegin, site);
    }
  }

  // Hold/wait span marker for the telemetry timeline (paired into
  // slices by the perfetto sink). The class tag rides along so traces
  // group by lock class, not just instance address; the acquisition
  // call site (when lockstat captured one) rides to the exporters.
  void emit_span(lockdep::EventKind kind, const void* site = nullptr) {
    lockdep::TraceBuffer::instance().emit(
        kind, this, lockdep_class_.load(std::memory_order_relaxed),
        lockdep::kNoClassTag, lockdep::kNoVerdict, lockdep::kNoMode, 0,
        reinterpret_cast<std::uint64_t>(site));
  }

  MisuseKind classify_release(std::uint32_t me) const {
    const std::uint32_t owner = owner_.load(std::memory_order_relaxed);
    if (owner != kNoOwner && owner != me) {
      return MisuseKind::kNonOwnerUnlock;
    }
    if (owner == kNoOwner &&
        last_owner_.load(std::memory_order_relaxed) == me) {
      return MisuseKind::kDoubleUnlock;
    }
    return MisuseKind::kUnbalancedUnlock;
  }

  Base base_;
  // Live waiter gauge + cumulative contended-acquire count
  // (core/contention.hpp) — the telemetry half of the engine's inputs.
  ContentionProbe contention_;
  // Owner tag (pid+1) for release classification only — the held-locks
  // table, not this word, decides balanced vs unbalanced, so a stale
  // read here can at worst mislabel the *kind* of an already-detected
  // misuse, never miss or invent one.
  std::atomic<std::uint32_t> owner_{kNoOwner};
  std::atomic<std::uint32_t> last_owner_{kNoOwner};
  // Context the base was actually acquired with — what the base must be
  // released with, even when an absorbed relock handed release() a
  // different context. Only the owning thread touches it between a
  // base acquire and the matching base release (guarded by base_), so
  // a plain pointer suffices; §5 hand-off releases bypass it.
  Context* active_ctx_ = nullptr;
  // Lockdep class of this shield: registered on first tracked acquire,
  // retired (and its order edges cleared) on destruction — unless the
  // shield was built against a LockClassKey, whose shared class the
  // key owns.
  std::atomic<lockdep::ClassId> lockdep_class_{lockdep::kInvalidClass};
  lockdep::LockClassKey* lockdep_key_ = nullptr;
  const char* lockdep_label_ = nullptr;
  ShieldCounters counters_;
};

}  // namespace resilock::shield

namespace resilock {
// The shield is part of the lock vocabulary: resilock::Shield<L>.
using shield::Shield;
}  // namespace resilock
