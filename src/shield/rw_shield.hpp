// RwShield<L>: the mode-aware ownership shield for the reader-writer
// family (core/rw/crw.hpp).
//
// Shield<L> models every acquisition as exclusive; a C-RW lock breaks
// that assumption in both directions — read holds coexist, and the
// paper's §4 analysis shows the R side's misuse (RUnlock without RLock)
// is *undetectable inside the protocol* for every compact ReadIndicator:
// the indicator counts without identity, so a bogus depart silently
// skews it forever (readers and writers co-resident in the CS, then
// writer starvation). RwShield solves that open problem the same way
// the exclusive shield solved unbalanced unlock: ownership tracking in
// FRONT of the protocol. The per-thread HeldLockTable entry carries the
// AccessMode of the hold, so the shield can intercept, before the
// indicator or the cohort lock can be corrupted:
//
//   runlock while not holding        -> kUnbalancedReadUnlock
//   runlock while holding WRITE      -> kRwModeMismatch
//   wunlock while holding READ       -> kRwModeMismatch
//   wunlock while not holding        -> kNonOwnerWriteUnlock when
//       another thread write-holds; kDoubleUnlock when the caller was
//       the previous writer; kUnbalancedUnlock otherwise
//   rlock  while holding READ        -> kReentrantRelock (absorbed as a
//       recursion-depth bump — pthread read locks are recursive; the
//       checked indicator would refuse the double arrive)
//   wlock  while holding WRITE       -> kReentrantRelock (absorbed)
//   rlock  while holding WRITE       -> kRwModeMismatch (absorbed: a
//       write hold already implies read permission)
//   wlock  while holding READ        -> kRwModeMismatch (absorbed: a
//       passthrough upgrade self-deadlocks — the writer spins on an
//       indicator that contains the caller itself)
//
// Verdicts route through the same response-engine pipeline as the
// exclusive shield (RESILOCK_POLICY rules and their tail, abort
// dispatch), with the rw contention signal — live blocked writers PLUS
// the ReadIndicator's reader estimate — as the EventContext. Lockdep
// sees read acquisitions as AccessMode::kRead and write acquisitions
// as kWrite, so R–R dependencies are edge-free and only write-involved
// orders can flag inversions (lockdep/lockdep.hpp).
//
// The shield's lockdep class is registered SHARED (one class, many
// concurrent reader "owners"): the graph's single-owner mirror cannot
// describe a read-held lock, exactly the property shared classes exist
// for.
//
// The §5 escape hatch is honored: with misuse_checks_enabled() == false
// every call forwards verbatim (local table entries are drained on the
// way through so re-enabling checks later does not see phantom holds).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/access_mode.hpp"
#include "core/contention.hpp"
#include "core/resilience.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "platform/cacheline.hpp"
#include "platform/thread_registry.hpp"
#include "response/response.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/policy.hpp"

namespace resilock::shield {

// The rw tail of the shared tag space; keep in lock step with
// lockdep::EventKind.
static_assert(static_cast<int>(response::ResponseEvent::kUnbalancedReadUnlock) ==
              static_cast<int>(lockdep::EventKind::kUnbalancedReadUnlock));
static_assert(static_cast<int>(response::ResponseEvent::kRwModeMismatch) ==
              static_cast<int>(lockdep::EventKind::kRwModeMismatch));
static_assert(static_cast<int>(response::ResponseEvent::kNonOwnerWriteUnlock) ==
              static_cast<int>(lockdep::EventKind::kNonOwnerWriteUnlock));

struct RwShieldSnapshot {
  std::uint64_t read_acquisitions = 0;   // base rlock grants
  std::uint64_t write_acquisitions = 0;  // base wlock grants
  std::uint64_t read_releases = 0;       // balanced runlocks (incl. absorbed)
  std::uint64_t write_releases = 0;      // balanced wunlocks (incl. absorbed)
  std::uint64_t absorbed = 0;            // acquire-side depth bumps
  std::uint64_t suppressed = 0;          // misuses swallowed by verdict
  std::uint64_t passed_through = 0;      // misuses forwarded to the base
  // Indexed by response::ResponseEvent value; only the misuse kinds
  // (0..3 and 6..8) are ever bumped.
  std::uint64_t misuse[response::kResponseEvents] = {};

  std::uint64_t count(response::ResponseEvent e) const {
    return misuse[static_cast<std::size_t>(e)];
  }
  std::uint64_t total_misuses() const {
    std::uint64_t t = 0;
    for (auto m : misuse) t += m;
    return t;
  }
};

template <typename Base>
class RwShield {
  static constexpr std::uint32_t kNoOwner = 0;
  using Event = response::ResponseEvent;

 public:
  using Context = typename Base::Context;

  RwShield() = default;

  // Perfect forwarding to the base (topology-aware rw locks take their
  // Topology through here).
  template <typename First, typename... Rest,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<First>, RwShield>>>
  explicit RwShield(First&& first, Rest&&... rest)
      : base_(std::forward<First>(first), std::forward<Rest>(rest)...) {}

  RwShield(const RwShield&) = delete;
  RwShield& operator=(const RwShield&) = delete;

  ~RwShield() {
    lockdep::Graph::instance().retire_class(
        lockdep_class_.load(std::memory_order_relaxed));
  }

  // ---------------------------------------------------------------- //
  //  Read side.
  // ---------------------------------------------------------------- //

  void rlock(Context& ctx) {
    // Call-site capture stays in this body so the return address
    // points at application code (see Shield::acquire).
    const bool lockstat = observe::lockstat_enabled();
    const void* site =
        lockstat ? observe::current_site(RESILOCK_RETURN_ADDRESS()) : nullptr;
    auto& tbl = HeldLockTable::mine();
    // `fresh` reflects the table, not the verdict: a forwarded
    // (passthrough or §5-disabled) re-acquire must neither bump the
    // table — the shield stays faithful, so the base sees every later
    // release too — nor double-push the lockdep stack.
    const bool fresh = !tbl.holds(this);
    if (!fresh && misuse_checks_enabled()) {
      const AccessMode held = tbl.mode_of(this);
      const Event ev = held == AccessMode::kRead
                           ? Event::kReentrantRelock
                           : Event::kRwModeMismatch;  // read-under-write
      if (apply_verdict(ev, held)) {  // absorbed as a depth bump
        counters_.absorbed.fetch_add(1, std::memory_order_relaxed);
        tbl.note_acquired(this, held);
        return;
      }
      // kPassthrough: forward to the base, faithfully.
    }
    lockdep_attempt(AccessMode::kRead);
    // A reader blocks only behind writers; readers inside the CS are
    // not contention for an arriving reader.
    const bool contended = write_owner_.load(std::memory_order_relaxed) !=
                           kNoOwner;
    const bool span = contended && lockdep::span_tracing_enabled();
    const std::uint64_t wait_t0 =
        (lockstat && contended) ? runtime::now_ns() : 0;
    if (span) {
      emit_span(lockdep::EventKind::kWaitBegin, AccessMode::kRead, site);
    }
    if (contended) contention_.begin_wait();
    base_.rlock(ctx);
    if (contended) contention_.end_wait();
    if (span) emit_span(lockdep::EventKind::kWaitEnd, AccessMode::kRead);
    if (lockstat && contended) {
      observe::on_contended_wait(lockdep_ensure_class(),
                                 runtime::now_ns() - wait_t0);
    }
    note_acquired(tbl, AccessMode::kRead, ctx, fresh, site);
  }

  // Returns false iff a misuse was intercepted (or detected by the
  // base) and suppressed — EPERM semantics, like Shield::release.
  bool runlock(Context& ctx) {
    auto& tbl = HeldLockTable::mine();
    // The balanced release is the fast path: one table scan decides
    // everything, and only the cold branches (absorbed depth, misuse,
    // §5 escape hatch) consult any global flag.
    const int remaining =
        tbl.note_released_in_mode(this, AccessMode::kRead);
    if (remaining >= 0) {
      ReadStripe::bump(counters_.read_stripe_for(tbl).releases);
      if (remaining > 0) {
        // Matching release of an absorbed recursion — unless the §5
        // escape hatch is open, in which case every call forwards to
        // the base verbatim (the caller asked for raw behavior).
        if (misuse_checks_enabled()) return true;
        return base_.runlock(ctx);
      }
      if (lockdep::span_tracing_enabled()) {
        emit_span(lockdep::EventKind::kHoldEnd, AccessMode::kRead);
      }
      if (observe::lockstat_enabled()) observe::on_released(this);
      lockdep::on_released(this);
      return base_.runlock(ctx);
    }
    if (!misuse_checks_enabled()) {
      // §5 escape hatch: trust the caller, forward verbatim. The
      // not-held/wrong-mode entry state is left as-is: a cross-thread
      // read hand-off is the acquirer's entry to shed, not ours.
      return base_.runlock(ctx);
    }
    if (remaining == HeldLockTable::kNotHeld) {
      // The §4 headline: depart-without-arrive. Intercepted HERE, the
      // indicator never skews — no mutex violation, no writer
      // starvation — even over indicators that cannot detect it.
      if (apply_verdict(Event::kUnbalancedReadUnlock, AccessMode::kRead)) {
        return false;
      }
      return base_.runlock(ctx);  // kPassthrough: corrupt faithfully
    }
    // kWrongMode: a write hold released as a read.
    if (apply_verdict(Event::kRwModeMismatch, AccessMode::kWrite)) {
      return false;
    }
    return base_.runlock(ctx);
  }

  // ---------------------------------------------------------------- //
  //  Write side.
  // ---------------------------------------------------------------- //

  void wlock(Context& ctx) {
    const bool lockstat = observe::lockstat_enabled();
    const void* site =
        lockstat ? observe::current_site(RESILOCK_RETURN_ADDRESS()) : nullptr;
    auto& tbl = HeldLockTable::mine();
    const bool fresh = !tbl.holds(this);  // see rlock
    if (!fresh && misuse_checks_enabled()) {
      const AccessMode held = tbl.mode_of(this);
      const Event ev = held == AccessMode::kRead
                           ? Event::kRwModeMismatch  // upgrade: deadlock bait
                           : Event::kReentrantRelock;
      if (apply_verdict(ev, held)) {
        counters_.absorbed.fetch_add(1, std::memory_order_relaxed);
        tbl.note_acquired(this, held);
        return;
      }
      // kPassthrough: forward to the base, faithfully.
    }
    lockdep_attempt(AccessMode::kWrite);
    const bool contended =
        write_owner_.load(std::memory_order_relaxed) != kNoOwner ||
        !base_.indicator().is_empty();
    const bool span = contended && lockdep::span_tracing_enabled();
    const std::uint64_t wait_t0 =
        (lockstat && contended) ? runtime::now_ns() : 0;
    if (span) {
      emit_span(lockdep::EventKind::kWaitBegin, AccessMode::kWrite, site);
    }
    if (contended) contention_.begin_wait();
    base_.wlock(ctx);
    if (contended) contention_.end_wait();
    if (span) emit_span(lockdep::EventKind::kWaitEnd, AccessMode::kWrite);
    if (lockstat && contended) {
      observe::on_contended_wait(lockdep_ensure_class(),
                                 runtime::now_ns() - wait_t0);
    }
    note_acquired(tbl, AccessMode::kWrite, ctx, fresh, site);
  }

  bool wunlock(Context& ctx) {
    const std::uint32_t me = platform::self_pid() + 1;
    auto& tbl = HeldLockTable::mine();
    // One table scan decides everything, like runlock.
    const int remaining =
        tbl.note_released_in_mode(this, AccessMode::kWrite);
    if (remaining >= 0) {
      counters_.write_releases.fetch_add(1, std::memory_order_relaxed);
      if (remaining > 0) {
        // Matching release of an absorbed relock — unless the §5
        // escape hatch is open (forward every call verbatim).
        if (misuse_checks_enabled()) return true;
        return base_.wunlock(ctx);
      }
      if (lockdep::span_tracing_enabled()) {
        emit_span(lockdep::EventKind::kHoldEnd, AccessMode::kWrite);
      }
      if (observe::lockstat_enabled()) observe::on_released(this);
      lockdep::on_released(this);
      last_writer_.store(me, std::memory_order_relaxed);
      write_owner_.store(kNoOwner, std::memory_order_relaxed);
      // Release with the context the base was acquired with: an
      // absorbed relock may hand wunlock a context the cohort never
      // enqueued.
      Context* base_ctx = active_wctx_;
      active_wctx_ = nullptr;
      return base_.wunlock(base_ctx != nullptr ? *base_ctx : ctx);
    }
    if (!misuse_checks_enabled()) {
      // §5 escape hatch: trust the caller and forward verbatim (the
      // cross-thread hand-off case — the acquirer keeps its own
      // entry; clearing the owner tag lets unlock() route sanely).
      write_owner_.store(kNoOwner, std::memory_order_relaxed);
      return base_.wunlock(ctx);
    }
    if (remaining == HeldLockTable::kWrongMode) {
      // A read hold released as a write.
      if (apply_verdict(Event::kRwModeMismatch, AccessMode::kRead)) {
        return false;
      }
      return base_.wunlock(ctx);
    }
    if (apply_verdict(classify_wunlock(me), AccessMode::kWrite)) {
      return false;
    }
    return base_.wunlock(ctx);  // kPassthrough: faithful
  }

  // ---------------------------------------------------------------- //
  //  Trylock entry points (pthread_rwlock_tryrdlock/trywrlock shapes).
  //  A trylock cannot block, so it adds NO lockdep order edges — only
  //  the held-set entry on success (mirroring Shield::try_acquire); the
  //  reentrant/mode-mismatch interceptions behave exactly as on the
  //  blocking paths, because an absorbed re-acquire succeeds without
  //  touching the base either way.
  // ---------------------------------------------------------------- //

  bool try_rlock(Context& ctx)
    requires requires(Base& b, Context& c) { b.try_rlock(c); }
  {
    const bool lockstat = observe::lockstat_enabled();
    const void* site =
        lockstat ? observe::current_site(RESILOCK_RETURN_ADDRESS()) : nullptr;
    auto& tbl = HeldLockTable::mine();
    const bool fresh = !tbl.holds(this);  // see rlock
    if (!fresh && misuse_checks_enabled()) {
      const AccessMode held = tbl.mode_of(this);
      const Event ev = held == AccessMode::kRead
                           ? Event::kReentrantRelock
                           : Event::kRwModeMismatch;  // read-under-write
      if (apply_verdict(ev, held)) {  // absorbed as a depth bump
        counters_.absorbed.fetch_add(1, std::memory_order_relaxed);
        tbl.note_acquired(this, held);
        return true;
      }
      // kPassthrough: forward to the base, faithfully.
    }
    if (!base_.try_rlock(ctx)) {
      if (lockstat) observe::on_trylock_fail(lockdep_ensure_class());
      return false;
    }
    note_acquired(tbl, AccessMode::kRead, ctx, fresh, site);
    return true;
  }

  bool try_wlock(Context& ctx)
    requires requires(Base& b, Context& c) { b.try_wlock(c); }
  {
    const bool lockstat = observe::lockstat_enabled();
    const void* site =
        lockstat ? observe::current_site(RESILOCK_RETURN_ADDRESS()) : nullptr;
    auto& tbl = HeldLockTable::mine();
    const bool fresh = !tbl.holds(this);  // see rlock
    if (!fresh && misuse_checks_enabled()) {
      const AccessMode held = tbl.mode_of(this);
      const Event ev = held == AccessMode::kRead
                           ? Event::kRwModeMismatch  // upgrade: deadlock bait
                           : Event::kReentrantRelock;
      if (apply_verdict(ev, held)) {
        counters_.absorbed.fetch_add(1, std::memory_order_relaxed);
        tbl.note_acquired(this, held);
        return true;
      }
      // kPassthrough: forward to the base, faithfully.
    }
    if (!base_.try_wlock(ctx)) {
      if (lockstat) observe::on_trylock_fail(lockdep_ensure_class());
      return false;
    }
    note_acquired(tbl, AccessMode::kWrite, ctx, fresh, site);
    return true;
  }

  // ---------------------------------------------------------------- //
  //  pthread_rwlock_unlock semantics: one entry point, the held-locks
  //  table (not the caller) decides which side to release. This is the
  //  API the interpose shim routes pthread_rwlock_unlock through — the
  //  mode tag is what makes the single-unlock contract implementable.
  // ---------------------------------------------------------------- //
  bool unlock(Context& ctx) {
    auto& tbl = HeldLockTable::mine();
    if (!misuse_checks_enabled()) {
      // Without the table's word, fall back to the write-owner tag;
      // the side entry points own the escape-hatch table draining.
      return write_owner_.load(std::memory_order_relaxed) != kNoOwner
                 ? wunlock(ctx)
                 : runlock(ctx);
    }
    if (tbl.holds(this)) {
      return tbl.mode_of(this) == AccessMode::kWrite ? wunlock(ctx)
                                                     : runlock(ctx);
    }
    // Not held at all: classify on the write side (the read side has
    // no ownership to misattribute) and suppress/forward per verdict.
    if (apply_verdict(classify_wunlock(platform::self_pid() + 1),
                     AccessMode::kWrite)) {
      return false;
    }
    return base_.runlock(ctx);  // faithful: behaves like a bogus depart
  }

  // -- lockdep ---------------------------------------------------------
  void set_lockdep_label(const char* label) { lockdep_label_ = label; }
  lockdep::ClassId lockdep_class() const {
    return lockdep_class_.load(std::memory_order_acquire);
  }

  // -- telemetry -------------------------------------------------------
  RwShieldSnapshot snapshot() const {
    RwShieldSnapshot s;
    for (const auto& stripe : counters_.read) {
      s.read_acquisitions += stripe.acqs.load(std::memory_order_relaxed);
      s.read_releases += stripe.releases.load(std::memory_order_relaxed);
    }
    s.write_acquisitions =
        counters_.write_acqs.load(std::memory_order_relaxed);
    s.write_releases =
        counters_.write_releases.load(std::memory_order_relaxed);
    s.absorbed = counters_.absorbed.load(std::memory_order_relaxed);
    s.suppressed = counters_.suppressed.load(std::memory_order_relaxed);
    s.passed_through =
        counters_.passed.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < response::kResponseEvents; ++i) {
      s.misuse[i] = counters_.misuse[i].load(std::memory_order_relaxed);
    }
    return s;
  }

  // Live blocked writers (the contention probe) and the indicator's
  // reader estimate — together the rw "stake" the engine escalates on.
  std::uint32_t waiters() const { return contention_.waiters(); }
  std::uint32_t readers() const {
    return base_.indicator().approx_readers();
  }
  std::uint64_t contended_total() const {
    return contention_.contended_total();
  }

  // Calling thread's view of this lock.
  std::uint32_t held_depth() const {
    return HeldLockTable::mine().depth(this);
  }
  AccessMode held_mode() const {
    return HeldLockTable::mine().mode_of(this);
  }

  Base& base() { return base_; }
  const Base& base() const { return base_; }

  static constexpr Resilience resilience() { return Base::resilience(); }

 private:
  // Parking hooks, compiled away for bases without a parking bay (the
  // rw locks built on TAS-family primitives have none today).
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

  // The read-side tallies are the only per-op counters on a path that
  // can be nearly free (reader-pref rlock is two RMWs); a single shared
  // counter would double the bounced lines and blow the 2x budget, so
  // they stripe by thread and bump with a plain load+store instead of
  // a fetch_add — an atomic RMW costs more than the whole bare read
  // acquisition on some hosts. A stripe collision can therefore lose
  // the odd increment; these are telemetry-grade tallies (the misuse
  // counters, which protection decisions read, stay exact RMWs).
  static constexpr std::size_t kStripes = 8;

  struct alignas(platform::kCacheLineSize) ReadStripe {
    std::atomic<std::uint64_t> acqs{0};
    std::atomic<std::uint64_t> releases{0};

    static void bump(std::atomic<std::uint64_t>& c) {
      c.store(c.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
    }
  };

  struct Counters {
    ReadStripe read[kStripes];
    std::atomic<std::uint64_t> write_acqs{0};
    std::atomic<std::uint64_t> write_releases{0};
    std::atomic<std::uint64_t> absorbed{0};
    std::atomic<std::uint64_t> suppressed{0};
    std::atomic<std::uint64_t> passed{0};
    std::atomic<std::uint64_t> misuse[response::kResponseEvents] = {};

    // Stripe selection hashes the calling thread's (already fetched)
    // held-lock table address instead of self_pid(): one TLS object
    // per thread, no out-of-line pid lookup on the read fast path.
    // The low ~12 bits of a TLS address are the offset WITHIN the
    // thread's TLS block and identical across glibc worker threads —
    // only the block bases differ, at page-or-larger spacing — so the
    // hash mixes the page-and-up bits.
    ReadStripe& read_stripe_for(const HeldLockTable& tbl) {
      const auto h = reinterpret_cast<std::uintptr_t>(&tbl);
      return read[((h >> 12) ^ (h >> 18)) & (kStripes - 1)];
    }
  };

  // Blocked writers plus live readers: every thread with a stake in
  // this lock right now — the damage radius a verdict weighs.
  std::uint32_t rw_stake() const {
    return contention_.waiters() + base_.indicator().approx_readers();
  }

  // The order-edge hook, with the telemetry computed LAZILY: the
  // reader estimate can be an O(threads) scan (checked indicator), so
  // the single-lock hot path — empty acquisition stack, where the
  // attempt records nothing anyway — must not pay for it.
  void lockdep_attempt(AccessMode mode) {
    if (!lockdep::lockdep_enabled()) return;
    if (lockdep::AcqStack::mine().depth() == 0) return;  // no edges
    lockdep::on_acquire_attempt(this, lockdep_ensure_class(), rw_stake(),
                                write_owned_by_other(), mode);
  }

  bool write_owned_by_other() const {
    const std::uint32_t owner =
        write_owner_.load(std::memory_order_relaxed);
    return owner != kNoOwner && owner != platform::self_pid() + 1;
  }

  Event classify_wunlock(std::uint32_t me) const {
    const std::uint32_t owner =
        write_owner_.load(std::memory_order_relaxed);
    if (owner != kNoOwner && owner != me) {
      return Event::kNonOwnerWriteUnlock;
    }
    if (owner == kNoOwner &&
        last_writer_.load(std::memory_order_relaxed) == me) {
      return Event::kDoubleUnlock;
    }
    return Event::kUnbalancedUnlock;
  }

  // The shared verdict pipeline (mirrors Shield::apply_verdict): true
  // means the misuse is suppressed and the caller must not touch the
  // base; false means kPassthrough. `mode` is the caller's hold mode at
  // interception (or the side of the misbehaving operation when the
  // caller holds nothing) — it rides into the trace event together with
  // the indicator's reader estimate, the §4 "who else is exposed"
  // payload a post-mortem wants next to each rw misuse.
  bool apply_verdict(Event ev, AccessMode mode) {
    counters_.misuse[static_cast<std::size_t>(ev)].fetch_add(
        1, std::memory_order_relaxed);
    // Mirror Shield::apply_verdict: with lockstat on, register the
    // class even for a misuse-before-first-acquire so per-class misuse
    // tallies reconcile exactly with the shield counters.
    const lockdep::ClassId cls =
        observe::lockstat_enabled()
            ? lockdep_ensure_class()
            : lockdep_class_.load(std::memory_order_relaxed);
    if (observe::lockstat_enabled()) observe::on_misuse(cls);
    const std::uint32_t readers = base_.indicator().approx_readers();
    response::EventContext ctx;
    ctx.waiters = contention_.waiters() + readers;
    ctx.contended = ctx.waiters > 0 || write_owned_by_other();
    ctx.in_flagged_cycle = lockdep::Graph::instance().is_flagged(cls);
    ctx.waiters_parked = base_parked_waiters();
    ctx.cls = cls;
    ctx.cls_label = lockdep::Graph::instance().label_of(cls);
    const response::Action action =
        response::ResponseEngine::instance().decide(ev, ctx);
    // Misuse-aware wakeup (mirrors Shield::apply_verdict): an absorbed
    // rw misuse may orphan waiters parked on the base lock's hand-off.
    // Broadcast-wake them so each re-checks its wait word.
    if (action != response::Action::kPassthrough) base_misuse_wake();
    lockdep::TraceBuffer::instance().emit(
        static_cast<lockdep::EventKind>(static_cast<std::uint8_t>(ev)),
        this, cls, lockdep::kNoClassTag,
        static_cast<std::uint8_t>(action),
        static_cast<std::uint8_t>(mode), readers);
    switch (action) {
      case response::Action::kAbort:
        report_misuse(ev, this);
        response::dispatch_abort(ev, this);
        // An abort trap chose to survive: degrade to suppression.
        counters_.suppressed.fetch_add(1, std::memory_order_relaxed);
        return true;
      case response::Action::kLog:
        report_misuse(ev, this);
        [[fallthrough]];
      case response::Action::kSuppress:
        counters_.suppressed.fetch_add(1, std::memory_order_relaxed);
        return true;
      case response::Action::kPassthrough:
        counters_.passed.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    return true;  // unreachable
  }

  void note_acquired(HeldLockTable& tbl, AccessMode mode, Context& ctx,
                     bool fresh, const void* site = nullptr) {
    if (lockdep::lockdep_enabled()) {
      // `fresh` skips the duplicate-entry scan: the table probe above
      // already said "not held", so the stack cannot contain us. A
      // re-acquire keeps the scan and therefore never double-pushes.
      lockdep::on_acquired(this, lockdep_ensure_class(), mode, !fresh);
    }
    if (mode == AccessMode::kWrite) {
      write_owner_.store(platform::self_pid() + 1,
                         std::memory_order_relaxed);
      active_wctx_ = &ctx;  // owned exclusively until the base wunlock
      counters_.write_acqs.fetch_add(1, std::memory_order_relaxed);
    } else {
      ReadStripe::bump(counters_.read_stripe_for(tbl).acqs);
    }
    // Only a FRESH acquisition enters the table. A forwarded re-acquire
    // (passthrough verdict or §5 escape hatch) is deliberately not
    // recorded: the base saw the extra acquire, so the base must see
    // the matching extra release too — a depth bump would swallow it
    // and skew a counting ReadIndicator forever.
    if (fresh) {
      tbl.note_acquired(this, mode);
      if (observe::lockstat_enabled()) {
        observe::on_acquired(this, lockdep_ensure_class(), mode, site);
      }
      if (lockdep::span_tracing_enabled()) {
        emit_span(lockdep::EventKind::kHoldBegin, mode, site);
      }
    }
  }

  // Hold/wait span marker for the telemetry timeline; the mode payload
  // lets the perfetto sink label read vs write slices, and the
  // acquisition call site (when lockstat captured one) rides along.
  void emit_span(lockdep::EventKind kind, AccessMode mode,
                 const void* site = nullptr) {
    lockdep::TraceBuffer::instance().emit(
        kind, this, lockdep_class_.load(std::memory_order_relaxed),
        lockdep::kNoClassTag, lockdep::kNoVerdict,
        static_cast<std::uint8_t>(mode), 0,
        reinterpret_cast<std::uint64_t>(site));
  }

  // Lazily registers this shield's lockdep class — SHARED, because a
  // read-held rw lock has many simultaneous holders and the graph's
  // single-owner mirror cannot describe it. Racing first acquires CAS;
  // the loser retires its surplus id.
  lockdep::ClassId lockdep_ensure_class() {
    lockdep::ClassId id = lockdep_class_.load(std::memory_order_acquire);
    if (id != lockdep::kInvalidClass) return id;
    const lockdep::ClassId fresh =
        lockdep::Graph::instance().register_shared_class(this,
                                                         lockdep_label_);
    lockdep::ClassId expected = lockdep::kInvalidClass;
    if (!lockdep_class_.compare_exchange_strong(
            expected, fresh, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      lockdep::Graph::instance().retire_class(fresh);
      return expected;
    }
    return fresh;
  }

  Base base_;
  ContentionProbe contention_;  // writer-side blocking only
  // Write-owner tag (pid+1) for wunlock classification; the held-locks
  // table, not this word, decides balanced vs unbalanced.
  std::atomic<std::uint32_t> write_owner_{kNoOwner};
  std::atomic<std::uint32_t> last_writer_{kNoOwner};
  // Context the base wlock was granted with (see Shield::active_ctx_);
  // only the write owner touches it between base wlock and wunlock.
  Context* active_wctx_ = nullptr;
  std::atomic<lockdep::ClassId> lockdep_class_{lockdep::kInvalidClass};
  const char* lockdep_label_ = "rw-shield";
  Counters counters_;
};

}  // namespace resilock::shield

namespace resilock {
using shield::RwShield;
using shield::RwShieldSnapshot;
}  // namespace resilock
