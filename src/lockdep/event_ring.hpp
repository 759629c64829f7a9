// Misuse event tracing: per-thread SPSC rings drained by a collector.
//
// Counters (shield_stats.hpp) say *that* misuse happened; production
// diagnosis needs *when*, *by whom*, and *on what*. Every shield
// violation and every lockdep report is recorded as a timestamped
// TraceEvent in the emitting thread's private ring — a single-producer
// single-consumer queue, so the emit path is two relaxed-ish atomic ops
// and one struct store, wait-free, no contention with other threads.
// A collector drains all rings through TraceBuffer::drain(); in
// production that collector is the background thread in src/telemetry/
// (bounded duty cycle, batched sink writes), with the atexit dump and
// on-demand exporters as fallbacks.
//
// Rings are bounded: when a producer outruns the collector the newest
// event is dropped and counted, never blocking the lock operation that
// triggered it — tracing must not perturb the thing it observes. The
// per-ring capacity defaults to EventRing::kDefaultCapacity and is
// tunable per process with RESILOCK_RING_CAPACITY (rounded up to a
// power of two): a long-running service pairs a larger ring with the
// background collector so bursts ride out the collector's sleep.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "platform/env.hpp"
#include "platform/thread_registry.hpp"
#include "runtime/timer.hpp"

namespace resilock::lockdep {

// One tag space for every layer: the shield's four ownership misuses
// (values match shield::MisuseKind), the lockdep verdicts, the
// reader-writer misuses intercepted by RwShield (values match the
// response engine's ResponseEvent tail), and — beyond the response
// engine's vocabulary — the telemetry span markers emitted when
// RESILOCK_TELEMETRY_SPANS is on, which the Perfetto sink pairs into
// lock-hold and contention slices on per-thread timeline tracks.
enum class EventKind : std::uint8_t {
  kUnbalancedUnlock = 0,
  kDoubleUnlock = 1,
  kNonOwnerUnlock = 2,
  kReentrantRelock = 3,
  kOrderInversion = 4,  // AB/BA two-lock order inversion
  kDeadlockCycle = 5,   // order cycle over three or more lock classes
  kUnbalancedReadUnlock = 6,   // runlock without a matching rlock
  kRwModeMismatch = 7,         // read hold released as write (or v.v.)
  kNonOwnerWriteUnlock = 8,    // wunlock while another thread writes
  // Telemetry spans (opt-in, never routed through the response
  // engine): hold = base-protocol acquisition .. release, wait = the
  // contended window of a blocking acquire.
  kHoldBegin = 9,
  kHoldEnd = 10,
  kWaitBegin = 11,
  kWaitEnd = 12,
  // Parking spans (src/park/): one kernel sleep on a wait word, a
  // sub-interval of the enclosing wait span. `lock` is the wait-word
  // address and `a` the shield-stamped class hint.
  kParkBegin = 13,
  kParkEnd = 14,
};

inline constexpr std::size_t kEventKinds = 15;
// Kinds below this value are misuse/lockdep reports; at or above it,
// telemetry span markers (kEventKinds - kFirstSpanKind span kinds).
inline constexpr std::size_t kFirstSpanKind = 9;

constexpr bool is_span_kind(EventKind k) noexcept {
  return static_cast<std::size_t>(k) >= kFirstSpanKind;
}

constexpr const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kUnbalancedUnlock: return "unbalanced-unlock";
    case EventKind::kDoubleUnlock: return "double-unlock";
    case EventKind::kNonOwnerUnlock: return "non-owner-unlock";
    case EventKind::kReentrantRelock: return "reentrant-relock";
    case EventKind::kOrderInversion: return "order-inversion";
    case EventKind::kDeadlockCycle: return "deadlock-cycle";
    case EventKind::kUnbalancedReadUnlock: return "unbalanced-read-unlock";
    case EventKind::kRwModeMismatch: return "rw-mode-mismatch";
    case EventKind::kNonOwnerWriteUnlock: return "non-owner-write-unlock";
    case EventKind::kHoldBegin: return "hold-begin";
    case EventKind::kHoldEnd: return "hold-end";
    case EventKind::kWaitBegin: return "wait-begin";
    case EventKind::kWaitEnd: return "wait-end";
    case EventKind::kParkBegin: return "park-begin";
    case EventKind::kParkEnd: return "park-end";
  }
  return "?";
}

// TraceEvent.verdict when the response engine was not consulted.
inline constexpr std::uint8_t kNoVerdict = 0xFF;
// TraceEvent.mode when the emitting layer tracks no AccessMode (the
// lockdep report path, hand-rolled test events). Real values are the
// AccessMode enum (core/access_mode.hpp).
inline constexpr std::uint8_t kNoMode = 0xFF;
// TraceEvent.a / .b when the event carries no class attribution
// (mirrors lockdep::kInvalidClass; a static_assert in lockdep.cpp
// keeps them in lock step).
inline constexpr std::uint32_t kNoClassTag = 0xFFFFFFFFu;

struct TraceEvent {
  std::uint64_t ns = 0;         // runtime::now_ns() at emission
  const void* lock = nullptr;   // the lock the misbehaving op targeted
  std::uint32_t pid = 0;        // dense thread id of the emitter
  // Lockdep reports: source/destination class of the new edge. Misuse
  // events: `a` is the class the misuse is attributed to (the shield's
  // class, or the entry-level class of a hierarchical lock) and `b` is
  // unused. Generation-stamped ClassIds (slot + generation), so a
  // trace consumer resolving them later can detect that the slot was
  // recycled instead of misattributing. kNoClassTag when unattributed.
  std::uint32_t a = kNoClassTag;
  std::uint32_t b = kNoClassTag;
  EventKind kind = EventKind::kUnbalancedUnlock;
  // response::Action the engine returned for this event (kNoVerdict
  // when none was taken), so post-mortem traces show not just what
  // happened but what the engine decided to do about it.
  std::uint8_t verdict = kNoVerdict;
  // Reader-writer payload: the AccessMode of the caller's hold at
  // interception (kNoMode outside the rw family) and the lock's
  // ReadIndicator estimate of live readers at that instant — the §4
  // damage radius a post-mortem wants next to each rw misuse.
  std::uint8_t mode = kNoMode;
  std::uint32_t readers = 0;
  // Acquisition call site (return address captured on the acquire
  // path) for span-begin events; 0 when lockstat is off or the event
  // kind carries no site. uint64 rather than a pointer so exporters
  // can print it without a cast chain.
  std::uint64_t site = 0;
};

// ---------------------------------------------------------------------
// Span tracing knob (RESILOCK_TELEMETRY_SPANS, runtime-settable).
// The shield's fast path checks this one relaxed flag before emitting
// hold/wait span markers; off (the default) the emit path is exactly
// the pre-telemetry code.
// ---------------------------------------------------------------------

namespace detail {
inline std::atomic<bool>& span_flag() {
  static std::atomic<bool> f{
      platform::env_flag("RESILOCK_TELEMETRY_SPANS", false)};
  return f;
}
}  // namespace detail

inline bool span_tracing_enabled() noexcept {
  return detail::span_flag().load(std::memory_order_relaxed);
}

inline void set_span_tracing(bool on) noexcept {
  detail::span_flag().store(on, std::memory_order_relaxed);
}

// RAII pin, mirroring LockdepEnabledGuard / MisuseCheckGuard.
class SpanTracingGuard {
 public:
  explicit SpanTracingGuard(bool on) : previous_(span_tracing_enabled()) {
    set_span_tracing(on);
  }
  ~SpanTracingGuard() { set_span_tracing(previous_); }
  SpanTracingGuard(const SpanTracingGuard&) = delete;
  SpanTracingGuard& operator=(const SpanTracingGuard&) = delete;

 private:
  const bool previous_;
};

// Lamport SPSC ring. The producer is whichever thread currently owns
// the pid slot (one at a time by construction of ThreadRegistry); the
// consumer is whoever calls TraceBuffer::drain().
class EventRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 128;  // power of two
  // Backward-compatible alias (tests and callers sized against it).
  static constexpr std::size_t kCapacity = kDefaultCapacity;
  static_assert((kDefaultCapacity & (kDefaultCapacity - 1)) == 0);

  // Capacity is rounded up to a power of two and clamped to
  // [64, 1 << 20] — big enough to ride out a collector duty cycle,
  // bounded so a typo'd env var cannot OOM the process.
  explicit EventRing(std::size_t capacity = kDefaultCapacity)
      : capacity_(round_capacity(capacity)),
        buf_(new TraceEvent[capacity_]()) {}

  std::size_t capacity() const noexcept { return capacity_; }

  // Producer side. False (and a dropped_ bump) when the ring is full.
  bool push(const TraceEvent& e) {
    attempts_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) == capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    buf_[t & (capacity_ - 1)] = e;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. False when the ring is empty.
  bool pop(TraceEvent& out) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = buf_[h & (capacity_ - 1)];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Push attempts (accepted + dropped) — the producer-side half of the
  // pipeline's exact accounting: emitted == delivered + dropped.
  std::uint64_t emitted() const {
    return attempts_.load(std::memory_order_relaxed);
  }

  static std::size_t round_capacity(std::size_t c) noexcept {
    if (c < 64) c = 64;
    if (c > (std::size_t{1} << 20)) c = std::size_t{1} << 20;
    std::size_t p = 64;
    while (p < c) p <<= 1;
    return p;
  }

 private:
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> attempts_{0};
  const std::size_t capacity_;
  std::unique_ptr<TraceEvent[]> buf_;
};

// Per-process ring capacity: RESILOCK_RING_CAPACITY, rounded/clamped
// as EventRing does. Read once, on the first ring allocation.
inline std::size_t ring_capacity_from_env() {
  static const std::size_t cap = EventRing::round_capacity(
      platform::env_u32("RESILOCK_RING_CAPACITY",
                        EventRing::kDefaultCapacity));
  return cap;
}

// Registers the RESILOCK_TRACE_FILE atexit JSONL dump when that
// variable is set; idempotent. Defined in trace_export.cpp.
void register_env_trace_exporter();

// First-use notification for the telemetry plane (src/telemetry/):
// registers the flush-before-abort hook and autostarts the background
// collector when RESILOCK_TELEMETRY is set. Idempotent, reentrancy-
// safe. Defined in telemetry/collector.cpp.
void telemetry_first_use_hook();

// Process-wide collector over lazily allocated per-pid rings.
class TraceBuffer {
 public:
  static TraceBuffer& instance() {
    static TraceBuffer tb;
    // Registered AFTER tb's construction completes, so the atexit dump
    // runs BEFORE tb's destructor (handlers run in reverse
    // registration order) and never touches freed rings.
    register_env_trace_exporter();
    telemetry_first_use_hook();
    return tb;
  }

  // Emit from the calling thread (wait-free; the ring is allocated on
  // the thread's first event, never on the lock fast path).
  void emit(EventKind kind, const void* lock,
            std::uint32_t a = kNoClassTag, std::uint32_t b = kNoClassTag,
            std::uint8_t verdict = kNoVerdict,
            std::uint8_t mode = kNoMode, std::uint32_t readers = 0,
            std::uint64_t site = 0) {
    TraceEvent e;
    e.ns = runtime::now_ns();
    e.lock = lock;
    e.pid = platform::self_pid();
    e.a = a;
    e.b = b;
    e.kind = kind;
    e.verdict = verdict;
    e.mode = mode;
    e.readers = readers;
    e.site = site;
    ring_for(e.pid).push(e);
  }

  // Drains every ring through `sink`; returns the number of events
  // delivered. SINGLE consumer: the contract is enforced — a second
  // drainer arriving while one is in progress (the background
  // collector vs an on-demand exporter) gets 0 immediately instead of
  // silently interleaving pops with the first.
  std::size_t drain(const std::function<void(const TraceEvent&)>& sink) {
    if (draining_.exchange(true, std::memory_order_acquire)) return 0;
    std::size_t n = 0;
    for (auto& slot : rings_) {
      EventRing* r = slot.load(std::memory_order_acquire);
      if (r == nullptr) continue;
      TraceEvent e;
      while (r->pop(e)) {
        sink(e);
        ++n;
      }
    }
    draining_.store(false, std::memory_order_release);
    return n;
  }

  std::vector<TraceEvent> drain_all() {
    std::vector<TraceEvent> v;
    drain([&](const TraceEvent& e) { v.push_back(e); });
    return v;
  }

  // Events discarded because a producer outran the collector.
  std::uint64_t dropped() const {
    std::uint64_t d = 0;
    for (const auto& slot : rings_) {
      const EventRing* r = slot.load(std::memory_order_acquire);
      if (r != nullptr) d += r->dropped();
    }
    return d;
  }

  // Emit attempts across all rings (delivered + still queued + dropped).
  std::uint64_t emitted() const {
    std::uint64_t n = 0;
    for (const auto& slot : rings_) {
      const EventRing* r = slot.load(std::memory_order_acquire);
      if (r != nullptr) n += r->emitted();
    }
    return n;
  }

 private:
  TraceBuffer() {
    for (auto& s : rings_) s.store(nullptr, std::memory_order_relaxed);
  }
  ~TraceBuffer() {
    for (auto& s : rings_) delete s.load(std::memory_order_relaxed);
  }
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  EventRing& ring_for(std::uint32_t pid) {
    auto& slot = rings_[pid];
    EventRing* r = slot.load(std::memory_order_acquire);
    if (r == nullptr) {
      r = new EventRing(ring_capacity_from_env());
      EventRing* expected = nullptr;
      if (!slot.compare_exchange_strong(expected, r,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        delete r;  // pid slots recycle; a previous tenant installed one
        r = expected;
      }
    }
    return *r;
  }

  std::atomic<EventRing*> rings_[platform::ThreadRegistry::kCapacity];
  // In-drain guard: enforces the single-consumer contract now that the
  // background collector and on-demand exporters can race.
  std::atomic<bool> draining_{false};
};

}  // namespace resilock::lockdep
