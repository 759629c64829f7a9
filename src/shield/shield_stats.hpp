// Per-shield misuse counters, in the stats_lock snapshot idiom.
//
// A production shield is as much a telemetry source as a guard: knowing
// *that* misuse happens (and which kind, and how often) is what turns a
// suppressed bug into a fixed one (paper §7's feedback-to-programmer
// discussion). Unlike StatsLock (an opt-in wrapper), a shield fronts
// EVERY interposed mutex — PARSEC-style apps allocate millions — so the
// counters pack into two cache lines per instance instead of one line
// per counter: threads bumping them are already bouncing the lock's own
// line, so per-counter isolation buys nothing here.
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/cacheline.hpp"
#include "shield/policy.hpp"

namespace resilock::shield {

struct ShieldSnapshot {
  std::uint64_t acquisitions = 0;       // base-protocol acquisitions
  std::uint64_t releases = 0;           // balanced releases (incl. absorbed)
  std::uint64_t reentrant_absorbed = 0; // relocks converted to depth bumps
  std::uint64_t suppressed = 0;         // misuses swallowed by verdict
  std::uint64_t passed_through = 0;     // misuses forwarded to the base
  std::uint64_t misuse[kMisuseKinds] = {0, 0, 0, 0};

  std::uint64_t count(MisuseKind k) const {
    return misuse[static_cast<std::size_t>(k)];
  }

  std::uint64_t total_misuses() const {
    std::uint64_t t = 0;
    for (auto m : misuse) t += m;
    return t;
  }
};

class ShieldCounters {
  enum Slot : std::size_t {
    kAcquisitions = 0,
    kReleases = 1,
    kAbsorbed = 2,
    kSuppressed = 3,
    kPassedThrough = 4,
    kMisuseBase = 5,  // + MisuseKind, 4 slots
    kSlots = kMisuseBase + kMisuseKinds,
  };

 public:
  void bump_acquisition() { bump(kAcquisitions); }
  void bump_release() { bump(kReleases); }
  void bump_absorbed() { bump(kAbsorbed); }
  void bump_suppressed() { bump(kSuppressed); }
  void bump_passed_through() { bump(kPassedThrough); }
  void bump_misuse(MisuseKind k) {
    bump(kMisuseBase + static_cast<std::size_t>(k));
  }

  ShieldSnapshot snapshot() const {
    ShieldSnapshot s;
    s.acquisitions = read(kAcquisitions);
    s.releases = read(kReleases);
    s.reentrant_absorbed = read(kAbsorbed);
    s.suppressed = read(kSuppressed);
    s.passed_through = read(kPassedThrough);
    for (std::size_t i = 0; i < kMisuseKinds; ++i) {
      s.misuse[i] = read(kMisuseBase + i);
    }
    return s;
  }

  void reset() {
    for (auto& s : slots_) s.store(0, std::memory_order_relaxed);
  }

 private:
  void bump(std::size_t slot) {
    slots_[slot].fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t read(std::size_t slot) const {
    return slots_[slot].load(std::memory_order_relaxed);
  }

  // One aligned block (9 words, 2 cache lines), isolated from whatever
  // the shield places next to it.
  alignas(platform::kCacheLineSize) std::atomic<std::uint64_t>
      slots_[kSlots] = {};
};

}  // namespace resilock::shield
