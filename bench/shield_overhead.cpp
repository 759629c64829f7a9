// Shield cost vs. native in-protocol checks.
//
// The paper's Table 2 prices the bespoke kResilient fixes (one extra
// load in release(), CAS instead of SWAP, ...). The ownership shield
// (src/shield/) buys the same protection generically — one thread-local
// held-locks probe per acquire/release plus an owner-tag store — so the
// question this bench answers is: what does the generic layer cost
// relative to (a) the unprotected original, (b) the hand-written
// resilient fix, and (c) both combined (belt and braces)?
//
// Methodology mirrors the harness (§6): every thread hammers one shared
// lock with a small critical section behind a start barrier; best of
// RESILOCK_REPS runs; ops scaled by RESILOCK_SCALE; thread axis {1, max}
// with max from RESILOCK_MAX_THREADS. Lockdep is pinned OFF for the
// whole run so this bench prices the ownership layer in isolation
// (bench/lockdep_overhead.cpp prices the dependency layer on top).
//
// `--json out.json` additionally emits the table machine-readably for
// BENCH_*.json trajectory tracking.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/lock_registry.hpp"
#include "core/resilience.hpp"
#include "harness/evaluation.hpp"
#include "json_writer.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"

namespace {

using namespace resilock;

double best_mops(const std::string& name, Resilience r,
                 std::uint32_t threads, std::uint64_t iters,
                 std::uint32_t reps) {
  double best = 0.0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    auto lock = make_lock(name, r);
    runtime::SenseBarrier start(threads);
    // Timed region: from barrier release to the last thread's finish
    // (all threads leave the barrier together; any one of them can
    // stamp the start).
    std::atomic<std::uint64_t> start_ns{0};
    std::vector<std::uint64_t> end_ns(threads, 0);
    runtime::ThreadTeam::run(threads, [&](std::uint32_t tid) {
      std::uint64_t sink = 0;
      start.arrive_and_wait();
      if (tid == 0) {
        start_ns.store(runtime::now_ns(), std::memory_order_relaxed);
      }
      for (std::uint64_t i = 0; i < iters; ++i) {
        lock->acquire();
        sink ^= runtime::busy_work(4, sink + i);  // short CS
        lock->release();
      }
      end_ns[tid] = runtime::now_ns();
      (void)sink;
    });
    std::uint64_t last = 0;
    for (auto e : end_ns) last = std::max(last, e);
    const double seconds =
        static_cast<double>(last -
                            start_ns.load(std::memory_order_relaxed)) *
        1e-9;
    const double mops =
        static_cast<double>(iters) * threads / seconds * 1e-6;
    if (mops > best) best = mops;
  }
  return best;
}

double pct_overhead(double base, double variant) {
  return (base / variant - 1.0) * 100.0;
}

struct Row {
  std::string lock;
  std::uint32_t threads = 0;
  double orig_mops = 0;
  double resil_mops = 0;
  double shield_mops = 0;
  double shield_resil_mops = 0;
  // shield<lock> with the adaptive RESILOCK_POLICY rule set installed:
  // the engine-routed verdict pipeline plus live contention telemetry.
  double engine_mops = 0;
};

bool write_json(const char* path, const std::vector<Row>& rows,
                std::uint32_t max_threads, std::uint32_t reps,
                std::uint64_t iters) {
  return bench::write_bench_json(
      path, "shield_overhead", max_threads, reps, iters,
      [&](bench::JsonWriter& w) {
        for (const auto& r : rows) {
          w.begin_object();
          w.field("lock", r.lock);
          w.field("threads", r.threads);
          w.field("orig_mops", r.orig_mops);
          w.field("resil_mops", r.resil_mops);
          w.field("shield_mops", r.shield_mops);
          w.field("shield_resil_mops", r.shield_resil_mops);
          w.field("engine_mops", r.engine_mops);
          w.end_object();
        }
      });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resilock::harness;

  const char* json_path = bench::json_out_path(argc, argv);

  // Price the ownership layer alone, whatever RESILOCK_LOCKDEP says.
  lockdep::LockdepEnabledGuard lockdep_off(false);

  const std::uint32_t max_threads = env_max_threads();
  const std::uint32_t reps = env_reps();
  const std::uint64_t iters =
      static_cast<std::uint64_t>(50000 * env_scale());

  std::printf(
      "=== Shield overhead: generic ownership shield vs native "
      "in-protocol checks ===\n"
      "(best of %u reps, %llu ops/thread; %% overhead is relative to the "
      "original protocol)\n\n",
      reps, static_cast<unsigned long long>(iters));

  const std::vector<std::string> locks = {"TAS", "Ticket", "ABQL",
                                          "MCS",  "CLH",   "HMCS"};
  std::vector<Row> rows;
  for (std::uint32_t threads : {1u, max_threads}) {
    std::printf("--- threads = %u ---\n", threads);
    std::printf("%-8s %12s | %10s %12s %14s %10s\n", "Lock", "orig Mops",
                "resil %", "shield %", "shield+resil %", "engine %");
    for (const auto& name : locks) {
      Row r;
      r.lock = name;
      r.threads = threads;
      r.orig_mops = best_mops(name, kOriginal, threads, iters, reps);
      r.resil_mops = best_mops(name, kResilient, threads, iters, reps);
      r.shield_mops =
          best_mops(shielded_name(name), kOriginal, threads, iters, reps);
      r.shield_resil_mops =
          best_mops(shielded_name(name), kResilient, threads, iters, reps);
      {
        // Same shielded lock, but with the adaptive escalation rules
        // installed so every verdict would route through the engine.
        response::ResponseRulesGuard adaptive(
            response::adaptive_policy_spec());
        r.engine_mops = best_mops(shielded_name(name), kOriginal, threads,
                                  iters, reps);
      }
      std::printf("%-8s %12.2f | %9.2f%% %11.2f%% %13.2f%% %9.2f%%\n",
                  name.c_str(), r.orig_mops,
                  pct_overhead(r.orig_mops, r.resil_mops),
                  pct_overhead(r.orig_mops, r.shield_mops),
                  pct_overhead(r.orig_mops, r.shield_resil_mops),
                  pct_overhead(r.orig_mops, r.engine_mops));
      std::fflush(stdout);
      rows.push_back(r);
    }
    std::printf("\n");
  }
  std::printf(
      "resil        = the paper's in-protocol fix (Table 2's subject).\n"
      "shield       = shield<lock> over the ORIGINAL protocol: all\n"
      "               protection comes from the generic ownership layer.\n"
      "shield+resil = shield over the resilient flavor (defense in "
      "depth).\n"
      "engine       = shield<lock> with RESILOCK_POLICY=adaptive rules:\n"
      "               the response-engine verdict pipeline armed.\n"
      "Negative values are measurement noise.\n");

  if (json_path != nullptr &&
      !write_json(json_path, rows, max_threads, reps, iters)) {
    return 1;
  }
  return 0;
}
