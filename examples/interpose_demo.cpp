// interpose_demo: one program, every lock — the LiTL workflow in-process.
//
// Runs the same contended counter workload over each registered lock
// algorithm in both flavors and prints a throughput table, demonstrating
// runtime algorithm selection through the type-erased registry (what the
// paper does to PARSEC applications via LD_PRELOAD, §6). Ends with a
// misuse drill against a shielded lock and prints the shield's misuse
// counters — detection telemetry, not just survival.
//
// Build & run:  ./interpose_demo
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/lock_registry.hpp"
#include "response/response.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"

using namespace resilock;

namespace {

double mops_for(const std::string& name, Resilience flavor,
                std::uint32_t threads, std::uint64_t iters) {
  auto lock = make_lock(name, flavor);
  std::uint64_t counter = 0;
  const double secs = runtime::timed_seconds([&] {
    runtime::ThreadTeam::run(threads, [&](std::uint32_t) {
      for (std::uint64_t i = 0; i < iters; ++i) {
        lock->acquire();
        ++counter;
        lock->release();
      }
    });
  });
  if (counter != iters * threads) {
    std::printf("!! %s lost updates\n", name.c_str());
  }
  return static_cast<double>(counter) / secs / 1e6;
}

}  // namespace

int main() {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kIters = 50'000;
  std::printf("== interpose_demo: same workload, every algorithm "
              "(%u threads x %llu ops) ==\n\n",
              kThreads, static_cast<unsigned long long>(kIters));
  std::printf("%-20s %14s %14s %10s\n", "lock", "original Mops",
              "resilient Mops", "overhead");
  for (const auto& name : lock_names()) {
    const double orig = mops_for(name, kOriginal, kThreads, kIters);
    const double resi = mops_for(name, kResilient, kThreads, kIters);
    std::printf("%-20s %14.2f %14.2f %9.1f%%\n", name.c_str(), orig, resi,
                (orig / resi - 1.0) * 100.0);
  }
  std::printf("\nPositive overhead = the price of misuse detection; "
              "near-zero for the scalable queue locks,\nmatching the "
              "paper's Table 2.\n");

  // Misuse drill: hit one shielded lock with all four canonical
  // misuses, then read its counters back through the type-erased API —
  // what an interposed program's exit hook would log.
  std::printf("\n== misuse drill: shield<MCS> over the ORIGINAL "
              "protocol ==\n");
  response::ResponseRulesGuard pin("");  // misuse=suppress
  auto drilled = make_lock("shield<MCS>", kOriginal);
  drilled->release();  // unbalanced unlock of a free lock
  drilled->acquire();
  drilled->release();
  drilled->release();  // double unlock by the previous owner
  drilled->acquire();
  drilled->acquire();  // reentrant relock (absorbed as a depth bump)
  drilled->release();
  drilled->release();
  std::atomic<bool> held{false}, done{false};
  std::thread holder([&] {
    drilled->acquire();
    held.store(true);
    while (!done.load()) std::this_thread::yield();
    drilled->release();
  });
  while (!held.load()) std::this_thread::yield();
  drilled->release();  // unlock while another thread holds the lock
  done.store(true);
  holder.join();
  drilled->acquire();  // still functional after all of the above
  drilled->release();
  std::printf(
      "shield intercepted %llu misuses (unbalanced, double, reentrant "
      "relock,\nnon-owner) and the lock stayed functional throughout — "
      "detection counters\nare what turns a suppressed bug into a fixed "
      "one.\n",
      static_cast<unsigned long long>(drilled->misuse_total()));
  return 0;
}
