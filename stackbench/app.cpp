// stackbench_app: the shim-unaware pthread program the benchmark
// drives. It includes no resilock header and links only libpthread;
// run.py starts it bare (glibc) and under LD_PRELOAD=
// libresilock_preload.so on the same op sequence.
//
//   stackbench_app <ops-file> [--trace] [--probe]
//
// --trace times every pthread_* call (spans in the result line);
// --probe adds the one-thread probe after the workload. Prints one
// JSON result line; exits 0 even when a check fails (the line says
// which), 2 on bad input.

#include <pthread.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "workload.hpp"

namespace {

// The ledger's lazily adopted lock: never pthread_mutex_init'ed, so the
// preload adopts it on first use. The only static lock the app has.
pthread_mutex_t g_stats_mu = PTHREAD_MUTEX_INITIALIZER;

struct PthreadApi {
  using Mutex = pthread_mutex_t;
  using RwLock = pthread_rwlock_t;
  using Cond = pthread_cond_t;
  static constexpr bool kHasCond = true;

  void mutex_init(Mutex* m) { pthread_mutex_init(m, nullptr); }
  void rw_init(RwLock* rw) { pthread_rwlock_init(rw, nullptr); }
  void cond_init(Cond* c) { pthread_cond_init(c, nullptr); }
  Mutex* static_mutex() { return &g_stats_mu; }

  int lock(Mutex* m) { return pthread_mutex_lock(m); }
  int unlock(Mutex* m) { return pthread_mutex_unlock(m); }
  int rdlock(RwLock* rw) { return pthread_rwlock_rdlock(rw); }
  int wrlock(RwLock* rw) { return pthread_rwlock_wrlock(rw); }
  int rwunlock(RwLock* rw) { return pthread_rwlock_unlock(rw); }
  void cond_signal(Cond* c) { pthread_cond_signal(c); }
  void cond_broadcast(Cond* c) { pthread_cond_broadcast(c); }
  void cond_wait(Cond* c, Mutex* m) { pthread_cond_wait(c, m); }
  // A deadline in the past: the wait path runs and returns ETIMEDOUT.
  void cond_wait_expired(Cond* c, Mutex* m) {
    const timespec past = {0, 0};
    pthread_cond_timedwait(c, m, &past);
  }
};

stackbench::World<PthreadApi> g_world;

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_start = stackbench::now_ns();
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <ops-file> [--trace] [--probe]\n",
                 argv[0]);
    return 2;
  }
  bool traced = false, probe = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      traced = true;
    } else if (std::strcmp(argv[i], "--probe") == 0) {
      probe = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  stackbench::Ops ops;
  std::string err;
  if (!stackbench::load_ops(argv[1], &ops, &err)) {
    std::fprintf(stderr, "stackbench_app: %s\n", err.c_str());
    return 2;
  }
  if (ops.workload == "pipeline" && ops.threads != 1 && ops.threads != 3) {
    std::fprintf(stderr, "stackbench_app: pipeline runs 1 or 3 threads\n");
    return 2;
  }
  // A wedged lock must not hang run.py; SIGALRM ends the process
  // and run.py counts its ops as failed.
  alarm(60);

  PthreadApi api;
  stackbench::RunResult r =
      traced ? stackbench::run_workload<PthreadApi, true>(api, g_world, ops)
             : stackbench::run_workload<PthreadApi, false>(api, g_world, ops);
  const double timer_ns = stackbench::timer_cost_ns();
  std::vector<stackbench::Hist> probe_spans;
  if (probe) probe_spans = stackbench::run_probe(api, /*stray_ok=*/true);
  const bool uses_static =
      ops.workload == "ledger" || ops.workload == "misuse-storm";
  stackbench::print_result(stdout, ops, t_start, r, timer_ns,
                           uses_static ? 1 : 0,
                           probe ? &probe_spans : nullptr);
  return 0;
}
