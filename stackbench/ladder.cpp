// stackbench_ladder: the in-process cost ladder. One process per rung;
// each replays a workload's op sequence through one layer's public
// entry point and times every lock call, exactly as stackbench_app
// times its pthread_* calls under the preload.
//
//   stackbench_ladder <ops-file> --backend <b> [--probe]
//
//   glibc             pthread_mutex_* / pthread_rwlock_*
//   registry:<name>   the lock registry's AnyLock for <name> ("MCS",
//                     "shield<MCS>"); rwlocks go through rl_rwlock_*
//   rl                rl_mutex_* / rl_rwlock_*
//   decide            ResponseEngine::decide() once per injected misuse
//
// Everything else a rung needs (RESILOCK_SHIELD, RESILOCK_LOCKDEP,
// RESILOCK_LOCKSTAT, RESILOCK_PARK, RESILOCK_TELEMETRY) comes from the
// environment run.py sets, read once by the library at first use. The
// ladder never runs under LD_PRELOAD.
//
// The rl_* shim has no condition variables, so on every rung a full or
// empty pipeline queue is polled (unlock, yield, relock).

#include <pthread.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "core/lock_registry.hpp"
#include "interpose/pthread_shim.hpp"
#include "response/response.hpp"
#include "workload.hpp"

namespace {

namespace ri = resilock::interpose;
namespace rr = resilock::response;

struct NoCond {};

struct GlibcApi {
  using Mutex = pthread_mutex_t;
  using RwLock = pthread_rwlock_t;
  using Cond = NoCond;
  static constexpr bool kHasCond = false;

  void mutex_init(Mutex* m) { pthread_mutex_init(m, nullptr); }
  void rw_init(RwLock* rw) { pthread_rwlock_init(rw, nullptr); }
  void cond_init(Cond*) {}
  Mutex* static_mutex() { return &stats_mu; }
  int lock(Mutex* m) { return pthread_mutex_lock(m); }
  int unlock(Mutex* m) { return pthread_mutex_unlock(m); }
  int rdlock(RwLock* rw) { return pthread_rwlock_rdlock(rw); }
  int wrlock(RwLock* rw) { return pthread_rwlock_wrlock(rw); }
  int rwunlock(RwLock* rw) { return pthread_rwlock_unlock(rw); }
  void cond_signal(Cond*) {}
  void cond_broadcast(Cond*) {}
  void cond_wait(Cond*, Mutex*) {}

  pthread_mutex_t stats_mu = PTHREAD_MUTEX_INITIALIZER;
};

// Shared by the registry and rl backends: the rl_rwlock_* shim is the
// only public entry to the C-RW locks.
struct RlRw {
  using RwLock = ri::rl_rwlock_t;
  void rw_init(RwLock* rw) { ri::rl_rwlock_init(rw, nullptr, 1); }
  int rdlock(RwLock* rw) { return ri::rl_rwlock_rdlock(rw); }
  int wrlock(RwLock* rw) { return ri::rl_rwlock_wrlock(rw); }
  int rwunlock(RwLock* rw) { return ri::rl_rwlock_unlock(rw); }
};

struct RegistryApi : RlRw {
  struct Mutex {
    std::unique_ptr<resilock::AnyLock> lock;
  };
  using Cond = NoCond;
  static constexpr bool kHasCond = false;

  explicit RegistryApi(std::string n) : name(std::move(n)) {
    mutex_init(&stats_mu);
  }
  void mutex_init(Mutex* m) {
    m->lock = resilock::make_lock(name, resilock::kResilient);
  }
  void cond_init(Cond*) {}
  Mutex* static_mutex() { return &stats_mu; }
  int lock(Mutex* m) {
    m->lock->acquire();
    return 0;
  }
  int unlock(Mutex* m) { return m->lock->release() ? 0 : EPERM; }
  void cond_signal(Cond*) {}
  void cond_broadcast(Cond*) {}
  void cond_wait(Cond*, Mutex*) {}

  std::string name;
  Mutex stats_mu;
};

struct RlApi : RlRw {
  using Mutex = ri::rl_mutex_t;
  using Cond = NoCond;
  static constexpr bool kHasCond = false;

  RlApi() { mutex_init(&stats_mu); }
  void mutex_init(Mutex* m) { ri::rl_mutex_init(m, nullptr, 1); }
  void cond_init(Cond*) {}
  Mutex* static_mutex() { return &stats_mu; }
  int lock(Mutex* m) { return ri::rl_mutex_lock(m); }
  int unlock(Mutex* m) { return ri::rl_mutex_unlock(m); }
  void cond_signal(Cond*) {}
  void cond_broadcast(Cond*) {}
  void cond_wait(Cond*, Mutex*) {}

  Mutex stats_mu{nullptr};
};

// decide() with or without the static fallback argument, so the rung
// keeps compiling when the fallback path goes away.
template <class Engine>
rr::Action decide_on(Engine& eng, rr::ResponseEvent ev,
                     const rr::EventContext& ctx) {
  if constexpr (requires { eng.decide(ev, ctx, rr::Action::kSuppress); }) {
    return eng.decide(ev, ctx, rr::Action::kSuppress);
  } else {
    return eng.decide(ev, ctx);
  }
}

rr::Action decide(rr::ResponseEvent ev, const rr::EventContext& ctx) {
  return decide_on(rr::ResponseEngine::instance(), ev, ctx);
}

// The decide rung: each thread replays its sequence's think time and
// asks the engine for a verdict wherever the sequence injects a stray
// unlock (an unlock of a lock another thread holds).
stackbench::RunResult run_decide(const stackbench::Ops& ops) {
  stackbench::RunResult res;
  for (int i = 0; i < ops.threads; ++i) res.stats.emplace_back(true);
  std::atomic<int> arrived{0};
  struct Arg {
    const stackbench::Ops* ops;
    stackbench::ThreadStats* st;
    int tid;
    std::atomic<int>* arrived;
  };
  auto body = [](void* p) -> void* {
    auto* a = static_cast<Arg*>(p);
    a->arrived->fetch_add(1);
    while (a->arrived->load() < a->ops->threads) stackbench::cpu_relax();
    rr::EventContext ctx;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull + a->tid;
    for (std::uint64_t r = 0; r < a->ops->rounds; ++r) {
      for (std::uint32_t v : a->ops->seq[a->tid]) {
        if ((v >> 24) & 1u) {
          const std::uint64_t t0 = stackbench::now_ns();
          if (decide(rr::ResponseEvent::kNonOwnerUnlock, ctx) ==
              rr::Action::kSuppress) {
            ++a->st->eperm;
          }
          a->st->spans[stackbench::kDecide].add(stackbench::now_ns() - t0);
          ++a->st->injected;
        }
        rng = stackbench::think(rng, a->ops->think);
        ++a->st->ops;
      }
    }
    a->st->sum = rng;
    return nullptr;
  };
  std::vector<Arg> args(ops.threads);
  std::vector<pthread_t> tids(ops.threads);
  for (int i = 0; i < ops.threads; ++i) {
    args[i] = {&ops, &res.stats[i], i, &arrived};
  }
  const std::uint64_t t0 = stackbench::now_ns();
  for (int i = 1; i < ops.threads; ++i) {
    pthread_create(&tids[i], nullptr, +body, &args[i]);
  }
  body(&args[0]);
  for (int i = 1; i < ops.threads; ++i) pthread_join(tids[i], nullptr);
  res.t_ready_ns = t0;
  res.elapsed_ns = stackbench::now_ns() - t0;
  res.check = "ok";
  return res;
}

std::vector<stackbench::Hist> probe_decide() {
  std::vector<stackbench::Hist> h(stackbench::kSpans);
  rr::EventContext ctx;
  for (int i = 0; i < stackbench::kProbeIters; ++i) {
    const std::uint64_t t0 = stackbench::now_ns();
    decide(rr::ResponseEvent::kNonOwnerUnlock, ctx);
    h[stackbench::kDecide].add(stackbench::now_ns() - t0);
  }
  return h;
}

template <class Api>
stackbench::RunResult run_locks(Api& api, const stackbench::Ops& ops) {
  // Never destroyed: shields retire their lockdep classes on
  // destruction, which must not race the library's static teardown.
  auto* world = new stackbench::World<Api>;
  return stackbench::run_workload<Api, true>(api, *world, ops);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_start = stackbench::now_ns();
  if (argc < 4 || std::strcmp(argv[2], "--backend") != 0) {
    std::fprintf(stderr,
                 "usage: %s <ops-file> --backend glibc|registry:<name>|rl|"
                 "decide [--probe]\n",
                 argv[0]);
    return 2;
  }
  const std::string_view backend = argv[3];
  const bool probe = argc > 4 && std::strcmp(argv[4], "--probe") == 0;
  stackbench::Ops ops;
  std::string err;
  if (!stackbench::load_ops(argv[1], &ops, &err)) {
    std::fprintf(stderr, "stackbench_ladder: %s\n", err.c_str());
    return 2;
  }
  if (ops.workload == "pipeline" && ops.threads != 1 && ops.threads != 3) {
    std::fprintf(stderr, "stackbench_ladder: pipeline runs 1 or 3 threads\n");
    return 2;
  }
  alarm(60);

  stackbench::RunResult r;
  std::vector<stackbench::Hist> probe_spans;
  if (backend == "glibc") {
    // Bare glibc corrupts under a stray unlock; like the bare side of
    // the end-to-end pairs it runs the sequence without injection.
    for (auto& s : ops.seq) {
      for (auto& v : s) v &= ~(1u << 24);
    }
    GlibcApi api;
    r = run_locks(api, ops);
    if (probe) probe_spans = stackbench::run_probe(api, false);
  } else if (backend.substr(0, 9) == "registry:") {
    const std::string name(backend.substr(9));
    if (!resilock::is_lock_name(name)) {
      std::fprintf(stderr, "stackbench_ladder: unknown lock %s\n",
                   name.c_str());
      return 2;
    }
    RegistryApi api(name);
    r = run_locks(api, ops);
    if (probe) probe_spans = stackbench::run_probe(api, true);
  } else if (backend == "rl") {
    RlApi api;
    r = run_locks(api, ops);
    if (probe) probe_spans = stackbench::run_probe(api, true);
  } else if (backend == "decide") {
    r = run_decide(ops);
    if (probe) probe_spans = probe_decide();
  } else {
    std::fprintf(stderr, "stackbench_ladder: unknown backend\n");
    return 2;
  }
  const double timer_ns = stackbench::timer_cost_ns();
  stackbench::print_result(stdout, ops, t_start, r, timer_ns, 0,
                           probe ? &probe_spans : nullptr);
  return 0;
}
