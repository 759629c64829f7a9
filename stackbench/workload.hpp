// The benchmark's four lock workloads, written once against a lock API
// template parameter so that the shim-unaware app (pthread_*) and the
// in-process cost ladder (registry locks, rl_* shim) replay exactly the
// same op sequence with the same think time.
//
// This header must stay free of resilock includes: stackbench_app is
// compiled from it and links only libpthread.
//
// Op sequences come from run.py as a text file:
//   stackbench-ops 1 <workload> <threads> <rounds> <think>
//   <n> <op> <op> ...        one line per thread
// Each thread replays its line <rounds> times. Encodings:
//   ledger, misuse-storm  bits 0-7 account i, 8-15 account j,
//                         16-23 amount, bit 24 "inject a stray unlock"
//   rwcache               bits 0-15 entry, bit 16 "write"
//   pipeline              thread 0 (producer) only: the 16-bit payloads
#pragma once

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace stackbench {

inline std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// ---------------------------------------------------------------------
// Log-linear latency histogram: exact 1 ns buckets below 4096 ns, then
// 32 buckets per power of two. Percentiles interpolate inside the
// bucket, so a median is not quantized to whole nanoseconds.
// ---------------------------------------------------------------------
class Hist {
 public:
  static constexpr std::uint64_t kLinear = 4096;
  static constexpr int kSubBits = 5;
  static constexpr int kMaxOctave = 40;

  Hist() : b_(kLinear + (kMaxOctave - 11) * (1u << kSubBits), 0) {}

  void add(std::uint64_t v) {
    ++b_[index(v)];
    ++n_;
  }
  void merge(const Hist& o) {
    for (std::size_t i = 0; i < b_.size(); ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }

  // q in [0, 1]; 0 when empty.
  double pct(double q) const {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_ - 1) + 0.5;
    double cum = 0;
    for (std::size_t i = 0; i < b_.size(); ++i) {
      if (b_[i] == 0) continue;
      const double c = static_cast<double>(b_[i]);
      if (cum + c >= target) {
        const double frac = (target - cum) / c;
        return lower(i) + frac * width(i);
      }
      cum += c;
    }
    return lower(b_.size() - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    int o = 63 - __builtin_clzll(v);
    if (o > kMaxOctave) {
      o = kMaxOctave;
      v = (2ull << kMaxOctave) - 1;
    }
    const std::uint64_t sub = (v >> (o - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + static_cast<std::size_t>(o - 12) * (1u << kSubBits) +
           static_cast<std::size_t>(sub);
  }
  static double lower(std::size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const std::size_t k = i - kLinear;
    const int o = static_cast<int>(k >> kSubBits) + 12;
    const std::uint64_t sub = k & ((1u << kSubBits) - 1);
    return static_cast<double>(((1ull << kSubBits) + sub) << (o - kSubBits));
  }
  static double width(std::size_t i) {
    if (i < kLinear) return 1.0;
    const int o = static_cast<int>((i - kLinear) >> kSubBits) + 12;
    return static_cast<double>(1ull << (o - kSubBits));
  }

  std::vector<std::uint64_t> b_;
  std::uint64_t n_ = 0;
};

// Median cost of one now_ns() span with nothing inside it; run.py
// subtracts it once per timed call.
inline double timer_cost_ns() {
  Hist h;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    h.add(b - a);
  }
  return h.pct(0.5);
}

// ---------------------------------------------------------------------
// Op sequences.
// ---------------------------------------------------------------------
struct Ops {
  std::string workload;
  int threads = 0;
  std::uint64_t rounds = 0;
  int think = 0;
  std::vector<std::vector<std::uint32_t>> seq;  // per thread
};

inline bool load_ops(const char* path, Ops* out, std::string* err) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    *err = std::string("cannot open ") + path;
    return false;
  }
  char wl[64] = {0};
  int version = 0;
  unsigned long long rounds = 0;
  if (std::fscanf(f, "stackbench-ops %d %63s %d %llu %d", &version, wl,
                  &out->threads, &rounds, &out->think) != 5 ||
      version != 1 || out->threads < 1 || out->threads > 64 ||
      out->think < 0 || rounds < 1) {
    std::fclose(f);
    *err = "malformed ops header";
    return false;
  }
  out->workload = wl;
  out->rounds = rounds;
  out->seq.resize(static_cast<std::size_t>(out->threads));
  for (auto& s : out->seq) {
    unsigned long n = 0;
    if (std::fscanf(f, "%lu", &n) != 1 || n > (1ul << 26)) {
      std::fclose(f);
      *err = "malformed ops line";
      return false;
    }
    s.resize(n);
    for (auto& v : s) {
      unsigned long x = 0;
      if (std::fscanf(f, "%lu", &x) != 1) {
        std::fclose(f);
        *err = "truncated ops line";
        return false;
      }
      v = static_cast<std::uint32_t>(x);
    }
  }
  std::fclose(f);
  return true;
}

// Stretches a critical section without touching shared memory.
inline void widen(int steps) {
  for (int k = 0; k < steps; ++k) asm volatile("" ::: "memory");
}

// Caller-side compute between ops (outside every lock).
inline std::uint64_t think(std::uint64_t s, int steps) {
  for (int k = 0; k < steps; ++k) {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
  }
  return s;
}

// ---------------------------------------------------------------------
// Per-thread results. The span histograms exist only in traced runs.
// ---------------------------------------------------------------------
enum Span {
  kPair,        // lock call + matching unlock call, mutex or rwlock
  kLockCall,    // the acquiring call alone (wait + acquire cost)
  kUnlockCall,  // the releasing call alone
  kRdPair,
  kWrPair,
  kCondSignal,
  kCondWait,
  kMisuse,      // an injected stray unlock call
  kDecide,      // a response-engine verdict (ladder decide rung only)
  kSpans
};
inline const char* const kSpanNames[kSpans] = {
    "pair", "lock_call", "unlock_call", "rd_pair", "wr_pair",
    "cond_signal", "cond_wait", "misuse", "decide"};

struct ThreadStats {
  explicit ThreadStats(bool traced) {
    if (traced) spans.resize(kSpans);
  }
  Hist lat;
  std::vector<Hist> spans;
  std::uint64_t ops = 0;
  std::uint64_t injected = 0;
  std::uint64_t eperm = 0;
  std::uint64_t sum = 0;  // pipeline checksum contribution
};

// ---------------------------------------------------------------------
// Call wrappers: untimed in the measured runs, spanned in traced runs.
// Lock spans wait on a LIFO stack until their unlock closes the pair.
// ---------------------------------------------------------------------
template <class Api, bool kTraced>
class Caller {
 public:
  Caller(Api& api, ThreadStats& st) : api_(api), st_(st) {}

  void lock(typename Api::Mutex* m) { span_lock([&] { api_.lock(m); }); }
  void rdlock(typename Api::RwLock* rw) {
    span_lock([&] { api_.rdlock(rw); });
  }
  void wrlock(typename Api::RwLock* rw) {
    span_lock([&] { api_.wrlock(rw); });
  }
  void unlock(typename Api::Mutex* m) {
    span_unlock(kPair, [&] { return api_.unlock(m); });
  }
  void rwunlock(typename Api::RwLock* rw, bool write) {
    span_unlock(write ? kWrPair : kRdPair,
                [&] { return api_.rwunlock(rw); });
  }
  // The paper's §2 bug: unlock of a lock this thread does not hold.
  void stray_unlock(typename Api::Mutex* m) {
    const std::uint64_t t0 = kTraced ? now_ns() : 0;
    const int rc = api_.unlock(m);
    if constexpr (kTraced) st_.spans[kMisuse].add(now_ns() - t0);
    ++st_.injected;
    if (rc == EPERM) ++st_.eperm;
  }
  void cond_signal(typename Api::Cond* c) {
    const std::uint64_t t0 = kTraced ? now_ns() : 0;
    api_.cond_signal(c);
    if constexpr (kTraced) st_.spans[kCondSignal].add(now_ns() - t0);
  }
  void cond_wait(typename Api::Cond* c, typename Api::Mutex* m) {
    const std::uint64_t t0 = kTraced ? now_ns() : 0;
    api_.cond_wait(c, m);
    if constexpr (kTraced) st_.spans[kCondWait].add(now_ns() - t0);
  }

 private:
  template <class F>
  void span_lock(F&& f) {
    if constexpr (kTraced) {
      const std::uint64_t t0 = now_ns();
      f();
      const std::uint64_t d = now_ns() - t0;
      st_.spans[kLockCall].add(d);
      open_[depth_++ & 3] = d;
    } else {
      f();
    }
  }
  template <class F>
  void span_unlock(Span kind, F&& f) {
    if constexpr (kTraced) {
      const std::uint64_t t0 = now_ns();
      f();
      const std::uint64_t d = now_ns() - t0;
      st_.spans[kUnlockCall].add(d);
      const std::uint64_t pair = open_[--depth_ & 3] + d;
      st_.spans[kPair].add(pair);
      if (kind != kPair) st_.spans[kind].add(pair);
    } else {
      f();
    }
  }

  Api& api_;
  ThreadStats& st_;
  std::uint64_t open_[4] = {0, 0, 0, 0};
  unsigned depth_ = 0;
};

// ---------------------------------------------------------------------
// Shared state of one run.
// ---------------------------------------------------------------------
constexpr int kAccounts = 64;
constexpr long kInitialBalance = 1000;
constexpr int kEntries = 256;
constexpr int kQueueCap = 64;

template <class Api>
struct BoundedQueue {
  typename Api::Mutex mu;
  typename Api::Cond not_empty;
  typename Api::Cond not_full;
  std::uint64_t payload[kQueueCap] = {};
  std::uint64_t born[kQueueCap] = {};
  int head = 0;
  int count = 0;
  bool closed = false;
};

template <class Api>
struct World {
  // ledger / misuse-storm
  typename Api::Mutex account[kAccounts];
  long balance[kAccounts] = {};
  int in_cs[kAccounts] = {};  // touched only under account[i]
  std::uint64_t stats_ops = 0;
  // rwcache
  typename Api::RwLock table;
  std::uint64_t a[kEntries] = {};
  std::uint64_t b[kEntries] = {};
  // pipeline
  BoundedQueue<Api> q1, q2;

  std::atomic<bool> invaded{false};
  std::atomic<bool> torn{false};
  std::atomic<int> arrived{0};
  std::atomic<bool> go{false};
};

// ---------------------------------------------------------------------
// The workloads. Each returns after replaying its thread's sequence.
// ---------------------------------------------------------------------
template <class Api, bool kTraced>
class Runner {
 public:
  Runner(Api& api, World<Api>& w, const Ops& ops)
      : api_(api), w_(w), ops_(ops) {}

  void init() {
    for (int i = 0; i < kAccounts; ++i) {
      api_.mutex_init(&w_.account[i]);
      w_.balance[i] = kInitialBalance;
    }
    api_.rw_init(&w_.table);
    for (auto* q : {&w_.q1, &w_.q2}) {
      api_.mutex_init(&q->mu);
      api_.cond_init(&q->not_empty);
      api_.cond_init(&q->not_full);
    }
  }

  // Touches every lock the workload uses, so adoption, lockdep class
  // registration and condvar shadows are all in place before timing.
  void warm(int tid, ThreadStats& st) {
    Caller<Api, false> c(api_, st);
    const std::string& wl = ops_.workload;
    if (wl == "ledger" || wl == "misuse-storm") {
      for (int i = 0; i < kAccounts; ++i) {
        c.lock(&w_.account[i]);
        c.unlock(&w_.account[i]);
      }
      c.lock(api_.static_mutex());
      c.unlock(api_.static_mutex());
    } else if (wl == "rwcache") {
      c.rdlock(&w_.table);
      c.rwunlock(&w_.table, false);
      c.wrlock(&w_.table);
      c.rwunlock(&w_.table, true);
    } else if (wl == "pipeline") {
      for (auto* q : {&w_.q1, &w_.q2}) {
        c.lock(&q->mu);
        if constexpr (Api::kHasCond) {
          c.cond_signal(&q->not_empty);
          c.cond_signal(&q->not_full);
        }
        c.unlock(&q->mu);
      }
    }
    (void)tid;
  }

  void run(int tid, ThreadStats& st) {
    Caller<Api, kTraced> c(api_, st);
    const std::string& wl = ops_.workload;
    if (wl == "ledger" || wl == "misuse-storm") {
      ledger(tid, c, st);
    } else if (wl == "rwcache") {
      rwcache(tid, c, st);
    } else if (ops_.threads == 1) {
      pipeline_single(c, st);
    } else if (tid == 0) {
      producer(c, st);
    } else if (tid == 1) {
      transformer(c, st);
    } else {
      consumer(c, st);
    }
  }

  // Invariants checked after every run; "ok" or the first violation.
  const char* check(const std::vector<ThreadStats*>& all) const {
    const std::string& wl = ops_.workload;
    if (wl == "ledger" || wl == "misuse-storm") {
      long total = 0;
      for (long bal : w_.balance) total += bal;
      if (w_.invaded.load()) return "critical-section-invaded";
      if (total != kAccounts * kInitialBalance) return "balance-not-conserved";
      std::uint64_t flushes = 0;
      for (auto* s : all) flushes += s->ops / 1024;
      if (w_.stats_ops != flushes) return "stats-lost-update";
    } else if (wl == "rwcache") {
      if (w_.torn.load()) return "torn-read";
      std::uint64_t writes = 0;
      for (const auto& s : ops_.seq) {
        for (std::uint32_t v : s) writes += (v >> 16) & 1u;
      }
      std::uint64_t sum = 0;
      for (int e = 0; e < kEntries; ++e) sum += w_.a[e];
      if (sum != writes * ops_.rounds) return "lost-write";
    } else if (wl == "pipeline") {
      std::uint64_t produced = 0;
      for (std::uint32_t v : ops_.seq[0]) produced += v & 0xFFFFu;
      produced *= ops_.rounds;
      std::uint64_t consumed = 0, items = 0;
      for (auto* s : all) consumed += s->sum;
      items = ops_.threads == 1 ? all[0]->ops : all.back()->ops;
      if (items != ops_.seq[0].size() * ops_.rounds) return "items-lost";
      if (consumed != produced) return "checksum-mismatch";
    }
    return "ok";
  }

 private:
  void ledger(int tid, Caller<Api, kTraced>& c, ThreadStats& st) {
    const auto& seq = ops_.seq[static_cast<std::size_t>(tid)];
    std::uint64_t rng = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(tid);
    std::uint64_t done = 0;
    for (std::uint64_t r = 0; r < ops_.rounds; ++r) {
      for (std::uint32_t v : seq) {
        const int i = static_cast<int>(v & 0xFFu);
        const int j = static_cast<int>((v >> 8) & 0xFFu);
        const long amount = static_cast<long>((v >> 16) & 0xFFu);
        const std::uint64_t t0 = now_ns();
        typename Api::Mutex* first = &w_.account[i < j ? i : j];
        typename Api::Mutex* second = &w_.account[i < j ? j : i];
        c.lock(first);
        c.lock(second);
        if (++w_.in_cs[i] != 1) w_.invaded.store(true, std::memory_order_relaxed);
        w_.balance[i] -= amount;
        widen(8);  // so an invader is observed
        w_.balance[j] += amount;
        --w_.in_cs[i];
        c.unlock(second);
        c.unlock(first);
        if ((v >> 24) & 1u) c.stray_unlock(&w_.account[0]);
        st.lat.add(now_ns() - t0);
        rng = think(rng, ops_.think);
        if ((++done & 1023) == 0) {
          c.lock(api_.static_mutex());
          ++w_.stats_ops;
          c.unlock(api_.static_mutex());
        }
      }
    }
    st.ops = done;
    st.sum = rng;  // keeps the think loop observable
  }

  void rwcache(int tid, Caller<Api, kTraced>& c, ThreadStats& st) {
    const auto& seq = ops_.seq[static_cast<std::size_t>(tid)];
    std::uint64_t rng = 0xC0FFEEull + static_cast<std::uint64_t>(tid);
    std::uint64_t done = 0;
    for (std::uint64_t r = 0; r < ops_.rounds; ++r) {
      for (std::uint32_t v : seq) {
        const int e = static_cast<int>(v & 0xFFFFu) % kEntries;
        const std::uint64_t t0 = now_ns();
        if ((v >> 16) & 1u) {
          c.wrlock(&w_.table);
          w_.a[e] += 1;
          widen(16);  // so a torn read is observed
          w_.b[e] += 1;
          c.rwunlock(&w_.table, true);
        } else {
          c.rdlock(&w_.table);
          const std::uint64_t va = w_.a[e];
          const std::uint64_t vb = w_.b[e];
          c.rwunlock(&w_.table, false);
          if (va != vb) w_.torn.store(true, std::memory_order_relaxed);
        }
        st.lat.add(now_ns() - t0);
        rng = think(rng, ops_.think);
        ++done;
      }
    }
    st.ops = done;
    st.sum = rng;
  }

  // Blocking queue ops. Without condvars (the ladder's registry and rl
  // rungs: the rl_* shim has none) a full or empty queue is polled:
  // unlock, yield, relock.
  bool push(Caller<Api, kTraced>& c, BoundedQueue<Api>& q, std::uint64_t v,
            std::uint64_t born) {
    c.lock(&q.mu);
    while (q.count == kQueueCap && !q.closed) wait(c, q.not_full, q.mu);
    if (q.closed) {
      c.unlock(&q.mu);
      return false;
    }
    const int slot = (q.head + q.count) % kQueueCap;
    q.payload[slot] = v;
    q.born[slot] = born;
    ++q.count;
    if constexpr (Api::kHasCond) c.cond_signal(&q.not_empty);
    c.unlock(&q.mu);
    return true;
  }
  bool pop(Caller<Api, kTraced>& c, BoundedQueue<Api>& q, std::uint64_t* v,
           std::uint64_t* born) {
    c.lock(&q.mu);
    while (q.count == 0 && !q.closed) wait(c, q.not_empty, q.mu);
    if (q.count == 0) {
      c.unlock(&q.mu);
      return false;
    }
    *v = q.payload[q.head];
    *born = q.born[q.head];
    q.head = (q.head + 1) % kQueueCap;
    --q.count;
    if constexpr (Api::kHasCond) c.cond_signal(&q.not_full);
    c.unlock(&q.mu);
    return true;
  }
  void close(Caller<Api, kTraced>& c, BoundedQueue<Api>& q) {
    c.lock(&q.mu);
    q.closed = true;
    if constexpr (Api::kHasCond) {
      api_.cond_broadcast(&q.not_empty);
      api_.cond_broadcast(&q.not_full);
    }
    c.unlock(&q.mu);
  }
  void wait(Caller<Api, kTraced>& c, typename Api::Cond& cv,
            typename Api::Mutex& mu) {
    if constexpr (Api::kHasCond) {
      c.cond_wait(&cv, &mu);
    } else {
      c.unlock(&mu);
      sched_yield();
      c.lock(&mu);
    }
  }

  void producer(Caller<Api, kTraced>& c, ThreadStats& st) {
    std::uint64_t n = 0;
    for (std::uint64_t r = 0; r < ops_.rounds; ++r) {
      for (std::uint32_t v : ops_.seq[0]) {
        if (!push(c, w_.q1, v & 0xFFFFu, now_ns())) break;
        ++n;
      }
    }
    close(c, w_.q1);
    st.ops = n;
  }
  void transformer(Caller<Api, kTraced>& c, ThreadStats& st) {
    std::uint64_t v = 0, born = 0, n = 0;
    // The transform is checksum-preserving: the consumer undoes it.
    while (pop(c, w_.q1, &v, &born)) {
      push(c, w_.q2, v ^ 0x5A5Au, born);
      ++n;
    }
    close(c, w_.q2);
    st.ops = n;
  }
  void consumer(Caller<Api, kTraced>& c, ThreadStats& st) {
    std::uint64_t v = 0, born = 0, n = 0, sum = 0;
    while (pop(c, w_.q2, &v, &born)) {
      st.lat.add(now_ns() - born);
      sum += v ^ 0x5A5Au;
      ++n;
    }
    st.ops = n;
    st.sum = sum;
  }
  // One thread runs every stage in turn; the queues never block.
  void pipeline_single(Caller<Api, kTraced>& c, ThreadStats& st) {
    std::uint64_t n = 0, sum = 0, v = 0, born = 0;
    for (std::uint64_t r = 0; r < ops_.rounds; ++r) {
      for (std::uint32_t x : ops_.seq[0]) {
        push(c, w_.q1, x & 0xFFFFu, now_ns());
        pop(c, w_.q1, &v, &born);
        push(c, w_.q2, v ^ 0x5A5Au, born);
        pop(c, w_.q2, &v, &born);
        st.lat.add(now_ns() - born);
        sum += v ^ 0x5A5Au;
        ++n;
      }
    }
    st.ops = n;
    st.sum = sum;
  }

  Api& api_;
  World<Api>& w_;
  const Ops& ops_;
};

// ---------------------------------------------------------------------
// One measured run: warm-up on every thread, a start barrier, the
// replay, then the invariant check. The calling thread is worker 0, so
// the process runs exactly ops.threads threads of its own.
// ---------------------------------------------------------------------
struct RunResult {
  std::uint64_t t_ready_ns = 0;  // warm-up done on every thread
  std::uint64_t elapsed_ns = 0;  // start barrier to last thread done
  std::string check;
  std::vector<ThreadStats> stats;
};

template <class Api, bool kTraced>
RunResult run_workload(Api& api, World<Api>& w, const Ops& ops) {
  Runner<Api, kTraced> runner(api, w, ops);
  runner.init();
  RunResult res;
  res.stats.reserve(static_cast<std::size_t>(ops.threads));
  for (int i = 0; i < ops.threads; ++i) res.stats.emplace_back(kTraced);

  struct Arg {
    Runner<Api, kTraced>* runner;
    World<Api>* w;
    ThreadStats* st;
    int tid;
  };
  auto body = [](void* p) -> void* {
    auto* a = static_cast<Arg*>(p);
    a->runner->warm(a->tid, *a->st);
    a->w->arrived.fetch_add(1, std::memory_order_acq_rel);
    while (!a->w->go.load(std::memory_order_acquire)) cpu_relax();
    a->runner->run(a->tid, *a->st);
    return nullptr;
  };
  std::vector<Arg> args(static_cast<std::size_t>(ops.threads));
  std::vector<pthread_t> tids(static_cast<std::size_t>(ops.threads));
  for (int i = 0; i < ops.threads; ++i) {
    args[i] = {&runner, &w, &res.stats[i], i};
  }
  for (int i = 1; i < ops.threads; ++i) {
    if (pthread_create(&tids[i], nullptr, +body, &args[i]) != 0) {
      std::fprintf(stderr, "stackbench: pthread_create failed\n");
      std::exit(3);
    }
  }
  runner.warm(0, res.stats[0]);
  w.arrived.fetch_add(1, std::memory_order_acq_rel);
  while (w.arrived.load(std::memory_order_acquire) < ops.threads) cpu_relax();
  res.t_ready_ns = now_ns();
  w.go.store(true, std::memory_order_release);
  runner.run(0, res.stats[0]);
  for (int i = 1; i < ops.threads; ++i) pthread_join(tids[i], nullptr);
  res.elapsed_ns = now_ns() - res.t_ready_ns;

  std::vector<ThreadStats*> all;
  for (auto& s : res.stats) all.push_back(&s);
  res.check = runner.check(all);
  return res;
}

// ---------------------------------------------------------------------
// The one-thread probe: uncontended calls of every kind the stack
// interposes, for the per-layer metrics whose call the workload's own
// pattern never makes (see NOTES.md). Runs after the workload, in the
// one-thread processes only, so it never touches a layer counter that
// is reported.
// ---------------------------------------------------------------------
constexpr int kProbeIters = 20000;

template <class Api>
std::vector<Hist> run_probe(Api& api, bool stray_ok) {
  typename Api::Mutex m;
  typename Api::RwLock rw;
  typename Api::Cond cv;
  api.mutex_init(&m);
  api.rw_init(&rw);
  api.cond_init(&cv);
  // Separate span sets, so "pair" holds mutex pairs only.
  ThreadStats mx(true), rws(true);
  Caller<Api, true> cm(api, mx), cr(api, rws);
  for (int i = 0; i < kProbeIters; ++i) {
    cm.lock(&m);
    cm.unlock(&m);
    cr.rdlock(&rw);
    cr.rwunlock(&rw, false);
    cr.wrlock(&rw);
    cr.rwunlock(&rw, true);
    if constexpr (Api::kHasCond) {
      cm.cond_signal(&cv);
      api.lock(&m);
      const std::uint64_t t0 = now_ns();
      api.cond_wait_expired(&cv, &m);
      mx.spans[kCondWait].add(now_ns() - t0);
      api.unlock(&m);
    }
    if (stray_ok) cm.stray_unlock(&m);
  }
  mx.spans[kRdPair] = std::move(rws.spans[kRdPair]);
  mx.spans[kWrPair] = std::move(rws.spans[kWrPair]);
  return std::move(mx.spans);
}

// ---------------------------------------------------------------------
// Result line (one JSON object on stdout).
// ---------------------------------------------------------------------
inline void print_hist(std::FILE* f, const char* name, const Hist& h) {
  std::fprintf(f, "\"%s\":{\"n\":%llu,\"p50\":%.4f,\"p99\":%.4f}", name,
               static_cast<unsigned long long>(h.count()), h.pct(0.5),
               h.pct(0.99));
}

inline void print_result(std::FILE* f, const Ops& ops, std::uint64_t t_start,
                         const RunResult& r, double timer_ns,
                         int static_locks, const std::vector<Hist>* probe) {
  Hist lat;
  std::vector<Hist> spans;
  std::uint64_t n = 0, injected = 0, eperm = 0;
  for (const auto& s : r.stats) {
    lat.merge(s.lat);
    injected += s.injected;
    eperm += s.eperm;
    if (spans.size() < s.spans.size()) spans.resize(s.spans.size());
    for (std::size_t k = 0; k < s.spans.size(); ++k) spans[k].merge(s.spans[k]);
  }
  // Completed ops: transfers / table ops / items consumed.
  if (ops.workload == "pipeline") {
    n = ops.threads == 1 ? r.stats[0].ops : r.stats.back().ops;
  } else {
    for (const auto& s : r.stats) n += s.ops;
  }
  std::fprintf(f,
               "{\"workload\":\"%s\",\"threads\":%d,\"ops\":%llu,"
               "\"elapsed_ns\":%llu,\"t_start_ns\":%llu,\"t_ready_ns\":%llu,"
               "\"check\":\"%s\",\"injected\":%llu,\"eperm\":%llu,"
               "\"static_locks\":%d,\"timer_ns\":%.4f,",
               ops.workload.c_str(), ops.threads,
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(r.elapsed_ns),
               static_cast<unsigned long long>(t_start),
               static_cast<unsigned long long>(r.t_ready_ns), r.check.c_str(),
               static_cast<unsigned long long>(injected),
               static_cast<unsigned long long>(eperm), static_locks,
               timer_ns);
  print_hist(f, "lat", lat);
  std::fputs(",\"spans\":{", f);
  for (std::size_t k = 0; k < spans.size(); ++k) {
    if (k != 0) std::fputc(',', f);
    print_hist(f, kSpanNames[k], spans[k]);
  }
  std::fputs("},\"probe\":{", f);
  if (probe != nullptr) {
    for (std::size_t k = 0; k < probe->size(); ++k) {
      if (k != 0) std::fputc(',', f);
      print_hist(f, kSpanNames[k], (*probe)[k]);
    }
  }
  std::fputs("}}\n", f);
  std::fflush(f);
}

}  // namespace stackbench
