// End-to-end LD_PRELOAD fixture: compiles the shim-unaware pthread
// programs in tests/children/ at test time (with the same compiler
// that built this test), runs them under libresilock_preload.so, and
// asserts on what an operator would see — program output, the misuse
// trace JSONL, the SIGUSR2 lock_stat report, and the preload's own
// adoption counters.
//
// Skipped under TSan (CMake gates the target): a sanitized .so cannot
// be preloaded into an unsanitized child. The adopt-once machinery has
// an in-process TSan test instead (test_preload_registry.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#ifndef RESILOCK_PRELOAD_LIB
#error "CMake must define RESILOCK_PRELOAD_LIB"
#endif
#ifndef RESILOCK_CHILD_SRC_DIR
#error "CMake must define RESILOCK_CHILD_SRC_DIR"
#endif
#ifndef RESILOCK_CXX_COMPILER
#error "CMake must define RESILOCK_CXX_COMPILER"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

// Scratch file in gtest's temp dir, unique to this process: parallel
// copies of the suite must not overwrite each other's stats files or
// child binaries.
std::string scratch_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// system(3) with captured stdout+stderr; the preload children are
// whole processes, so popen-style capture is the natural harness.
RunResult run(const std::string& cmd) {
  RunResult r;
  const std::string out_path = scratch_path("preload_child_out.txt");
  const int rc =
      std::system((cmd + " > " + out_path + " 2>&1").c_str());
  r.exit_code = rc;
  r.out = slurp(out_path);
  std::remove(out_path.c_str());
  return r;
}

// Compile-once cache: every test in this file shares the child
// binaries; gtest runs tests in one process, so function-local statics
// do the memoization, and their destructors remove the binaries at
// exit (the names are per process, so nothing else reuses them).
struct ChildBinary {
  ChildBinary() = default;  // the "no such child" entry
  explicit ChildBinary(const std::string& n)
      : path(scratch_path("resilock_" + n)) {
    // -rdynamic: lockstat symbolizes call sites with dladdr, which
    // only sees exported symbols — exactly how an operator would
    // build an app they intend to profile.
    const std::string cmd = std::string(RESILOCK_CXX_COMPILER) +
                            " -O1 -g -pthread -rdynamic " +
                            std::string(RESILOCK_CHILD_SRC_DIR) + "/" +
                            n + ".cpp -o " + path;
    ok = std::system(cmd.c_str()) == 0;
  }
  ~ChildBinary() {
    if (!path.empty()) std::remove(path.c_str());
  }
  ChildBinary(const ChildBinary&) = delete;
  ChildBinary& operator=(const ChildBinary&) = delete;

  std::string path;
  bool ok = false;
};

const std::string& child_bin(const std::string& name) {
  static const ChildBinary child("preload_child");
  static const ChildBinary static_init("preload_static_init");
  static const ChildBinary clock_child("preload_clock_child");
  static const ChildBinary none;
  const ChildBinary& b =
      name == "preload_child"
          ? child
          : (name == "preload_static_init"
                 ? static_init
                 : (name == "preload_clock_child" ? clock_child : none));
  EXPECT_TRUE(b.ok) << "failed to compile child " << name;
  return b.path;
}

std::string preload_env() {
  return std::string("LD_PRELOAD=") + RESILOCK_PRELOAD_LIB +
         " RESILOCK_SHIELD=1";
}

}  // namespace

// (a) Correct output through the whole interposition stack: four
// threads of counter traffic over an adopted static-initializer mutex
// add up exactly, and the injected double-unlock comes back EPERM
// instead of corrupting the protocol (the program keeps running to a
// clean exit).
TEST(PreloadE2E, ShieldedChildComputesCorrectlyAndAbsorbsMisuse) {
  const std::string trace = scratch_path("preload_trace.jsonl");
  std::remove(trace.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_TRACE_FILE=" + trace + " " +
                    child_bin("preload_child"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("total=80000\n"), std::string::npos) << r.out;
  // EPERM == 1 on Linux: the shield's errorcheck-style report.
  EXPECT_NE(r.out.find("double-unlock-rc=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("child-exit"), std::string::npos) << r.out;

  // (b) The misuse landed in the trace pipeline with the absorb
  // verdict — evidence an unmodified binary gets the paper's §5
  // observability, not just survival.
  const std::string t = slurp(trace);
  EXPECT_NE(t.find("\"kind\":\"double-unlock\""), std::string::npos)
      << t;
  EXPECT_NE(t.find("\"verdict\":\"suppress\""), std::string::npos)
      << t;
  std::remove(trace.c_str());
}

// A legacy knob through an unmodified binary: the response engine
// translates RESILOCK_SHIELD_POLICY=log into the rule "misuse=log" at
// start, so the same double-unlock is diagnosed and still refused.
TEST(PreloadE2E, LegacyAliasReachesUnmodifiedChild) {
  const std::string trace = scratch_path("preload_alias_trace.jsonl");
  std::remove(trace.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_SHIELD_POLICY=log RESILOCK_TRACE_FILE=" +
                    trace + " " + child_bin("preload_child"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("double-unlock-rc=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("resilock[shield]: double-unlock"),
            std::string::npos)
      << r.out;
  const std::string t = slurp(trace);
  EXPECT_NE(t.find("\"verdict\":\"log\""), std::string::npos) << t;
  std::remove(trace.c_str());
}

// (c) SIGUSR2 at runtime produces a lock_stat report that names the
// child's own function — the call-site attribution must pierce the
// interposition layer (the return address inside libresilock_preload
// would be useless to an operator).
TEST(PreloadE2E, SigusrDumpNamesChildCallSites) {
  const std::string report = scratch_path("preload_lockstat.txt");
  std::remove(report.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_LOCKSTAT=1 RESILOCK_LOCKSTAT_FILE=" +
                    report + " " + child_bin("preload_child"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  const std::string rep = slurp(report);
  EXPECT_NE(rep.find("lock_stat"), std::string::npos) << rep;
  EXPECT_NE(rep.find("call sites"), std::string::npos) << rep;
  EXPECT_NE(rep.find("worker_loop"), std::string::npos)
      << "lock_stat did not name the child's call site:\n"
      << rep;
  std::remove(report.c_str());
}

// Static-initializer adoption is exactly-once under a 4-thread race:
// the preload's stats JSON counts one adoption for the one mutex, and
// the counter total proves the four threads really did serialize on a
// single shield instance (two instances would lose increments).
TEST(PreloadE2E, StaticInitializerAdoptedExactlyOnce) {
  const std::string stats = scratch_path("preload_stats.json");
  std::remove(stats.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_PRELOAD_STATS_FILE=" + stats + " " +
                    child_bin("preload_static_init"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("static-init-total=20000\n"), std::string::npos)
      << r.out;
  const std::string s = slurp(stats);
  EXPECT_NE(s.find("\"adopted_mutexes\":1"), std::string::npos) << s;
  std::remove(stats.c_str());
}

// The glibc 2.30+ clock entry points are interposed too: a child that
// mixes pthread_mutex_lock and pthread_mutex_clocklock threads over
// one mutex keeps an exact total (un-interposed clock variants would
// lock the raw glibc object while the others hold the adopted handle
// — no mutual exclusion), monotonic deadlines produce ETIMEDOUT
// against held locks, unsupported clocks produce EINVAL, and a
// cond_clockwait with no signaler times out with the lock reacquired.
// The churn loop at the end exercises the cond-shadow reclamation in
// pthread_cond_destroy.
TEST(PreloadE2E, ClockVariantsRouteThroughAdoptedHandles) {
  RunResult r = run("env " + preload_env() + " " +
                    child_bin("preload_clock_child"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("clock-total=80000\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clocklock-timeout=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clocklock-einval=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clockrdlock-timeout=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clockrwlock-free=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clockwait-timeout=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("cond-churn=done"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("clock-child-exit"), std::string::npos) << r.out;
}

// RESILOCK_SHIELD=0 control: the preload still interposes (the stats
// file shows the adoption) but routes to the bare algorithm. The
// arithmetic must still hold — this pins down that interposition
// itself, not just the shield, preserves mutual exclusion.
TEST(PreloadE2E, BareAlgorithmModeStillExcludes) {
  const std::string stats = scratch_path("preload_stats_bare.json");
  std::remove(stats.c_str());
  RunResult r = run(std::string("env LD_PRELOAD=") +
                    RESILOCK_PRELOAD_LIB +
                    " RESILOCK_SHIELD=0 RESILOCK_PRELOAD_STATS_FILE=" +
                    stats + " " + child_bin("preload_static_init"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("static-init-total=20000\n"), std::string::npos)
      << r.out;
  const std::string s = slurp(stats);
  EXPECT_NE(s.find("\"adopted_mutexes\":1"), std::string::npos) << s;
  std::remove(stats.c_str());
}
