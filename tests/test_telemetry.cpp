// The observability plane (src/telemetry/): background collector,
// sinks, metrics registry, span tracing, and the abort-flush path.
//
//   * overload — a producer burst outruns any consumer; drops are
//     counted EXACTLY (emitted == delivered + dropped), the emit path
//     never blocks, and the drop counters surface in the metrics
//     snapshot;
//   * drain guard — TraceBuffer::drain's single-consumer contract is
//     enforced: a drainer arriving while one is in progress gets 0;
//   * spans — hold/wait markers are emitted only behind the opt-in
//     flag, paired per (thread, lock), carrying the rw mode payload;
//   * perfetto sink — the produced chrome-trace document is
//     well-formed, with instants for misuse and "X" slices for spans;
//   * abort flush — an aborting lockdep verdict lands its own trace
//     event in RESILOCK_TRACE_FILE even though std::abort() skips
//     atexit handlers (death test).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/rw/crw.hpp"
#include "core/tas.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

using namespace resilock;
using lockdep::EventKind;
using lockdep::TraceBuffer;
using lockdep::TraceEvent;
using telemetry::Collector;
using telemetry::MetricsRegistry;

namespace {

void clear_trace() { TraceBuffer::instance().drain_all(); }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Sink that counts instead of writing; `marked` counts only events on
// the test's own lock pointer so leftovers from other tests' threads
// cannot skew the accounting.
class CountingSink final : public telemetry::Sink {
 public:
  CountingSink(std::atomic<std::uint64_t>* total,
               std::atomic<std::uint64_t>* marked, const void* marker)
      : total_(total), marked_(marked), marker_(marker) {}
  const char* name() const noexcept override { return "counting"; }
  void consume(const TraceEvent& e) override {
    total_->fetch_add(1, std::memory_order_relaxed);
    if (e.lock == marker_) marked_->fetch_add(1, std::memory_order_relaxed);
  }
  void flush() override {}
  void close() override {}
  std::uint64_t written() const noexcept override {
    return total_->load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* total_;
  std::atomic<std::uint64_t>* marked_;
  const void* marker_;
};

}  // namespace

// ---------------------------------------------------------------------
// Abort flush. Declared first (and run with the threadsafe style, which
// re-executes the binary) so the forked child never inherits a
// half-alive collector thread from an earlier test.
// ---------------------------------------------------------------------

namespace {
[[noreturn]] void die_with_inversion(const char* path) {
  setenv("RESILOCK_TRACE_FILE", path, 1);
  lockdep::LockdepEnabledGuard lockdep_on(true);
  response::ResponseRulesGuard rules("lockdep=abort");
  Shield<TasLock> a, b;
  a.acquire();
  b.acquire();  // edge A->B
  b.release();
  a.release();
  b.acquire();
  a.acquire();  // closing edge B->A: inversion -> abort verdict
  std::abort();  // unreachable: the verdict died first
}
}  // namespace

TEST(TelemetryAbortDeathTest, AbortVerdictLandsItsTraceOnDisk) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      ::testing::TempDir() + "resilock_abort_trace.jsonl";
  std::remove(path.c_str());
  EXPECT_EXIT(die_with_inversion(path.c_str()),
              ::testing::KilledBySignal(SIGABRT), "");
  // std::abort() skipped atexit, but the response engine's flush hook
  // drained the rings first: the aborting inversion is on disk.
  const std::string trace = slurp(path);
  EXPECT_NE(trace.find("\"kind\":\"order-inversion\""), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"verdict\":\"abort\""), std::string::npos);
  std::remove(path.c_str());
  unsetenv("RESILOCK_TRACE_FILE");
}

// ---------------------------------------------------------------------
// EventRing: runtime capacity.
// ---------------------------------------------------------------------

TEST(EventRingCapacity, RoundsToPowerOfTwoAndClamps) {
  using lockdep::EventRing;
  EXPECT_EQ(EventRing::round_capacity(0), 64u);
  EXPECT_EQ(EventRing::round_capacity(64), 64u);
  EXPECT_EQ(EventRing::round_capacity(65), 128u);
  EXPECT_EQ(EventRing::round_capacity(300), 512u);
  EXPECT_EQ(EventRing::round_capacity(std::size_t{1} << 30),
            std::size_t{1} << 20);
  EXPECT_EQ(EventRing(300).capacity(), 512u);
}

TEST(EventRingCapacity, WrapsExactlyAtRuntimeCapacity) {
  lockdep::EventRing r(256);
  ASSERT_EQ(r.capacity(), 256u);
  TraceEvent e;
  std::uint64_t next_out = 0;
  for (std::uint64_t i = 0; i < 10 * 256; ++i) {
    e.ns = i;
    ASSERT_TRUE(r.push(e));
    if (i % 2 == 1) {
      TraceEvent out;
      ASSERT_TRUE(r.pop(out));
      EXPECT_EQ(out.ns, next_out++);
      ASSERT_TRUE(r.pop(out));
      EXPECT_EQ(out.ns, next_out++);
    }
  }
  EXPECT_EQ(r.dropped(), 0u);
  EXPECT_EQ(r.emitted(), 10u * 256);
  // Overfill: exactly capacity retained, the rest counted.
  while (r.push(e)) {
  }
  EXPECT_EQ(r.dropped(), 1u);
}

// ---------------------------------------------------------------------
// Drain guard: single consumer, enforced.
// ---------------------------------------------------------------------

TEST(DrainGuard, SecondConsumerGetsZero) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int marker = 0;
  tb.emit(EventKind::kDoubleUnlock, &marker);
  tb.emit(EventKind::kDoubleUnlock, &marker);
  // A drain started from inside a drain IS a second concurrent
  // consumer — deterministically mid-drain.
  std::size_t inner = 12345;
  const std::size_t outer = tb.drain([&](const TraceEvent&) {
    inner = tb.drain([](const TraceEvent&) {});
  });
  EXPECT_EQ(outer, 2u);
  EXPECT_EQ(inner, 0u);
  // The guard releases: a later drain works again.
  tb.emit(EventKind::kDoubleUnlock, &marker);
  EXPECT_EQ(tb.drain([](const TraceEvent&) {}), 1u);
}

// ---------------------------------------------------------------------
// Collector: overload, exact accounting, metrics surfacing.
// ---------------------------------------------------------------------

TEST(Collector, OverloadCountsEveryDropExactly) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  Collector& c = Collector::instance();
  ASSERT_FALSE(c.running());

  int marker = 0;
  const std::uint64_t emitted_before = tb.emitted();
  const std::uint64_t dropped_before = tb.dropped();
  // Burst with NO consumer running: the emit path must never block —
  // the ring keeps the oldest `capacity` events and counts the rest.
  constexpr std::uint64_t kBurst = 10000;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    tb.emit(EventKind::kNonOwnerUnlock, &marker);
  }
  const std::uint64_t emitted = tb.emitted() - emitted_before;
  const std::uint64_t dropped = tb.dropped() - dropped_before;
  EXPECT_EQ(emitted, kBurst);
  ASSERT_GT(dropped, 0u);

  // Now bring up the collector; it must deliver exactly the survivors.
  std::atomic<std::uint64_t> total{0}, marked{0};
  c.add_sink(std::make_unique<CountingSink>(&total, &marked, &marker));
  ASSERT_TRUE(c.start());
  ASSERT_TRUE(c.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (marked.load() < kBurst - dropped &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  c.stop();
  ASSERT_FALSE(c.running());

  // Exact accounting: every burst event was delivered or counted.
  EXPECT_EQ(marked.load() + dropped, kBurst);
  const telemetry::CollectorStats cs = c.stats();
  EXPECT_GE(cs.events_delivered, marked.load());
  EXPECT_GT(cs.drain_cycles, 0u);

  // The drop counter is a first-class metric.
  const telemetry::MetricsSnapshot m = MetricsRegistry::instance().snapshot();
  EXPECT_GE(m.value("trace.events_dropped"), dropped);
  EXPECT_GE(m.value("trace.events_emitted"), emitted);
  EXPECT_EQ(m.value("collector.running"), 0u);
}

TEST(Collector, ProducerOutrunsRunningCollectorWithoutBlocking) {
  clear_trace();
  Collector& c = Collector::instance();
  auto& tb = TraceBuffer::instance();
  int marker = 0;
  std::atomic<std::uint64_t> total{0}, marked{0};
  c.add_sink(std::make_unique<CountingSink>(&total, &marked, &marker));
  ASSERT_TRUE(c.start());

  const std::uint64_t emitted_before = tb.emitted();
  const std::uint64_t dropped_before = tb.dropped();
  constexpr std::uint64_t kEvents = 300000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      tb.emit(EventKind::kReentrantRelock, &marker);
    }
  });
  producer.join();
  c.stop();  // final drain: nothing stays queued

  const std::uint64_t emitted = tb.emitted() - emitted_before;
  const std::uint64_t dropped = tb.dropped() - dropped_before;
  EXPECT_EQ(emitted, kEvents);
  // Exact accounting under live contention between producer and the
  // background thread: delivered + dropped == emitted, nothing lost,
  // nothing duplicated.
  EXPECT_EQ(marked.load() + dropped, kEvents);
}

TEST(Collector, RestartsWithFreshSinksAndAutostartRespectsEnv) {
  clear_trace();
  Collector& c = Collector::instance();
  ASSERT_FALSE(c.running());
  // Autostart is a no-op without the env opt-in.
  unsetenv("RESILOCK_TELEMETRY");
  telemetry::autostart_from_env();
  EXPECT_FALSE(c.running());
  // With it, the collector comes up (no trace file -> no sinks, which
  // leaves the rings to the exporters) and stop() is clean.
  setenv("RESILOCK_TELEMETRY", "1", 1);
  unsetenv("RESILOCK_TRACE_FILE");
  telemetry::autostart_from_env();
  EXPECT_TRUE(c.running());
  c.stop();
  EXPECT_FALSE(c.running());
  unsetenv("RESILOCK_TELEMETRY");
}

// ---------------------------------------------------------------------
// Span tracing.
// ---------------------------------------------------------------------

TEST(Spans, OffByDefaultOnWithGuardPairedPerLock) {
  clear_trace();
  Shield<TasLock> lock;
  lock.acquire();
  lock.release();
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    EXPECT_FALSE(lockdep::is_span_kind(e.kind)) << to_string(e.kind);
  }

  lockdep::SpanTracingGuard spans(true);
  lock.acquire();
  lock.release();
  int begins = 0, ends = 0;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock != &lock) continue;
    if (e.kind == EventKind::kHoldBegin) ++begins;
    if (e.kind == EventKind::kHoldEnd) ++ends;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST(Spans, ContendedAcquireEmitsWaitSpan) {
  clear_trace();
  lockdep::SpanTracingGuard spans(true);
  Shield<TasLock> lock;
  std::atomic<bool> held{false};
  std::thread holder([&] {
    lock.acquire();
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    lock.release();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  lock.acquire();  // observed held: the contended window is bracketed
  lock.release();
  holder.join();
  int wait_begin = 0, wait_end = 0;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock != &lock) continue;
    if (e.kind == EventKind::kWaitBegin) ++wait_begin;
    if (e.kind == EventKind::kWaitEnd) ++wait_end;
  }
  EXPECT_GE(wait_begin, 1);
  EXPECT_EQ(wait_begin, wait_end);
}

TEST(Spans, RwHoldSpansCarryTheMode) {
  clear_trace();
  lockdep::SpanTracingGuard spans(true);
  using Rw = CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>;
  RwShield<Rw> rw;
  Rw::Context rctx, wctx;
  rw.rlock(rctx);
  EXPECT_TRUE(rw.runlock(rctx));
  rw.wlock(wctx);
  EXPECT_TRUE(rw.wunlock(wctx));
  bool saw_read_hold = false, saw_write_hold = false;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock != &rw || e.kind != EventKind::kHoldBegin) continue;
    if (e.mode == static_cast<std::uint8_t>(AccessMode::kRead)) {
      saw_read_hold = true;
    }
    if (e.mode == static_cast<std::uint8_t>(AccessMode::kWrite)) {
      saw_write_hold = true;
    }
  }
  EXPECT_TRUE(saw_read_hold);
  EXPECT_TRUE(saw_write_hold);
}

// ---------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------

TEST(PerfettoSink, ProducesOneValidDocumentWithInstantsAndSlices) {
  const std::string path =
      ::testing::TempDir() + "resilock_perfetto_test.json";
  std::remove(path.c_str());
  auto sink = telemetry::make_perfetto_sink(path.c_str());
  ASSERT_NE(sink, nullptr);

  int marker = 0;
  TraceEvent e;
  e.pid = 7;
  e.lock = &marker;
  e.ns = 1000;
  e.kind = EventKind::kDoubleUnlock;
  e.verdict = static_cast<std::uint8_t>(response::Action::kSuppress);
  sink->consume(e);  // instant
  e.kind = EventKind::kHoldBegin;
  e.ns = 2000;
  e.verdict = lockdep::kNoVerdict;
  sink->consume(e);
  e.kind = EventKind::kHoldEnd;
  e.ns = 5000;
  sink->consume(e);  // closes a 3us slice
  e.kind = EventKind::kWaitEnd;
  e.ns = 6000;
  sink->consume(e);  // end without begin: dropped, not corrupted
  EXPECT_EQ(sink->written(), 2u);  // instant + hold slice
  sink->close();

  const std::string doc = slurp(path);
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u) << doc;
  EXPECT_NE(doc.find("]}"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"lock-hold\""), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":3.000"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("double-unlock"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Sinks, EnvSelectsFormatAndJsonlAppends) {
  const std::string path = ::testing::TempDir() + "resilock_sink_env.log";
  std::remove(path.c_str());
  setenv("RESILOCK_TRACE_FILE", path.c_str(), 1);
  setenv("RESILOCK_TRACE_FORMAT", "perfetto", 1);
  {
    auto sink = telemetry::make_sink_from_env();
    ASSERT_NE(sink, nullptr);
    EXPECT_STREQ(sink->name(), "perfetto");
    sink->close();
  }
  setenv("RESILOCK_TRACE_FORMAT", "jsonl", 1);
  {
    auto sink = telemetry::make_sink_from_env();
    ASSERT_NE(sink, nullptr);
    EXPECT_STREQ(sink->name(), "jsonl");
    TraceEvent e;
    e.kind = EventKind::kDoubleUnlock;
    sink->consume(e);
    sink->close();
  }
  // jsonl opens in append mode: the perfetto document head written
  // above is still there, with one JSONL line after it.
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"kind\":\"double-unlock\""), std::string::npos);
  unsetenv("RESILOCK_TRACE_FILE");
  unsetenv("RESILOCK_TRACE_FORMAT");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------

TEST(Metrics, SnapshotCoversEveryLayerAndCustomGauges) {
  auto& reg = MetricsRegistry::instance();
  std::atomic<std::uint64_t> custom{41};
  reg.register_gauge("test.custom", [&] { return custom.load(); });
  custom.store(42);
  ContentionProbe probe;
  probe.begin_wait();
  reg.register_contention_probe("test.probe", &probe);

  const telemetry::MetricsSnapshot s = reg.snapshot();
  EXPECT_GT(s.ns, 0u);
  EXPECT_EQ(s.value("test.custom"), 42u);
  EXPECT_EQ(s.value("test.probe.waiters"), 1u);
  EXPECT_EQ(s.value("test.probe.contended_total"), 1u);
  // One representative per built-in source; value(name, fallback=0)
  // with a sentinel fallback proves presence, not magnitude.
  EXPECT_NE(s.value("response.decisions", 999999), 999999u);
  EXPECT_NE(s.value("response.event.double-unlock", 999999), 999999u);
  EXPECT_NE(s.value("response.action.suppress", 999999), 999999u);
  EXPECT_NE(s.value("lockdep.edges", 999999), 999999u);
  EXPECT_NE(s.value("lockdep.rr_skipped", 999999), 999999u);
  EXPECT_NE(s.value("trace.events_dropped", 999999), 999999u);
  EXPECT_NE(s.value("collector.sleep_us", 999999), 999999u);

  probe.end_wait();
  reg.unregister_contention_probe("test.probe");
  reg.unregister_gauge("test.custom");
  EXPECT_EQ(reg.snapshot().value("test.custom", 7), 7u);
}

TEST(Metrics, DumpsTextAndJson) {
  auto& reg = MetricsRegistry::instance();
  const std::string path = ::testing::TempDir() + "resilock_metrics_test";
  ASSERT_TRUE(reg.dump(path.c_str(), telemetry::MetricsFormat::kText));
  std::string text = slurp(path);
  EXPECT_NE(text.find("trace.events_emitted="), std::string::npos) << text;
  EXPECT_NE(text.find("lockdep.classes_live="), std::string::npos);

  ASSERT_TRUE(reg.dump(path.c_str(), telemetry::MetricsFormat::kJson));
  text = slurp(path);
  // Truncate-on-dump: the text dump is gone, one JSON object remains.
  EXPECT_EQ(text.rfind("{\"ns\":", 0), 0u) << text;
  EXPECT_NE(text.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(text.find("\"response.decisions\":"), std::string::npos);
  EXPECT_EQ(text.find('='), std::string::npos);
  std::remove(path.c_str());
}

TEST(Metrics, CollectorDumpsPeriodicallyWhenConfigured) {
  clear_trace();
  const std::string path =
      ::testing::TempDir() + "resilock_metrics_periodic";
  std::remove(path.c_str());
  setenv("RESILOCK_METRICS_FILE", path.c_str(), 1);
  setenv("RESILOCK_METRICS_FORMAT", "json", 1);
  setenv("RESILOCK_METRICS_INTERVAL_MS", "10", 1);
  Collector& c = Collector::instance();
  ASSERT_TRUE(c.start());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (c.stats().metrics_dumps < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  c.stop();
  EXPECT_GE(c.stats().metrics_dumps, 2u);
  const std::string text = slurp(path);
  EXPECT_EQ(text.rfind("{\"ns\":", 0), 0u) << text;
  unsetenv("RESILOCK_METRICS_FILE");
  unsetenv("RESILOCK_METRICS_FORMAT");
  unsetenv("RESILOCK_METRICS_INTERVAL_MS");
  std::remove(path.c_str());
}
