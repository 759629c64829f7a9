// Stress tests for the misuse-event transport (src/lockdep/
// event_ring.hpp) and the JSONL trace exporter (trace_export.hpp):
//   * EventRing wraparound — indices run past the capacity many times
//     over; FIFO order and drop accounting must stay exact;
//   * concurrent drain-while-writing — a producer thread emits through
//     TraceBuffer while a consumer drains, which is exactly the
//     SPSC contract the rings claim (TSan runs this in CI);
//   * the JSONL exporter — one well-formed line per drained event,
//     append semantics, verdict/label fields when present.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rw/crw.hpp"
#include "core/tas.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "lockdep/trace_export.hpp"
#include "response/response.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"

using namespace resilock;
using lockdep::EventKind;
using lockdep::EventRing;
using lockdep::TraceBuffer;
using lockdep::TraceEvent;

namespace {

TraceEvent make_event(std::uint64_t seq) {
  TraceEvent e;
  e.ns = seq;
  e.kind = EventKind::kDoubleUnlock;
  return e;
}

// The global buffer accumulates across tests; start clean.
void clear_trace() { TraceBuffer::instance().drain_all(); }

}  // namespace

// ---------------------------------------------------------------------
// EventRing wraparound.
// ---------------------------------------------------------------------

TEST(EventRing, FillDropAndDrainExactly) {
  EventRing r;
  const std::size_t extra = 17;
  for (std::uint64_t i = 0; i < EventRing::kCapacity + extra; ++i) {
    const bool pushed = r.push(make_event(i));
    EXPECT_EQ(pushed, i < EventRing::kCapacity) << i;
  }
  EXPECT_EQ(r.dropped(), extra);
  // The retained prefix comes out in FIFO order; the overflow is gone.
  TraceEvent e;
  for (std::uint64_t i = 0; i < EventRing::kCapacity; ++i) {
    ASSERT_TRUE(r.pop(e));
    EXPECT_EQ(e.ns, i);
  }
  EXPECT_FALSE(r.pop(e));
}

TEST(EventRing, IndicesWrapManyTimes) {
  // Interleaved push/pop far beyond the capacity: the power-of-two
  // masking must never lose or duplicate an event.
  EventRing r;
  std::uint64_t next_out = 0;
  TraceEvent e;
  for (std::uint64_t i = 0; i < 20 * EventRing::kCapacity; ++i) {
    ASSERT_TRUE(r.push(make_event(i)));
    if (i % 3 != 0) {  // drain slower than we fill, then catch up
      ASSERT_TRUE(r.pop(e));
      EXPECT_EQ(e.ns, next_out++);
    }
    if (i % 3 == 2) {
      ASSERT_TRUE(r.pop(e));
      EXPECT_EQ(e.ns, next_out++);
    }
  }
  while (r.pop(e)) EXPECT_EQ(e.ns, next_out++);
  EXPECT_EQ(next_out, 20 * EventRing::kCapacity);
  EXPECT_EQ(r.dropped(), 0u);
}

TEST(EventRing, ConcurrentProducerConsumer) {
  // The SPSC contract proper: one producer, one consumer, live. The
  // producer retries on a full ring (each refused attempt bumps
  // dropped(), but no accepted event may be lost, duplicated, or
  // reordered).
  EventRing r;
  constexpr std::uint64_t kEvents = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      while (!r.push(make_event(i))) std::this_thread::yield();
    }
  });
  std::uint64_t next = 0;
  TraceEvent e;
  while (next < kEvents) {
    if (r.pop(e)) {
      ASSERT_EQ(e.ns, next);  // strict FIFO, nothing torn
      ++next;
    }
  }
  producer.join();
  EXPECT_FALSE(r.pop(e));
}

// ---------------------------------------------------------------------
// TraceBuffer: drain-while-writing.
// ---------------------------------------------------------------------

TEST(TraceBuffer, DrainWhileWriting) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  // A unique lock pointer marks this test's events among whatever other
  // tests left in other threads' rings.
  int marker = 0;
  constexpr std::uint64_t kEvents = 50000;
  const std::uint64_t dropped_before = tb.dropped();
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      tb.emit(EventKind::kNonOwnerUnlock, &marker,
              static_cast<std::uint16_t>(i >> 16),
              static_cast<std::uint16_t>(i & 0xFFFF));
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t received = 0, last_seq = 0;
  bool ordered = true;
  auto sink = [&](const TraceEvent& e) {
    if (e.lock != &marker) return;
    const std::uint64_t seq =
        (static_cast<std::uint64_t>(e.a) << 16) | e.b;
    if (received > 0 && seq <= last_seq) ordered = false;
    last_seq = seq;
    ++received;
  };
  while (!done.load(std::memory_order_acquire)) {
    tb.drain(sink);
  }
  tb.drain(sink);
  producer.join();
  tb.drain(sink);
  const std::uint64_t dropped = tb.dropped() - dropped_before;
  // Every event was either delivered or counted as dropped — none
  // vanished, none duplicated, and delivery preserved emission order.
  EXPECT_EQ(received + dropped, kEvents);
  EXPECT_TRUE(ordered);
  EXPECT_GT(received, 0u);
}

// ---------------------------------------------------------------------
// JSONL exporter.
// ---------------------------------------------------------------------

TEST(TraceExport, WritesOneWellFormedLinePerEvent) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int lock_a = 0;
  tb.emit(EventKind::kDoubleUnlock, &lock_a);
  tb.emit(EventKind::kOrderInversion, &lock_a, 3, 4,
          static_cast<std::uint8_t>(response::Action::kLog));

  const std::string path =
      ::testing::TempDir() + "resilock_trace_test.jsonl";
  std::remove(path.c_str());
  std::size_t written = 0;
  ASSERT_TRUE(lockdep::export_trace_jsonl(path.c_str(), &written));
  EXPECT_EQ(written, 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"kind\":\"double-unlock\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"kind\":\"order-inversion\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"a\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("\"verdict\":\"log\""), std::string::npos);
  for (const auto& l : lines) {  // each line is one {...} object
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }

  // Append semantics: a second dump adds lines, never truncates.
  tb.emit(EventKind::kUnbalancedUnlock, &lock_a);
  ASSERT_TRUE(lockdep::export_trace_jsonl(path.c_str(), &written));
  EXPECT_EQ(written, 1u);
  std::ifstream again(path);
  std::size_t count = 0;
  for (std::string line; std::getline(again, line);) ++count;
  EXPECT_EQ(count, 3u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Rw trace payloads: every intercepted rw misuse carries the hold's
// AccessMode and the indicator's reader estimate, and misuse events
// carry the class they are attributed to.
// ---------------------------------------------------------------------

TEST(TracePayload, RwMisuseCarriesModeAndReaderEstimate) {
  clear_trace();
  response::ResponseRulesGuard rules("");
  using Rw = CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>;
  RwShield<Rw> rw;
  Rw::Context reader_ctx, bogus_ctx;
  rw.rlock(reader_ctx);  // one live reader: the estimate at interception
  std::thread misuser([&] {
    Rw::Context t_bogus;
    EXPECT_FALSE(rw.wunlock(t_bogus));  // not held: write-side misuse
  });
  misuser.join();
  EXPECT_TRUE(rw.runlock(reader_ctx));
  EXPECT_FALSE(rw.runlock(bogus_ctx));  // §4 depart-without-arrive

  bool saw_write_side = false, saw_read_side = false;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock != &rw) continue;
    if (e.kind == EventKind::kUnbalancedUnlock) {
      // wunlock misuse: write-side op, one reader live at interception.
      EXPECT_EQ(e.mode, static_cast<std::uint8_t>(AccessMode::kWrite));
      EXPECT_EQ(e.readers, 1u);
      // Attributed to the shield's (shared) lockdep class.
      EXPECT_EQ(e.a, rw.lockdep_class());
      saw_write_side = true;
    }
    if (e.kind == EventKind::kUnbalancedReadUnlock) {
      EXPECT_EQ(e.mode, static_cast<std::uint8_t>(AccessMode::kRead));
      EXPECT_EQ(e.readers, 0u);  // the indicator never skewed
      EXPECT_EQ(e.a, rw.lockdep_class());
      saw_read_side = true;
    }
  }
  EXPECT_TRUE(saw_write_side);
  EXPECT_TRUE(saw_read_side);
}

TEST(TracePayload, ExclusiveShieldMisuseCarriesItsClass) {
  clear_trace();
  response::ResponseRulesGuard rules("");
  Shield<TasLock> lock;
  lock.acquire();
  lock.release();
  EXPECT_FALSE(lock.release());  // double unlock, intercepted
  bool saw = false;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock != &lock) continue;
    EXPECT_EQ(e.kind, EventKind::kDoubleUnlock);
    EXPECT_EQ(e.a, lock.lockdep_class());
    EXPECT_EQ(e.mode, lockdep::kNoMode);  // exclusive family: no payload
    saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(TraceExport, RwPayloadAndClassFieldsInJsonl) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int lock_a = 0;
  // Hand-rolled rw misuse event: class 3, read-mode hold, 5 readers.
  tb.emit(EventKind::kUnbalancedReadUnlock, &lock_a, 3,
          lockdep::kNoClassTag,
          static_cast<std::uint8_t>(response::Action::kSuppress),
          static_cast<std::uint8_t>(AccessMode::kRead), 5);
  // Payload-free exclusive event: no mode/readers/cls fields.
  tb.emit(EventKind::kDoubleUnlock, &lock_a);

  const std::string path =
      ::testing::TempDir() + "resilock_trace_payload.jsonl";
  std::remove(path.c_str());
  std::size_t written = 0;
  ASSERT_TRUE(lockdep::export_trace_jsonl(path.c_str(), &written));
  EXPECT_EQ(written, 2u);
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"kind\":\"unbalanced-read-unlock\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"cls\":3"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"mode\":\"read\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"readers\":5"), std::string::npos);
  EXPECT_EQ(lines[1].find("\"mode\""), std::string::npos) << lines[1];
  EXPECT_EQ(lines[1].find("\"cls\""), std::string::npos) << lines[1];
  std::remove(path.c_str());
}

TEST(TraceExport, DrainingExportLeavesRingsEmpty) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int lock_a = 0;
  tb.emit(EventKind::kReentrantRelock, &lock_a);
  // Write through a FILE* as the atexit path does.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  EXPECT_GE(lockdep::write_trace_jsonl(f), 1u);
  std::fclose(f);
  EXPECT_EQ(tb.drain_all().size(), 0u);
}
