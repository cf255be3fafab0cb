// TraceMerger (src/live/merge.h): the watermark K-way merge that turns
// per-worker control streams — which arrive interleaved and out of order —
// back into the single time-ordered stream the checking layer requires.
// Covers the two failure shapes the live tier actually produces: events from
// different workers arriving out of global order, and a stream truncated
// mid-run by a SIGKILL.
#include "live/merge.h"

#include <gtest/gtest.h>

#include <vector>

#include "check/events.h"

namespace lifeguard::live {
namespace {

check::TraceEvent ev(Duration at, int node,
                     check::TraceEventKind kind = check::TraceEventKind::kAlive) {
  check::TraceEvent e;
  e.at = TimePoint{at.us};
  e.kind = kind;
  e.node = node;
  return e;
}

class CaptureSink : public check::TraceSink {
 public:
  void on_trace_event(const check::TraceEvent& e) override {
    events.push_back(e);
  }
  std::vector<check::TraceEvent> events;
};

class DatagramSink : public CaptureSink {
 public:
  bool wants_datagrams() const override { return true; }
};

TEST(TraceMerger, ReordersAcrossStreams) {
  CaptureSink sink;
  TraceMerger m({&sink});
  const int a = m.open_stream();
  const int b = m.open_stream();

  // Stream a races ahead; b's earlier event arrives later (a slow poll).
  m.push(a, ev(msec(300), 0));
  m.push(a, ev(msec(500), 0));
  EXPECT_EQ(sink.events.size(), 0u);  // b's watermark still at 0 — hold

  m.push(b, ev(msec(100), 1));
  // b promises nothing before 100ms: only the 100ms event may flow.
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].at, TimePoint{msec(100).us});

  m.advance(b, TimePoint{msec(600).us});  // TICK: b is quiet but alive
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[1].at, TimePoint{msec(300).us});
  EXPECT_EQ(sink.events[2].at, TimePoint{msec(500).us});
  EXPECT_EQ(m.pending(), 0u);
}

TEST(TraceMerger, TimestampTiesBreakDeterministically) {
  // Same instant on two streams: stream id then arrival order decides. A
  // lagging third stream holds the release so the whole tie sits buffered
  // together; the flush must order it by (stream, arrival), not heap whim.
  CaptureSink sink;
  TraceMerger m({&sink});
  const int a = m.open_stream();
  const int b = m.open_stream();
  m.open_stream();  // lagging: holds the global watermark at 0

  m.push(b, ev(msec(100), 1));
  m.push(a, ev(msec(100), 0));
  m.push(a, ev(msec(100), 2));
  EXPECT_EQ(sink.events.size(), 0u);
  m.finish();

  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].node, 0);  // stream a first...
  EXPECT_EQ(sink.events[1].node, 2);  // ...in arrival order
  EXPECT_EQ(sink.events[2].node, 1);  // then stream b
}

TEST(TraceMerger, RegressingEventClampsToStreamWatermark) {
  // Cross-process clock skew can hand us an event timestamped before its
  // own stream's watermark; it must clamp up, never travel back in time.
  CaptureSink sink;
  TraceMerger m({&sink});
  const int a = m.open_stream();
  m.push(a, ev(msec(400), 0));
  m.push(a, ev(msec(250), 0));  // late timestamp — clamped to 400ms
  m.finish();
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].at, TimePoint{msec(400).us});
  EXPECT_EQ(sink.events[1].at, TimePoint{msec(400).us});
}

TEST(TraceMerger, KilledStreamStopsBoundingAndFlushesItsTail) {
  // Worker b is SIGKILLed mid-stream: whatever it emitted still comes out
  // in order, and — crucially — its dead watermark stops holding back the
  // survivors.
  CaptureSink sink;
  TraceMerger m({&sink});
  const int a = m.open_stream();
  const int b = m.open_stream();

  m.push(b, ev(msec(100), 1));
  m.push(a, ev(msec(150), 0));
  m.push(a, ev(msec(900), 0));
  ASSERT_EQ(sink.events.size(), 1u);  // only b's 100ms event released so far

  m.close_stream(b);  // EOF on b's control channel (killed)
  // b no longer bounds the merge: a's buffered events flow to a's watermark.
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[1].at, TimePoint{msec(150).us});
  EXPECT_EQ(sink.events[2].at, TimePoint{msec(900).us});

  m.close_stream(b);  // idempotent
  m.push(a, ev(sec(1), 0));
  m.finish();
  EXPECT_EQ(sink.events.size(), 4u);
  EXPECT_EQ(m.pending(), 0u);
}

TEST(TraceMerger, FinishFlushesEverythingBuffered) {
  CaptureSink sink;
  TraceMerger m({&sink});
  const int a = m.open_stream();
  m.open_stream();  // never advances — would hold the merge forever
  m.push(a, ev(msec(100), 0));
  EXPECT_EQ(sink.events.size(), 0u);
  m.finish();
  EXPECT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(m.emitted(), 1u);
}

TEST(TraceMerger, WithholdsDatagramsFromUninterestedSinks) {
  CaptureSink plain;
  DatagramSink wants;
  TraceMerger m({&plain, &wants});
  const int a = m.open_stream();
  m.push(a, ev(msec(10), 0, check::TraceEventKind::kDatagram));
  m.push(a, ev(msec(15), 0, check::TraceEventKind::kProbeStart));
  m.push(a, ev(msec(20), 0));
  m.finish();
  // Neither sink asked for probe spans; only one asked for datagrams.
  ASSERT_EQ(plain.events.size(), 1u);
  EXPECT_EQ(plain.events[0].kind, check::TraceEventKind::kAlive);
  ASSERT_EQ(wants.events.size(), 2u);
  EXPECT_EQ(wants.events[0].kind, check::TraceEventKind::kDatagram);
  EXPECT_EQ(wants.events[1].kind, check::TraceEventKind::kAlive);
}

}  // namespace
}  // namespace lifeguard::live
