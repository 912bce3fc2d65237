#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"
#include "obs/track.hpp"

namespace dstage::obs {
namespace {

sim::TimePoint at(double s) {
  return sim::TimePoint{} + sim::Duration{static_cast<std::int64_t>(s * 1e9)};
}

TEST(SpanTracerTest, BeginEndAndCausalLinks) {
  SpanTracer t;
  const SpanId root = t.begin("app", "recovery", Phase::kRestart, at(1));
  const SpanId child =
      t.begin("app", "detect", Phase::kRestart, at(1), root, 7);
  t.end(child, at(2));
  t.end(root, at(4));

  ASSERT_EQ(t.spans().size(), 2u);
  const Span* r = t.find(root);
  const Span* c = t.find(child);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(r->parent, 0u);
  EXPECT_EQ(c->parent, root);
  EXPECT_EQ(c->value, 7);
  EXPECT_FALSE(r->open);
  EXPECT_EQ(r->duration().ns, sim::seconds(3).ns);
  ASSERT_EQ(t.children_of(root).size(), 1u);
  EXPECT_EQ(t.children_of(root)[0]->id, child);
}

TEST(SpanTracerTest, EndIsIdempotentAndIgnoresZero) {
  SpanTracer t;
  const SpanId s = t.begin("a", "x", Phase::kCompute, at(0));
  t.end(0, at(1));  // no-op
  t.end(s, at(1));
  t.end(s, at(5));  // already closed: keeps the first end
  EXPECT_EQ(t.find(s)->end.ns, at(1).ns);
  EXPECT_EQ(t.open_count(), 0u);
}

TEST(SpanTracerTest, EndOpenForTrackClosesInnermostFirst) {
  SpanTracer t;
  const SpanId outer = t.begin("app", "request", Phase::kOther, at(0));
  const SpanId inner =
      t.begin("app", "gc sweep", Phase::kCheckpoint, at(1), outer);
  const SpanId other = t.begin("elsewhere", "compute", Phase::kCompute, at(0));
  t.end_open_for_track("app", at(3));
  EXPECT_FALSE(t.find(outer)->open);
  EXPECT_FALSE(t.find(inner)->open);
  EXPECT_TRUE(t.find(other)->open);  // other tracks untouched
  t.end_all(at(9));
  EXPECT_EQ(t.open_count(), 0u);
  EXPECT_EQ(t.find(other)->end.ns, at(9).ns);
}

TEST(SpanTracerTest, TracksInFirstAppearanceOrder) {
  SpanTracer t;
  t.begin("b", "x", Phase::kOther, at(0));
  t.begin("a", "y", Phase::kOther, at(1));
  t.instant("c", "failure", at(2));
  t.begin("b", "z", Phase::kOther, at(3));
  const auto tracks = t.tracks();
  ASSERT_EQ(tracks.size(), 3u);
  EXPECT_EQ(tracks[0], "b");
  EXPECT_EQ(tracks[1], "a");
  EXPECT_EQ(tracks[2], "c");
}

TEST(ChromeTraceTest, ExportPassesIndependentValidator) {
  SpanTracer t;
  const SpanId ts = t.begin("sim", "timestep", Phase::kOther, at(0));
  const SpanId rd = t.begin("sim", "read", Phase::kRead, at(0), ts);
  t.end(rd, at(1));
  const SpanId wr = t.begin("sim", "write", Phase::kWrite, at(1), ts);
  t.end(wr, at(2));
  t.end(ts, at(2));
  t.instant("sim", "failure", at(2), 1);
  t.begin("staging-0", "put", Phase::kOther, at(0.5));
  t.end_all(at(3));

  const std::string text = chrome_trace_json(t).str();
  const TraceValidation v = validate_chrome_trace(text);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors[0]);
  // 6 B/E pairs? 4 spans -> 8 B/E + 1 instant + 2 thread_name metadata.
  EXPECT_EQ(v.events, 4u * 2 + 1 + 2);
}

TEST(ChromeTraceTest, ValidatorRejectsMalformedInput) {
  EXPECT_FALSE(validate_chrome_trace("not json").ok);
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\": 3}").ok);
  // Unbalanced begin/end on a track.
  const std::string unbalanced =
      "{\"traceEvents\":[{\"ph\":\"B\",\"name\":\"a\",\"pid\":0,\"tid\":0,"
      "\"ts\":1}]}";
  const TraceValidation v = validate_chrome_trace(unbalanced);
  EXPECT_FALSE(v.ok);
  // Non-monotone timestamps.
  const std::string backwards =
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"name\":\"a\",\"pid\":0,\"tid\":0,\"ts\":5},"
      "{\"ph\":\"E\",\"name\":\"a\",\"pid\":0,\"tid\":0,\"ts\":2}]}";
  EXPECT_FALSE(validate_chrome_trace(backwards).ok);
}

TEST(ReportTest, BreakdownAttributesInnermostPhaseAndSumsExactly) {
  SpanTracer t;
  // Track "sim": [0,10) timestep(kOther) with read [0,2), compute [2,7),
  // write [7,9); [9,10) falls back to the enclosing span's phase (kOther).
  const SpanId ts = t.begin("sim", "timestep", Phase::kOther, at(0));
  const SpanId rd = t.begin("sim", "read", Phase::kRead, at(0), ts);
  t.end(rd, at(2));
  const SpanId cp = t.begin("sim", "compute", Phase::kCompute, at(2), ts);
  t.end(cp, at(7));
  const SpanId wr = t.begin("sim", "write", Phase::kWrite, at(7), ts);
  t.end(wr, at(9));
  t.end(ts, at(10));

  const Breakdown b = phase_breakdown(t);
  ASSERT_EQ(b.tracks.size(), 1u);
  const TrackBreakdown& sim = b.tracks[0];
  EXPECT_EQ(sim.track, "sim");
  EXPECT_EQ(sim.phase(Phase::kRead), sim::seconds(2).ns);
  EXPECT_EQ(sim.phase(Phase::kCompute), sim::seconds(5).ns);
  EXPECT_EQ(sim.phase(Phase::kWrite), sim::seconds(2).ns);
  EXPECT_EQ(sim.phase(Phase::kOther), sim::seconds(1).ns);
  EXPECT_EQ(sim.total_ns, sim::seconds(10).ns);
  EXPECT_EQ(sim.attributed_ns(), sim.total_ns);  // exact, by construction
  EXPECT_EQ(b.span_horizon_ns, sim::seconds(10).ns);
}

TEST(ReportTest, BreakdownChargesGapsToOther) {
  SpanTracer t;
  const SpanId a = t.begin("s", "a", Phase::kWrite, at(0));
  t.end(a, at(1));
  const SpanId c = t.begin("s", "b", Phase::kCheckpoint, at(3));
  t.end(c, at(4));
  const Breakdown b = phase_breakdown(t);
  ASSERT_EQ(b.tracks.size(), 1u);
  EXPECT_EQ(b.tracks[0].phase(Phase::kWrite), sim::seconds(1).ns);
  EXPECT_EQ(b.tracks[0].phase(Phase::kCheckpoint), sim::seconds(1).ns);
  EXPECT_EQ(b.tracks[0].phase(Phase::kOther), sim::seconds(2).ns);
  EXPECT_EQ(b.tracks[0].attributed_ns(), b.tracks[0].total_ns);
}

TEST(ReportTest, RecoveryPathsMarkCriticalChain) {
  SpanTracer t;
  const SpanId root = t.begin("app", "recovery", Phase::kRestart, at(10));
  const SpanId detect =
      t.begin("app", "detect", Phase::kRestart, at(10), root);
  t.end(detect, at(11));
  const SpanId restore =
      t.begin("app", "restore", Phase::kRestart, at(11), root);
  t.end(restore, at(15));
  const SpanId replay =
      t.begin("app", "replay", Phase::kReplay, at(15), root);
  t.end(replay, at(16));
  t.end(root, at(16));

  const auto roots = recovery_paths(t);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].span->id, root);
  ASSERT_EQ(roots[0].children.size(), 3u);
  // The longest child ("restore", 4 s) anchors the critical path.
  EXPECT_TRUE(roots[0].children[1].on_critical_path);
  EXPECT_EQ(roots[0].children[1].span->name, "restore");
}

/// Deterministic span soup: `tracks` tracks whose first appearances are
/// interleaved, nested and sibling spans, zero-width and never-closed ones,
/// and an instant-only track that owns no spans.
SpanTracer synthetic_tracer(int tracks, int spans_per_track) {
  SpanTracer t;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x](std::uint64_t n) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % n;
  };
  std::vector<std::vector<SpanId>> open(static_cast<std::size_t>(tracks));
  std::vector<double> clock(static_cast<std::size_t>(tracks), 0.0);
  const int total = tracks * spans_per_track;
  for (int i = 0; i < total; ++i) {
    // Visit tracks in a scrambled order so first appearance != name order.
    const auto k = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(i) * 7919 + next(3)) %
        static_cast<std::uint64_t>(tracks));
    const std::string track = "track-" + std::to_string(k);
    std::vector<SpanId>& stack = open[k];
    clock[k] += static_cast<double>(next(4)) * 0.25;
    if (!stack.empty() && next(3) == 0) {
      t.end(stack.back(), at(clock[k]));
      stack.pop_back();
      continue;
    }
    const auto phase = static_cast<Phase>(next(kPhaseCount));
    const SpanId parent = stack.empty() ? 0 : stack.back();
    stack.push_back(t.begin(track, "s" + std::to_string(i), phase,
                            at(clock[k]), parent,
                            static_cast<std::int64_t>(i)));
  }
  for (std::size_t k = 0; k < open.size(); ++k) {
    // Leave the outermost span of every third track open.
    const std::size_t keep = k % 3 == 0 ? 1 : 0;
    while (open[k].size() > keep) {
      clock[k] += 0.5;
      t.end(open[k].back(), at(clock[k]));
      open[k].pop_back();
    }
  }
  t.instant("instants-only", "failure", at(1));
  return t;
}

TEST(ReportTest, BreakdownMatchesPerTrackBruteForce) {
  const SpanTracer t = synthetic_tracer(50, 40);
  // Reference: each track's spans in a tracer of their own (first-appearance
  // order, begin order within the track), attributed one at a time.
  Breakdown expected;
  for (const std::string& track : t.tracks()) {
    SpanTracer single;
    for (const Span& s : t.spans()) {
      if (s.track != track) continue;
      const SpanId id =
          single.begin(s.track, s.name, s.phase, s.start, 0, s.value);
      if (!s.open) single.end(id, s.end);
    }
    if (single.spans().empty()) continue;
    expected.tracks.push_back(phase_breakdown(single).tracks.at(0));
  }
  for (const Span& s : t.spans()) {
    expected.span_horizon_ns = std::max(expected.span_horizon_ns, s.end.ns);
  }
  const Breakdown got = phase_breakdown(t);
  ASSERT_EQ(got.tracks.size(), 50u);
  EXPECT_EQ(breakdown_to_json(got).str(), breakdown_to_json(expected).str());
  for (const TrackBreakdown& tb : got.tracks) {
    EXPECT_EQ(tb.attributed_ns(), tb.total_ns) << tb.track;
  }
}

TEST(ReportTest, BreakdownScalesToTenThousandTracks) {
  const SpanTracer t = synthetic_tracer(10000, 20);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::string> tracks = t.tracks();
  const Breakdown b = phase_breakdown(t);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(tracks.size(), 10001u);  // + the instant-only track
  EXPECT_EQ(b.tracks.size(), 10000u);
  EXPECT_EQ(b.tracks.front().track, tracks.front());
  // One pass each: ~0.15 s on a 4-core x86 host. The per-track rescan
  // this replaces took ~18 s there at this size.
  EXPECT_LT(elapsed, 5.0);
}

TEST(TrackTest, FullyDisabledIsInert) {
  const Track off;
  EXPECT_FALSE(off.observing());
  EXPECT_FALSE(off.recording());
  const Track named(nullptr, nullptr, "app");
  for (const Track* t : {&off, &named}) {
    const SpanId s = t->begin("compute", Phase::kCompute, at(0));
    EXPECT_EQ(s, 0u);
    EXPECT_NO_THROW({
      t->end(s, at(1));
      t->end_open(at(2));
      t->instant("failure", at(1));
      t->count("failures");
      t->gauge("pressure", 0.5);
      t->observe("get_response_s", 0.1);
      t->record(at(1), FrKind::kFailure, {}, 1, 0);
      t->note_degradation(at(1), "spare pool exhausted");
    });
  }
}

TEST(TrackTest, RecorderOnlyKeepsEventsAndNoSpans) {
  FlightRecorder rec;
  const Track t(nullptr, &rec, "staging-0");
  EXPECT_FALSE(t.observing());
  EXPECT_TRUE(t.recording());
  EXPECT_EQ(t.begin("put", Phase::kOther, at(0)), 0u);
  t.count("staging.requests");
  t.record(at(1), FrKind::kPutAdmit, "f", 3, 4096);
  t.note_degradation(at(2), "double XOR loss");
  const auto dump = rec.dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].track, "staging-0");
  EXPECT_EQ(dump[0].kind, "put-admit");
  EXPECT_EQ(dump[0].detail, "f");
  EXPECT_EQ(dump[0].a, 3);
  EXPECT_EQ(dump[0].b, 4096);
  EXPECT_EQ(dump[1].kind, "degradation");
  ASSERT_EQ(rec.degradations().size(), 1u);
  EXPECT_EQ(rec.track_count(), 1u);
}

TEST(TrackTest, ObsOnlyKeepsSpansAndMetricsOnItsTrack) {
  Observability o;
  const Track t(&o, nullptr, "analytic");
  EXPECT_TRUE(t.observing());
  EXPECT_FALSE(t.recording());
  const SpanId s = t.begin("read", Phase::kRead, at(0), 0, 7);
  t.end(s, at(2));
  t.instant("failure", at(3), 1);
  t.count("failures");
  t.count("gc.entries_scanned", 0);  // a zero count still registers
  t.gauge("governor.pressure", 0.75);
  t.observe("get_response_s", 0.5);
  t.record(at(1), FrKind::kFailure, {}, 1, 0);  // no recorder: dropped
  ASSERT_EQ(o.tracer().spans().size(), 1u);
  const Span& span = o.tracer().spans()[0];
  EXPECT_EQ(span.track, "analytic");
  EXPECT_EQ(span.name, "read");
  EXPECT_EQ(span.value, 7);
  EXPECT_FALSE(span.open);
  ASSERT_EQ(o.tracer().instants().size(), 1u);
  EXPECT_EQ(o.tracer().instants()[0].track, "analytic");
  EXPECT_EQ(o.metrics().counter("failures", "analytic").value(), 1u);
  EXPECT_EQ(o.metrics().gauge("governor.pressure", "analytic").value(), 0.75);
  EXPECT_EQ(
      o.metrics().histogram("get_response_s", "analytic").samples().count(),
      1u);
  EXPECT_NE(o.metrics().to_json().str().find("gc.entries_scanned"),
            std::string::npos);
}

TEST(TrackTest, BothOnKeepParentLinksAndEndOpenInnermostFirst) {
  Observability o;
  FlightRecorder rec;
  const Track app(&o, &rec, "app");
  const Track other(&o, &rec, "other");
  const SpanId root = app.begin("recovery", Phase::kRestart, at(0));
  const SpanId detect = app.begin("detect", Phase::kRestart, at(0), root);
  const SpanId elsewhere = other.begin("compute", Phase::kCompute, at(0));
  app.record(at(0), FrKind::kFailure, {}, 2, 1);
  EXPECT_EQ(o.tracer().find(detect)->parent, root);

  // A kill: every open span on the track closes at the kill instant,
  // children before parents; other tracks are untouched.
  app.end_open(at(5));
  EXPECT_FALSE(o.tracer().find(root)->open);
  EXPECT_FALSE(o.tracer().find(detect)->open);
  EXPECT_EQ(o.tracer().find(root)->end.ns, at(5).ns);
  EXPECT_EQ(o.tracer().find(detect)->end.ns, at(5).ns);
  EXPECT_TRUE(o.tracer().find(elsewhere)->open);
  const Breakdown b = phase_breakdown(o.tracer());
  ASSERT_EQ(b.tracks.size(), 2u);
  EXPECT_EQ(b.tracks[0].phase(Phase::kRestart), at(5).ns);

  const auto dump = rec.dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].track, "app");
  EXPECT_EQ(rec.track_count(), 2u);
}

}  // namespace
}  // namespace dstage::obs
