// One instrumented object's handle on the run's instrumentation: the
// Observability bundle with the span/metric track name, and the flight
// recorder with the ring id interned for that name. Every method is a no-op
// when the matching pointer is null, so instrumented code never tests
// whether obs or the recorder is on — a default-constructed Track is the
// fully disabled state.
//
// Spans are plain ids: there is deliberately no closing destructor. A
// component killed mid-activity unwinds its coroutine frame through the
// Cancelled exception, and its spans must stay open until end_open() or the
// run-end SpanTracer::end_all() closes them — that moment is part of the
// span stream.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/observability.hpp"

namespace dstage::obs {

class Track {
 public:
  Track() = default;
  /// Either pointer may be null. Interns `name` as the recorder ring, so
  /// construct at wiring time, not on the hot path.
  Track(Observability* obs, FlightRecorder* recorder, std::string name)
      : obs_(obs),
        recorder_(recorder),
        name_(std::move(name)),
        ring_(recorder != nullptr ? recorder->track(name_) : 0) {}

  /// Span/metric track name ("staging-3", a component name, ...).
  [[nodiscard]] const std::string& name() const { return name_; }
  /// True when spans and metrics are being collected.
  [[nodiscard]] bool observing() const { return obs_ != nullptr; }
  /// True when flight-recorder events are being kept.
  [[nodiscard]] bool recording() const { return recorder_ != nullptr; }

  // Names are taken as views and copied only when obs is on, so a
  // disabled call site builds no string.

  /// Open a span on this track; returns 0 when obs is off.
  SpanId begin(std::string_view span, Phase phase, sim::TimePoint at,
               SpanId parent = 0, std::int64_t value = 0) const {
    if (obs_ == nullptr) return 0;
    return obs_->tracer().begin(name_, std::string(span), phase, at, parent,
                                value);
  }
  void end(SpanId id, sim::TimePoint at) const {
    if (obs_ != nullptr) obs_->tracer().end(id, at);
  }
  /// Close every span still open on this track, innermost first (a process
  /// killed mid-activity).
  void end_open(sim::TimePoint at) const {
    if (obs_ != nullptr) obs_->tracer().end_open_for_track(name_, at);
  }
  void instant(std::string_view what, sim::TimePoint at,
               std::int64_t value = 0) const {
    if (obs_ != nullptr) {
      obs_->tracer().instant(name_, std::string(what), at, value);
    }
  }

  /// Metrics labelled with this track's name.
  void count(std::string_view metric, std::uint64_t n = 1) const {
    if (obs_ != nullptr) {
      obs_->metrics().counter(std::string(metric), name_).inc(n);
    }
  }
  void gauge(std::string_view metric, double v) const {
    if (obs_ != nullptr) {
      obs_->metrics().gauge(std::string(metric), name_).set(v);
    }
  }
  void observe(std::string_view metric, double v) const {
    if (obs_ != nullptr) {
      obs_->metrics().histogram(std::string(metric), name_).observe(v);
    }
  }

  /// Flight-recorder event on this track's ring.
  void record(sim::TimePoint at, FrKind kind, std::string_view detail = {},
              std::int64_t a = 0, std::int64_t b = 0) const {
    if (recorder_ != nullptr) recorder_->record(ring_, at, kind, detail, a, b);
  }
  /// A loud degradation: recorded and kept for a forensic bundle dump.
  void note_degradation(sim::TimePoint at, std::string what) const {
    if (recorder_ != nullptr) {
      recorder_->note_degradation(ring_, at, std::move(what));
    }
  }

 private:
  Observability* obs_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  std::string name_;
  std::uint32_t ring_ = 0;
};

}  // namespace dstage::obs
