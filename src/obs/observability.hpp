// Per-run observability bundle: one MetricsRegistry plus one SpanTracer,
// owned by the Runtime. The object only exists when ObsConfig::enabled is
// set on a build with observability compiled in; a null pointer is the
// disabled state. Instrumented layers never hold it directly: each gets an
// obs::Track (obs/track.hpp) at assembly time — set_track() on the staging
// servers, spill gateway, group manager and drain agent, Comp::track for
// components — whose methods are no-ops when the pointer is null.
#pragma once

#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dstage::obs {

class Observability {
 public:
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] SpanTracer& tracer() { return tracer_; }
  [[nodiscard]] const SpanTracer& tracer() const { return tracer_; }

 private:
  MetricsRegistry metrics_;
  SpanTracer tracer_;
};

}  // namespace dstage::obs
