// Observability gates. ObsConfig is the runtime switch carried by
// WorkflowSpec; compiled_in() is the compile-time switch (CMake option
// DSTAGE_OBS, which defines DSTAGE_OBS_OFF when disabled). With either
// gate off the Runtime allocates no Observability object, records no
// spans, installs no GC/log milestone trace hook on the staging servers,
// and every run is byte-identical — trace digests included — to an
// uninstrumented build.
#pragma once

#include <cstddef>

namespace dstage::obs {

struct ObsConfig {
  /// Master switch. Off by default so golden-trace digests, the
  /// consistency oracle, and the failure campaign see exactly the
  /// pre-observability event stream.
  bool enabled = false;
};

/// Flight-recorder switch, carried by WorkflowSpec next to ObsConfig but
/// independent of it: the recorder is ON by default because — unlike the
/// span/metrics bundle — it records no trace events, takes no virtual
/// time, and draws no randomness, so golden digests are byte-identical
/// with it enabled or disabled.
struct RecorderConfig {
  bool enabled = true;
  /// Last-K events retained per track before the ring wraps.
  std::size_t ring_capacity = 256;
};

/// Compile-time gate; the runtime consults this before honoring
/// ObsConfig::enabled.
constexpr bool compiled_in() {
#ifdef DSTAGE_OBS_OFF
  return false;
#else
  return true;
#endif
}

}  // namespace dstage::obs
