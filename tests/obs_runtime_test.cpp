// End-to-end tests of the observability layer threaded through the
// runtime: zero perturbation when enabled, staging-internal trace kinds
// gated on ObsConfig, breakdown/critical-path reporting on a real failure
// run, Chrome export validity, sweep aggregation determinism, and pinned
// digests of the whole instrumentation output on five configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/setups.hpp"
#include "core/sweep.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"
#include "staging/recovery.hpp"
#include "util/checksum.hpp"

namespace dstage::core {
namespace {

WorkflowSpec small_spec(Scheme scheme, int failures, std::uint64_t seed,
                        bool obs_on) {
  WorkflowSpec spec = table2_setup(scheme);
  spec.total_ts = 10;
  spec.failures.count = failures;
  spec.failures.seed = seed;
  spec.obs.enabled = obs_on;
  return spec;
}

bool is_obs_kind(TraceKind k) {
  return k == TraceKind::kGcSweep || k == TraceKind::kGcWatermarkAdvance ||
         k == TraceKind::kLogTruncate;
}

TEST(ObsRuntimeTest, DisabledByDefault) {
  WorkflowRunner runner(small_spec(Scheme::kUncoordinated, 0, 1, false));
  runner.run();
  EXPECT_EQ(runner.runtime().obs(), nullptr);
  for (const TraceEvent& e : runner.trace().events()) {
    EXPECT_FALSE(is_obs_kind(e.kind)) << trace_kind_name(e.kind);
  }
}

TEST(ObsRuntimeTest, EnablingObsDoesNotPerturbTheRun) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with DSTAGE_OBS=OFF";
  WorkflowRunner off(small_spec(Scheme::kUncoordinated, 1, 6, false));
  WorkflowRunner on(small_spec(Scheme::kUncoordinated, 1, 6, true));
  const RunMetrics m_off = off.run();
  const RunMetrics m_on = on.run();

  // Identical timing and staging behaviour...
  EXPECT_EQ(m_on.total_time_s, m_off.total_time_s);
  EXPECT_EQ(m_on.staging.puts, m_off.staging.puts);
  EXPECT_EQ(m_on.events_processed, m_off.events_processed);
  // ...and the workflow-level event stream is identical once the
  // obs-gated staging-internal kinds are filtered out.
  std::vector<const TraceEvent*> a, b;
  for (const TraceEvent& e : off.trace().events()) a.push_back(&e);
  for (const TraceEvent& e : on.trace().events()) {
    if (!is_obs_kind(e.kind)) b.push_back(&e);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->at.ns, b[i]->at.ns);
    EXPECT_EQ(a[i]->kind, b[i]->kind);
    EXPECT_EQ(a[i]->component, b[i]->component);
    EXPECT_EQ(a[i]->value, b[i]->value);
  }
}

TEST(ObsRuntimeTest, GcKindsRecordedOnlyWhenEnabled) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with DSTAGE_OBS=OFF";
  // Uncoordinated logging + periodic durable checkpoints exercise the GC:
  // watermarks advance and sweeps run on every checkpoint.
  WorkflowRunner on(small_spec(Scheme::kUncoordinated, 0, 1, true));
  on.run();
  EXPECT_FALSE(on.trace().of_kind(TraceKind::kGcWatermarkAdvance).empty());
  EXPECT_FALSE(on.trace().of_kind(TraceKind::kGcSweep).empty());

  obs::Observability* o = on.runtime().obs();
  ASSERT_NE(o, nullptr);
  // Per-server counters agree with the trace (counter() is find-or-create,
  // so a non-const registry handle is needed even to read).
  std::uint64_t advances = 0, sweeps = 0;
  for (int s = 0; s < on.runtime().server_count(); ++s) {
    const std::string label = "staging-" + std::to_string(s);
    advances += o->metrics().counter("gc.watermark_advances", label).value();
    sweeps += o->metrics().counter("gc.sweeps", label).value();
  }
  EXPECT_EQ(advances, on.trace().of_kind(TraceKind::kGcWatermarkAdvance).size());
  EXPECT_EQ(sweeps, on.trace().of_kind(TraceKind::kGcSweep).size());
}

TEST(ObsRuntimeTest, CoordinatedFailureBreakdownAndCriticalPath) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with DSTAGE_OBS=OFF";
  WorkflowRunner runner(small_spec(Scheme::kCoordinated, 1, 6, true));
  const RunMetrics m = runner.run();
  ASSERT_EQ(m.failures_injected, 1);
  const obs::Observability* o = runner.runtime().obs();
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->tracer().open_count(), 0u);  // finalize closed everything

  // Acceptance: per-phase breakdown whose phase columns sum to the track
  // total within 1e-9 s (exact in integer ns, in fact).
  const obs::Breakdown b = obs::phase_breakdown(o->tracer());
  ASSERT_FALSE(b.tracks.empty());
  bool saw_restart = false;
  for (const auto& t : b.tracks) {
    EXPECT_EQ(t.attributed_ns(), t.total_ns) << t.track;
    saw_restart = saw_restart || t.phase(obs::Phase::kRestart) > 0;
  }
  EXPECT_TRUE(saw_restart);  // the recovery shows up as restart time

  // Acceptance: a reconstructable recovery tree with the detect -> ...
  // stages as children, critical path marked.
  const auto recoveries = obs::recovery_paths(o->tracer());
  ASSERT_EQ(recoveries.size(), 1u);
  const obs::PathNode& root = recoveries[0];
  EXPECT_FALSE(root.children.empty());
  bool saw_detect = false, critical = false;
  for (const auto& c : root.children) {
    saw_detect = saw_detect || c.span->name == "detect";
    critical = critical || c.on_critical_path;
  }
  EXPECT_TRUE(saw_detect);
  EXPECT_TRUE(critical);

  // Acceptance: the exported Chrome trace passes the independent validator.
  const obs::TraceValidation v =
      obs::validate_chrome_trace(obs::chrome_trace_json(o->tracer()).str());
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors[0]);
  EXPECT_GT(v.events, 0u);
}

TEST(ObsRuntimeTest, KilledProcessSpansStayMatchedInExport) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with DSTAGE_OBS=OFF";
  // Node-level failures under Hybrid kill several processes mid-activity;
  // every span must still export as a matched begin/end pair.
  WorkflowSpec spec = small_spec(Scheme::kHybrid, 2, 3, true);
  spec.failures.node_failure_fraction = 1.0;
  WorkflowRunner runner(spec);
  runner.run();
  const obs::Observability* o = runner.runtime().obs();
  ASSERT_NE(o, nullptr);
  const obs::TraceValidation v =
      obs::validate_chrome_trace(obs::chrome_trace_json(o->tracer()).str());
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors[0]);
}

// Satellite acceptance: metrics collected under an N-thread sweep equal a
// serial collection exactly — same runs, same aggregate, any thread count.
TEST(ObsRuntimeTest, ParallelSweepAggregateEqualsSerial) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with DSTAGE_OBS=OFF";
  auto make = [](std::uint64_t seed) {
    return small_spec(Scheme::kUncoordinated, 1, seed, true);
  };
  obs::MetricsRegistry serial, parallel;
  SweepOptions so;
  so.threads = 1;
  so.metrics = &serial;
  const auto runs_serial = run_seed_sweep(make, 6, so);
  SweepOptions po;
  po.threads = 4;
  po.metrics = &parallel;
  const auto runs_parallel = run_seed_sweep(make, 6, po);

  EXPECT_EQ(serial.to_json().str(), parallel.to_json().str());
  ASSERT_EQ(runs_serial.size(), runs_parallel.size());
  for (std::size_t i = 0; i < runs_serial.size(); ++i) {
    EXPECT_EQ(runs_serial[i].trace_digest, runs_parallel[i].trace_digest);
    // Each run also carries its own obs snapshot in the sweep result.
    EXPECT_FALSE(runs_serial[i].obs.is_null());
    EXPECT_EQ(runs_serial[i].obs.str(), runs_parallel[i].obs.str());
  }
}

// Equivalence pins: one FNV-1a digest per configuration over everything
// the instrumentation emits — the full span stream, the instants, the
// metrics snapshot, the flight-recorder dump — plus the core Trace digest.
// Any change to where spans open or close, which track they land on, what
// the recorder sees or in which order, moves the pin. The values were
// captured before the instrumentation sites were collapsed onto obs::Track
// and must never be re-pinned by a refactor. The two staging-kill pins
// were re-pinned once, for a behavior fix: the recovered staging-1 keeps
// its track, so its post-kill spans, metrics, recorder events (which push
// the oldest staging-1 events out of its fixed-size ring) and, with obs
// on, milestone trace records now appear. Every other record is unchanged.
struct EquivalenceCase {
  const char* name;
  WorkflowSpec (*make)();
  /// Kill one staging server mid-run (a StagingRecoveryManager with a
  /// single spare rebuilds it from its peers).
  bool kill_staging;
  std::uint64_t digest;
};

WorkflowSpec pin_co_failures() {
  WorkflowSpec spec = small_spec(Scheme::kCoordinated, 2, 5, true);
  spec.failures.node_failure_fraction = 0.5;
  return spec;
}

WorkflowSpec pin_un_extensions() {
  WorkflowSpec spec = small_spec(Scheme::kUncoordinated, 2, 5, true);
  spec.total_ts = 12;
  spec.staging_servers = 2;  // 1024 MB per server then spills
  spec.failures.node_failure_fraction = 0.5;
  spec.ckpt.xor_group = 2;
  spec.staging.memory_budget = std::uint64_t{1024} << 20;
  spec.wlog.codec = wlog::codec::Scheme::kDeltaLz;
  spec.server.policy.kind = resilience::Redundancy::kReplication;
  for (auto& c : spec.components) c.local_ckpt_period = 2;
  return spec;
}

WorkflowSpec pin_hy_elastic() {
  WorkflowSpec spec = small_spec(Scheme::kHybrid, 2, 3, true);
  spec.total_ts = 12;
  spec.staging_servers = 3;
  spec.elastic.standby_servers = 1;
  spec.elastic.events = {{3, true, -1}, {8, false, -1}};
  return spec;
}

WorkflowSpec pin_co_tenants() {
  WorkflowSpec spec = small_spec(Scheme::kCoordinated, 2, 4, true);
  spec.tenancy.tenants = 2;
  spec.tenancy.fair_share = true;
  spec.staging.memory_budget = std::uint64_t{1024} << 20;
  return spec;
}

WorkflowSpec pin_un_extensions_recorder_only() {
  WorkflowSpec spec = pin_un_extensions();
  spec.obs.enabled = false;
  return spec;
}

std::uint64_t mix(std::uint64_t h, const std::string& s) {
  return fnv1a_str(s + "\n", h);
}

std::uint64_t instrumentation_digest(WorkflowRunner& runner) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (const obs::Observability* o = runner.runtime().obs()) {
    for (const obs::Span& s : o->tracer().spans()) {
      h = mix(h, std::to_string(s.id) + "|" + std::to_string(s.parent) + "|" +
                     s.track + "|" + s.name + "|" +
                     obs::phase_name(s.phase) + "|" +
                     std::to_string(s.start.ns) + "|" +
                     std::to_string(s.end.ns) + "|" +
                     std::to_string(s.value) + "|" + (s.open ? "1" : "0"));
    }
    for (const obs::Instant& i : o->tracer().instants()) {
      h = mix(h, i.track + "|" + i.name + "|" + std::to_string(i.at.ns) + "|" +
                     std::to_string(i.value));
    }
    h = mix(h, o->metrics().to_json().str());
  }
  if (const obs::FlightRecorder* rec = runner.runtime().recorder()) {
    for (const obs::FrDecoded& e : rec->dump()) {
      h = mix(h, std::to_string(e.seq) + "|" + std::to_string(e.at_ns) + "|" +
                     e.kind + "|" + e.track + "|" + e.detail + "|" +
                     std::to_string(e.a) + "|" + std::to_string(e.b));
    }
  }
  return mix(h, std::to_string(runner.trace().digest()));
}

constexpr sim::Duration kStagingKillAt = sim::seconds(110);

/// Arm a one-spare StagingRecoveryManager over the runtime's staging group
/// and kill `staging-1` at kStagingKillAt. The runner's teardown drops the
/// failure observers before it kills the vprocs, so this is the only kill
/// the manager observes.
std::unique_ptr<staging::StagingRecoveryManager> arm_staging_kill(
    Runtime& rt) {
  std::vector<cluster::VprocId> vprocs;
  for (int s = 0; s < rt.server_count(); ++s)
    vprocs.push_back(rt.server(s).vproc());
  auto manager = std::make_unique<staging::StagingRecoveryManager>(
      rt.cluster(), &rt.servers(), vprocs, rt.server(0).params(),
      /*spares=*/1);
  if (rt.spill_gateway() != nullptr) {
    manager->set_spill_endpoint(rt.spill_gateway()->endpoint());
  }
  manager->arm();
  const cluster::VprocId victim = vprocs[1];
  rt.engine().schedule_call(kStagingKillAt,
                            [&rt, victim] { rt.cluster().kill(victim); });
  return manager;
}

TEST(ObsRuntimeTest, RecoveredStagingServerKeepsItsTrack) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with DSTAGE_OBS=OFF";
  // The replacement a StagingRecoveryManager builds serves traffic on the
  // dead server's track: its spans, metrics and flight-recorder events
  // land on "staging-1" like its predecessor's did.
  std::unique_ptr<staging::StagingRecoveryManager> manager;
  WorkflowRunner runner(pin_un_extensions());
  Runtime& rt = runner.runtime();
  manager = arm_staging_kill(rt);
  runner.run();
  ASSERT_EQ(manager->stats().servers_recovered, 1);
  EXPECT_EQ(rt.server(1).track().name(), "staging-1");
  EXPECT_GT(rt.server(1).stats().puts, 0u);

  const std::int64_t kill_ns = kStagingKillAt.ns;
  std::size_t spans = 0;
  for (const obs::Span& sp : rt.obs()->tracer().spans()) {
    if (sp.track == "staging-1" && sp.start.ns >= kill_ns) ++spans;
  }
  std::size_t events = 0;
  for (const obs::FrDecoded& e : rt.recorder()->dump()) {
    if (e.track == "staging-1" && e.at_ns >= kill_ns) ++events;
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(events, 0u);
}

class ObsEquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ObsEquivalenceTest, InstrumentationDigestIsPinned) {
  const EquivalenceCase& c = GetParam();
  WorkflowSpec spec = c.make();
  if (spec.obs.enabled && !obs::compiled_in()) {
    GTEST_SKIP() << "built with DSTAGE_OBS=OFF";
  }
  // Declared before the runner so it outlives the runner's teardown.
  std::unique_ptr<staging::StagingRecoveryManager> manager;
  WorkflowRunner runner(std::move(spec));
  if (c.kill_staging) manager = arm_staging_kill(runner.runtime());
  runner.run();
  if (manager != nullptr) {
    ASSERT_EQ(manager->stats().servers_recovered, 1);
  }
  EXPECT_EQ(instrumentation_digest(runner), c.digest)
      << c.name << ": 0x" << std::hex << instrumentation_digest(runner);
}

INSTANTIATE_TEST_SUITE_P(
    Pins, ObsEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{"co_failures", pin_co_failures, false,
                        0x7de66691a2d52f4cull},
        EquivalenceCase{"un_ckpt_governor_codec_staging_kill",
                        pin_un_extensions, true, 0x9aac32efa89f259eull},
        EquivalenceCase{"hy_elastic_failures", pin_hy_elastic, false,
                        0x4cf715f6b4fee700ull},
        EquivalenceCase{"co_two_tenants_fair_share", pin_co_tenants, false,
                        0xd891a64bd0b68076ull},
        EquivalenceCase{"un_extensions_recorder_only",
                        pin_un_extensions_recorder_only, true,
                        0xc560c93a7908150cull}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dstage::core
