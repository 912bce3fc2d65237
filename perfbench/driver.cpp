// Benchmark driver: runs one pass of a benchmark workload through the
// library's public API and prints JSON lines on stdout. run.py starts one
// driver process per pass, enforces the pass deadline, and turns the lines
// into the benchmark's metrics.
//
//   perfbench_driver pass  --workload=W --seed=N [--obs] [--runner]
//   perfbench_driver setup --workload=W --seed=N
//   perfbench_driver probe --workload=W --seed=N
//
// pass   one pass of the workload. Before each run it prints a "begin" line
//        (so a killed pass names the run it was in) and after it a "run"
//        line; the last line is the "pass" summary. --obs turns on
//        spec.obs (span tracing). For oracle_campaign, --runner executes
//        each schedule's spec with WorkflowRunner instead of the oracle,
//        which is what exposes RunMetrics and spans for that workload.
// setup  only the pass's set-up work (spec or schedule generation plus
//        runtime assembly), sampled kSetupSamples times; one "setup" line
//        per sample.
// pass and setup report host seconds and reference seconds (calib below).
// probe  the per-layer micro-probes, each timing one public function on
//        inputs shaped like the workload's; one "probe" line.
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "ckpt/xor_group.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"
#include "dht/spatial_index.hpp"
#include "gc/garbage_collector.hpp"
#include "net/rpc.hpp"
#include "obs/observability.hpp"
#include "obs/report.hpp"
#include "resilience/reed_solomon.hpp"
#include "sim/spawn.hpp"
#include "staging/object_store.hpp"
#include "util/checksum.hpp"
#include "util/flags.hpp"
#include "util/geometry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "wlog/codec.hpp"
#include "wlog/data_log.hpp"

namespace {

using namespace dstage;
using Clock = std::chrono::steady_clock;

// Pass sizes. A paper_sweep pass is the fig10 main sweep once (5 scales x
// {Co, Un, Hy, Un+delta_lz} = 20 runs); an oracle_campaign pass is
// kCampaignSchedules schedules; a des_ceiling pass is one 10,000-server run.
constexpr int kCampaignSchedules = 50;
constexpr int kCeilingServers = 10000;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------- machine speed

/// Reference seconds. On a shared VM the same work takes up to 1.8x longer
/// in one stretch of minutes than in another (README, "Observed spread").
/// So while the driver measures, a fixed calibration kernel shaped like the
/// simulator's hot loop (event-heap pop and push, one scattered store per
/// event) runs from a SIGALRM handler every kPeriodMs. An interval's
/// reference seconds are its host seconds, minus the kernel's own time in
/// it, times kRefNs over the kernel's mean time so far in this process:
/// what the interval would have taken with the kernel at its reference
/// speed. The kernel is the benchmark's own code, so a change to the
/// library moves reference seconds about as much as host seconds.
/// Everything the handler touches is static or lock-free, so it is async-signal-safe.
namespace calib {

constexpr int kPeriodMs = 25;
constexpr int kOps = 3000;
// The reference tick time: reference seconds are host seconds on a machine
// where one tick takes this long, about what it takes on a quiet 2.1 GHz
// Xeon guest.
constexpr double kRefNs = 120e3;

struct Event {
  std::uint64_t at;
  std::uint64_t slot;
};
// The working set is small (a 32 KB heap and the 2048 words of the 8 MB
// array that its events own), so what the measured code leaves in the
// caches moves the kernel's time little.
constexpr std::size_t kHeapCap = std::size_t{1} << 12;
constexpr std::size_t kScatterWords = std::size_t{1} << 21;  // 8 MB
Event g_heap[kHeapCap];
std::size_t g_heap_n = 0;
std::uint32_t g_scatter[kScatterWords];
std::uint64_t g_rng = 0x9E3779B97F4A7C15ull;
std::atomic<std::int64_t> g_kernel_ns{0};
std::atomic<std::int64_t> g_ticks{0};

std::int64_t now_ns() {
  timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return t.tv_sec * 1'000'000'000ll + t.tv_nsec;
}

std::uint64_t next() {
  return g_rng = g_rng * 6364136223846793005ull + 1442695040888963407ull;
}

void push(Event e) {
  std::size_t i = g_heap_n++;
  while (i > 0 && g_heap[(i - 1) / 2].at > e.at) {
    g_heap[i] = g_heap[(i - 1) / 2];
    i = (i - 1) / 2;
  }
  g_heap[i] = e;
}

Event pop() {
  const Event top = g_heap[0];
  const Event last = g_heap[--g_heap_n];
  std::size_t i = 0;
  for (std::size_t c = 1; c < g_heap_n; c = 2 * i + 1) {
    if (c + 1 < g_heap_n && g_heap[c + 1].at < g_heap[c].at) ++c;
    if (last.at <= g_heap[c].at) break;
    g_heap[i] = g_heap[c];
    i = c;
  }
  g_heap[i] = last;
  return top;
}

void on_tick(int) {
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kOps; ++i) {
    Event e = pop();
    e.at += next() >> 44;
    ++g_scatter[(e.slot >> 40) & (kScatterWords - 1)];
    push(e);
  }
  g_kernel_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  g_ticks.fetch_add(1, std::memory_order_relaxed);
}

/// Starts the kernel ticking for the rest of the process. The first tick
/// runs at once, so every interval has a kernel mean to scale by.
void start() {
  while (g_heap_n < kHeapCap / 2) push({next() >> 20, next()});
  on_tick(0);
  struct sigaction sa {};
  sa.sa_handler = on_tick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGALRM, &sa, nullptr);
  itimerval it{};
  it.it_interval.tv_usec = kPeriodMs * 1000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_REAL, &it, nullptr);
}

/// The start of a measured interval.
struct Mark {
  Clock::time_point t = Clock::now();
  std::int64_t kernel_ns = g_kernel_ns.load(std::memory_order_relaxed);
};

struct Interval {
  double wall_s;  // host seconds, kernel time included
  double ref_s;   // reference seconds
};

Interval since(const Mark& m) {
  const double wall =
      std::chrono::duration<double>(Clock::now() - m.t).count();
  const std::int64_t kernel_ns = g_kernel_ns.load(std::memory_order_relaxed);
  const std::int64_t ticks = g_ticks.load(std::memory_order_relaxed);
  const double own = static_cast<double>(kernel_ns - m.kernel_ns) * 1e-9;
  if (ticks == 0) return {wall, wall};  // no kernel: the profiling build
  const double scale =
      kRefNs * static_cast<double>(ticks) / static_cast<double>(kernel_ns);
  return {wall, (wall - own) * scale};
}

}  // namespace calib

// ---------------------------------------------------------------- output

/// One JSON object printed as a single line.
class Line {
 public:
  explicit Line(const char* event) { str("event", event); }
  Line& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Line& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Line& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Line& str(const std::string& key, const std::string& v) {
    return raw(key, json_quote(v));
  }
  Line& strings(const std::string& key, const std::vector<std::string>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out += ",";
      out += json_quote(vs[i]);
    }
    return raw(key, out + "]");
  }
  Line& object(const std::string& key,
               const std::map<std::string, double>& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : m) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += (first ? "" : ",") + json_quote(k) + ":" + buf;
      first = false;
    }
    return raw(key, out + "}");
  }
  void print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  Line& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += json_quote(key) + ":" + v;
    return *this;
  }
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------- workloads

/// One run of a pass: a workflow spec (paper_sweep, des_ceiling, and
/// oracle_campaign under --runner) or an oracle schedule.
struct Job {
  std::string label;
  std::optional<core::WorkflowSpec> spec;
  std::optional<check::Schedule> schedule;
};

/// The pass's inputs, generated from the seed. Generation time is part of
/// set-up.
std::vector<Job> make_jobs(const std::string& workload, std::uint64_t seed,
                           bool runner) {
  std::vector<Job> jobs;
  if (workload == "paper_sweep") {
    struct Cell {
      core::Scheme scheme;
      wlog::codec::Scheme codec;
      const char* name;
    };
    const Cell cells[] = {
        {core::Scheme::kCoordinated, wlog::codec::Scheme::kNone, "co"},
        {core::Scheme::kUncoordinated, wlog::codec::Scheme::kNone, "un"},
        {core::Scheme::kHybrid, wlog::codec::Scheme::kNone, "hy"},
        {core::Scheme::kUncoordinated, wlog::codec::Scheme::kDeltaLz,
         "un+delta_lz"},
    };
    const Rng base(seed);
    for (int k = 0; k <= 4; ++k) {
      // Table III: MTBF 600/300/200 s -> 1/2/3 failures per run. The four
      // cells of a scale share one failure seed, so the schemes meet the
      // same failures; each scale draws its own.
      const int failures = k == 0 ? 1 : (k == 1 ? 2 : 3);
      const std::uint64_t failure_seed = base.fork(k).next_u64();
      for (const Cell& c : cells) {
        Job job;
        job.label = "scale=" + std::to_string(k) + " " + c.name +
                    " seed=" + std::to_string(failure_seed);
        job.spec = core::table3_setup(c.scheme, k, failures, failure_seed);
        job.spec->wlog.codec = c.codec;
        jobs.push_back(std::move(job));
      }
    }
  } else if (workload == "des_ceiling") {
    Job job;
    job.label = "ceiling servers=" + std::to_string(kCeilingServers);
    job.spec = core::ceiling_setup(kCeilingServers);
    jobs.push_back(std::move(job));
  } else if (workload == "oracle_campaign") {
    // Half the schedules cycle the payload codec, the other half run the
    // checkpoint hierarchy, all under a 768 MB governor. The three together
    // can hang (the drain/governor cycle; see README), so no schedule
    // combines codec and hierarchy.
    check::GenerateOptions codec;
    codec.count = kCampaignSchedules / 2;
    codec.seed = seed;
    codec.memory_budget_mb = 768;
    codec.codec_mix = true;
    check::GenerateOptions ckpt = codec;
    ckpt.seed = Rng(seed).next_u64();
    ckpt.codec_mix = false;
    ckpt.ckpt_probability = 1.0;
    for (const auto& gen : {codec, ckpt}) {
      for (check::Schedule& s : check::generate_schedules(gen)) {
        Job job;
        job.label = s.repro();
        if (runner) job.spec = s.to_spec();
        job.schedule = std::move(s);
        jobs.push_back(std::move(job));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return jobs;
}

bool tolerates_anomalies(core::Scheme s) {
  // In sacrifices correctness by design; every other scheme must read
  // consistent data.
  return s == core::Scheme::kIndividual;
}

/// Virtual-time results of a pass, pooled over its runs. Deterministic.
struct Virtual {
  SampleSet put_response_s;
  SampleSet recovery_s;
  double total_time_s = 0;
  double total_bytes_peak = 0;
  int runs = 0;
};

/// For each injected failure: time from the kFailure record to the failed
/// component's next kTimestepDone at the timestep it was executing.
void add_recovery_samples(const core::Trace& trace, SampleSet& out) {
  const auto& ev = trace.events();
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind != core::TraceKind::kFailure) continue;
    for (std::size_t j = i + 1; j < ev.size(); ++j) {
      if (ev[j].kind == core::TraceKind::kTimestepDone &&
          ev[j].component == ev[i].component &&
          ev[j].timestep == ev[i].timestep) {
        out.add((ev[j].at.ns - ev[i].at.ns) * 1e-9);
        break;
      }
    }
  }
}

/// Virtual nanoseconds per phase from obs::phase_breakdown, summed over
/// tracks. phase_breakdown scans every span once per track, which at 10k staging
/// tracks does not finish in a pass deadline, so each track's spans are
/// copied into a tracer of their own first. Attribution within a track
/// depends only on that track's spans in begin order, so the totals are
/// the same.
void add_phase_ns(const obs::SpanTracer& tracer,
                  std::map<std::string, std::int64_t>& phase_ns) {
  std::map<std::string, obs::SpanTracer> by_track;
  for (const obs::Span& s : tracer.spans()) {
    obs::SpanTracer& t = by_track[s.track];
    const obs::SpanId id =
        t.begin(s.track, s.name, s.phase, s.start, 0, s.value);
    if (!s.open) t.end(id, s.end);
  }
  for (const auto& [name, t] : by_track) {
    for (const auto& track : obs::phase_breakdown(t).tracks) {
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        phase_ns[obs::phase_name(static_cast<obs::Phase>(p))] +=
            track.phase_ns[p];
      }
    }
  }
}

/// Per-layer counters summed over a pass's runs.
using Counters = std::map<std::string, double>;

void add_run_counters(const core::RunMetrics& m, Counters& c) {
  const auto& st = m.staging;
  c["sim.events"] += static_cast<double>(m.events_processed);
  c["sim.vprocs"] = std::max(c["sim.vprocs"], static_cast<double>(m.vprocs));
  c["net.packets"] += static_cast<double>(m.fabric_packets);
  c["net.bytes"] += static_cast<double>(m.fabric_bytes);
  c["net.rpc_retries"] += static_cast<double>(m.rpc_retries);
  c["net.rpc_exhausted"] += static_cast<double>(m.rpc_exhausted);
  c["net.backpressure_waits"] += static_cast<double>(m.rpc_backpressure_waits);
  c["cluster.pfs_write_bytes"] += static_cast<double>(m.pfs_bytes_written);
  c["cluster.pfs_read_bytes"] += static_cast<double>(m.pfs_bytes_read);
  c["staging.puts"] += static_cast<double>(st.puts);
  c["staging.gets"] += static_cast<double>(st.gets);
  c["staging.gets_from_log"] += static_cast<double>(st.gets_from_log);
  c["staging.puts_suppressed"] += static_cast<double>(st.puts_suppressed);
  c["staging.mem_peak_bytes"] = std::max(
      c["staging.mem_peak_bytes"], static_cast<double>(st.total_bytes_peak));
  c["staging.log_peak_bytes"] =
      std::max(c["staging.log_peak_bytes"],
               static_cast<double>(st.log_payload_bytes_peak));
  c["staging.spilled_versions"] += static_cast<double>(st.spilled_versions);
  c["staging.spill_fetches"] += static_cast<double>(st.spill_fetches);
  c["staging.puts_rejected"] += static_cast<double>(st.puts_rejected);
  c["wlog.codec_blocks"] += static_cast<double>(st.codec_blocks);
  c["wlog.codec_raw_bytes"] += static_cast<double>(st.codec_raw_bytes);
  c["wlog.codec_stored_bytes"] += static_cast<double>(st.codec_stored_bytes);
  c["gc.versions_dropped"] += static_cast<double>(st.gc_versions_dropped);
  c["ckpt.drains"] += static_cast<double>(m.ckpt.drains_completed);
  c["ckpt.cache_restarts"] += static_cast<double>(m.ckpt.cache_restarts);
  c["ckpt.partner_rebuilds"] += static_cast<double>(m.ckpt.partner_rebuilds);
  c["ckpt.pfs_restarts"] += static_cast<double>(m.ckpt.pfs_restarts);
  c["core.failures_injected"] += m.failures_injected;
  for (const auto& comp : m.components) {
    c["ckpt.stall_s"] += comp.ckpt_stall_s;
    c["core.timesteps_done"] += comp.timesteps_done;
    c["core.timesteps_reworked"] += comp.timesteps_reworked;
  }
}

/// The oracle's own counts that a plain WorkflowRunner run of the same
/// schedule must reproduce exactly (used to check --runner passes).
void add_report_counters(const check::OracleReport& r, Counters& c) {
  c["core.failures_injected"] += r.failures_injected;
  c["staging.spilled_versions"] += static_cast<double>(r.spilled_versions);
  c["staging.spill_fetches"] += static_cast<double>(r.spill_fetches);
  c["staging.puts_rejected"] += static_cast<double>(r.puts_rejected);
  c["net.backpressure_waits"] += static_cast<double>(r.backpressure_waits);
  c["ckpt.drains"] += static_cast<double>(r.ckpt_drains_completed);
  c["ckpt.cache_restarts"] += static_cast<double>(r.ckpt_cache_restarts);
  c["ckpt.partner_rebuilds"] += static_cast<double>(r.ckpt_partner_rebuilds);
  c["ckpt.pfs_restarts"] += static_cast<double>(r.ckpt_pfs_restarts);
  c["wlog.codec_blocks"] += static_cast<double>(r.codec_blocks_encoded);
  c["wlog.codec_raw_bytes"] += static_cast<double>(r.codec_raw_bytes);
  c["wlog.codec_stored_bytes"] += static_cast<double>(r.codec_stored_bytes);
}

int run_pass(const std::string& workload, std::uint64_t seed, bool obs_on,
             bool runner) {
  const calib::Mark pass_mark;
  auto t0 = Clock::now();
  std::vector<Job> jobs = make_jobs(workload, seed, runner);
  const double generate_s = since(t0);
  Line("plan").count("runs", jobs.size()).print();

  Virtual virt;
  Counters counters;
  Counters check_counters;  // oracle-side counts (oracle_campaign only)
  std::vector<std::string> digests;
  std::map<std::string, std::int64_t> phase_ns;
  std::uint64_t spans = 0;
  double core_setup_s = 0, core_run_s = 0;
  double reference_s = 0, checked_s = 0;
  std::uint64_t reads_compared = 0;
  std::set<const void*> references;
  int failed = 0;

  check::ReferenceCache cache;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& job = jobs[i];
    Line("begin").count("run", i).str("label", job.label).print();
    const calib::Mark run_mark;
    std::string error;
    std::uint64_t digest = 0;
    try {
      if (job.spec) {
        job.spec->obs.enabled = obs_on;
        const core::Scheme scheme = job.spec->scheme;
        t0 = Clock::now();
        core::WorkflowRunner wf(std::move(*job.spec));
        core_setup_s += since(t0);
        t0 = Clock::now();
        core::RunMetrics m = wf.run();
        core_run_s += since(t0);
        digest = wf.trace().digest();
        // Oracle schedules are judged by check_schedule, not here: a Ds
        // schedule with failures reads stale data by design.
        if (!job.schedule && !tolerates_anomalies(scheme) &&
            m.total_anomalies() != 0) {
          error = std::to_string(m.total_anomalies()) + " read anomalies";
        }
        for (const auto& c : m.components) {
          virt.put_response_s.merge(c.put_response_s);
        }
        add_recovery_samples(wf.trace(), virt.recovery_s);
        virt.total_time_s += m.total_time_s;
        virt.total_bytes_peak += static_cast<double>(m.staging.total_bytes_peak);
        ++virt.runs;
        add_run_counters(m, counters);
        if (const obs::Observability* o = wf.runtime().obs()) {
          spans += o->tracer().spans().size();
          add_phase_ns(o->tracer(), phase_ns);
        }
      } else {
        // Warm every reference check_schedule looks up, so checked_s is
        // the oracle's own work: the schedule's configuration and, for a
        // codec schedule, its codec-off copy (invariant 7).
        t0 = Clock::now();
        const auto ref = cache.reference_for(*job.schedule);
        references.insert(ref.get());
        if (job.schedule->codec != wlog::codec::Scheme::kNone) {
          check::Schedule raw = *job.schedule;
          raw.codec = wlog::codec::Scheme::kNone;
          references.insert(cache.reference_for(raw).get());
        }
        reference_s += since(t0);
        t0 = Clock::now();
        const check::OracleReport r = check::check_schedule(*job.schedule, cache);
        checked_s += since(t0);
        // Invariant 2 compares against every reference read; invariant 7
        // compares each codec-armed reference read with its codec-off one.
        reads_compared += ref->reads.size() + r.codec_reads_checked;
        digest = r.trace_digest;
        add_report_counters(r, check_counters);
        if (!r.ok()) error = r.summary();
      }
    } catch (const std::exception& e) {
      error = std::string("exception: ") + e.what();
    }
    if (!error.empty()) ++failed;
    digests.push_back(hex(digest));
    const calib::Interval run_time = calib::since(run_mark);
    Line("run")
        .count("run", i)
        .str("label", job.label)
        .num("wall_s", run_time.wall_s)
        .num("ref_s", run_time.ref_s)
        .flag("ok", error.empty())
        .str("error", error)
        .str("digest", hex(digest))
        .print();
  }

  std::sort(digests.begin(), digests.end());
  std::map<std::string, double> v;
  if (virt.runs > 0) {
    v["write_resp_p50_s"] = virt.put_response_s.percentile(50);
    v["write_resp_p99_s"] = virt.put_response_s.percentile(99);
    v["write_resp_samples"] = static_cast<double>(virt.put_response_s.count());
    v["total_time_s"] = virt.total_time_s / virt.runs;
    v["staging_mem_peak_gib"] =
        virt.total_bytes_peak / virt.runs / static_cast<double>(1ull << 30);
    v["recovery_samples"] = static_cast<double>(virt.recovery_s.count());
    if (virt.recovery_s.count() > 0) {
      v["recovery_resp_p50_s"] = virt.recovery_s.percentile(50);
      v["recovery_resp_p90_s"] = virt.recovery_s.percentile(90);
    }
  }
  std::map<std::string, double> phases;
  for (const auto& [name, ns] : phase_ns) {
    phases[name] = static_cast<double>(ns) * 1e-9;
  }
  Counters host;
  host["core.setup_s"] = core_setup_s;
  host["core.run_s"] = core_run_s;
  host["check.generate_s"] = workload == "oracle_campaign" ? generate_s : 0;
  host["check.reference_s"] = reference_s;
  host["check.checked_s"] = checked_s;
  check_counters["check.reference_runs"] =
      static_cast<double>(references.size());
  check_counters["check.reads_compared"] = static_cast<double>(reads_compared);

  const calib::Interval pass_time = calib::since(pass_mark);
  Line("pass")
      .str("workload", workload)
      .count("runs", jobs.size())
      .count("failed", static_cast<std::uint64_t>(failed))
      .num("wall_s", pass_time.wall_s)
      .num("ref_s", pass_time.ref_s)
      .object("virtual", v)
      .object("counters", counters)
      .object("check", check_counters)
      .object("host", host)
      .object("phases", phases)
      .count("spans", spans)
      .strings("digests", digests)
      .print();
  return 0;
}

/// Set-up alone: input generation plus runtime assembly of every run of
/// the pass (for oracle_campaign, of each schedule's spec — the assembly
/// check_schedule performs). After one untimed warm-up, each of
/// kSetupSamples samples repeats that set-up until its timed total reaches
/// kSetupSampleS and reports the mean in host and in reference seconds, so
/// a set-up of a few milliseconds is not read off one short interval.
/// Runners are destroyed after the clock stops.
constexpr int kSetupSamples = 5;
constexpr double kSetupSampleS = 0.1;

calib::Interval time_setup(const std::string& workload, std::uint64_t seed) {
  const calib::Mark mark;
  std::vector<Job> jobs = make_jobs(workload, seed, true);
  std::vector<std::unique_ptr<core::WorkflowRunner>> runners;
  for (Job& job : jobs) {
    runners.push_back(
        std::make_unique<core::WorkflowRunner>(std::move(*job.spec)));
  }
  return calib::since(mark);
}

int run_setup(const std::string& workload, std::uint64_t seed) {
  time_setup(workload, seed);
  for (int s = 0; s < kSetupSamples; ++s) {
    double wall_s = 0, ref_s = 0;
    int reps = 0;
    for (; wall_s < kSetupSampleS; ++reps) {
      const calib::Interval t = time_setup(workload, seed);
      wall_s += t.wall_s;
      ref_s += t.ref_s;
    }
    Line("setup")
        .num("setup_s", ref_s / reps)
        .num("setup_wall_s", wall_s / reps)
        .count("reps", reps)
        .print();
  }
  return 0;
}

// ---------------------------------------------------------------- probes

/// Median host nanoseconds per call of `op`, over `batches` batches each
/// sized to take roughly `batch_s` seconds.
double time_ns(const std::function<void()>& op, double batch_s = 0.01,
               int batches = 9) {
  std::uint64_t n = 1;
  for (;;) {  // size the batch
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) op();
    if (since(t0) >= batch_s || n >= (1ull << 30)) break;
    n *= 2;
  }
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) op();
    per_op.push_back(since(t0) * 1e9 / static_cast<double>(n));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

double mb_per_s(std::size_t bytes, double ns) {
  return static_cast<double>(bytes) / (ns * 1e-9) / 1e6;
}

/// One DHT cell of a Table III scale-0 put (64x64x32 points of the
/// 512x512x256 domain at 16 B/point and mem_scale 65536), synthesized the
/// way the workflow stages it.
staging::Chunk table3_chunk(std::uint64_t seed, staging::Version v) {
  return staging::make_chunk("field" + std::to_string(seed % 7), v,
                             Box::from_dims(64, 64, 32), 16.0, 65536);
}

std::vector<std::uint8_t> table3_bytes(std::uint64_t seed, staging::Version v) {
  return *table3_chunk(seed, v).data;
}

int run_probe(const std::string& workload, std::uint64_t seed) {
  std::map<std::string, double> out;
  Rng rng(seed);
  std::uint64_t sink = 0;

  // sim: schedule + dispatch of one engine item.
  {
    constexpr int kItems = 4096;
    const double ns = time_ns([&] {
      sim::Engine eng;
      for (int i = 0; i < kItems; ++i) {
        eng.schedule_call(sim::nanoseconds(static_cast<std::int64_t>(
                              rng.uniform_u64(0, 1'000'000))),
                          [] {});
      }
      sink += eng.run();
    });
    out["sim.dispatch_ns"] = ns / kItems;
  }

  // net: one typed RPC round trip across the fabric.
  {
    constexpr int kCalls = 256;
    const double ns = time_ns([&] {
      sim::Engine eng;
      net::Fabric fabric(eng, {});
      const auto n0 = fabric.add_node();
      const auto n1 = fabric.add_node();
      const auto client_ep = fabric.add_endpoint(n0);
      const auto server_ep = fabric.add_endpoint(n1);
      net::Rpc client(fabric, client_ep);
      net::Rpc server(fabric, server_ep);
      sim::spawn(eng, [&]() -> sim::Task<void> {
        sim::Ctx ctx{&eng, nullptr};
        for (int i = 0; i < kCalls; ++i) {
          net::Packet pkt = co_await fabric.endpoint(server_ep).recv(nullptr);
          auto& req = std::get<net::QueryRequest>(pkt.payload);
          net::QueryResponse resp;
          resp.store_versions = {1, 2};
          co_await server.fulfill(ctx, req.reply_to, std::move(req.reply),
                                  std::move(resp));
        }
      });
      sim::spawn(eng, [&]() -> sim::Task<void> {
        sim::Ctx ctx{&eng, nullptr};
        for (int i = 0; i < kCalls; ++i) {
          net::QueryRequest req;
          req.var = "field";
          auto resp = co_await client.call(ctx, server_ep, std::move(req));
          sink += resp.store_versions.size();
        }
      });
      sink += eng.run();
    });
    out["net.rpc_roundtrip_ns"] = ns / kCalls;
  }

  // dht: placement of one full-domain put at 10k servers (the ceiling
  // geometry) and at the largest Table III server count.
  const Box ceiling_domain = Box::from_dims(256, 256, 128);
  const Box table3_domain = Box::from_dims(512, 512, 256);
  {
    const dht::SpatialIndex ceiling(ceiling_domain, kCeilingServers, 64);
    out["dht.place_ceiling_ns"] =
        time_ns([&] { sink += ceiling.place(ceiling_domain).size(); });
    const dht::SpatialIndex table3(table3_domain, 4 << 4, 8);
    out["dht.place_table3_ns"] =
        time_ns([&] { sink += table3.place(table3_domain).size(); });
  }

  // staging: ObjectStore put + get of one cell-sized chunk (Table III
  // scale 0: 64x64x32 points at 16 B/point; ceiling: 4x4x2 points at 8).
  {
    const Box t3 = Box::from_dims(64, 64, 32);
    const Box ce = Box::from_dims(4, 4, 2);
    const staging::Chunk t3_chunk = table3_chunk(seed, 1);
    const staging::Chunk ce_chunk =
        staging::make_chunk(t3_chunk.var, 1, ce, 8.0, 65536);
    staging::Version v = 1;
    staging::ObjectStore t3_store(2), ce_store(2);
    out["staging.store_put_get_table3_ns"] = time_ns([&] {
      staging::Chunk c = t3_chunk;
      c.version = ++v;
      t3_store.put(std::move(c));
      sink += t3_store.get(t3_chunk.var, v, t3).size();
    });
    out["staging.store_put_get_ceiling_ns"] = time_ns([&] {
      staging::Chunk c = ce_chunk;
      c.version = ++v;
      ce_store.put(std::move(c));
      sink += ce_store.get(t3_chunk.var, v, ce).size();
    });
  }

  // wlog: codec throughput per scheme on successive versions of one
  // Table III cell, and DataLog retain + read.
  {
    const auto base = table3_bytes(seed, 1);
    const auto next = table3_bytes(seed, 2);
    for (const auto scheme :
         {wlog::codec::Scheme::kLz, wlog::codec::Scheme::kDelta,
          wlog::codec::Scheme::kDeltaLz}) {
      const std::string name = wlog::codec::scheme_name(scheme);
      std::vector<std::uint8_t> block;
      const double enc = time_ns([&] {
        block = wlog::codec::encode(next, scheme, base, 1);
        sink += block.size();
      });
      const double dec = time_ns([&] {
        const auto r = wlog::codec::decode(block, base);
        sink += r.raw.size();
      });
      if (wlog::codec::decode(block, base).raw != next) {
        throw std::runtime_error("codec probe round trip mismatch: " + name);
      }
      out["wlog.codec_encode_mb_s." + name] = mb_per_s(next.size(), enc);
      out["wlog.codec_decode_mb_s." + name] = mb_per_s(next.size(), dec);
    }
    wlog::DataLog log;
    staging::Chunk c = table3_chunk(seed, 1);
    const std::string var = c.var;
    const Box cell = c.region;
    out["wlog.log_retain_read_ns"] = time_ns([&] {
      ++c.version;
      log.add(c);
      sink += log.get(var, c.version, cell).size();
      if (c.version % 64 == 0) log.drop_upto(var, c.version);
    });
  }

  // gc: one sweep over a 64-version log with a checkpoint at 48.
  {
    std::vector<staging::Chunk> chunks;
    for (staging::Version v = 1; v <= 64; ++v) {
      chunks.push_back(table3_chunk(seed, v));
    }
    constexpr int kReps = 64;
    double total_ns = 0;
    for (int r = 0; r < kReps; ++r) {
      gc::GarbageCollector gc;
      gc.register_var(chunks[0].var, {{1, true}});
      gc.on_checkpoint(1, 48);
      wlog::DataLog log;
      for (const auto& c : chunks) log.add(c);
      const auto t0 = Clock::now();
      sink += gc.sweep(log).versions_dropped;
      total_ns += since(t0) * 1e9;
    }
    out["gc.sweep_ns"] = total_ns / kReps;
  }

  // resilience: RS(2,1), the code campaign schedules stage payloads with.
  {
    const auto data = table3_bytes(seed, 3);
    const resilience::ReedSolomon rs(2, 1);
    const double enc = time_ns([&] { sink += rs.encode(data).size(); });
    auto shards = rs.encode(data);
    shards[0].clear();
    const double dec = time_ns([&] {
      sink += rs.decode(shards, data.size()).value_or(data).size();
    });
    out["resilience.rs_encode_mb_s"] = mb_per_s(data.size(), enc);
    out["resilience.rs_decode_mb_s"] = mb_per_s(data.size(), dec);
  }

  // ckpt: XOR parity of a 3-member partner group.
  {
    std::vector<std::vector<std::uint8_t>> blocks;
    for (int m = 0; m < 3; ++m) blocks.push_back(table3_bytes(seed, 4 + m));
    const double ns = time_ns([&] { sink += ckpt::xor_encode(blocks).size(); });
    out["ckpt.xor_encode_mb_s"] = mb_per_s(blocks.size() * blocks[0].size(), ns);
  }

  // util: coverage test of a Table III full-domain put decomposition with
  // one cell missing, and payload synthesis.
  {
    const dht::SpatialIndex index(table3_domain, 16, 8);
    std::vector<Box> cover;
    for (const auto& p : index.place(table3_domain)) {
      cover.insert(cover.end(), p.pieces.begin(), p.pieces.end());
    }
    const std::size_t drop = rng.uniform_u64(0, cover.size() - 1);
    const std::uint64_t missing = cover[drop].volume();
    cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(drop));
    if (uncovered_volume(table3_domain, cover) != missing) {
      throw std::runtime_error("uncovered_volume probe mismatch");
    }
    out["util.uncovered_volume_ns"] =
        time_ns([&] { sink += uncovered_volume(table3_domain, cover); });
    std::vector<std::byte> buf(table3_chunk(seed, 1).physical_bytes());
    const std::uint64_t key = rng.next_u64();
    const double ns = time_ns([&] {
      fill_payload(buf, key);
      sink += static_cast<std::uint64_t>(buf.back());
    });
    out["util.fill_payload_mb_s"] = mb_per_s(buf.size(), ns);
  }

  // Printing the sink keeps every probed call's result observable.
  Line("probe")
      .str("workload", workload)
      .count("sink", sink & 1)
      .object("metrics", out)
      .print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) {
    throw std::invalid_argument(
        "usage: perfbench_driver pass|setup|probe --workload=W --seed=N");
  }
  const std::string mode = argv[1];
  Flags flags(argc - 1, argv + 1);
  const std::string workload = flags.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
#ifndef PERFBENCH_PROFILING
  // Not in the gprof build: its SIGPROF samples pile up in the handler.
  if (mode == "pass" || mode == "setup") calib::start();
#endif
  if (mode == "pass") {
    return run_pass(workload, seed, flags.get_bool("obs", false),
                    flags.get_bool("runner", false));
  }
  if (mode == "setup") {
    return run_setup(workload, seed);
  }
  if (mode == "probe") return run_probe(workload, seed);
  throw std::invalid_argument("unknown mode '" + mode + "'");
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
  return 2;
}
