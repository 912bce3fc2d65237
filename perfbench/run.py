#!/usr/bin/env python3
"""Repository benchmark: simulator host cost and the paper's virtual-time
metrics on three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the driver from source (first run only), then runs as many passes
of the workload as fit in S seconds (at least two, for the determinism
check), each in its own driver process under a deadline. With
--trace 1 it adds a traced pass, the per-layer probes and a gprof pass, and
reports the per-layer metrics instead of the end-to-end ones. The last line
of stdout is a JSON object {correct, attempted, failed, metrics}; the exit
code is non-zero when any correctness or determinism check fails. See
perfbench/README.md.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time

import gprof_layers
import harness

WORKLOADS = gprof_layers.WORKLOADS
# Host-time limit of one pass; a pass that exceeds it is killed and its
# unfinished runs count as failed.
PASS_DEADLINE_S = {"paper_sweep": 45, "des_ceiling": 90, "oracle_campaign": 45}
# setup_s is the median of at least this many samples (five per set-up
# process).
SETUP_MIN_SAMPLES = 25

# End-to-end metrics: (name, unit, clock). Clock "ref" is host time in
# reference seconds (driver.cpp, calib). The JSON line carries the host
# metrics that are defined and non-zero on every workload and whose
# cross-seed spread fits a bound (JSON_E2E, see README); all are printed.
E2E = [
    ("wall_s", "s", "ref"),
    ("run_wall_p50_s", "s", "ref"),
    ("run_wall_p90_s", "s", "ref"),
    ("setup_s", "s", "ref"),
    ("peak_rss_mb", "MB", "host"),
    ("write_resp_p50_s", "s", "virtual"),
    ("write_resp_p99_s", "s", "virtual"),
    ("recovery_resp_p50_s", "s", "virtual"),
    ("recovery_resp_p90_s", "s", "virtual"),
    ("total_time_s", "s", "virtual"),
    ("staging_mem_peak_gib", "GiB", "virtual"),
    ("failed_run_frac", "frac", "-"),
]
JSON_E2E = ("wall_s", "setup_s", "peak_rss_mb")
VIRTUAL = [name for name, _, clock in E2E if clock == "virtual"]

# Counters a pass sums over its runs; all deterministic.
COUNT_UNITS = {
    "sim.events": "count", "sim.vprocs": "count",
    "net.packets": "count", "net.bytes": "B", "net.rpc_retries": "count",
    "net.rpc_exhausted": "count", "net.backpressure_waits": "count",
    "cluster.pfs_write_bytes": "B", "cluster.pfs_read_bytes": "B",
    "staging.puts": "count", "staging.gets": "count",
    "staging.gets_from_log": "count", "staging.puts_suppressed": "count",
    "staging.mem_peak_bytes": "B", "staging.log_peak_bytes": "B",
    "staging.spilled_versions": "count", "staging.spill_fetches": "count",
    "staging.puts_rejected": "count",
    "wlog.codec_blocks": "count", "wlog.codec_raw_bytes": "B",
    "wlog.codec_stored_bytes": "B",
    "gc.versions_dropped": "count",
    "ckpt.drains": "count", "ckpt.cache_restarts": "count",
    "ckpt.partner_rebuilds": "count", "ckpt.pfs_restarts": "count",
    "ckpt.stall_s": "s",
    "core.failures_injected": "count", "core.timesteps_done": "count",
    "core.timesteps_reworked": "count",
}
PHASES = ("read", "compute", "write", "checkpoint", "restart", "replay",
          "drain", "spill")


class Check:
    """Collects correctness and determinism failures."""

    def __init__(self):
        self.problems = []

    def expect(self, ok, msg):
        if not ok:
            self.problems.append(msg)
        return ok


def driver_argv(kind, mode, workload, seed, *extra):
    return [harness.driver_path(kind), mode, f"--workload={workload}",
            f"--seed={seed}", *extra]


class Tally:
    """Runs attempted and failed over every pass of the invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(workload, seed, tag, check, tally, kind="release", extra=()):
    """One pass in its own process. Returns (summary line or None, child)."""
    child = harness.run_child(driver_argv(kind, "pass", workload, seed, *extra),
                              PASS_DEADLINE_S[workload], f"{workload}-{tag}")
    plan = child.last("plan")
    planned = plan["runs"] if plan else 1
    done = child.events("run")
    tally.attempted += planned
    failed_runs = [r for r in done if not r["ok"]]
    tally.failed += len(failed_runs) + (planned - len(done))
    for r in failed_runs:
        check.expect(False, f"{tag}: run failed: {r['label']}: {r['error']}")
    summary = child.last("pass")
    if child.killed:
        begun = {b["run"]: b["label"] for b in child.events("begin")}
        stuck = begun.get(max(begun)) if begun else "(before the first run)"
        check.expect(False, f"{tag}: pass exceeded its {PASS_DEADLINE_S[workload]} s "
                     f"deadline in run: {stuck}")
        return None, child
    if not check.expect(child.exit_code == 0 and summary is not None,
                        f"{tag}: driver exit {child.exit_code}: "
                        f"{child.stderr.strip()[-300:]}"):
        return None, child
    return summary, child


def same(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def fingerprint(summary):
    """Everything in a pass that must repeat exactly."""
    return {k: summary[k] for k in ("runs", "failed", "virtual", "counters",
                                    "check", "digests")}


def percentile(sorted_xs, q):
    """Linear interpolation on an (n - 1) rank basis, like SampleSet."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def run_wall_tail(xs):
    """p90, or the highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return None, None
    q = min(0.90, (n - 11) / (n - 1))
    return percentile(sorted(xs), q), q


def run_setup(workload, seed, check, setups):
    """One set-up child process; appends its samples to `setups`. Returns
    whether it succeeded."""
    child = harness.run_child(driver_argv("release", "setup", workload, seed),
                              60, f"{workload}-setup{len(setups)}")
    samples = child.events("setup")
    setups.extend(samples)
    return check.expect(child.exit_code == 0 and samples,
                        f"set-up samples failed: {child.stderr.strip()[-300:]}")


def measure(workload, seed, seconds, check, tally):
    """The timed, untraced passes plus the set-up samples."""
    t0 = time.monotonic()
    passes, children, setups = [], [], []
    while True:
        summary, child = run_pass(workload, seed, f"pass{len(passes)}", check,
                                  tally)
        if summary is None:
            break
        passes.append(summary)
        children.append(child)
        # Set-up samples come from one process after each of the first
        # passes, so neither one process's heap layout nor one moment's
        # machine speed decides setup_s.
        if (len(setups) < SETUP_MIN_SAMPLES
                and not run_setup(workload, seed, check, setups)):
            break
        # Stop once another pass of the same length would overrun the
        # measuring time; two passes are needed for the determinism check,
        # so a workload whose pass is longer than half of it overruns.
        next_end = time.monotonic() - t0 + child.wall_s
        if len(passes) >= 2 and next_end > seconds:
            break
    while (passes and len(setups) < SETUP_MIN_SAMPLES
           and run_setup(workload, seed, check, setups)):
        pass
    if len(passes) >= 2:
        for i, p in enumerate(passes[1:], 1):
            check.expect(same(fingerprint(p), fingerprint(passes[0])),
                         f"determinism: pass {i} differs from pass 0 "
                         "(virtual metrics, counters or trace digests)")
    else:
        check.expect(False, "fewer than two passes completed")
    return passes, children, setups


def e2e_values(passes, children, setups, tally):
    """name -> (value or None, note). Host times are reference seconds
    (driver.cpp, calib); the notes give host seconds as measured."""
    out = {}
    refs = [p["ref_s"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    runs = [r["ref_s"] for c in children for r in c.events("run")]
    out["wall_s"] = (statistics.median(refs) if refs else None,
                     f"median of {len(refs)} passes" +
                     (f"; host s median {statistics.median(walls):.4g}, "
                      f"range {min(walls):.4g}..{max(walls):.4g}" if walls else ""))
    out["run_wall_p50_s"] = (statistics.median(runs) if runs else None,
                             f"n={len(runs)} runs")
    tail, q = run_wall_tail(runs)
    out["run_wall_p90_s"] = (tail, f"p{100 * q:.0f}, n={len(runs)}" if q else
                             f"undefined: n={len(runs)} runs, needs >= 11")
    out["setup_s"] = (statistics.median(s["setup_s"] for s in setups)
                      if setups else None,
                      f"median of {len(setups)} samples of >= 0.1 s each" +
                      (f"; host s median "
                       f"{statistics.median(s['setup_wall_s'] for s in setups):.4g}"
                       if setups else ""))
    rss = [c.maxrss_kb / 1024 for c in children]
    out["peak_rss_mb"] = (statistics.median(rss) if rss else None,
                          f"median of {len(rss)} pass processes")
    virt = passes[0]["virtual"] if passes else {}
    for name in VIRTUAL:
        if name in virt:
            out[name] = (virt[name], "exact, repeats across passes")
        elif name.startswith("recovery") and virt:
            out[name] = (None, "undefined: no failures injected")
        else:
            out[name] = (None, "undefined: oracle runs expose no RunMetrics")
    if "write_resp_samples" in virt:
        out["write_resp_p50_s"] = (virt["write_resp_p50_s"],
                                   f"n={virt['write_resp_samples']:.0f} puts")
    if virt.get("recovery_samples"):
        out["recovery_resp_p50_s"] = (virt["recovery_resp_p50_s"],
                                      f"n={virt['recovery_samples']:.0f} failures")
    out["failed_run_frac"] = (tally.failed / max(1, tally.attempted),
                              f"{tally.failed} of {tally.attempted} runs")
    return out


def layer_values(workload, seed, passes, check, tally):
    """The traced pass, probes and gprof pass: name -> (value, unit)."""
    base = passes[0]
    metrics = {}
    if workload == "oracle_campaign":
        # The oracle returns no RunMetrics or spans; the same schedules run
        # through WorkflowRunner give them. The oracle's own counts must match.
        plain, _ = run_pass(workload, seed, "runner", check, tally,
                            extra=("--runner",))
        traced, _ = run_pass(workload, seed, "runner-traced", check, tally,
                             extra=("--runner", "--obs"))
        if plain is None or traced is None:
            return None
        for key, value in base["check"].items():
            if key in plain["counters"]:
                check.expect(plain["counters"][key] == value,
                             f"runner pass {key}={plain['counters'][key]} "
                             f"but the oracle counted {value}")
        check.expect(plain["digests"] == base["digests"],
                     "runner pass trace digests differ from the oracle's")
        untraced = [plain]
    else:
        plain = base
        traced, _ = run_pass(workload, seed, "traced", check, tally,
                             extra=("--obs",))
        if traced is None:
            return None
        untraced = passes
    check.expect(same(traced["virtual"], plain["virtual"]) and
                 same(traced["counters"], plain["counters"]),
                 "traced pass does not reproduce the untraced virtual metrics")

    c = plain["counters"]
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (c.get(name, 0.0), unit)

    def median_of(key):
        return statistics.median(p["host"][key] for p in untraced)

    run_s = median_of("core.run_s")
    metrics["sim.events_per_s"] = (c["sim.events"] / run_s if run_s else 0.0,
                                   "1/s")
    raw, stored = c["wlog.codec_raw_bytes"], c["wlog.codec_stored_bytes"]
    metrics["wlog.codec_ratio"] = (raw / stored if stored else 0.0, "ratio")
    done, rework = c["core.timesteps_done"], c["core.timesteps_reworked"]
    metrics["core.rework_ratio"] = (rework / done if done else 0.0, "ratio")
    metrics["core.setup_s"] = (median_of("core.setup_s"), "s")
    metrics["core.run_s"] = (run_s, "s")
    for name in ("check.generate_s", "check.reference_s", "check.checked_s"):
        metrics[name] = (statistics.median(p["host"][name] for p in passes), "s")
    metrics["check.reference_runs"] = (base["check"]["check.reference_runs"],
                                       "count")
    metrics["check.reads_compared"] = (base["check"]["check.reads_compared"],
                                       "count")
    metrics["obs.spans"] = (traced["spans"], "count")
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["obs.trace_overhead_frac"] = (
        (traced["wall_s"] - untraced_wall) / untraced_wall, "frac")
    for phase in PHASES:
        metrics[f"phase.{phase}_s"] = (traced["phases"].get(phase, 0.0), "s")

    probe = harness.run_child(driver_argv("release", "probe", workload, seed),
                              60, f"{workload}-probe")
    line = probe.last("probe")
    if not check.expect(probe.exit_code == 0 and line is not None,
                        f"probe failed: {probe.stderr.strip()[-300:]}"):
        return None
    for name, value in line["metrics"].items():
        unit = "MB/s" if "_mb_s" in name else "ns"
        metrics[name] = (value, unit)

    pg_child, shares, sampled, top = gprof_layers.profile_pass(workload, seed)
    pg = pg_child.last("pass")
    if workload == "oracle_campaign":
        check.expect(pg is not None and same(fingerprint(pg), fingerprint(base)),
                     "gprof pass does not reproduce the untraced pass")
    else:
        check.expect(pg is not None and same(pg["virtual"], traced["virtual"])
                     and same(pg["counters"], traced["counters"]),
                     "gprof pass does not reproduce the traced virtual metrics")
    for layer, share in shares.items():
        metrics[f"{layer}.self_share"] = (share, "frac")
    gprof_layers.print_profile(workload, shares, sampled, top)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated benchmark unwinds, so the running pass is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        # Both flavours are built up front so only the first run builds.
        for kind in harness.BUILDS:
            harness.build(kind)
        check, tally = Check(), Tally()
        passes, children, setups = measure(args.workload, args.seed,
                                           args.seconds, check, tally)
        layers = None
        if args.trace and passes:
            layers = layer_values(args.workload, args.seed, passes, check, tally)
            check.expect(layers is not None, "traced run incomplete")
    except (harness.BenchError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    e2e = e2e_values(passes, children, setups, tally)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  runs/pass {passes[0]['runs'] if passes else 0}")
    print(f"{'metric':26s} {'clock':8s} {'value':>16s} unit   note")
    for name, unit, clock in E2E:
        value, note = e2e[name]
        shown = f"{value:16.6g}" if value is not None else f"{'undefined':>16s}"
        print(f"{name:26s} {clock:8s} {shown} {unit:6s} {note}")
    if layers:
        print("per-layer:")
        for name in sorted(layers):
            value, unit = layers[name]
            print(f"  {name:40s} {value:18.6g} {unit}")
    for problem in check.problems:
        print(f"CHECK FAILED: {problem}")

    correct = not check.problems
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   (layers or {}).items()}
    else:
        units = {name: unit for name, unit, _ in E2E}
        metrics = {k: {"value": e2e[k][0], "unit": units[k]} for k in JSON_E2E
                   if e2e[k][0] is not None}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
