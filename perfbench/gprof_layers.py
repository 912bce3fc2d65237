#!/usr/bin/env python3
"""Attribute host self time to the library's layers with gprof.

Builds the benchmark driver out of tree with -pg (flags on the cmake
command line, no build file edited), runs one traced pass per workload in
its own directory so each gets its own gmon.out, and sums gprof's flat
profile self time per layer. A function belongs to the layer named by its
`dstage::<module>` namespace (bare `dstage::` is util). Functions outside
dstage, such as std:: templates, take the layer of the first
`dstage::<module>` in their template arguments or enclosing lambda;
symbols with no dstage:: at all count as `other`.

gprof samples only the driver's own text, so time inside shared libraries
(libc, libstdc++) is not in the denominator.

    python3 perfbench/gprof_layers.py [--seed N]
"""

import argparse
import re
import shutil
import subprocess
import sys

import harness

LAYERS = ("util", "sim", "net", "cluster", "dht", "staging", "resilience",
          "wlog", "gc", "ckpt", "core", "check", "obs")
WORKLOADS = ("paper_sweep", "des_ceiling", "oracle_campaign")
DEADLINE_S = {"paper_sweep": 60, "des_ceiling": 100, "oracle_campaign": 60}

_FLAT = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                   r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
_DSTAGE = re.compile(r"dstage::(?:(\w+)::)?")


def own_name(symbol):
    """The qualified name right before the top-level parameter list."""
    depth = 0
    start = 0
    for i, ch in enumerate(symbol):
        if ch in "<(" and symbol.startswith("operator", max(0, i - 8)):
            continue  # operator<, operator()
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif ch == "(" and depth == 0:
            return symbol[start:i]
        elif ch == " " and depth == 0:
            start = i + 1
    return symbol[start:]


def layer_of(symbol):
    name = own_name(symbol.replace("(anonymous namespace)", "anon"))
    m = _DSTAGE.search(name)
    if not m:
        return "other"
    return m.group(1) if m.group(1) in LAYERS else "util"


def flat_profile(binary, gmon):
    """[(self_seconds, demangled symbol)] from gprof's flat profile."""
    gprof = subprocess.run(["gprof", "-b", "-p", str(binary), str(gmon)],
                           capture_output=True, text=True, check=True).stdout
    rows = []
    for line in gprof.splitlines():
        m = _FLAT.match(line)
        if m:
            rows.append((float(m.group(3)), m.group(4).strip()))
    if shutil.which("c++filt"):  # long names gprof left mangled
        names = subprocess.run(["c++filt"], input="\n".join(n for _, n in rows),
                               capture_output=True, text=True).stdout.split("\n")
        rows = [(s, names[i] if i < len(names) else n)
                for i, (s, n) in enumerate(rows)]
    return rows


def attribute(rows):
    """Per-layer share of sampled self time, plus the top functions."""
    total = sum(s for s, _ in rows)
    shares = {layer: 0.0 for layer in (*LAYERS, "other")}
    for seconds, symbol in rows:
        shares[layer_of(symbol)] += seconds
    if total > 0:
        shares = {k: v / total for k, v in shares.items()}
    top = sorted(rows, reverse=True)[:12]
    return shares, total, [(s / total if total else 0.0, layer_of(n), n)
                           for s, n in top]


def profile_pass(workload, seed):
    """One traced pass of `workload` on the -pg build, attributed.

    oracle_campaign profiles its real oracle pass; check_schedule offers no
    tracing switch, so that pass runs untraced."""
    binary = harness.driver_path("gprof")
    cwd = harness.BUILD / "gprof-run" / workload
    cwd.mkdir(parents=True, exist_ok=True)
    gmon = cwd / "gmon.out"
    gmon.unlink(missing_ok=True)
    child = harness.run_child(
        [binary, "pass", f"--workload={workload}", f"--seed={seed}",
         *(() if workload == "oracle_campaign" else ("--obs",))],
        DEADLINE_S[workload], f"gprof-{workload}", cwd=cwd)
    if child.killed or child.exit_code or not gmon.is_file():
        raise harness.BenchError(
            f"gprof pass of {workload} failed (exit {child.exit_code}, "
            f"killed={child.killed}): {child.stderr.strip()}")
    shares, sampled, top = attribute(flat_profile(binary, gmon))
    return child, shares, sampled, top


def print_profile(workload, shares, sampled, top):
    print(f"gprof self time, {workload}: {sampled:.2f} s sampled")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer + '.self_share':24s} {share:8.4f}")
    print("  top functions (share, layer, symbol):")
    for share, layer, name in top:
        print(f"    {share:7.4f}  {layer:10s} {name[:110]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    try:
        harness.build("gprof")
        for workload in WORKLOADS:
            _, shares, sampled, top = profile_pass(workload, args.seed)
            print_profile(workload, shares, sampled, top)
    except (harness.BenchError, subprocess.CalledProcessError) as e:
        print(f"gprof_layers: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
