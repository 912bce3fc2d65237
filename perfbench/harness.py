"""Build and child-process plumbing shared by run.py and gprof_layers.py.

Everything the benchmark builds or writes lives under `.bench_build/` at the
root of the checkout. Each pass of a workload runs in its own driver
process, under a host-time deadline, with its stdout captured to a file.
"""

import json
import os
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_JOBS = 4

# The out-of-tree builds: the measured one, and the -pg one gprof reads,
# which leaves out the driver's calibration kernel (PERFBENCH_PROFILING).
# The flags go on the cmake command line; no build file is edited.
BUILDS = {
    "release": [],
    "gprof": ["-DCMAKE_CXX_FLAGS=-pg -DPERFBENCH_PROFILING",
              "-DCMAKE_EXE_LINKER_FLAGS=-pg"],
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or environment)."""


def driver_path(kind):
    return BUILD / kind / "perfbench_driver"


def build(kind):
    """Configure (once) and build one driver flavour."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = BUILD / kind
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *BUILDS[kind]])
    steps.append(["cmake", "--build", str(out), "-j", str(BUILD_JOBS)])
    with open(log, "w") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError(f"{kind} build failed:\n" + "\n".join(tail))


@dataclass
class Child:
    """One finished (or killed) driver process."""
    lines: list = field(default_factory=list)  # parsed JSON stdout lines
    exit_code: int = 0
    killed: bool = False      # exceeded its deadline
    wall_s: float = 0.0       # host seconds, process start to reaped
    maxrss_kb: int = 0        # ru_maxrss of the child
    stderr: str = ""

    def events(self, kind):
        return [line for line in self.lines if line.get("event") == kind]

    def last(self, kind):
        found = self.events(kind)
        return found[-1] if found else None


def run_child(argv, deadline_s, tag, cwd=None):
    """Run argv with its stdout in a file; kill it after deadline_s."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out_path, err_path = tmp / f"{tag}.jsonl", tmp / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out,
                                stderr=err, cwd=cwd)
    killed = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - t0 > deadline_s:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                killed = True
                break
            time.sleep(0.02)
    except BaseException:  # interrupted: never leave the child running
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(exit_code=proc.returncode, killed=killed, wall_s=wall,
                  maxrss_kb=usage.ru_maxrss, stderr=err_path.read_text())
    for text in out_path.read_text().splitlines():
        try:
            child.lines.append(json.loads(text))
        except json.JSONDecodeError:
            pass  # a line cut short by a kill
    return child
