"""Benchmark of the morsim command line.

Runs a workload's ``morsim`` command in fresh processes, one at a time, as a
user does, checks every output, and prints one JSON result as the last line:

    python3 perfbench/run.py --workload glauber_strong --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one table

``--trace 0`` reports the end-to-end metrics: wall_s (one whole process),
setup_s (interpreter start to the first evolved state) and peak_rss_mb, each
the median over the processes of the run.  ``--trace 1`` pairs each plain
process with a traced one (probe.py) and reports the per-layer metrics.
The machine, the interpreter and the BLAS set-up go on the line before the
result.  Outputs are kept under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import summarize
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = HERE / "probe.py"
OUT = ROOT / ".perfbench_out"
PY = sys.executable

MIN_ROUNDS = 3          # plain processes per --trace 0 run, at least
DEADLINE_S = 165.0      # a run must exit within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
VERIFY_CHECKS = ("oracle_equivalence", "two_photon_closed_form", "fringe_frequencies",
                 "visibility_curve", "sensitivity_scaling", "glauber_vs_projection",
                 "normalization_and_invariance")
# metric name, unit, span name, field of tracing.summarize
PER_LAYER = (
    ("medium.apply_mor.calls", "count", "medium.apply_mor", "calls"),
    ("medium.apply_mor.total_s", "s", "medium.apply_mor", "total_s"),
    ("medium.apply_mor.warm_ms", "ms", "medium.apply_mor", "warm_ms"),
    ("medium.apply_mor.cold_ms", "ms", "medium.apply_mor", "cold_ms"),
    ("medium.apply_mor.components_out", "count", "medium.apply_mor", "components"),
    ("medium.apply_mor.tail_growth", "prob", "medium.apply_mor", "tail"),
    ("fock.normally_ordered_moment.calls", "count", "fock.normally_ordered_moment", "calls"),
    ("fock.normally_ordered_moment.total_s", "s", "fock.normally_ordered_moment", "total_s"),
    ("fock.normally_ordered_moment.warm_ms", "ms", "fock.normally_ordered_moment", "warm_ms"),
    ("fock.normally_ordered_moment.components", "count", "fock.normally_ordered_moment",
     "components"),
    ("fock.projection_probability.calls", "count", "fock.projection_probability", "calls"),
    ("fock.projection_probability.total_s", "s", "fock.projection_probability", "total_s"),
    ("sources.build_state.total_s", "s", "sources.build_state", "total_s"),
    ("sources.build_state.components", "count", "sources.build_state", "components"),
    ("detection.fringe_scan.calls", "count", "detection.fringe_scan", "calls"),
    ("detection.fringe_scan.total_s", "s", "detection.fringe_scan", "total_s"),
    ("detection.fringe_scan.self_s", "s", "detection.fringe_scan", "self_s"),
    ("oracles.calls", "count", "oracles", "calls"),
    ("oracles.total_s", "s", "oracles", "total_s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    *((f"verify.check_{c}.total_s", "s", f"verify.check_{c}", "total_s")
      for c in VERIFY_CHECKS),
)
TRACE_ONLY = (("process.import_s", "s"), ("trace.overhead_s", "s"))


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


ENV = _env()


def spawn(cmd: list[str], out: Path, timeout: float) -> Child:
    """Run one process to its end; wall time, CPU time and peak RSS are its own."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=stdout, stderr=stderr)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, out.read_bytes())


def probe_setup(argv: list[str], timeout: float) -> float:
    start = perf_counter()
    done = subprocess.run([PY, str(PROBE), "setup", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, timeout=timeout, text=True)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout.split()[-1]) - start


def environment() -> dict:
    """Machine and interpreter the numbers come from.  The child also warms
    the bytecode cache and proves morsim imports from this checkout."""
    done = subprocess.run([PY, str(PROBE), "context"], cwd=ROOT, env=ENV,
                          capture_output=True, timeout=120, text=True)
    if done.returncode != 0:
        raise BenchError(f"cannot import morsim from {ROOT / 'src'}: "
                         f"{done.stderr.strip()[-400:]}")
    ctx = json.loads(done.stdout)
    if not Path(ctx["morsim_file"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"morsim imported from {ctx['morsim_file']}, not from this checkout")
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    ctx.update(nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               cpu_model=cpu_model, platform=platform.platform())
    return ctx


class Tally:
    """Operations attempted and failed over every process of a run."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.reference: bytes | None = None

    def add(self, child: Child) -> None:
        try:
            attempted, failed = self.workload.check(child.stdout.decode())
        except ValueError:
            attempted, failed = self.workload.operations, self.workload.operations
        if self.reference is None and child.code == 0:
            self.reference = child.stdout
        # a crash, or output bytes unlike another run's, fails the run as a whole
        if child.code != 0 or child.stdout != self.reference:
            attempted = failed = max(attempted, self.workload.operations)
        self.attempted += attempted
        self.failed += failed


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    argv = workload.argv(seed)
    ctx = environment()
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally = Tally(workload)
    plain: list[Child] = []
    traced: list[Child] = []
    setups: list[float] = []
    layers: list[dict] = []
    imports: list[float] = []

    def left() -> float:
        return DEADLINE_S - (perf_counter() - started)

    begin = perf_counter()
    if not trace:
        # warm-up: the first process after an idle spell runs up to twice as slow
        probe_setup(argv, left())
    while True:
        i = len(plain)
        if not trace:
            setups.append(probe_setup(argv, left()))
        plain.append(spawn([PY, "-m", "morsim", *argv], out / f"plain-{i}.txt", left()))
        tally.add(plain[-1])
        if trace:
            spans = out / f"spans-{i}.json"
            traced.append(spawn([PY, str(PROBE), "trace", str(spans), *argv],
                                out / f"traced-{i}.txt", left()))
            tally.add(traced[-1])
            if spans.exists():
                data = json.loads(spans.read_text())
                imports.append(data["import_s"])
                layers.append(summarize(data["spans"]))
        per_round = (perf_counter() - begin) / len(plain)
        if per_round > left() or (len(plain) >= (1 if trace else MIN_ROUNDS)
                                  and perf_counter() - begin + per_round > seconds):
            break
    # the time left until --seconds goes to more set-up probes
    while setups and perf_counter() - begin + max(setups) < min(seconds, left()):
        setups.append(probe_setup(argv, left()))

    if trace:
        values = {name: _median([summary.get(span, {}).get(field, 0) for summary in layers])
                  for name, _, span, field in PER_LAYER}
        values["process.import_s"] = _median(imports)
        values["trace.overhead_s"] = _median([t.wall_s - p.wall_s
                                              for p, t in zip(plain, traced)])
        units = {name: unit for name, unit, *_ in PER_LAYER} | dict(TRACE_ONLY)
    else:
        values = {"wall_s": _median([c.wall_s for c in plain]),
                  "setup_s": _median(setups),
                  "peak_rss_mb": _median([c.rss_mb for c in plain])}
        units = dict(END_TO_END)
    ctx.update(workload=workload.name, seed=seed, argv=["morsim", *argv], rounds=len(plain),
               wall_s=[c.wall_s for c in plain], traced_wall_s=[c.wall_s for c in traced],
               cpu_s=[c.cpu_s for c in plain + traced], setup_s=setups)
    return {
        "context": ctx,
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "morsim" / "__init__.py").is_file():
        print(f"error: no morsim source under {ROOT / 'src'}", file=sys.stderr)
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        result = results[names[0]]
        print(json.dumps({"context": result.pop("context")}))
        print(json.dumps(result))
        return 0
    for name, result in results.items():
        print(json.dumps({"context": result.pop("context")}))
        print(f"{name}: {result['failed']}/{result['attempted']} failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
