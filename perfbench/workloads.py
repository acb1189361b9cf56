"""The benchmark's workloads: the ``morsim`` command each one runs, made from
a seed, and the check that counts failed operations in its output.

An operation is one fringe point or one ``verify`` check.  Seed 0 gives the
reference command exactly; any other seed moves r by at most 0.02 and
shifts the theta grid by less than one step, which changes neither the
truncation depth nor the point count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

POINTS = 201
R_JITTER = 0.02
# the allowance of `morsim verify`: relative 1e-8, absolute 1e-12 at zeros
REL_TOL = 1e-8
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    # stdout text -> (attempted, failed)
    check: Callable[[str], tuple[int, int]]
    # operations a run that fails as a whole is charged with
    operations: int


def count_exact_failures(text: str, points: int = POINTS) -> tuple[int, int]:
    """A point of a `--mode both` fringe fails when its value is not finite
    or is off its value_exact column by more than the verify allowance.
    Missing points fail too."""
    lines = text.splitlines()
    rows = []
    if lines and lines[0] == "theta,value,value_exact":
        rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    failed = max(points - len(rows), 0)
    for _, value, exact in rows:
        if not math.isfinite(value) or abs(value - exact) > max(ABS_TOL, REL_TOL * abs(exact)):
            failed += 1
    return max(points, len(rows)), failed


def count_verify_failures(text: str) -> tuple[int, int]:
    """One operation per reported check; FAIL lines are failures."""
    status = [line[:6] for line in text.splitlines() if line.startswith("[")]
    return len(status), sum(s != "[PASS]" for s in status)


def glauber_argv(seed: int) -> list[str]:
    argv = ["fringe", "--source", "collinear", "--r", "1.3", "--n-max", "128",
            "--observable", "four-photon-glauber", "--points", str(POINTS), "--mode", "both"]
    if seed == 0:
        return argv
    rng = random.Random(seed)
    argv[4] = repr(round(1.3 + rng.uniform(-R_JITTER, R_JITTER), 4))
    shift = rng.uniform(0.0, 2.0 * math.pi / (POINTS - 1))
    return argv + ["--theta-min", repr(shift), "--theta-max", repr(2.0 * math.pi + shift)]


WORKLOADS = {
    w.name: w for w in (
        Workload(name="glauber_strong", argv=glauber_argv,
                 check=count_exact_failures, operations=POINTS),
        # verify takes no input, so the seed changes nothing
        Workload(name="verify_suite", argv=lambda seed: ["verify"],
                 check=count_verify_failures, operations=1),
    )
}
