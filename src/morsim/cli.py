"""Command-line front end: fringe/visibility/envelope/sensitivity sweeps as
deterministic CSV, plus the self-verification suite.

Exit codes: 0 success, 1 invalid input (or a numeric overflow, or out of memory),
2 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import operator
import re
import sys

import numpy as np

from . import detection, verify
from .detection import (
    ObservableKind,
    ObservableSpec,
    _projection_depth,
    closed_form_scan,
    evaluate,
    fringe_scan,
    sensitivity_curve,
    visibility,
)
from .fock import Mode, Occupation
from .medium import MediumSpec
from .sources import SourceKind, SourceSpec, truncation_bound

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SOURCE_NAMES = {
    "coherent": SourceKind.COHERENT,
    "collinear": SourceKind.COLLINEAR_PDC,
    "noncollinear": SourceKind.NONCOLLINEAR_PDC,
}
OBSERVABLE_NAMES = {
    "intensity": ObservableKind.INTENSITY,
    "two-photon": ObservableKind.TWO_PHOTON_COINCIDENCE,
    "four-photon-glauber": ObservableKind.FOUR_PHOTON_GLAUBER,
    "four-photon-projection": ObservableKind.FOUR_PHOTON_PROJECTION,
    "nd-variance": ObservableKind.ND_VARIANCE,
}
MODE_NAMES = {"aH": Mode.AH, "aV": Mode.AV, "bH": Mode.BH, "bV": Mode.BV}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" and "-inf" for options: its negative-number pattern
        # knows neither the exponents .17g writes nor the inf and nan float() reads
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)

    # argparse defaults to exit code 2, which is reserved for verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: str, rows, comments=()) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(comments)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _source_from_args(args) -> SourceSpec:
    kind = SOURCE_NAMES[args.source]
    kwargs = {}
    if args.n_max is not None:
        kwargs["n_max"] = args.n_max
    if args.epsilon is not None:
        kwargs["epsilon"] = args.epsilon
    return SourceSpec(kind=kind, alpha=complex(args.alpha), r=args.r, phi=args.phi, **kwargs)


def _default_target(kind: SourceKind) -> Occupation:
    """The projection target of the source's four-photon closed form."""
    return (1, 1, 1, 1) if kind is SourceKind.NONCOLLINEAR_PDC else (2, 2, 0, 0)


def _observable_from_args(args, source: SourceSpec) -> ObservableSpec:
    kind = OBSERVABLE_NAMES[args.observable]
    if kind is ObservableKind.INTENSITY:
        return ObservableSpec(kind=kind, mode=MODE_NAMES[args.intensity_mode])
    if kind is ObservableKind.FOUR_PHOTON_PROJECTION:
        if args.target is not None:
            try:
                target = tuple(int(part) for part in args.target.split(","))
            except ValueError:
                raise ValueError(f"cannot parse projection target {args.target!r}; "
                                 "expected e.g. 1,1,1,1") from None
        else:
            target = _default_target(source.kind)
        return ObservableSpec(kind=kind, target=target)
    return ObservableSpec(kind=kind)


def _grid(lo: float, hi: float, points: int, name: str, spacing=np.linspace) -> np.ndarray:
    if points < 2:
        raise ValueError(f"{name} grid needs at least 2 points, got {points}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} grid bounds must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"{name} grid needs min < max, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"{name} grid span max - min overflows, got [{lo}, {hi}]")
    # the last step toward a bound near the largest float may overflow; the
    # spacings then put the bound itself there
    with np.errstate(over="ignore"):
        grid = spacing(lo, hi, points)
    # neighbouring bounds leave the points no room: the spacing repeats one
    if not all(map(operator.lt, grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly increasing")
    return grid


def _warn_if_truncation_misses(sources, obs: ObservableSpec) -> None:
    """One stderr line when an explicit n_max leaves the moment bound above its
    source's epsilon, naming the r where the bound is worst.  A projection reads
    one sector, exactly at any n_max that reaches it, so it warns only when an
    n_max stops short of its target's sector and every value reads 0."""
    explicit = [s for s in sources if s.is_pdc and s.n_max is not None]
    if not explicit:
        return
    if obs.kind is ObservableKind.FOUR_PHOTON_PROJECTION:
        # a sweep's sources share one kind, and with it the target's depth
        n_max = min(s.n_max for s in explicit)
        depth = _projection_depth(explicit[0].kind, obs.target)
        if n_max < depth:
            print(f"warning: n_max={n_max} cannot reach the projection target "
                  f"{','.join(map(str, obs.target))}, which needs {depth} pairs", file=sys.stderr)
        return
    worst = max(explicit, key=lambda s: truncation_bound(s.kind, s.r, s.n_max))
    bound = truncation_bound(worst.kind, worst.r, worst.n_max)
    if bound > worst.epsilon:
        print(f"warning: n_max={worst.n_max} misses the truncation target at r={worst.r:g}: "
              f"tail*(n_max+4)^4 = {bound:.3g} > epsilon={worst.epsilon:g}", file=sys.stderr)


def cmd_fringe(args) -> int:
    source = _source_from_args(args)
    obs = _observable_from_args(args, source)
    thetas = _grid(args.theta_min, args.theta_max, args.points, "theta")
    # closed forms ignore theta_plus, but a non-finite one is still bad input
    MediumSpec(theta=0.0, theta_plus=args.theta_plus)

    columns = [thetas]
    if args.mode in ("numeric", "both"):
        columns.append(fringe_scan(source, thetas, obs, theta_plus=args.theta_plus).values)
    if args.mode in ("exact", "both"):
        columns.append(closed_form_scan(source, thetas, obs).values)
    header = "theta,value,value_exact" if args.mode == "both" else "theta,value"
    if args.mode != "exact":
        _warn_if_truncation_misses([source], obs)
    _write_csv(args.out, header, zip(*columns))
    return 0


def cmd_visibility(args) -> int:
    r_grid = _grid(args.r_min, args.r_max, args.points, "r")
    if args.r_min <= 0:
        raise ValueError("visibility sweep needs r > 0")
    obs = ObservableSpec(kind=OBSERVABLE_NAMES[args.observable])
    # the samples at its nodes fix a fringe, and with it its exact extremes
    nodes = detection._nodes(detection._fringe_degree(obs))
    scan = closed_form_scan if args.mode == "exact" else fringe_scan
    sources = [SourceSpec(kind=SourceKind.COLLINEAR_PDC, r=r, n_max=args.n_max)
               for r in map(float, r_grid)]
    rows = [(source.r, visibility(scan(source, nodes, obs))) for source in sources]
    if args.mode != "exact":
        _warn_if_truncation_misses(sources, obs)
    _write_csv(args.out, "r,visibility", rows)
    return 0


def _golden_section_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """(x, bracket width) at the maximum of a unimodal fn on [lo, hi]; it is flat
    to second order, so past ~sqrt(eps) * x only rounding orders the values."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > math.sqrt(sys.float_info.epsilon) * max(abs(a) + abs(b), hi - lo):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b), b - a


def cmd_envelope(args) -> int:
    r_grid = _grid(args.r_min, args.r_max, args.points, "r")
    if args.r_min < 0:
        raise ValueError("envelope sweep needs r >= 0")
    # the geometry names its source, and with it the target
    kind = SOURCE_NAMES[args.geometry]
    obs = ObservableSpec(kind=ObservableKind.FOUR_PHOTON_PROJECTION, target=_default_target(kind))

    def value_at(r: float) -> float:
        source = SourceSpec(kind=kind, r=r)
        if args.mode == "exact":
            return closed_form_scan(source, (0.0,), obs).values[0]
        # the projection only sees the four-photon sector, so this is exact
        # at any r without a deep truncation
        return evaluate(source, MediumSpec(theta=0.0), obs)

    values = [value_at(float(r)) for r in r_grid]
    if not any(values):
        raise ValueError(f"the envelope is 0 at every r in [{args.r_min:g}, {args.r_max:g}]; "
                         "it has no maximum to locate")
    best = int(np.argmax(values))
    lo = float(r_grid[max(best - 1, 0)])
    hi = float(r_grid[min(best + 1, len(r_grid) - 1)])
    argmax_r, width = _golden_section_max(value_at, lo, hi)
    # only the digits the final bracket determines; the value at the printed r,
    # to 12 digits, so an ulp-level change of the objective leaves the line alone
    digits = max(1, math.floor(math.log10(max(abs(argmax_r), width) / width)))
    argmax_r = format(argmax_r, f".{digits}g")
    max_value = format(value_at(float(argmax_r)), ".12g")
    _write_csv(args.out, "r,value", zip(r_grid, values),
               comments=[f"# argmax_r={argmax_r},max_value={max_value}"])
    return 0


def cmd_sensitivity(args) -> int:
    # before the grid: a geometric grid cannot reach or cross 0
    if args.mean_n_min <= 1.0:
        raise ValueError("sensitivity sweep needs mean photon numbers above 1")
    mean_n = _grid(args.mean_n_min, args.mean_n_max, args.points, "mean_n", np.geomspace)
    theta_m, slope = sensitivity_curve(SOURCE_NAMES[args.source], mean_n)
    _write_csv(args.out, "mean_n,theta_m", zip(mean_n, theta_m),
               comments=[f"# loglog_slope={_fmt(slope)}"])
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: max_error={res.max_error:.3e} "
              f"tolerance={res.tolerance:.0e} ({res.detail})")
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


def _add_source_flags(parser):
    parser.add_argument("--source", choices=sorted(SOURCE_NAMES), default="collinear",
                        help="input light source")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="coherent amplitude (coherent source only)")
    parser.add_argument("--r", type=float, default=0.5,
                        help="PDC interaction parameter")
    parser.add_argument("--phi", type=float, default=0.0,
                        help="pump phase (collinear PDC only)")
    parser.add_argument("--n-max", type=int, default=None,
                        help="retained photon pairs; default: automatic from --epsilon")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="target truncation bound for automatic n_max")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="morsim",
                     description="Magneto-optical rotation sweeps with coherent "
                                 "and down-converted light")
    sub = parser.add_subparsers(dest="command", required=True)

    fringe = sub.add_parser("fringe", help="observable vs rotation angle", parents=[])
    _add_source_flags(fringe)
    fringe.add_argument("--observable", choices=sorted(OBSERVABLE_NAMES),
                        default="two-photon")
    fringe.add_argument("--intensity-mode", choices=sorted(MODE_NAMES), default="aH",
                        help="detector mode for the intensity observable")
    fringe.add_argument("--target", default=None,
                        help="projection target occupation, e.g. 1,1,1,1")
    fringe.add_argument("--theta-plus", type=float, default=0.0,
                        help="global phase angle k*l*chi_plus")
    fringe.add_argument("--theta-min", type=float, default=0.0)
    fringe.add_argument("--theta-max", type=float, default=2.0 * math.pi)
    fringe.add_argument("--points", type=int, default=201)
    fringe.add_argument("--mode", choices=["numeric", "exact", "both"], default="numeric")
    fringe.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    fringe.set_defaults(func=cmd_fringe)

    vis = sub.add_parser("visibility", help="fringe visibility vs interaction parameter")
    vis.add_argument("--observable", choices=["two-photon", "four-photon-glauber"],
                     default="two-photon")
    vis.add_argument("--r-min", type=float, default=0.01)
    vis.add_argument("--r-max", type=float, default=3.0)
    vis.add_argument("--points", type=int, default=60)
    vis.add_argument("--n-max", type=int, default=None)
    vis.add_argument("--mode", choices=["numeric", "exact"], default="exact")
    vis.add_argument("--out", default=None)
    vis.set_defaults(func=cmd_visibility)

    env = sub.add_parser("envelope", help="four-photon probability envelope vs r")
    env.add_argument("--geometry", choices=["collinear", "noncollinear"],
                     default="noncollinear")
    env.add_argument("--r-min", type=float, default=0.0)
    env.add_argument("--r-max", type=float, default=3.0)
    env.add_argument("--points", type=int, default=121)
    env.add_argument("--mode", choices=["numeric", "exact"], default="numeric")
    env.add_argument("--out", default=None)
    env.set_defaults(func=cmd_envelope)

    sens = sub.add_parser("sensitivity", help="minimum detectable angle vs mean photons")
    sens.add_argument("--source", choices=["coherent", "collinear"], default="collinear")
    sens.add_argument("--mean-n-min", type=float, default=10.0)
    sens.add_argument("--mean-n-max", type=float, default=1.0e4)
    sens.add_argument("--points", type=int, default=25)
    sens.add_argument("--out", default=None)
    sens.set_defaults(func=cmd_sensitivity)

    ver = sub.add_parser("verify", help="run the oracle-equivalence and invariant suite")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OverflowError, MemoryError) as exc:
        kind = ("numeric overflow: " if isinstance(exc, OverflowError)
                else "out of memory: " if isinstance(exc, MemoryError) else "")
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1


def run() -> None:
    code = main(sys.argv[1:])
    # the process ends here: move what the command leaves out of the collector's
    # reach, so the collections at shutdown need not walk it
    gc.freeze()
    raise SystemExit(code)
