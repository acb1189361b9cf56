import functools
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import morsim
from morsim import (
    ObservableKind,
    ObservableSpec,
    SourceSpec,
    apply_mor,
    detection,
    fringe_scan,
    oracles,
    verify,
)
from morsim.cli import OBSERVABLE_NAMES, build_parser, main
from morsim.sources import EPSILON, truncation_tail
from morsim.verify import CheckResult


def run_cli(*argv):
    return main(list(argv))


def run_python(*argv):
    """A child Python process that imports the morsim under test."""
    src = str(Path(morsim.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_module(*argv):
    """``python -m morsim`` in a child process, importing the morsim under test."""
    return run_python("-m", "morsim", *argv)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]
            if not line.startswith("#")]
    comments = [line for line in lines[1:] if line.startswith("#")]
    return header, rows, comments


def test_fringe_csv_schema_and_oracle_agreement(tmp_path):
    out = tmp_path / "fringe.csv"
    code = run_cli("fringe", "--source", "collinear", "--r", "0.8",
                   "--theta-min", "0", "--theta-max", str(2 * math.pi),
                   "--points", "201", "--mode", "both", "--out", str(out))
    assert code == 0
    header, rows, _ = read_rows(out)
    assert header == "theta,value,value_exact"
    assert len(rows) == 201
    for theta, value, value_exact in rows:
        assert abs(value - value_exact) <= max(1e-12, 1e-8 * abs(value_exact))


def test_fringe_floats_roundtrip(tmp_path):
    out = tmp_path / "fringe.csv"
    run_cli("fringe", "--source", "collinear", "--r", "0.3", "--points", "7",
            "--out", str(out))
    for line in out.read_text().splitlines()[1:]:
        for token in line.split(","):
            assert float(token) == float(repr(float(token)))


def test_fringe_noncollinear_projection_zeros(tmp_path):
    out = tmp_path / "nc.csv"
    code = run_cli("fringe", "--source", "noncollinear", "--r", "1.0",
                   "--observable", "four-photon-projection", "--points", "201",
                   "--theta-min", "0", "--theta-max", str(2 * math.pi),
                   "--out", str(out))
    assert code == 0
    header, rows, _ = read_rows(out)
    assert header == "theta,value"
    for theta, value in rows:
        # zeros of cos(2 theta) at pi/4 + k pi/2
        nearest = round((theta - math.pi / 4) / (math.pi / 2))
        if abs(theta - (math.pi / 4 + nearest * math.pi / 2)) < 1e-9:
            assert value < 1e-12


def test_fringe_coherent_intensity(tmp_path):
    out = tmp_path / "coh.csv"
    code = run_cli("fringe", "--source", "coherent", "--alpha", "1.0",
                   "--observable", "intensity", "--points", "9",
                   "--theta-min", "0", "--theta-max", str(2 * math.pi),
                   "--out", str(out))
    assert code == 0
    _, rows, _ = read_rows(out)
    values = [v for _, v in rows]
    assert values[0] == pytest.approx(1.0)
    assert values[4] == pytest.approx(0.0, abs=1e-12)  # theta = pi


def test_fringe_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["fringe", "--source", "collinear", "--r", "0.9", "--n-max", "64",
            "--points", "64", "--mode", "both"]
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fringe_truncation_past_the_memory_budget_error(capsys):
    # at r = 25 tanh r rounds to 1, so no truncation the budget allows meets the
    # tail target
    code = run_cli("fringe", "--source", "collinear", "--r", "25",
                   "--observable", "two-photon", "--points", "5")
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: no n_max reaches tail target epsilon=1e-10 at r=25 ")
    assert err.rstrip().endswith("GiB budget; pass an explicit n_max")


def test_default_numeric_visibility_matches_the_exact_curve(capsys):
    # r up to 3 picks n_max up to 8192, past the 64 that used to cap it
    assert run_cli("visibility", "--mode", "numeric") == 0
    numeric, err = capsys.readouterr()
    assert err == ""
    assert run_cli("visibility", "--mode", "exact") == 0
    exact = capsys.readouterr().out
    rows = [[tuple(map(float, line.split(","))) for line in text.splitlines()[1:]]
            for text in (numeric, exact)]
    assert len(rows[0]) == len(rows[1]) == 60
    for (r, v), (r_exact, v_exact) in zip(*rows):
        assert r == r_exact and abs(v - v_exact) <= 1e-12


@pytest.mark.parametrize("mode", ["numeric", "exact", "both"])
@pytest.mark.parametrize("observable", [["--observable", "two-photon"],
                                        ["--observable", "intensity", "--intensity-mode", "bH"]])
def test_fringe_invalid_combination_exits_1(capsys, observable, mode):
    # coherent light has no Fock state, so no other engine to point the user to
    code = run_cli("fringe", "--source", "coherent", *observable, "--points", "5",
                   "--mode", mode)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "coherent light" in err and "use the numeric engine" not in err


def test_bright_coherent_fringe_reads_its_closed_form(capsys):
    # the dim intensity of a bright beam, not |alpha|^2 minus the bright one
    assert run_cli("fringe", "--source", "coherent", "--alpha", "1000", "--observable",
                   "intensity", "--intensity-mode", "aV", "--theta-max", "0.0001",
                   "--points", "5", "--mode", "both") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 5 and float(rows[1][2]) == pytest.approx(1.5625e-4, rel=1e-12)
    assert all(value == exact for _, value, exact in rows)


def test_fringe_exact_mode_without_closed_form_exits_1(capsys):
    code = run_cli("fringe", "--source", "noncollinear", "--observable", "intensity",
                   "--mode", "exact", "--points", "5")
    assert code == 1
    assert "closed form" in capsys.readouterr().err


# command -> what the single error line must blame
NON_FINITE = {
    "fringe --r nan --n-max 4": "r",
    "fringe --r inf --n-max 4": "r",
    "fringe --r nan": "r",
    "fringe --source coherent --observable intensity --alpha nan": "alpha",
    "fringe --theta-max inf": "theta grid bounds",
    "visibility --r-max nan": "r grid bounds",
    "envelope --r-max inf": "r grid bounds",
    "sensitivity --mean-n-max inf": "mean_n grid bounds",
}


@pytest.mark.parametrize("command", NON_FINITE)
def test_non_finite_input_exits_1(capsys, command):
    assert run_cli(*command.split(), "--points", "5") == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: {NON_FINITE[command]} must be finite")


# inputs that overflow a float in a closed form
OVERFLOWING = (
    "fringe --mode exact --r 400",
    "fringe --source coherent --alpha 1e200 --observable nd-variance",
)


@pytest.mark.parametrize("command", OVERFLOWING)
def test_overflow_exits_1_with_one_error_line(command):
    proc = run_module(*command.split())
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# command -> exit code and stderr.  Past r ~ 355 cosh^2 r overflows, and past r ~ 710
# cosh r: every amplitude of the source underflows there, so its state is empty with
# tail 1, and every value there reads 0
PAST_COSH_OVERFLOW = {
    "envelope --r-max 800 --points 5": (
        1, "error: the envelope is 0 at every r in [0, 800]; it has no maximum to locate\n"),
    "envelope --r-max 800 --points 801": (0, ""),
    "fringe --source noncollinear --r 400 --n-max 4 --points 3 "
    "--observable four-photon-projection": (0, ""),
    "fringe --r 800 --n-max 4 --points 3": (
        0, "warning: n_max=4 misses the truncation target at r=800: "
           "tail*(n_max+4)^4 = 4.1e+03 > epsilon=1e-10\n"),
}


@pytest.mark.parametrize("command", PAST_COSH_OVERFLOW)
def test_a_source_past_the_overflow_of_cosh_r_reads_0(capsys, command):
    code, err = PAST_COSH_OVERFLOW[command]
    argv = command.split()
    assert run_cli(*argv) == code
    out, captured_err = capsys.readouterr()
    assert captured_err == err
    if code == 1:
        assert out == ""
        return
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == int(argv[argv.index("--points") + 1])
    assert all(value == "0" for x, value in rows if command.startswith("fringe")
               or float(x) > 355)
    if command.startswith("envelope"):
        # the maximum near r = 0.88 is found as at the default range
        assert run_cli("envelope") == 0
        assert lines[-1] == capsys.readouterr().out.splitlines()[-1]


# command -> the source and observable whose closed form overflows at r = 200
CLOSED_FORM_OVERFLOWS = {
    "fringe --r 200 --mode exact --points 3": "collinear_pdc two_photon_coincidence",
    "fringe --r 200 --observable four-photon-glauber --mode exact --points 3":
        "collinear_pdc four_photon_glauber",
    "fringe --source noncollinear --r 200 --observable four-photon-projection --mode exact "
    "--points 3": "noncollinear_pdc four_photon_projection",
    "visibility --r-min 200 --r-max 300 --points 2": "collinear_pdc two_photon_coincidence",
}


@pytest.mark.parametrize("command", CLOSED_FORM_OVERFLOWS)
def test_a_closed_form_overflow_names_its_source_observable_and_r(capsys, command):
    assert run_cli(*command.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: the closed form for {CLOSED_FORM_OVERFLOWS[command]} "
                   "overflows at r=200\n")


@pytest.mark.parametrize("command", ["fringe --points 1000000000000 --mode exact"])
def test_out_of_memory_exits_1_with_one_error_line(monkeypatch, capsys, command):
    # the grid builder refuses as numpy does when the OS cannot supply the
    # array, without asking the OS for it
    from morsim import cli

    grid = cli._grid

    def refuse_large(lo, hi, points, name, *args, **kwargs):
        if points > 10**9:
            raise MemoryError(f"Unable to allocate {8 * points / 2**40:.2f} TiB for an array "
                              f"with shape ({points},) and data type float64")
        return grid(lo, hi, points, name, *args, **kwargs)

    monkeypatch.setattr(cli, "_grid", refuse_large)
    assert run_cli(*command.split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: out of memory: Unable to allocate 7.28 TiB")


def test_fringe_collinear_source_projection_target_follows_source(capsys):
    # collinear PDC leaves the b beam empty, so its default target is
    # (2,2,0,0), not the non-collinear source's (1,1,1,1)
    outputs = []
    for extra in ([], ["--target", "2,2,0,0"]):
        assert run_cli("fringe", "--source", "collinear", "--observable",
                       "four-photon-projection", "--points", "9", *extra) == 0
        outputs.append(capsys.readouterr().out)
    values = [float(line.split(",")[1]) for line in outputs[0].splitlines()[1:]]
    assert max(values) > 0.0
    assert outputs[0] == outputs[1]


def test_oversized_truncation_refused_before_building(monkeypatch, capsys):
    from morsim import fock, sources

    def must_not_run(*args, **kwargs):
        raise AssertionError("built an oversized truncation")

    monkeypatch.setattr(sources, "KetState", must_not_run)
    monkeypatch.setattr(fock, "_rotation_bases", must_not_run)
    tracemalloc.start()
    try:
        assert run_cli("fringe", "--source", "noncollinear", "--n-max", "100000") == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: n_max=100000 needs") and "GiB budget" in err
    assert peak < 2**20


@pytest.mark.parametrize("n_max", [55000, 60000])
def test_deep_gram_keys_bound_each_mode_by_its_own_photon_numbers(capsys, n_max):
    # at r = 3 the source keeps every pair up to n_max 60000; four photon numbers below
    # 60001 would pass 2^63, but the empty b modes have bound 1, so the keys fit
    assert run_cli("fringe", "--r", "3", "--n-max", str(n_max), "--observable",
                   "four-photon-glauber", "--points", "5", "--mode", "both") == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
    assert len(rows) == 5
    rel = {row[2].kind: row[3] for row in verify.ORACLE_ROWS}[OBSERVABLE_NAMES[
        "four-photon-glauber"]]
    for _, value, exact in rows:
        assert verify._tolerance_ratio(value, exact, rel) <= 1.0


def test_moment_sweep_past_the_channel_budget_runs(monkeypatch, capsys):
    # n_max 582 is over what evolving the whole state would need, but a moment sweep
    # holds only the state's nonzero amplitudes and its Gram matrices, and the
    # channel evolves only the one-photon probes
    from morsim import fock

    sizes = []
    bases = fock._rotation_bases
    monkeypatch.setattr(fock, "_rotation_bases", lambda n: sizes.extend(n) or bases(n))
    assert run_cli("fringe", "--r", "1.9", "--n-max", "582", "--observable",
                   "four-photon-glauber", "--points", "5", "--mode", "both") == 0
    out, err = capsys.readouterr()
    assert err == "" and max(sizes, default=0) <= 1
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
    assert len(rows) == 5
    glauber = OBSERVABLE_NAMES["four-photon-glauber"]
    rel = {row[2].kind: row[3] for row in verify.ORACLE_ROWS}[glauber]
    for _, value, exact in rows:
        assert verify._tolerance_ratio(value, exact, rel) <= 1.0


STRONG_GLAUBER = ["fringe", "--source", "collinear", "--r", "1.3", "--n-max", "128",
                  "--observable", "four-photon-glauber", "--points", "9", "--mode", "both"]


def test_strong_pumping_glauber_sweep_matches_closed_form_repeatably(capsys):
    # the benchmark's deepest workload (129 sectors, up to 256 photons) on 9 points
    outputs = []
    for _ in range(2):
        assert run_cli(*STRONG_GLAUBER) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[0] == "theta,value,value_exact" and len(lines) == 10
    for line in lines[1:]:
        _, value, exact = map(float, line.split(","))
        assert math.isfinite(value)
        assert abs(value - exact) <= max(1e-12, 1e-8 * abs(exact))


@pytest.mark.parametrize("observable", ["two-photon", "four-photon-glauber", "nd-variance"])
def test_moment_fringes_at_huge_angles_stay_within_the_verify_allowance(capsys, observable):
    # T holds e^{i theta} at most, whose argument numpy reduces exactly, as the
    # closed forms' math.cos does; a whole state's phases e^{i theta A} round theta A
    assert run_cli("fringe", "--theta-max", "1e150", "--points", "5", "--mode", "both",
                   "--observable", observable) == 0
    rel = {row[2].kind: row[3] for row in verify.ORACLE_ROWS}[OBSERVABLE_NAMES[observable]]
    rows = [tuple(map(float, line.split(","))) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 5
    for _, value, exact in rows:
        assert verify._tolerance_ratio(value, exact, rel) <= 1.0


@pytest.mark.parametrize("observable, grams", [("four-photon-glauber", []),
                                               ("nd-variance", [4])])
def test_a_gram_over_the_budget_is_refused_before_it_is_built(monkeypatch, capsys,
                                                              observable, grams):
    # the 53 kB state fits a 500 kB budget, but the sparse vectors of the K = 4 Gram
    # or of the variance's centred bilinears beside it do not; the 4-column
    # one-photon Gram the variance builds first does
    from morsim import fock

    built = []
    gram = fock._gram
    monkeypatch.setattr(fock, "_gram", lambda *args: built.append(args[3]) or gram(*args))
    monkeypatch.setattr(fock, "MEMORY_BUDGET_BYTES", 500_000)
    assert run_cli("fringe", "--source", "noncollinear", "--r", "1", "--n-max", "20",
                   "--observable", observable, "--points", "5") == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: a Gram matrix of ") and "GiB budget" in err
    assert built == grams


# command -> the most photons per beam of any J_y eigenbasis it builds, and the most
# entries of any block buffer it lays out.  Every observable reads the channel off
# one-photon probes, so no sweep needs the recurrence's speed on large bases or lays
# out a source in blocks; only verify's direct channel calls build more (collinear
# n_max 48: 49^2 entries).
BASIS_TRAFFIC = {
    " ".join(STRONG_GLAUBER): (1, 4),
    "visibility --mode numeric --n-max 128 --points 3": (1, 4),
    "envelope --points 5": (1, 4),
    "fringe --observable four-photon-projection --points 9 --mode both": (1, 4),
    "verify": (96, 49 ** 2),
}


@pytest.mark.parametrize("command", BASIS_TRAFFIC)
def test_commands_build_only_small_bases_without_eigh(monkeypatch, capsys, command):
    from morsim import detection, fock

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    entries = []
    init = fock.SectorLayout.__init__

    def counted(layout, *args):
        init(layout, *args)
        entries.append(int(layout.offsets[-1]))

    sizes = []
    bases = fock._rotation_bases
    monkeypatch.setattr(fock, "_rotation_bases", lambda n: sizes.extend(n) or bases(n))
    monkeypatch.setattr(fock.SectorLayout, "__init__", counted)
    # fresh probes: cached ones keep the bases an earlier test built for them
    monkeypatch.setattr(detection, "_one_photon_probes",
                        functools.cache(detection._one_photon_probes.__wrapped__))
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert run_cli(*command.split()) == 0
    capsys.readouterr()
    photons, largest = BASIS_TRAFFIC[command]
    assert 1 <= max(sizes) <= photons
    assert 2 <= max(entries) <= largest


def test_bad_flag_exits_1(capsys):
    assert run_cli("fringe", "--no-such-flag") == 1
    assert run_cli("no-such-command") == 1
    assert run_cli("fringe", "-h") == 0 and "--theta-min" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fringe --points x", "fringe --epsilon 1e-6",
                                     "visibility --theta-points 5", "fringe --theta-plus 0.5",
                                     "fringe --phi 0.3", "fringe --source bogus",
                                     pytest.param("", id="no command")])
def test_an_argparse_refusal_is_one_line(capsys, command):
    # no usage block before the error line
    assert run_cli(*command.split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and ": error: " in err


def test_every_option_is_in_the_readme():
    # the options from "## Command line" on, so pip's --no-build-isolation is not one
    text = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"--[a-z][a-z-]*", text.partition("## Command line")[2]))
    subparsers = build_parser()._subparsers._group_actions[0].choices.values()
    defined = {option for parser in subparsers for action in parser._actions
               for option in action.option_strings if option.startswith("--")}
    assert named == defined


@pytest.mark.parametrize("option, value", [("--theta-min", "-1e-3"), ("--alpha", "-2e-1"),
                                           ("--theta-min", "-1E2"), ("--theta-min", "-1.5E+0")])
def test_negative_values_in_scientific_notation_are_values(capsys, option, value):
    # the spelling the CSV writes, e.g. -1.0000000000000001e-05, reads as a value
    outputs = []
    for spelling in ([option, value], [f"{option}={value}"]):
        assert run_cli("fringe", *spelling, "--theta-max", "1", "--points", "5") == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


def test_negative_r_in_scientific_notation_is_refused_in_one_line(capsys):
    assert run_cli("fringe", "--r", "-1e-3") == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: interaction parameter r must be nonnegative\n"


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-NaN"])
@pytest.mark.parametrize("option", ["--theta-min", "--theta-max", "--r", "--alpha"])
def test_negative_non_finite_values_are_refused_in_one_line(capsys, option, value):
    # float() reads every spelling, so each reaches the finiteness check as a value
    outputs = []
    for spelling in ([option, value], [f"{option}={value}"]):
        assert run_cli("fringe", *spelling, "--points", "5") == 1
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out == "" and len(outputs[0].err.splitlines()) == 1
    assert "must be finite" in outputs[0].err


def test_single_point_grid_rejected(capsys):
    assert run_cli("fringe", "--points", "1") == 1
    assert run_cli("sensitivity", "--points", "1") == 1


def test_visibility_curve_matches_closed_form(tmp_path):
    out = tmp_path / "vis.csv"
    code = run_cli("visibility", "--observable", "two-photon", "--r-min", "0.01",
                   "--r-max", "3.0", "--points", "40", "--out", str(out))
    assert code == 0
    header, rows, _ = read_rows(out)
    assert header == "r,visibility"
    values = [v for _, v in rows]
    for r, v in rows:
        assert abs(v - 1.0 / (1.0 + 2.0 * math.tanh(r) ** 2)) < 1e-6
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] > 0.999
    assert abs(values[-1] - 1.0 / 3.0) < 0.01


def test_visibility_numeric_mode_spot_value(tmp_path):
    out = tmp_path / "visnum.csv"
    code = run_cli("visibility", "--observable", "two-photon", "--mode", "numeric",
                   "--r-min", "0.5", "--r-max", "1.0", "--points", "2",
                   "--n-max", "96", "--out", str(out))
    assert code == 0
    _, rows, _ = read_rows(out)
    assert rows[1][1] == pytest.approx(1.0 / (1.0 + 2.0 * math.tanh(1.0) ** 2), abs=1e-8)


def test_numeric_visibility_sweep_at_deep_truncation(capsys):
    argv = ["visibility", "--mode", "numeric", "--n-max", "128", "--points", "20"]
    outputs = []
    for _ in range(2):
        assert run_cli(*argv) == 0
        out, err = capsys.readouterr()
        outputs.append(out)
        # one warning for the whole sweep, at the r where the bound is worst
        [line] = err.splitlines()
        assert line.startswith("warning: n_max=128 misses the truncation target at r=3: ")
    assert outputs[0] == outputs[1]
    assert run_cli("visibility", "--mode", "exact", "--points", "20") == 0
    exact = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    rows = [tuple(map(float, line.split(","))) for line in outputs[0].splitlines()[1:]]
    assert len(rows) == len(exact) == 20
    obs = ObservableSpec(kind=ObservableKind.TWO_PHOTON_COINCIDENCE)
    for (r, v), v_exact in zip(rows, exact):
        # the engine's own visibility, from its extremes at theta = 0 and pi/2
        source = SourceSpec(kind="collinear_pdc", r=r, n_max=128)
        peak, dip = (fringe_scan(source, [t], obs)[0] for t in (0.0, math.pi / 2))
        assert v == pytest.approx((peak - dip) / (peak + dip), rel=1e-12)
        # the closed form holds where n_max = 128 meets the default truncation
        # target; at r = 3 the truncated weight is 0.28 and v is 1% off
        if truncation_tail("collinear_pdc", r, 128) * (128 + 4) ** 4 < EPSILON:
            assert v == pytest.approx(v_exact, rel=1e-8)


def test_explicit_n_max_that_misses_the_target_warns_on_stderr_only(capsys):
    argv = ["fringe", "--r", "0.5", "--n-max", "16", "--points", "9", "--mode", "both"]
    assert run_cli(*argv) == 0
    warning = capsys.readouterr().err
    bound = truncation_tail("collinear_pdc", 0.5, 16) * (16 + 4) ** 4
    assert warning == (f"warning: n_max=16 misses the truncation target at r=0.5: "
                       f"tail*(n_max+4)^4 = {bound:.3g} > epsilon=1e-10\n")
    # an n_max deep enough to meet the target (bound ~1e-16) silences the warning
    assert run_cli(*argv, "--n-max", "32") == 0
    assert capsys.readouterr().err == ""
    # neither a closed form nor a projection, exact at this n_max, reads the truncation
    for extra in (["--mode", "exact"], ["--observable", "four-photon-projection"]):
        assert run_cli(*argv, *extra) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("source, target", [("collinear", "2,2,0,0"),
                                            ("noncollinear", "1,1,1,1")])
def test_projection_n_max_below_its_target_depth_warns_on_stderr_only(capsys, source, target):
    argv = ["fringe", "--source", source, "--observable", "four-photon-projection",
            "--points", "3"]
    assert run_cli(*argv, "--n-max", "1") == 0
    shallow, warning = capsys.readouterr()
    # stdout is what it always was: the target's sector is never built
    assert [line.split(",")[1] for line in shallow.splitlines()[1:]] == ["0", "0", "0"]
    assert warning == (f"warning: n_max=1 cannot reach the projection target {target}, "
                       "which needs 2 pairs\n")
    assert run_cli(*argv, "--n-max", "2") == 0
    deep, quiet = capsys.readouterr()
    assert quiet == "" and deep != shallow


def test_visibility_takes_no_theta_points(capsys):
    # each visibility is exact from the samples at its fringe's nodes: no grid to size
    assert run_cli("visibility", "--theta-points", "5") == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "morsim: error: unrecognized arguments: --theta-points 5\n"


# visibility commands at tiny r -> the r of the one error line, or None where every
# visibility prints: the samples at r = 1e-160 (two-photon) and 1e-80 (Glauber) are
# subnormal, and at 1e-60 and 1e-20 rounding puts the Glauber minimum just below 0
TINY_R_VISIBILITY = {
    "--r-min 1e-160 --r-max 1e-150 --points 3 --mode numeric": "1e-160",
    "--r-min 1e-160 --r-max 1e-150 --points 3": "1e-160",
    "--observable four-photon-glauber --r-min 1e-80 --r-max 1 --points 2": "1e-80",
    "--observable four-photon-glauber --r-min 1e-80 --r-max 1 --points 2 --mode numeric "
    "--n-max 16": "1e-80",
    "--observable four-photon-glauber --r-min 1e-60 --r-max 1 --points 2 --mode numeric "
    "--n-max 16": None,
    "--observable four-photon-glauber --r-min 1e-20 --r-max 1 --points 2 --mode numeric "
    "--n-max 16": None,
}


@pytest.mark.parametrize("command", TINY_R_VISIBILITY)
def test_visibility_at_tiny_r_is_at_most_1_or_refused_naming_r(capsys, command):
    code = run_cli("visibility", *command.split())
    out, err = capsys.readouterr()
    r = TINY_R_VISIBILITY[command]
    if r is None:
        assert code == 0
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert rows[0][1] == 1.0 and all(0.0 <= v <= 1.0 for _, v in rows)
    else:
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: r={r}: ") and "subnormal" in err


FOUR_PHOTON_SWEEP = ("visibility --observable four-photon-glauber --r-min 0.05 --r-max 1.3 "
                     "--points 26 --n-max 128")


@pytest.mark.parametrize("mode", ["numeric", "exact"])
def test_four_photon_visibility_is_the_derived_curve(capsys, mode):
    # the minimum lies off every fixed grid while tanh^2 r < 1/2: a 513-point grid
    # missed it by up to 1.1e-5
    assert run_cli(*FOUR_PHOTON_SWEEP.split(), "--mode", mode) == 0
    rows = [tuple(map(float, line.split(",")))
            for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 26
    assert max(abs(v - oracles.four_photon_visibility_closed(r)) for r, v in rows) <= 1e-12


# a numeric visibility sweep reads its fringes at the nodes in one batch: the 60
# default r cost the 6 two-photon nodes, the 26 r of the Glauber sweep its 10 nodes,
# at one channel call per probe; 720 and 520 when each r read the channel itself
SWEEP_CHANNEL_CALLS = {"visibility --mode numeric": 2 * 6,
                       FOUR_PHOTON_SWEEP + " --mode numeric": 2 * 10}


@pytest.mark.parametrize("command", SWEEP_CHANNEL_CALLS)
def test_a_visibility_sweep_reads_the_channel_once_per_node(monkeypatch, capsys, command):
    calls = []

    def counted(state, medium):
        calls.append(medium.theta)
        return apply_mor(state, medium)

    monkeypatch.setattr(detection, "apply_mor", counted)
    assert run_cli(*command.split()) == 0
    capsys.readouterr()
    assert len(calls) == SWEEP_CHANNEL_CALLS[command]


def test_pdc_closed_form_ignores_the_coherent_amplitude(capsys):
    argv = ["fringe", "--source", "collinear", "--mode", "exact", "--points", "9"]
    assert run_cli(*argv) == 0
    plain = capsys.readouterr()
    assert run_cli(*argv, "--alpha", "1e200") == 0
    assert capsys.readouterr() == plain


def test_envelope_noncollinear(tmp_path):
    out = tmp_path / "env.csv"
    code = run_cli("envelope", "--geometry", "noncollinear", "--r-min", "0",
                   "--r-max", "3", "--points", "61", "--out", str(out))
    assert code == 0
    header, rows, comments = read_rows(out)
    assert header == "r,value"
    assert rows[0][1] == 0.0
    meta = dict(part.split("=") for part in comments[0][2:].split(","))
    assert float(meta["argmax_r"]) == pytest.approx(math.asinh(1.0), abs=1e-6)
    assert float(meta["max_value"]) == pytest.approx(1.0 / 16.0, abs=1e-10)


@pytest.mark.parametrize("geometry", ["collinear", "noncollinear"])
def test_envelope_argmax_unmoved_by_one_ulp(monkeypatch, capsys, geometry):
    # the maximum is flat to second order: an ulp-level change of the
    # objective must move neither the printed argmax nor the printed maximum
    from morsim import cli

    exact = cli.fringe_scan
    nudges = {
        "none": lambda r: 0.0,
        "up": lambda r: math.inf,
        "down": lambda r: -math.inf,
        "by_last_bit_of_r": lambda r: math.inf if int(r * 2.0**53) % 2 else -math.inf,
        "against_last_bit_of_r": lambda r: -math.inf if int(r * 2.0**53) % 2 else math.inf,
    }
    comments = {}
    for name, towards in nudges.items():
        def nudged(source, *args, towards=towards):
            series = exact(source, *args)
            direction = towards(source.r)
            if direction == 0.0:
                return series
            return np.array([math.nextafter(v, direction) for v in series])

        monkeypatch.setattr(cli, "fringe_scan", nudged)
        assert run_cli("envelope", "--geometry", geometry, "--points", "31") == 0
        comments[name] = capsys.readouterr().out.splitlines()[-1]
    assert set(comments.values()) == {comments["none"]}
    argmax, value = (part.split("=")[1] for part in comments["none"][2:].split(","))
    assert len(argmax.lstrip("0.").replace(".", "")) == 7
    assert len(value.lstrip("0.").replace(".", "")) <= 12


@pytest.mark.parametrize("geometry", ["collinear", "noncollinear"])
@pytest.mark.parametrize("mode", ["numeric", "exact"])
def test_an_envelope_that_is_0_everywhere_exits_1(capsys, geometry, mode):
    # tanh(r)^4 underflows to 0 on the whole range: there is no maximum to print
    assert run_cli("envelope", "--geometry", geometry, "--mode", mode,
                   "--r-min", "0", "--r-max", "1e-300") == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err == ("error: the envelope is 0 at every r in [0, 1e-300]; "
                   "it has no maximum to locate\n")


def test_envelope_collinear_matches_closed_form(tmp_path):
    out = tmp_path / "envc.csv"
    code = run_cli("envelope", "--geometry", "collinear", "--r-min", "0",
                   "--r-max", "3", "--points", "61", "--out", str(out))
    assert code == 0
    _, rows, comments = read_rows(out)
    for r, value in rows:
        expected = math.tanh(r) ** 4 / math.cosh(r) ** 2
        assert abs(value - expected) <= 1e-12 + 1e-10 * expected
    meta = dict(part.split("=") for part in comments[0][2:].split(","))
    assert float(meta["argmax_r"]) == pytest.approx(math.asinh(math.sqrt(2.0)), abs=1e-6)
    assert float(meta["max_value"]) == pytest.approx(4.0 / 27.0, abs=1e-10)
    # r=1 row sits on the curve quoted in the text
    row_r1 = min(rows, key=lambda row: abs(row[0] - 1.0))
    assert abs(row_r1[1] - 0.141293) < 1e-3


def test_sensitivity_slopes(tmp_path):
    out = tmp_path / "sens.csv"
    code = run_cli("sensitivity", "--source", "coherent", "--points", "25",
                   "--out", str(out))
    assert code == 0
    header, rows, comments = read_rows(out)
    assert header == "mean_n,theta_m"
    slope = float(comments[0].split("=")[1])
    assert abs(slope + 0.5) <= 0.02
    assert rows[0][1] == pytest.approx(math.asin(1 / math.sqrt(10.0)), rel=1e-12)

    code = run_cli("sensitivity", "--source", "collinear", "--points", "25",
                   "--out", str(out))
    assert code == 0
    _, _, comments = read_rows(out)
    slope = float(comments[0].split("=")[1])
    assert abs(slope + 1.0) <= 0.02


def test_sensitivity_rejects_low_mean_n(capsys):
    assert run_cli("sensitivity", "--mean-n-min", "0.5") == 1


def test_verify_exit_codes(monkeypatch, capsys):
    ok = [CheckResult(name="stub_pass", max_error=0.0, tolerance=1.0)]
    monkeypatch.setattr(verify, "run_all", lambda: ok)
    assert run_cli("verify") == 0
    assert "[PASS] stub_pass" in capsys.readouterr().out
    bad = ok + [CheckResult(name="stub_fail", max_error=2.0, tolerance=1.0)]
    monkeypatch.setattr(verify, "run_all", lambda: bad)
    assert run_cli("verify") == 2
    out = capsys.readouterr().out
    assert "[FAIL] stub_fail" in out and "1/2 checks passed" in out


def _modules_loaded_by(statement):
    """The modules a fresh interpreter holds after the statement."""
    proc = run_python("-c", f"import sys; {statement}; print(*sys.modules, sep='\\n')")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_cli_loads_only_the_standard_library_beyond_numpy():
    # every command pays its start-up: the CLI may add nothing numpy itself does not
    # load (numpy.polynomial, say) but the standard library and morsim
    extra = _modules_loaded_by("import morsim.cli") - _modules_loaded_by("import numpy")
    assert "morsim.cli" in extra
    assert sorted(name for name in extra if name.partition(".")[0]
                  not in sys.stdlib_module_names | {"morsim"}) == []


def test_module_entry_point():
    proc = run_module("fringe", "--source", "collinear", "--r", "0.2", "--points", "3",
                      "--mode", "exact")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "theta,value"


def test_the_module_exit_prints_and_writes_what_main_does(capsys, tmp_path):
    # cli.run ends the process as soon as main returns: stdout and --out files
    # must be complete by then
    assert run_cli("verify") == 0
    proc = run_module("verify")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.endswith("17/17 checks passed\n")
    argv = ["fringe", "--r", "0.6", "--observable", "four-photon-glauber", "--points", "101"]
    assert run_cli(*argv, "--out", str(tmp_path / "main.csv")) == 0
    proc = run_module(*argv, "--out", str(tmp_path / "module.csv"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    written = (tmp_path / "module.csv").read_bytes()
    assert written == (tmp_path / "main.csv").read_bytes()
    assert len(written.splitlines()) == 102 and written.endswith(b"\n")


def _readme_commands():
    """The argv of every ``morsim`` command in README's code blocks, each
    continuation line joined to the line it continues."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("morsim ")]


README_COMMANDS = _readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in README_COMMANDS} == {
        "fringe", "visibility", "envelope", "sensitivity", "verify"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=map(" ".join, README_COMMANDS))
def test_readme_commands_exit_0(capsys, tmp_path, argv):
    # a flag the CLI no longer takes must not live on in the docs
    argv = [str(tmp_path / arg) if option == "--out" else arg
            for option, arg in zip([None, *argv], argv)]
    assert run_cli(*argv) == 0


def test_stdout_output(capsys):
    assert run_cli("fringe", "--source", "coherent", "--observable", "intensity",
                   "--points", "3", "--mode", "exact") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta,value"
    assert len(lines) == 4


# each sweep: its command, the options of its two bounds, and the options it runs with
SWEEPS = (
    ("fringe", "--theta-min", "--theta-max", ()),
    ("visibility", "--r-min", "--r-max", ("--mode", "exact")),
    ("envelope", "--r-min", "--r-max", ("--mode", "exact")),
    ("sensitivity", "--mean-n-min", "--mean-n-max", ()),
)
FRINGE, VISIBILITY, ENVELOPE, SENSITIVITY = SWEEPS
# bounds whose span overflows, the smallest subnormal, and neighbouring floats
EDGE_BOUNDS = (-1e308, 1e308, 5e-324, 1.0, 1.0000000000000002, 2.0, 2.0000000000000004)


def _csv_values(out: str) -> list[float]:
    """Every number a sweep printed: its rows, and the key=value pairs of its comments."""
    values = []
    for line in out.splitlines()[1:]:
        fields = line[1:].split(",") if line.startswith("#") else line.split(",")
        values.extend(float(field.rpartition("=")[2]) for field in fields)
    return values


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(SWEEPS),
       st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_BOUNDS),
       st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_BOUNDS),
       st.integers(2, 6))
@example(FRINGE, -1e308, 1e308, 3)
@example(FRINGE[:3] + (("--mode", "exact"),), -1e308, 1e308, 3)
@example(VISIBILITY, -1e308, 1e308, 3)
@example(ENVELOPE, -1e308, 1e308, 3)
@example(ENVELOPE, 1.0, 1.0000000000000002, 3)
@example(VISIBILITY, 1.0, 1.0000000000000002, 3)
@example(SENSITIVITY, 2.0, 2.0000000000000004, 3)
@example(SENSITIVITY, 2.0, 2.0000000000000004, 2)
@example(FRINGE[:3] + (("--source", "coherent", "--alpha", "1e200", "--observable",
                        "intensity"),), 0.0, 2.0 * math.pi, 3)
@example(FRINGE[:3] + (("--source", "coherent", "--alpha", "1.5e154", "--observable",
                        "nd-variance"),), 0.0, 2.0 * math.pi, 3)
def test_sweep_bounds_print_finite_csv_or_one_error_line(capsys, sweep, lo, hi, points):
    command, lo_option, hi_option, options = sweep
    capsys.readouterr()
    with warnings.catch_warnings():
        # a warning that escapes the sweep fails it
        warnings.simplefilter("error")
        code = run_cli(command, *options, lo_option, repr(lo), hi_option, repr(hi),
                       "--points", str(points))
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and all(map(math.isfinite, _csv_values(out)))
        if command == "visibility":
            assert all(0.0 <= float(row.split(",")[1]) <= 1.0 for row in out.splitlines()[1:])
    else:
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
