"""Tests of the benchmark's own failure accounting.

    python3 -m pytest perfbench
"""

import json
import math
import sys

import run
from tracing import Tracer, install, summarize
from workloads import (
    R_JITTER,
    REL_TOL,
    WORKLOADS,
    Workload,
    count_exact_failures,
    count_verify_failures,
    glauber_argv,
)


def _csv(rows):
    return "theta,value,value_exact\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows)


def test_a_point_past_its_allowance_and_a_nan_are_failures():
    exact = [2270.76 + i for i in range(5)]
    values = list(exact)
    values[1] = exact[1] * (1.0 + 10.0 * REL_TOL)
    values[2] = math.nan
    values[3] = exact[3] * (1.0 + 0.1 * REL_TOL)  # inside the allowance
    rows = [(0.1 * i, v, e) for i, (v, e) in enumerate(zip(values, exact))]
    assert count_exact_failures(_csv(rows), points=5) == (5, 2)


def test_missing_points_and_foreign_output_are_failures():
    assert count_exact_failures(_csv([(0.0, 1.0, 1.0), (0.1, 1.0, 1.0)]), points=5) == (5, 3)
    assert count_exact_failures("error: bad flag\n", points=5) == (5, 5)


def test_verify_fail_lines_are_failures():
    text = "[PASS] a: ok\n[FAIL] b: off\n[PASS] c: ok\n2/3 checks passed\n"
    assert count_verify_failures(text) == (3, 1)


def _child(stdout, code=0):
    return run.Child(wall_s=1.0, cpu_s=1.0, rss_mb=1.0, code=code, stdout=stdout)


def test_a_crash_or_changed_bytes_fails_the_whole_process():
    tally = run.Tally(Workload(name="w", argv=lambda seed: [],
                               check=lambda text: (4, 0), operations=4))
    tally.add(_child(b"same"))
    tally.add(_child(b"same"))
    assert (tally.attempted, tally.failed) == (8, 0)
    tally.add(_child(b"other"))
    tally.add(_child(b"same", code=1))
    assert (tally.attempted, tally.failed) == (16, 8)


def test_seed_zero_is_the_reference_command_and_seeds_keep_the_truncation():
    assert glauber_argv(0) == [
        "fringe", "--source", "collinear", "--r", "1.3", "--n-max", "128",
        "--observable", "four-photon-glauber", "--points", "201", "--mode", "both"]
    reference = glauber_argv(0)
    for seed in range(1, 50):
        argv = glauber_argv(seed)
        assert argv[:4] + argv[5:13] == reference[:4] + reference[5:]
        assert abs(float(argv[4]) - 1.3) <= R_JITTER
        assert 0.0 <= float(argv[argv.index("--theta-min") + 1]) < 2.0 * math.pi / 200


def test_reported_metrics_match_the_benchmark_definition():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(name, unit) for name, unit, *_ in run.PER_LAYER] + list(run.TRACE_ONLY)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_is_a_span_minus_its_wrapped_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0, 0.0],
             ["detection.fringe_scan", 1.0, 9.0, 0, 0, 0.0],
             ["medium.apply_mor", 2.0, 4.0, 1, 5, 0.25],
             ["medium.apply_mor", 5.0, 6.0, 1, 7, 0.5]]
    layers = summarize(spans)
    assert layers["cli.main"]["self_s"] == 2.0
    assert layers["detection.fringe_scan"]["self_s"] == 5.0
    channel = layers["medium.apply_mor"]
    assert (channel["calls"], channel["total_s"], channel["cold_ms"], channel["warm_ms"],
            channel["components"], channel["tail"]) == (2, 3.0, 2000.0, 1000.0, 12, 0.75)


def test_the_traced_channel_reaches_sweeps_and_verify():
    sys.path.insert(0, str(run.ROOT / "src"))
    from morsim import detection, verify
    from morsim.sources import SourceKind, SourceSpec

    tracer = Tracer()
    install(tracer)
    source = SourceSpec(kind=SourceKind.COLLINEAR_PDC, r=0.3, n_max=4)
    obs = detection.ObservableSpec(kind=detection.ObservableKind.TWO_PHOTON_COINCIDENCE)
    verify.fringe_scan(source, [0.0, 0.5, 1.0], "collinear", obs)
    verify.check_two_photon_closed_form(verify.run_all.keywords["apply_mor_fn"])
    layers = summarize(tracer.spans)
    assert layers["medium.apply_mor"]["calls"] == 3 + 100
    assert layers["fock.normally_ordered_moment"]["calls"] == 3
    assert layers["verify.check_two_photon_closed_form"]["calls"] == 1
