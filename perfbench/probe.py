"""In-process side of the benchmark, run in a fresh interpreter with the
checkout's ``src`` on PYTHONPATH.

    probe.py context                  print the interpreter, numpy and BLAS setup
    probe.py setup ARGV...            print the clock when the workload's first
                                      evolved state exists, then exit at once
    probe.py trace SPANS ARGV...      run ``morsim ARGV`` with spans around each
                                      layer, write them to SPANS as JSON

Times come from ``time.perf_counter``, the system-wide monotonic clock on
Linux, so the parent can subtract its own readings from them.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
from time import perf_counter

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas() -> dict:
    """Version and run-time thread count of the OpenBLAS numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"config": config().decode(), "threads": threads()}
    return {"config": "unknown", "threads": None}


def context() -> None:
    import numpy

    import morsim

    print(json.dumps({
        "morsim_file": os.path.abspath(morsim.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "openblas": _openblas(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }))


def setup(argv: list[str]) -> None:
    """Set-up ends when the first point of the sweep is evolved: the import,
    argument parsing, the source build and the cold eigenbases are done.
    For ``verify`` it ends after the import."""
    from morsim import cli

    def done() -> None:
        print(repr(perf_counter()), flush=True)
        os._exit(0)

    if argv[0] == "verify":
        done()
    fringe_scan = cli.fringe_scan

    def first_point(source, thetas, *args, **kwargs):
        fringe_scan(source, thetas[:1], *args, **kwargs)
        done()

    cli.fringe_scan = first_point
    cli.main(argv)
    raise SystemExit("the workload evaluated no fringe point")


def trace(spans_path: str, argv: list[str]) -> int:
    from tracing import Tracer, install

    start = perf_counter()
    from morsim import cli
    import_s = perf_counter() - start

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "context":
        context()
        return 0
    if mode == "setup":
        setup(rest)
    return trace(rest[0], rest[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
