#!/usr/bin/env python3
"""Benchmark of the qsc command line, end to end and per layer.

    python3 perfbench/run.py --workload css_catalog --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload (``all`` runs each in its own child process).
Each operation is one ``qsc`` command, run in-process through
``qsc.cli.run`` with stdout and stderr captured.  A pass runs the workload's
fixed command list once; the benchmark runs whole passes, closed loop, while
the command time of the next pass still fits in ``--seconds``, and at least
one.  Outputs are checked against independent references after each
command's timed region.

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s``: commands completed per second of command time;
* ``op_p50_ms``: median wall time of one command;
* ``peak_rss_mb``: peak resident memory of the process;
* ``setup_s``: median over several set-ups, spread over the run, of a fresh
  import of the qsc package plus generating the workload's inputs (the time
  from the start of this script to the end of the first set-up, numpy
  import included, is recorded as ``first_setup_s``).

The share of failed commands (non-zero exit or failed check) is printed as
``fail_ratio`` and reported as ``failed`` out of ``attempted``.

``--trace 1`` alternates untraced passes with passes traced by ``layers.py``
(traced first in the first round, untraced first in the next) and reports
the per-layer metrics, per traced pass, and the tracing overhead (median
traced minus median untraced command time per pass).

Every run writes a record (machine, every command time, failures, metrics)
to ``perfbench/out/``; a traced run also writes its spans there.  The last
line of stdout is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The benchmark leaves ``QSC_THREADS`` and BLAS threading as
it finds them and records both.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import contextlib
import ctypes
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 9
PROBE = "_qsc_setup_probe"
# A command counts as stalled when it took this many times its fastest repeat
# in the run, and at least STALL_MIN_S longer.
STALL_FACTOR = 3.0
STALL_MIN_S = 0.05
END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
WORKLOAD_NAMES = ("css_catalog", "channel_sweep")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    parallel = importlib.import_module("qsc._parallel")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "QSC_THREADS": os.environ.get("QSC_THREADS"),
        "qsc_thread_count": parallel.thread_count(),
    }


def import_qsc_afresh():
    """Run the qsc package's module code again, as a first import does, under
    another name, so the modules the commands use stay as they are."""
    for name in [m for m in sys.modules if m == PROBE or m.startswith(PROBE + ".")]:
        del sys.modules[name]
    source = ROOT / "src" / "qsc"
    spec = importlib.util.spec_from_file_location(
        PROBE, source / "__init__.py", submodule_search_locations=[str(source)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[PROBE] = package
    spec.loader.exec_module(package)
    importlib.import_module(PROBE + ".cli")
    return package


class SetUp:
    """Set-up timings.  The first set-up imports qsc and writes the inputs the
    commands use; the others repeat the same work under another package name
    and directory, between commands, spread over the run, so that their
    median is not one moment of the machine's speed."""

    def __init__(self, workload: str, seed: int, workdir: Path, seconds: float):
        import workloads

        self.make = lambda directory, package: workloads.WORKLOADS[workload](
            seed, directory, package)
        self.spare = workdir.with_name(workdir.name + "-setup")
        self.interval = seconds / SETUP_REPS
        t0 = time.perf_counter()
        self.cli = importlib.import_module("qsc.cli")
        workdir.mkdir(parents=True)
        self.commands = self.make(workdir, sys.modules["qsc"])
        self.times = [time.perf_counter() - t0]
        self.due = time.perf_counter() + self.interval

    def repeat(self) -> None:
        t0 = time.perf_counter()
        package = import_qsc_afresh()
        if self.spare.exists():
            shutil.rmtree(self.spare)
        self.spare.mkdir()
        self.make(self.spare, package)
        self.times.append(time.perf_counter() - t0)
        self.due = time.perf_counter() + self.interval

    def between_commands(self) -> None:
        if len(self.times) < SETUP_REPS and time.perf_counter() >= self.due:
            self.repeat()

    def finish(self) -> None:
        while len(self.times) < SETUP_REPS:
            self.repeat()
        shutil.rmtree(self.spare, ignore_errors=True)
        for name in [m for m in sys.modules if m == PROBE or m.startswith(PROBE + ".")]:
            del sys.modules[name]


def run_pass(cli, commands, between=lambda: None) -> list:
    """Run every command once; only the command itself is timed."""
    from workloads import Outcome

    outcomes = []
    for cmd in commands:
        between()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(cmd.argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        outcomes.append(Outcome(rc, out.getvalue(), err.getvalue(), seconds))
    return outcomes


def check_pass(commands, outcomes, verified: set) -> list[list[str]]:
    """Problems per command.  An output identical to one already verified for
    the same command is not checked again."""
    problems = []
    for index, (cmd, outcome) in enumerate(zip(commands, outcomes)):
        written = cmd.out_file.read_text() if cmd.out_file and cmd.out_file.exists() else ""
        key = (index, outcome.rc, outcome.stdout, outcome.stderr, written)
        if key in verified:
            problems.append([])
            continue
        found = cmd.check(outcome)
        if not found:
            verified.add(key)
        problems.append(found)
    return problems


def stalls(passes: list[list]) -> tuple[int, int]:
    """(stalled commands, commands with a repeat to compare against)."""
    if len(passes) < 2:
        return 0, 0
    stalled = 0
    for repeats in zip(*passes):
        fastest = min(o.seconds for o in repeats)
        stalled += sum(1 for o in repeats
                       if o.seconds > STALL_FACTOR * fastest
                       and o.seconds - fastest > STALL_MIN_S)
    return stalled, sum(len(p) for p in passes)


def tail_percentile(times: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(times) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(times, n=100)[pct - 1]
    return None


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    # the inputs' directory, removed at the end; the record sits beside it
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    setup = SetUp(args.workload, args.seed, workdir, args.seconds)
    cli, commands = setup.cli, setup.commands
    first_setup_s = time.perf_counter() - T_START
    machine = machine_record()

    import layers

    tracer = layers.Tracer()
    verified: set = set()
    untraced, traced, tallies, span_log = [], [], [], []
    failures: list[str] = []
    attempted = failed = 0
    measured = 0.0
    while True:
        # traced runs alternate which kind of pass goes first, so the first
        # pass's one-off costs do not all land on one side of the overhead
        if not args.trace:
            kinds = (False,)
        else:
            kinds = (True, False) if len(traced) % 2 == 0 else (False, True)
        round_s = 0.0
        for tracing in kinds:
            if tracing:
                tracer.install()
            try:
                outcomes = run_pass(cli, commands, setup.between_commands)
            finally:
                tracer.uninstall()
            round_s += sum(o.seconds for o in outcomes)
            if tracing:
                spans = tracer.take()
                tallies.append(layers.pass_tallies(spans))
                span_log.append(spans)
                traced.append(outcomes)
            else:
                untraced.append(outcomes)
            for cmd, found in zip(commands, check_pass(commands, outcomes, verified)):
                attempted += 1
                if found:
                    failed += 1
                    failures.append(f"qsc {' '.join(cmd.argv)}: {'; '.join(found)}")
        measured += round_s
        if measured + round_s > args.seconds:
            break
    setup.finish()
    setup_times = setup.times
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    times = [o.seconds for p in untraced for o in p]
    stalled, comparable = stalls(untraced)
    if args.trace:
        pass_time = statistics.median(sum(o.seconds for o in p) for p in traced)
        overhead = pass_time - statistics.median(sum(o.seconds for o in p) for p in untraced)
        metrics = layers.per_layer_metrics(tallies, overhead)
    else:
        values = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1000.0 * statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "setup_s_each": setup_times, "first_setup_s": first_setup_s,
        "passes": len(untraced), "traced_passes": len(traced),
        "commands_per_pass": len(commands),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": failures,
        "stalled_commands": stalled, "stall_comparable_commands": comparable,
        "command_seconds": [[" ".join(c.argv), [p[i].seconds for p in untraced]]
                            for i, c in enumerate(commands)],
        "metrics": metrics,
    }
    tail = tail_percentile(times)
    if tail:
        record[f"op_p{tail[0]}_ms"] = 1000.0 * tail[1]
    workdir.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if span_log:
        names = sorted({s.name for spans in span_log for s in spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(workdir.with_suffix(".spans.jsonl"), "w") as fh:
            fh.write(json.dumps({"names": names,
                                 "fields": ["pass", "name", "start", "end", "parent"]}) + "\n")
            for k, spans in enumerate(span_log):
                for s in spans:
                    fh.write(f"[{k},{ids[s.name]},{s.start!r},{s.end!r},{s.parent}]\n")
    shutil.rmtree(workdir)

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(commands)} commands; "
          f"{len(times)} timed commands; setup median of {SETUP_REPS}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if tail:
        print(f"  op_p{tail[0]}_ms = {1000.0 * tail[1]:.6g} ms (n={len(times)})")
    print(f"  fail_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted})")
    print(f"  stalled_commands = {stalled} of {comparable} with a repeat")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import workloads

    missing = [str(p.relative_to(ROOT)) for p in workloads.REQUIRED if not p.exists()]
    if missing:
        print(f"error: not a qsc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
