#!/usr/bin/env python3
"""mrlab benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

One client in one process issues a seeded stream of ``mrlab`` subcommand
calls, each ``mrlab.cli.main(argv)`` in-process with stdout captured in
memory, and waits for each result before sending the next.  Every call
is checked against the recorded reference output.

  python3 perfbench/run.py --workload operator-scan --seed 0 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all        # every workload, one table
  python3 perfbench/run.py --sweep               # layer sweep beside the ROADMAP baseline
  python3 perfbench/run.py --record              # record the reference outputs

Times are in reference seconds: each call's wall time is scaled by the
machine speed measured next to it (``Calibrator``), so the drift of a
shared machine does not read as a change of the program; wall times are
kept in the results file.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays the same calls with the layer wrappers on and
prints the per-layer metrics.
The last line of stdout is one JSON object; results and spans go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
REFERENCES = BENCH / "references"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 9
TAIL_BEYOND = 10
CALIBRATION_S = 0.003      # about a calibration's time on the 2-CPU machine; sets the scale
CALIBRATION_WINDOW = 5     # calibrations on each side of a call that scale it
SUBCOMMANDS = ("gen-gamma", "pi-table", "semigroup-check", "bv-bound", "bip-check",
               "sector-probe", "rad-norm", "rbound-blowup", "diag-norm",
               "interval-certify", "dissipativity", "uncond-constant")
END_TO_END_UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "throughput_ops_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CODE = """\
import contextlib, io, statistics, time
t = time.perf_counter()
import mrlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        mrlab.cli.main(["--version"])
    except SystemExit:
        pass
elapsed = time.perf_counter() - t
from perfbench.run import Calibrator
calibrate = Calibrator()
calibrate()
print(elapsed, statistics.median(calibrate() for _ in range(3)))
"""


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With n samples sorted ascending that is the (n - TAIL_BEYOND)-th, the
    empirical 100 (n - TAIL_BEYOND) / n percentile.  Below TAIL_BEYOND + 1
    samples no percentile qualifies and the maximum is returned at 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Calibrator:
    """Times one fixed piece of work: the machine's current speed.

    Interpreter loops and in-place numpy vector work on buffers allocated
    once, so the time depends on the machine and not on what the program
    left in the allocator; a few milliseconds.  The benchmark shares its
    machine, whose speed drifts by tens of percent from one minute to the
    next, so every reported time is scaled by ``CALIBRATION_S`` over the
    calibrations taken next to it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.linspace(0.0, 1.0, 50_000)
        self._b = np.empty_like(self._a)

    def __call__(self):
        np, a, b = self._np, self._a, self._b
        t = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        for _ in range(20):
            np.multiply(a, a, out=b)
            np.add(b, 1.0, out=b)
            np.sqrt(b, out=b)
        return time.perf_counter() - t


def scaled(latencies, calibrations):
    """Latencies in reference seconds: each over the median of its nearby calibrations."""
    w = CALIBRATION_WINDOW
    return [lat * CALIBRATION_S / statistics.median(calibrations[max(0, i - w):i + w + 1])
            for i, lat in enumerate(latencies)]


# -- environment --------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed):
    import numpy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "mrlab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": _git_commit(), "src_sha256": src_hash.hexdigest(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# -- one call -----------------------------------------------------------------


def run_call(main, argv):
    """(exit code or exception text, stdout, seconds) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()                          # each call starts as a fresh process would
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:                 # a raising call is a failed call
            code = "raised: " + traceback.format_exc(limit=3)
    return code, out.getvalue(), time.perf_counter() - t


def load_references(workload):
    path = REFERENCES / f"{workload}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["calls"]


class Phase:
    """Calls of one closed-loop phase with their latencies and check results."""

    def __init__(self):
        self.calls, self.latencies, self.calibrations, self.shas = [], [], [], []
        self.failures, self.unchecked = {}, set()
        self.calibrate = Calibrator()

    def run(self, main, kind, argv):
        """Calibrate, run one call and record it; returns (code, stdout)."""
        self.calibrations.append(self.calibrate())
        code, stdout, latency = run_call(main, argv)
        self.calls.append((kind, argv))
        self.latencies.append(latency)
        return code, stdout

    @property
    def scaled(self):
        return scaled(self.latencies, self.calibrations)

    @property
    def throughput(self):
        """Calls per second of call time, in reference seconds."""
        return len(self.calls) / sum(self.scaled)


def check(phase, index, references, code, stdout):
    from perfbench.checker import compare

    ref = references.get(" ".join(phase.calls[index][1]))
    if ref is None:
        phase.unchecked.add(index)
        return
    problem = (code if not isinstance(code, int) else compare(ref, code, stdout))
    if problem:
        phase.failures[index] = problem


def closed_loop(main, calls, references):
    """Run ``calls`` (an iterable of (kind, argv)) one after the other."""
    phase = Phase()
    for kind, argv in calls:
        code, stdout = phase.run(main, kind, argv)
        phase.shas.append(hashlib.sha256(stdout.encode()).hexdigest())
        check(phase, len(phase.calls) - 1, references, code, stdout)
    return phase


def timed_calls(workload, seed, seconds):
    """The first ``workload.calls_for(seconds)`` calls of the seeded stream."""
    from perfbench.workloads import stream

    return list(itertools.islice(stream(workload, seed), workload.calls_for(seconds)))


def warm_up(main, workload):
    """One small call of each kind: loads lazy imports and fills caches.

    Everything alive afterwards (modules, the reference digests) is frozen
    out of the garbage collector, so collections inside the timed calls
    scan only what the calls allocate, as in a fresh ``mrlab`` process.
    """
    for kind in workload.kinds:
        run_call(main, kind.call(kind.sizes[0], kind.variants[0]))
    gc.freeze()


def setup_seconds():
    """Median over fresh interpreters of ``import mrlab.cli`` plus a parser build.

    Returns (reference seconds, wall seconds); each interpreter calibrates
    right after its import.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    wall, ref = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, calibration = map(float, done.stdout.split())
        wall.append(elapsed)
        ref.append(elapsed * CALIBRATION_S / calibration)
    return statistics.median(ref), statistics.median(wall)


# -- runs ---------------------------------------------------------------------


def end_to_end(workload, seed, seconds):
    from mrlab.cli import main

    setup, setup_wall = setup_seconds()
    references = load_references(workload.name)
    warm_up(main, workload)
    phase = closed_loop(main, timed_calls(workload, seed, seconds), references)
    latencies = phase.scaled
    value, pct = tail(latencies)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "throughput_ops_s": phase.throughput,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"tail_percentile": pct, "samples": len(latencies),
            "failed_ratio": len(phase.failures) / len(phase.calls),
            "unchecked": len(phase.unchecked),
            "calibration_s": statistics.median(phase.calibrations),
            "wall": {"latency_p50_s": statistics.median(phase.latencies),
                     "latency_tail_s": tail(phase.latencies)[0],
                     "throughput_ops_s": len(phase.calls) / sum(phase.latencies),
                     "setup_s": setup_wall}}
    return phase, metrics, info


def traced(workload, seed, seconds):
    """Untraced phase, then the same calls traced; per-layer metrics and the sweep."""
    from mrlab.cli import main
    from perfbench.sweep import run_sweep
    from perfbench.tracing import Tracer, layer_metrics

    references = load_references(workload.name)
    warm_up(main, workload)
    plain = closed_loop(main, timed_calls(workload, seed, seconds), references)
    tracer = Tracer()
    traced_main = tracer.root(main)
    replay = Phase()
    with tracer:
        for index, (kind, argv) in enumerate(plain.calls):
            tracer.call = index
            code, stdout, latency = run_call(traced_main, argv)
            tracer.output_bytes(len(stdout.encode()))
            replay.calls.append((kind, argv))
            replay.latencies.append(latency)
            check(replay, index, references, code, stdout)
            if hashlib.sha256(stdout.encode()).hexdigest() != plain.shas[index]:
                replay.failures[index] = "output differs with tracing on"
    metrics = layer_metrics(tracer)
    for sub in SUBCOMMANDS:
        times = [lat for (kind, argv), lat in zip(plain.calls, plain.scaled)
                 if argv[0] == sub]
        metrics[f"cli.{sub}.p50_s"] = statistics.median(times) if times else 0.0
    # wall time: the phases run back to back, and scaling each by its own
    # calibrations read tracing as a speed-up
    metrics["trace.overhead_ratio"] = sum(plain.latencies) / sum(replay.latencies)
    sweep = run_sweep()
    for name, row in sweep.items():
        metrics[f"{name}.size_exponent"] = row["size_exponent"]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}-seed{seed}-spans.jsonl.gz")
    failures = {**plain.failures, **replay.failures}
    info = {"samples": len(plain.calls), "spans": len(tracer), "sweep": sweep,
            "failed_ratio": len(failures) / len(plain.calls),
            "unchecked": len(plain.unchecked | replay.unchecked)}
    return plain, failures, metrics, info


def write_results(name, payload):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def per_kind(phase):
    groups = {}
    for (kind, _), lat in zip(phase.calls, phase.scaled):
        groups.setdefault(kind, []).append(lat)
    return {k: {"calls": len(v), "p50_s": statistics.median(v), "max_s": max(v)}
            for k, v in sorted(groups.items())}


def call_list(phase):
    return [{"kind": kind, "argv": " ".join(argv), "wall_s": wall, "reference_s": ref,
             "calibration_s": cal}
            for (kind, argv), wall, ref, cal in zip(phase.calls, phase.latencies,
                                                    phase.scaled, phase.calibrations)]


def failure_list(phase, failures):
    return [{"call": i, "argv": list(phase.calls[i][1]), "problem": failures[i]}
            for i in sorted(failures)]


def describe(workload, metrics, info):
    parts = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in END_TO_END_UNITS.items()]
    return (f"{workload:<17} " + " | ".join(parts)
            + f" | tail at p{info['tail_percentile']:.1f} of {info['samples']} samples"
            + f" | failed_ratio {info['failed_ratio']:.6g}"
            + f" ({info['unchecked']} calls unchecked)")


def result_line(attempted, failed, unchecked, metrics, units):
    return json.dumps({"correct": failed == 0 and unchecked == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}})


def per_layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("size_exponent") or name.endswith("ratio"):
        return "1"
    return "count"


def main_all(args):
    """Every workload in a process of its own, as separate runs would be."""
    from perfbench.workloads import WORKLOADS

    attempted = failed = 0
    correct = True
    combined = {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds)],
                              capture_output=True, text=True, check=True)
        *lines, last = done.stdout.strip().splitlines()
        print(lines[-1])
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main_run(args):
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    if args.trace:
        phase, failures, metrics, info = traced(workload, args.seed, args.seconds)
        write_results(f"{workload.name}-seed{args.seed}-trace1.json",
                      {"env": env, "workload": workload.name, "metrics": metrics,
                       "info": info, "per_kind": per_kind(phase),
                       "failures": failure_list(phase, failures),
                       "calls": call_list(phase)})
        for name, value in metrics.items():
            print(f"{name:<40} {value:.6g} {per_layer_unit(name)}")
        print(f"trace: {info['spans']} spans, {info['samples']} calls, "
              f"failed_ratio {info['failed_ratio']:.6g}")
        print(result_line(len(phase.calls), len(failures), info["unchecked"], metrics,
                          {k: per_layer_unit(k) for k in metrics}))
        return 0
    phase, metrics, info = end_to_end(workload, args.seed, args.seconds)
    write_results(f"{workload.name}-seed{args.seed}-trace0.json",
                  {"env": env, "workload": workload.name, "metrics": metrics, "info": info,
                   "per_kind": per_kind(phase),
                   "failures": failure_list(phase, phase.failures),
                   "calls": call_list(phase)})
    print(describe(workload.name, metrics, info))
    print(result_line(len(phase.calls), len(phase.failures), info["unchecked"], metrics,
                      END_TO_END_UNITS))
    return 0


def main_record(args):
    """Record the reference digest of every call in each workload's pool."""
    from mrlab.cli import main
    from perfbench.checker import digest
    from perfbench.workloads import WORKLOADS, pool

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    REFERENCES.mkdir(exist_ok=True)
    bad = 0
    for name in names:
        calls = {}
        started = time.perf_counter()
        for argv in pool(WORKLOADS[name]):
            code, stdout, _ = run_call(main, argv)
            if code != 0:
                bad += 1
                print(f"nonzero exit {code!r}: {' '.join(argv)}", file=sys.stderr)
                continue
            calls[" ".join(argv)] = digest(code, stdout)
        payload = {"env": environment(None), "calls": calls}
        with gzip.open(REFERENCES / f"{name}.json.gz", "wt", encoding="utf-8",
                       compresslevel=9) as fh:
            json.dump(payload, fh, separators=(",", ":"), sort_keys=True)
        print(f"{name}: {len(calls)} references in {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


def main_sweep(args):
    from perfbench.sweep import format_table, run_sweep

    sweep = run_sweep()
    print(format_table(sweep))
    write_results("sweep.json", {"env": environment(None), "sweep": sweep})
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="operator-scan, threshold-series, rademacher-mc or all")
    parser.add_argument("--seed", type=int, default=0, help="workload generator seed")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed phase at the seed commit's call rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true",
                      help="record the reference outputs of every call in the pools")
    mode.add_argument("--sweep", action="store_true",
                      help="time the layer sweep and print it beside the ROADMAP baseline")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:               # before numpy is imported
        os.environ[var] = "1"
    if not (SRC / "mrlab" / "cli.py").is_file():
        print(f"no mrlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.record:
        return main_record(args)
    if args.sweep:
        return main_sweep(args)
    from perfbench.workloads import WORKLOADS

    if args.workload == "all" and not args.trace:
        return main_all(args)
    if args.workload not in WORKLOADS:
        print(f"--workload takes one of {', '.join(WORKLOADS)}, or all without --trace 1",
              file=sys.stderr)
        return 2
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
