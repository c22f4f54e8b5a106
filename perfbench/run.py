#!/usr/bin/env python3
"""hapticwave benchmark: one workload, untraced (end-to-end metrics) or traced (per-layer metrics).

Run from the root of a checkout:

    python3 perfbench/run.py --workload protocol-44k --seed 1 --seconds 20 --trace 0

It imports hapticwave from the checkout's `src/`, prints a table and a
detail line (environment, output digest, failure counts), and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TRACE_ROUNDS = 2
WORKLOAD_NAMES = ("protocol-44k", "long-mixed-rate", "dataset-cli")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int, corpus) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": _nproc(),
        "git_sha": _git_sha(), "seed": seed,
        "clips": {"convert": corpus.counts, "dataset": len(corpus.dataset.clips)},
    }


def _import_s(speed) -> float:
    """Median time to import hapticwave (with numpy and scipy) in a fresh interpreter, scaled."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import hapticwave; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], env=dict(os.environ), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120).stdout
        speed.refresh()
        times.append(float(out) * speed.scale())
    return statistics.median(times)


def _rounds(engine, state, n, tracer=None):
    """Run rounds 0..n-1 (fixed work); returns the recorder and the wall time."""
    rec = engine.Recorder(hash_rounds=n, tracer=tracer)
    start = perf_counter()
    for r in range(n):
        engine.run_round(state, rec, r)
    return rec, perf_counter() - start


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hapticwave" / "__init__.py").is_file():
        print(f"error: no hapticwave sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, within the nproc cap: the loop has a single client, and a
    # second thread's speed would depend on the other, shared vCPU.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import hapticwave
    import numpy as np

    if not Path(hapticwave.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hapticwave from {hapticwave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import engine
    from speed import Speed
    from tracer import Tracer

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_REPEATS if not args.trace else 1):
            shutil.rmtree(work, ignore_errors=True)
            t = perf_counter()
            state = engine.set_up(args.workload, args.seed, work)
            setups.append(perf_counter() - t)
        env = _environment(args.seed, state.corpus)
        env["setup_parts_s"] = {"setups": setups}

        if not args.trace:
            speed = Speed()
            speed.refresh()
            rec = engine.Recorder(hash_rounds=1, speed=speed)
            start = perf_counter()
            r = 0
            while r == 0 or perf_counter() - start < args.seconds:
                engine.run_round(state, rec, r)
                r += 1
            table = engine.end_to_end(rec, state)
            # Import time slows with the speed kernel and is scaled; the rest of set-up
            # mostly allocates and fills large arrays, which slow down on a busy host
            # far less than the kernel does, so it is not.
            import_s = _import_s(speed)
            env["setup_parts_s"]["import"] = import_s
            table["setup_s"] = (import_s + statistics.median(setups), "s", len(setups))
            table["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1)
            metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in table.items()}
            runs = [rec]
            correct = rec.failed == 0
            env["unscaled_convert_audio_s_per_s"] = rec.audio_s / rec.convert_raw_s
            env["speed_kernel_ms"] = {f"p{q}": float(np.percentile(speed.history, q)) * 1000.0
                                      for q in (10, 50, 90)}
        else:
            # Untraced, traced, untraced again: the first pass warms caches and gives the
            # reference digest and tails, the last gives the untraced time for the overhead.
            plain, _ = _rounds(engine, state, TRACE_ROUNDS)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_s = _rounds(engine, state, TRACE_ROUNDS, tracer)
            finally:
                tracer.uninstall()
            again, plain_s = _rounds(engine, state, TRACE_ROUNDS)
            tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            values = engine.per_layer(tracer, plain, traced, plain_s, traced_s)
            units = {name: unit for name, unit, _ in engine.layer_metric_names()}
            metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
            table = {name: (v, units[name], 1) for name, v in values.items()}
            runs = [plain, traced, again]
            same = len({x.digest.hexdigest() for x in runs}) == 1
            env["traced_output_identical"] = same
            correct = same and all(x.failed == 0 for x in runs)
            rec = traced
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(x.attempted for x in runs)
    failed = sum(x.failed for x in runs)
    failures: dict[str, dict[str, int]] = {}
    for x in runs:
        for kind, reasons in x.failures.items():
            for reason, n in reasons.items():
                failures.setdefault(kind, {})[reason] = failures.get(kind, {}).get(reason, 0) + n
    env.update({
        "workload": args.workload, "trace": args.trace, "rounds": rec.rounds,
        "output_sha256": rec.digest.hexdigest(), "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted, "failures": failures,
        "pitch_rejected_below_25_6_khz": sum(x.rejected for x in runs),
    })
    for name, (value, unit, n) in table.items():
        print(f"{name:<52} {value:>14.6g} {unit:<8} n={n}")
    print("detail " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
