#!/usr/bin/env python3
"""tauslice benchmark: exact-arithmetic workloads, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every measured pass runs in a fresh single-threaded
worker process (``worker.py``), one after another, so each pass is cold.
Each worker samples the machine's speed while it runs, so that its times
can be given at a reference speed (see README.md).  The run first makes the
untimed field metamorphic check, then makes passes until ``--seconds`` is
used up, then tops up the set-up samples.  The last line of standard output
is the result object; the line before it holds the details (seed, per-pass
times, result digests, the fixtures that raise FieldTooSmall over F5).

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced pass.  See README.md in this directory.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: traced runs leave the spans of their last traced pass here
SPANS_DIR = ROOT / ".perfbench"

WORKLOADS = ("worked_examples", "stt_count", "ar_closure_q", "ar_closure_fp")

#: a run must end within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0
#: set-up samples per run (setup_s is their median)
SETUP_SAMPLES = 9
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_share": "share",
}

#: per-layer metrics; a function that was never called reads 0
PER_LAYER_UNITS = {
    "exactlin.rref.calls": "count",
    "exactlin.rref.self_s": "s",
    "exactlin.rref.cells": "count",
    "exactlin.rref.max_entry_bits": "bits",
    "exactlin.kernel_basis.self_s": "s",
    "exactlin.solve.self_s": "s",
    "exactlin.matmul.self_s": "s",
    "exactlin.self_s": "s",
    "algebra.radical_span.calls": "count",
    "algebra.radical_span.self_s": "s",
    "algebra.quiverize.self_s": "s",
    "algebra.self_s": "s",
    "modrep.decompose.calls": "count",
    "modrep.decompose.self_s": "s",
    "modrep.decompose.repeat_share": "share",
    "modrep.hom_basis.calls": "count",
    "modrep.hom_basis.self_s": "s",
    "modrep.is_isomorphic.calls": "count",
    "modrep.self_s": "s",
    "artheory.almost_split_sequence.calls": "count",
    "artheory.almost_split_sequence.self_s": "s",
    "artheory.tau.calls": "count",
    "artheory.tau.self_s": "s",
    "artheory.end_algebra.self_s": "s",
    "artheory.ar_quiver.nodes": "count",
    "artheory.self_s": "s",
    "tautilt.is_support_tau_tilting.calls": "count",
    "tautilt.is_tau_rigid.calls": "count",
    "tautilt.count_support_tau_tilting.yield": "share",
    "tautilt.is_tilted.explored": "count",
    "tautilt.is_complete_tau_slice.self_s": "s",
    "tautilt.self_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """One benchmark invocation: a sequence of worker processes."""

    def __init__(self, workload, seed, smoke):
        self.base = {"workload": workload, "seed": seed, "smoke": smoke}
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = []
        self.digests = {}
        self.spans_file = SPANS_DIR / f"spans-{workload}-seed{seed}.tsv"

    def elapsed(self):
        return time.monotonic() - self.t0

    def worker(self, **request):
        """Run one worker to completion; None when it crashed or timed out."""
        budget = HARD_LIMIT_S - self.elapsed()
        if budget <= 1:
            self.fail(f"{request['mode']}: no time left")
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps({**self.base, **request})],
                cwd=ROOT, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            self.fail(f"{request['mode']}: timed out")
            return None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            self.fail(f"{request['mode']}: worker exited {proc.returncode}")
            return None
        return json.loads(lines[-1])

    def fail(self, label):
        self.attempted += 1
        self.failed.append(label)

    def record(self, kind, result):
        """Count a worker's operations; results must repeat byte for byte."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        first = self.digests.setdefault(kind, result["digest"])
        if result["digest"] != first:
            self.fail(f"{kind}: results differ between passes")


def passes(run, seconds, trace):
    """Cold passes until ``seconds`` is used up.

    Untraced runs make at least two passes.  Traced runs alternate an
    untraced and a traced pass, at least one of each, so that the tracing
    overhead is measured within the run.
    """
    deadline = run.t0 + seconds
    kinds, minimum = ((False, True), 1) if trace else ((False,), 2)
    plain, traced, longest, rounds = [], [], 0.0, 0
    while True:
        for traced_pass in kinds:
            start = run.elapsed()
            res = run.worker(mode="pass", trace=traced_pass,
                             spans_out=str(run.spans_file) if traced_pass else None)
            if res is None:
                return plain, traced
            run.record("pass", res)
            (traced if traced_pass else plain).append(res)
            longest = max(longest, run.elapsed() - start)
        rounds += 1
        if rounds >= minimum and time.monotonic() + longest * len(kinds) > deadline:
            return plain, traced


def pass_time(results):
    """Cold time of one pass at the reference speed: the median over passes."""
    return statistics.median(r["reference_s"] for r in results)


def end_to_end(run, plain, setups):
    return {
        "wall_s": pass_time(plain),
        "setup_s": statistics.median(r["setup_reference_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "pass_share": (run.attempted - len(run.failed)) / run.attempted,
    }


def per_layer(run, plain, traced):
    """The fastest traced pass; its counts must repeat in every traced pass."""
    fastest = min(traced, key=lambda r: r["reference_s"])["trace"]
    counted = [n for n, unit in PER_LAYER_UNITS.items() if unit in ("count", "bits", "share")]
    for other in traced:
        if any(other["trace"].get(n, 0) != fastest.get(n, 0) for n in counted):
            run.fail("trace: counts differ between traced passes")
    out = {n: fastest.get(n, 0) for n in PER_LAYER_UNITS}
    out["trace.overhead_s"] = pass_time(traced) - pass_time(plain)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (a2 and a3, cap 8), for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tauslice" / "__init__.py").is_file():
        print(f"error: no tauslice sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    # a terminated run unwinds, so that its running worker is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    run = Run(args.workload, args.seed, args.smoke)
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
    meta = run.worker(mode="metamorphic")
    if meta is not None:
        run.record("metamorphic", meta)
    plain, traced = passes(run, args.seconds, args.trace)
    setups = plain + traced
    while len(setups) < SETUP_SAMPLES:
        res = run.worker(mode="setup")
        if res is None:
            break
        setups.append(res)
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics, units = per_layer(run, plain, traced), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(run, plain, setups), END_TO_END_UNITS
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke,
        "pass_wall_s": [r["wall_s"] for r in plain],
        "pass_reference_s": [r["reference_s"] for r in plain],
        "pass_unit_s": [r["unit_s"] for r in plain],
        "traced_reference_s": [r["reference_s"] for r in traced],
        "setup_s": [r["setup_s"] for r in setups],
        "setup_reference_s": [r["setup_reference_s"] for r in setups],
        "digests": run.digests,
        "field_too_small_F5": meta and meta["field_too_small_F5"],
        "failures": run.failed,
        "spans": str(run.spans_file.relative_to(ROOT)) if args.trace else None,
    }))
    print(json.dumps({
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
