"""One measured step of the benchmark, in a fresh process.

Usage: python3 perfbench/worker.py '<json request>'

The request names a ``workload``, a ``seed``, ``smoke`` (tiny inputs) and a
``mode``: ``setup`` (import and load fixtures only), ``pass`` (set up, then
run the workload once, traced when ``trace`` is true, writing the spans to
``spans_out`` when given) or ``metamorphic`` (the untimed field check).  The
last line of standard output is one JSON object with the measurements; each
time is given as measured (``*_s``) and at the reference speed of the
machine (``*reference_s``, see ``SpeedSampler``).
"""

import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the pass's speed is sampled this often ...
SAMPLE_EVERY_S = 0.2
#: ... by timing this many units of calibration work (about 8 ms)
SAMPLE_UNITS = 8
#: set-up is followed by one longer calibration (about 0.15 s)
SETUP_UNITS = 150
#: seconds per unit of calibration work at the reference speed: about the
#: median of the pass samples on a 2-vCPU Xeon virtual machine
REFERENCE_UNIT_S = 0.0012


def digest(ops):
    """Hash of the operations' results, independent of the order they ran in."""
    h = hashlib.sha256()
    for label, ok, text in sorted(ops):
        h.update(f"{label}\0{ok}\0{text}\0".encode())
    return h.hexdigest()[:16]


def summarize(ops):
    return {
        "attempted": len(ops),
        "failed": [label for label, ok, _ in ops if not ok],
        "digest": digest(ops),
    }


def calibrate(units):
    """Seconds this process takes for ``units`` units of fixed work.

    A unit is exact elimination on a 10 x 10 matrix of ``Fraction``
    entries: the same kind of work as tauslice's own kernel, but code that
    no change to tauslice can make faster (see README.md).
    """
    start = time.perf_counter()
    for _ in range(units):
        rows = [[Fraction(i * 7 + j * 3 + 1, j + 2) for j in range(10)] for i in range(10)]
        for c in range(10):
            if not rows[c][c]:
                continue
            inv = 1 / rows[c][c]
            rows[c] = [inv * x for x in rows[c]]
            for i in range(10):
                if i != c and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return time.perf_counter() - start


class SpeedSampler:
    """Times a pass and samples the machine's speed while it runs.

    Every ``SAMPLE_EVERY_S`` seconds a SIGALRM handler in this process times
    ``SAMPLE_UNITS`` units of calibration work, and once more when the pass
    ends.  The samples are spread evenly over the pass, so their mean is the
    pass's mean speed.  ``wall_s`` is the pass's wall time without the
    samples; ``reference_s`` is that time at the reference speed.
    """

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.start = time.perf_counter()
        return self

    def _sample(self, *_):
        self.samples.append(calibrate(SAMPLE_UNITS))

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self.start - sum(self.samples)
        self._sample()
        self.unit_s = statistics.mean(self.samples) / SAMPLE_UNITS
        self.reference_s = self.wall_s * REFERENCE_UNIT_S / self.unit_s


def main(request):
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]
    import tauslice  # noqa: F401  (part of the set-up being timed)
    import workloads

    if request["mode"] == "metamorphic":
        ops, too_small = workloads.metamorphic(request["smoke"])
        return {**summarize(ops), "field_too_small_F5": too_small}

    work = workloads.WORKLOADS[request["workload"]]()
    work.setup(request["seed"], request["smoke"])
    setup_s = time.perf_counter() - t0
    unit_s = calibrate(SETUP_UNITS) / SETUP_UNITS
    setup = {"setup_s": setup_s, "setup_reference_s": setup_s * REFERENCE_UNIT_S / unit_s}
    if request["mode"] == "setup":
        return setup

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with SpeedSampler() as sampler:
        ops = work.run()
    out = {
        **summarize(ops),
        **setup,
        "wall_s": sampler.wall_s,
        "reference_s": sampler.reference_s,
        "unit_s": sampler.unit_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = tracer.reduce()
        if request.get("spans_out"):
            tracer.write(request["spans_out"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
