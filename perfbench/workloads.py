"""The four benchmark workloads and the field metamorphic check.

Runs inside a fresh worker process (see ``worker.py``).  Every workload has
the same two steps: ``setup`` imports tauslice and loads the workload's
fixtures (this is what ``setup_s`` times), and ``run`` does one pass and
returns its operations as ``(label, ok, result_text)`` tuples.  ``ok`` is
judged against evidence that does not come from the engine's own output:
the definition-level recount for support tau-tilting counts, the
representation-infinite type of fig2 for the AR closures, and the
cross-checks of ``scripts/verify_worked_examples.py``.
"""

import contextlib
import io
import random

#: support tau-tilting counts, agreeing with
#: ``tests/properties.recount_definition_level``
STT_EXPECTED = {"a2": 5, "a3": 14, "ex1": 24, "ex2": 55}

#: AR-quiver sizes over Q of the representation-finite fixtures
AR_SIZES = {
    "a2": 3, "a3": 6, "ex1": 12, "ex2": 13, "fig1": 14, "fig3": 12,
    "ex5_tilde": 12, "ex5_a": 9, "ex5_aprime": 6, "ex5_c": 8,
}

#: cap on the fig2 AR closure; fig2 is representation-infinite, so the
#: closure must end in CapExceeded at the cap
CLOSURE_CAP = {"Q": 24, "F5": 32}
SMOKE_CAP = 8


def load(name, field=None):
    """Fixture algebra ``name``, over its own field or over ``field``."""
    from tauslice import fixtures
    from tauslice.cli import parse_algebra_text

    return parse_algebra_text(fixtures.path(f"{name}.alg").read_text(), field)


def field_of(spec):
    from tauslice.cli import field_from_spec

    return None if spec == "Q" else field_from_spec(spec)


# ---------------------------------------------------------------------------
# worked_examples: every section of scripts/verify_worked_examples.py


class WorkedExamples:
    """Runs the verify script's sections in a seeded order, in-process.

    Sections share one dict of fixture algebras, as in the script, so the
    order decides which calls find warm caches.  Each ``[ok]``/``[FAIL]``
    line is one operation, and so is each section's completion: it fails
    when the section raises.
    """

    smoke_sections = ["ex1"]

    def setup(self, seed, smoke):
        import verify_worked_examples as script
        from tauslice import fixtures

        self.script = script
        self.algebras = {n: fixtures.algebra(n) for n in fixtures.ALGEBRAS}
        names = self.smoke_sections if smoke else sorted(script.SECTIONS)
        self.order = random.Random(seed).sample(names, len(names))

    def run(self):
        ops = []
        for section in self.order:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    self.script.SECTIONS[section](self.algebras)
                    error = None
                except Exception as exc:  # a crashed section is a failure
                    error = f"{type(exc).__name__}: {exc}"
            text = out.getvalue()
            for line in text.splitlines():
                line = line.strip()
                if line.startswith("[ok] ") or line.startswith("[FAIL] "):
                    ok = line.startswith("[ok] ")
                    ops.append((f"{section}: {line.split(' ', 1)[1]}", ok, ""))
            # the printed values are the section's result
            ops.append((f"{section}: completes", error is None, error or text))
        return ops


# ---------------------------------------------------------------------------
# stt_count: brute-force support tau-tilting counts


class SttCount:
    names = ["a3", "ex1"]
    smoke_names = ["a2", "a3"]

    def setup(self, seed, smoke):
        names = self.smoke_names if smoke else self.names
        order = random.Random(seed).sample(names, len(names))
        self.algebras = [(n, load(n)) for n in order]

    def run(self):
        from tauslice import count_support_tau_tilting

        ops = []
        for name, a in self.algebras:
            got = count_support_tau_tilting(a)
            ops.append((f"count {name}", got == STT_EXPECTED[name], str(got)))
        return ops


# ---------------------------------------------------------------------------
# ar_closure_q / ar_closure_fp: AR closure of representation-infinite fig2


class ArClosure:
    def __init__(self, field):
        self.field = field

    def setup(self, seed, smoke):
        self.cap = SMOKE_CAP if smoke else CLOSURE_CAP[self.field]
        self.algebra = load("fig2", field_of(self.field))

    def run(self):
        from tauslice import CapExceeded, ar_quiver

        label = f"ar_quiver fig2 over {self.field}, max_nodes={self.cap}"
        try:
            g = ar_quiver(self.algebra, max_nodes=self.cap)
            return [(label, False, f"closed with {g.count} nodes")]
        except CapExceeded as exc:
            return [(label, True, f"CapExceeded: {exc}")]


WORKLOADS = {
    "worked_examples": WorkedExamples,
    "stt_count": SttCount,
    "ar_closure_q": lambda: ArClosure("Q"),
    "ar_closure_fp": lambda: ArClosure("F5"),
}


# ---------------------------------------------------------------------------
# field metamorphic check (untimed)


def metamorphic(smoke):
    """AR-quiver sizes over Q and F5 against the reference sizes.

    Also tries the support tau-tilting counts over F5 of the fixtures whose
    counts are known.  A count that raises ``FieldTooSmall`` is a known
    defect of the trace-form radical in small characteristic: it is
    reported, not counted as a failure.  A count that completes must match.
    Returns ``(ops, field_too_small)``.
    """
    from tauslice import ar_quiver, count_support_tau_tilting
    from tauslice.algebra import FieldTooSmall

    names = ["a2", "a3"] if smoke else sorted(AR_SIZES)
    ops = []
    for spec in ("Q", "F5"):
        for name in names:
            n = ar_quiver(load(name, field_of(spec))).count
            ops.append((f"ar_quiver {name} over {spec}", n == AR_SIZES[name], str(n)))
    too_small = []
    for name in sorted(STT_EXPECTED):
        if smoke and name not in names:
            continue
        try:
            got = count_support_tau_tilting(load(name, field_of("F5")))
        except FieldTooSmall:
            too_small.append(name)
            continue
        ops.append((f"count {name} over F5", got == STT_EXPECTED[name], str(got)))
    return ops, too_small
