"""Outside-in tracing of tauslice's five layers.

The tracer wraps each public function of ``exactlin``, ``algebra``,
``modrep``, ``artheory`` and ``tautilt``, plus the elimination methods of
``Matrix`` on the class itself.  The package's modules import each other
with ``from .x import y``, so a wrapper is rebound in every namespace that
binds the original, not only in the defining module.  No library file is
changed.

Spans are kept in memory as (name, start, end, parent) and reduced when the
run ends.  A span's self time is its duration minus the time its child
spans cover.  Work counts (``cells``, ``max_entry_bits``, ...) are taken
after the span has closed, so they add to the tracing overhead and not to
any span.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("exactlin", "algebra", "modrep", "artheory", "tautilt")

#: per-element helpers that cost about as much as a wrapper; tracing them
#: would mostly measure the tracer, so their time stays with their caller
UNTRACED = {
    "algebra": {"word_target", "word_key", "word_concat", "elt_iadd",
                "elt_scale", "elt_mul_free", "sum_mul"},
}

#: Matrix methods traced on the class, by the name the metrics use
MATRIX_METHODS = {
    "rref": "rref", "rank": "rank", "kernel_basis": "kernel_basis",
    "solve": "solve", "inverse": "inverse", "__matmul__": "matmul",
}


def entry_bits(x):
    """Bits of the larger of numerator and denominator (ints: denominator 1)."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = []
        self.counts = Counter()
        self.max_entry_bits = 0
        self._decomposed = set()

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and rebind every reference."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tauslice.{layer}")
            skip = UNTRACED.get(layer, set())
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn,
                                             self._after.get(f"{layer}.{attr}"))
        # the package binds by ``from .x import y``; so do the verify
        # script and the test-side oracles
        for ns in list(sys.modules.values()):
            for attr, value in list(getattr(ns, "__dict__", {}).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, attr, wrappers[value])

        from tauslice.exactlin import Matrix
        for method, label in MATRIX_METHODS.items():
            setattr(Matrix, method, self.wrap(f"exactlin.{label}", getattr(Matrix, method),
                                              self._after.get(f"exactlin.{label}")))

        from tauslice.artheory import ARQuiver
        add = ARQuiver.add
        counts = self.counts

        @functools.wraps(add)
        def counted_add(g, rep):
            ident, new = add(g, rep)
            if new:
                counts["artheory.ar_quiver.nodes"] += 1
            return ident, new

        ARQuiver.add = counted_add

    def wrap(self, name, fn, after=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            out = None
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                ends[idx] = clock()
                stack.pop()
                if after is not None:
                    after(self, args, out)

        return traced

    # -- counts taken after a span closes ------------------------------

    def _rref_done(self, args, out):
        m = args[0]
        self.counts["exactlin.rref.cells"] += m.nrows * m.ncols
        bits = self.max_entry_bits
        for mat in (m, out[0] if out else None):
            if mat is not None:
                for row in mat.rows:
                    for x in row:
                        if x:
                            b = entry_bits(x)
                            if b > bits:
                                bits = b
        self.max_entry_bits = bits

    def _decompose_done(self, args, out):
        m = args[0]
        if m in self._decomposed:
            self.counts["modrep.decompose.repeats"] += 1
        else:
            self._decomposed.add(m)

    def _is_tilted_done(self, args, out):
        if out is not None:
            self.counts["tautilt.is_tilted.explored"] += out.explored

    def _count_stt_done(self, args, out):
        if out is not None:
            self.counts["tautilt.count_support_tau_tilting.found"] += out

    _after = {
        "exactlin.rref": _rref_done,
        "modrep.decompose": _decompose_done,
        "tautilt.is_tilted": _is_tilted_done,
        "tautilt.count_support_tau_tilting": _count_stt_done,
    }

    # -- reduction -----------------------------------------------------

    def reduce(self):
        """Flat metrics: ``<layer>.<function>.{calls,self_s}``,
        ``<layer>.self_s`` and the work counts."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        covered = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        out = Counter()
        tested = 0
        for i, name in enumerate(names):
            own = ends[i] - starts[i] - covered[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
            p = parents[i]
            if (name == "tautilt.is_support_tau_tilting" and p >= 0
                    and names[p] == "tautilt.count_support_tau_tilting"):
                tested += 1
        out.update(self.counts)
        out["exactlin.rref.max_entry_bits"] = self.max_entry_bits
        decomposed = out["modrep.decompose.calls"]
        out["modrep.decompose.repeat_share"] = (
            self.counts["modrep.decompose.repeats"] / decomposed if decomposed else 0.0)
        # found / tested; the zero module is counted untested, once per call
        tested += out["tautilt.count_support_tau_tilting.calls"]
        out["tautilt.count_support_tau_tilting.yield"] = (
            self.counts["tautilt.count_support_tau_tilting.found"] / tested if tested else 0.0)
        out["trace.spans"] = len(names)
        return dict(out)

    def write(self, path):
        """Write the spans as tab-separated (name, start, end, parent) lines."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(f"{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n")
