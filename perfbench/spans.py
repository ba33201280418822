"""Span recorder for the traced benchmark run.

The recorder wraps public functions at the boundaries between charid's
modules.  Each name is patched where it is looked up: a function that
``charid.verify`` imported from ``charident`` is replaced in the
``charid.verify`` namespace, so calls inside its own module stay
unwrapped and the span's layer is the module that defines the function.
Methods are patched on their class.

A layer's self time is the duration of its spans minus the time covered by
the spans they caused.  Ordinary boundaries keep one span per call in
memory; very hot ones (``GTPattern.shifted``, ``max_abs``, the exact
coefficient helpers) only aggregate their count and times.  The time the
recorder spends in its own bookkeeping after a call is charged to no
layer.  ``GTPattern.row`` and ``label`` are left unwrapped: they are
attribute reads, and their time counts in the calling layer.

Floating-point work (``gflop``) and operator bytes are computed from the
operand shapes and the call structure of the wrapped function, not counted
by hardware.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict

SUITES = ("relations", "identity", "projectors", "invariants", "melcross", "super")


def _storage(matrix) -> tuple[int, int, int]:
    """(bytes, stored entries, nonzero entries) of a dense or CSR-like matrix."""
    import numpy as np

    if hasattr(matrix, "indptr"):
        data = matrix.data
        return (data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes,
                data.size, int(np.count_nonzero(data)))
    array = np.asarray(matrix)
    return array.nbytes, array.size, int(np.count_nonzero(array))


def _operator_bytes(value) -> int:
    """Bytes of every matrix reachable from a charident result."""
    if hasattr(value, "shape") and hasattr(value, "dtype") or hasattr(value, "indptr"):
        return _storage(value)[0]
    if isinstance(value, (tuple, list)):
        return sum(_operator_bytes(item) for item in value)
    fields = getattr(value, "__dataclass_fields__", None)
    if fields:
        return sum(_operator_bytes(getattr(value, name)) for name in fields)
    return 0


def _dim(matrix) -> int:
    return int(matrix.shape[0])


# Counters updated after a wrapped call: fn(recorder, args, kwargs, result).

def _on_commutator(rec, args, kwargs, result):
    n = _dim(args[0])
    rec.count("kernel.commutator_calls")
    rec.count("kernel.gflop_computed", 4.0 * n ** 3 / 1e9)


def _on_matrix_power(rec, args, kwargs, result):
    n = _dim(args[0])
    rec.count("kernel.gflop_computed", 2.0 * args[1] * n ** 3 / 1e9)


def _on_build(rec, args, kwargs, result):
    rep = args[0]
    rec.count("glrep.builds")
    for i, j in rep.generator_labels():
        nbytes, stored, nonzero = _storage(rep.gen(i, j))
        rec.count("glrep.gen_bytes", nbytes)
        rec.count("glrep.gen_stored", stored)
        rec.count("glrep.gen_nonzero", nonzero)


def _on_enumerate(rec, args, kwargs, result):
    rec.count("gtbasis.patterns", len(result))


def _charident_bytes(rec, result):
    rec.count("charident.operator_bytes", _operator_bytes(result))


def _charident_flops(rec, flops):
    rec.count("charident.gflop_computed", flops / 1e9)


def _on_char_matrix(rec, args, kwargs, result):
    _charident_bytes(rec, result)


def _on_identity(rec, args, kwargs, result):
    cm, spectrum = args[0], args[1]
    size = _dim(cm.big)
    products = len({root.value for root in spectrum})
    if cm.kind == "A" and len(cm.weight) == 2:
        products += 2
    _charident_flops(rec, 2.0 * products * size ** 3)


def _on_projector(rec, args, kwargs, result):
    cm, spectrum = args[0], tuple(args[1])
    size = _dim(cm.big)
    present = sum(1 for root in spectrum if root.multiplicity > 0)
    if result.root.multiplicity > 0:
        _charident_flops(rec, 2.0 * (present - 1) * size ** 3)
    _charident_bytes(rec, result)


def _on_restricted(rec, args, kwargs, result):
    level = args[1]
    _charident_flops(rec, 2.0 * (level - 1) * _dim(result) ** 3)
    _charident_bytes(rec, result)


def _on_shift(rec, args, kwargs, result):
    rep = args[0]
    n, d = rep.N - 1, rep.dim
    projector_flops = 2 * 2.0 * (n - 1) * (n * d) ** 3
    contraction_flops = 2 * n * n * 2.0 * d ** 3
    _charident_flops(rec, projector_flops + contraction_flops)
    _charident_bytes(rec, result)
    rec.count("charident.operator_bytes", 2 * 8 * (n * d) ** 2)


def _on_run_suite(rec, args, kwargs, result):
    rec.count("verify.checks", len(result.checks))
    rec.count("verify.checks_failed", sum(1 for c in result.checks if not c.passed))


# Patch table: (module, attribute or "Class.method", layer, hot, counter).
# The module is where the name is looked up; the layer is where it is defined.
PATCHES = (
    ("cli", "main", "cli", False, None),
    ("cli", "to_rational", "kernel", True, None),
    ("cli", "char_roots", "charident", False, None),
    ("cli", "run_suite", "verify", False, _on_run_suite),
    ("cli", "classify_type1_star", "superglmn", False, None),
    ("cli", "super_char_roots", "superglmn", False, None),
    ("cli", "super_vector_weight", "superglmn", False, None),
    ("cli", "vector_rep", "superglmn", False, None),
    ("gtbasis", "pattern_weight", "gtbasis", True, None),  # cli imports it late
    ("glrep", "Representation.__init__", "glrep", False, _on_build),
    ("gtbasis", "GTPattern.shifted", "gtbasis", True, None),
    ("gtbasis", "GTPattern.shifted_many", "gtbasis", True, None),
    ("kernel", "Surd.__str__", "kernel", True, None),
    ("kernel", "Surd.__float__", "kernel", True, None),
    ("verify", "suite_relations", "verify", False, None),
    ("verify", "suite_identity", "verify", False, None),
    ("verify", "suite_projectors", "verify", False, None),
    ("verify", "suite_invariants", "verify", False, None),
    ("verify", "suite_melcross", "verify", False, None),
    ("verify", "suite_super", "verify", False, None),
    ("verify", "commutator", "kernel", True, _on_commutator),
    ("verify", "max_abs", "kernel", True, None),
    ("verify", "branch", "gtbasis", False, None),
    ("verify", "format_weight", "gtbasis", True, None),
    ("verify", "nonelementary_coefficient", "glrep", True, None),
    ("verify", "build_char_matrix", "charident", False, _on_char_matrix),
    ("verify", "char_roots", "charident", False, None),
    ("verify", "build_projector", "charident", False, _on_projector),
    ("verify", "cbar_diagonal", "charident", False, None),
    ("verify", "elementary_square_from_invariants", "charident", True, None),
    ("verify", "invariant_C_eigenvalue", "charident", True, None),
    ("verify", "norm_invariant_diagonals", "charident", False, None),
    ("verify", "restricted_projector", "charident", False, _on_restricted),
    ("verify", "shift_components", "charident", False, _on_shift),
    ("verify", "verify_identity", "charident", False, _on_identity),
    ("verify", "super_vector_weight", "superglmn", False, None),
    ("verify", "verify_super_identity", "superglmn", False, None),
    ("verify", "vector_rep_relations_hold", "superglmn", False, None),
    ("glrep", "commutator", "kernel", True, _on_commutator),
    ("glrep", "freeze", "kernel", True, None),
    ("glrep", "matrix_power", "kernel", False, _on_matrix_power),
    ("glrep", "partial_trace_block", "kernel", False, None),
    ("glrep", "max_abs", "kernel", True, None),
    ("glrep", "rationalize", "kernel", True, None),
    ("glrep", "check_highest_weight", "gtbasis", True, None),
    ("glrep", "enumerate_patterns", "gtbasis", False, _on_enumerate),
    ("glrep", "pattern_ordinals", "gtbasis", False, None),
    ("glrep", "pattern_weight", "gtbasis", True, None),
    ("glrep", "weight", "gtbasis", True, None),
    ("charident", "max_abs", "kernel", True, None),
    ("charident", "gl_block_matrix", "glrep", False, None),
    ("charident", "casimir_eigenvalue_formula", "glrep", True, None),
    ("charident", "_cancelled_ratio", "glrep", True, None),
    ("charident", "check_highest_weight", "gtbasis", True, None),
    ("charident", "dimension", "gtbasis", True, None),
    ("charident", "is_dominant", "gtbasis", True, None),
    ("charident", "pattern_weight", "gtbasis", True, None),
    ("charident", "rows_interlace", "gtbasis", True, None),
    ("charident", "weight", "gtbasis", True, None),
    ("superglmn", "max_abs", "kernel", True, None),
    ("superglmn", "to_rational", "kernel", True, None),
)

# Inclusive-time groups reported for the charident layer.
CHARIDENT_GROUPS = {
    "char_matrix_ms": ("charident.build_char_matrix",),
    "identity_ms": ("charident.verify_identity",),
    "projector_ms": ("charident.build_projector", "charident.restricted_projector"),
    "shift_ms": ("charident.shift_components",),
    "closed_form_ms": ("charident.char_roots", "charident.cbar_diagonal",
                       "charident.elementary_square_from_invariants",
                       "charident.invariant_C_eigenvalue",
                       "charident.norm_invariant_diagonals"),
}


class SpanRecorder:
    """Keeps spans and per-name aggregates in memory while patches are active."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, job, name, layer, start, end, self)
        self.stack: list[list] = []    # [span id, start, time covered by children]
        self.names: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0
        self.job = None
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, fn, name: str, layer: str, hot: bool, counter):
        perf = time.perf_counter
        stack = self.stack
        names = self.names
        layer_self = self.layer_self
        layer_calls = self.layer_calls
        spans = self.spans
        ids = self._ids
        recorder = self

        def traced(*args, **kwargs):
            start = perf()
            # A hot call keeps no span; what it causes hangs off its caller's.
            span_id = (stack[-1][0] if stack else None) if hot else next(ids)
            frame = [span_id, start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                entry = names[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                layer_self[layer] += own
                layer_calls[layer] += 1
                if not hot:
                    parent = stack[-1][0] if stack else None
                    spans.append((span_id, parent, recorder.job, name, layer, start, end, own))
            if counter is not None:
                counter(recorder, args, kwargs, result)
                spent = perf() - end
                recorder.bookkeeping_s += spent
                if stack:
                    stack[-1][2] += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package) -> None:
        """Apply every patch in PATCHES to the imported charid package."""
        import importlib

        for module_name, attr, layer, hot, counter in PATCHES:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            owner = module
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            leaf = parts[-1]
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(original, f"{layer}.{attr}", layer, hot, counter))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def dump(self, path: str) -> None:
        """Write the recorded spans and aggregates as JSON."""
        keys = ("id", "parent", "job", "name", "layer", "start", "end", "self")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": [dict(zip(keys, span)) for span in self.spans],
                "names": {name: {"calls": c, "incl_s": i, "self_s": s}
                          for name, (c, i, s) in sorted(self.names.items())},
                "counters": dict(self.counters),
            }, handle)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each divided by the number of traced passes."""
        per = 1.0 / passes
        ms = 1000.0 * per
        out: dict[str, float] = {}
        c = self.counters
        out["gtbasis.self_ms"] = self.layer_self["gtbasis"] * ms
        out["gtbasis.calls"] = self.layer_calls["gtbasis"] * per
        out["gtbasis.patterns"] = c["gtbasis.patterns"] * per
        out["glrep.self_ms"] = self.layer_self["glrep"] * ms
        out["glrep.builds"] = c["glrep.builds"] * per
        out["glrep.gen_mb"] = c["glrep.gen_bytes"] / 2 ** 20 * per
        out["glrep.gen_density"] = (c["glrep.gen_nonzero"] / c["glrep.gen_stored"]
                                    if c["glrep.gen_stored"] else 0.0)
        out["kernel.self_ms"] = self.layer_self["kernel"] * ms
        out["kernel.commutator_calls"] = c["kernel.commutator_calls"] * per
        out["kernel.gflop_computed"] = c["kernel.gflop_computed"] * per
        out["charident.self_ms"] = self.layer_self["charident"] * ms
        for group, members in CHARIDENT_GROUPS.items():
            out[f"charident.{group}"] = sum(self.names[m][1] for m in members) * ms
        out["charident.gflop_computed"] = c["charident.gflop_computed"] * per
        out["charident.operator_mb"] = c["charident.operator_bytes"] / 2 ** 20 * per
        out["superglmn.self_ms"] = self.layer_self["superglmn"] * ms
        out["superglmn.calls"] = self.layer_calls["superglmn"] * per
        out["verify.self_ms"] = self.layer_self["verify"] * ms
        for suite in SUITES:
            out[f"verify.{suite}.self_ms"] = self.names[f"verify.suite_{suite}"][2] * ms
        out["verify.checks"] = c["verify.checks"] * per
        out["verify.checks_failed"] = c["verify.checks_failed"] * per
        out["cli.self_ms"] = self.layer_self["cli"] * ms
        return out
