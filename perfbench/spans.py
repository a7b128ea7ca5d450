"""Outside-in span recorder for hklat.

The recorder wraps public functions of each hklat layer from outside the
package.  Modules import names directly (``from .exact import det_exact``),
so each function is replaced in every loaded ``hklat.*`` namespace that
bound it; local imports inside function bodies read the module attribute at
call time and so see the wrapper too.  Three methods of
``FiniteQuadraticForm`` are patched on the class.

Spans (name, start, end, parent, op) are kept in flat in-memory arrays and
written out by ``dump``.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over the
spans of its functions, so time in unwrapped helpers is charged to the
nearest wrapped caller.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import Counter

# Layer (module) -> public callables to wrap.  "Class.method" entries are
# patched on the class.
TRACED = {
    "exact": ("det_exact", "smith_normal_form", "signature_of_symmetric"),
    "lattices": ("parse_expr", "realize", "lattice_from_json", "discriminant_data"),
    "fqf": (
        "FiniteQuadraticForm.__init__",
        "FiniteQuadraticForm.dsum",
        "FiniteQuadraticForm.value_counts",
        "gauss_signature",
        "delta_invariant",
        "form_invariants",
        "forms_isomorphic",
        "even_lattice_exists_report",
    ),
    "classify": (
        "invariants_of",
        "embed_in_L",
        "recognize",
        "indefinite_p_elementary_exists",
        "p_elementary_form_for_signature",
        "genus_unique",
    ),
    "tables": (
        "enumerate_triples",
        "table_markdown",
        "table_csv",
        "table_json",
        "all_tables_markdown",
        "all_tables_csv",
        "all_tables_json",
    ),
    "involutions": (
        "two_elementary_exists",
        "has_value_three_halves",
        "classify_involution_embeddings",
        "figure_points",
        "figure_points_json",
        "figure_points_text",
    ),
    "fixedlocus": (
        "k3_fixed_locus_from_json",
        "hilb2_census",
        "cross_check_totals",
        "enumerate_local_actions",
    ),
    "cli": ("main",),
}

LAYERS = tuple(TRACED)
_RAISED = object()


def span_name(layer: str, target: str) -> str:
    attr = target.rsplit(".", 1)[-1]
    return f"{layer}.{'form_init' if attr == '__init__' else attr}"


def _exists_reason(args, result):
    if result is _RAISED or result[0]:
        return None
    return result[1].split(":")[0]  # "E3:p=3" -> "E3"


# Span name -> payload(args, result) kept for the derived counters.
_PAYLOAD = {
    "fqf.value_counts": lambda args, result: args[0].order,
    "fqf.even_lattice_exists_report": _exists_reason,
    "fqf.forms_isomorphic": lambda args, result: result is True,
}


class Recorder:
    """Records spans around the traced hklat callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self.name_ix = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op_ix = array.array("i")
        self.payload: dict[int, object] = {}
        self.op = -1  # operation index stamped on new spans
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable in all loaded hklat namespaces."""
        import hklat  # noqa: F401  (imports every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hklat" or n.startswith("hklat."))]
        for layer, targets in TRACED.items():
            home = sys.modules[f"hklat.{layer}"]
            for target in targets:
                name = span_name(layer, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(home, cls_name, None)
                    fn = vars(cls).get(attr) if cls is not None else None
                    if fn is None:
                        self.missing.append(name)
                        continue
                    self._patch(cls, attr, self._wrap(name, fn))
                    continue
                fn = getattr(home, target, None)
                if fn is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        payload_of = _PAYLOAD.get(name)
        name_ix, start, end, parent, op_ix = (
            self.name_ix, self.start, self.end, self.parent, self.op_ix)
        payload, stack, clock = self.payload, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ix = len(start)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_ix.append(self.op)
            end.append(0.0)
            stack.append(ix)
            result = _RAISED
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[ix] = clock()
                stack.pop()
                if payload_of is not None:
                    payload[ix] = payload_of(args, result)

        return wrapper

    # -- persistence ---------------------------------------------------------

    _ARRAYS = ("name_ix", "start", "end", "parent", "op_ix")

    def dump(self, path: str) -> None:
        """Write a JSON header line, then the span arrays as raw machine values."""
        header = {
            "names": self.names,
            "missing": self.missing,
            "spans": len(self),
            "payload": {str(k): v for k, v in self.payload.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for attr in self._ARRAYS:
                getattr(self, attr).tofile(fh)

    @classmethod
    def load(cls, path: str) -> "Recorder":
        rec = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            rec.names = header["names"]
            rec.missing = header["missing"]
            rec.payload = {int(k): v for k, v in header["payload"].items()}
            for attr in cls._ARRAYS:
                getattr(rec, attr).fromfile(fh, header["spans"])
        return rec

    # -- aggregation ---------------------------------------------------------

    def totals(self, skip_ops=()) -> "Totals":
        """Calls, self time and derived counters over spans of ops not skipped."""
        n = len(self)
        skip = set(skip_ops)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = Totals()
        recognize_id = self.names.index("classify.recognize") \
            if "classify.recognize" in self.names else -1
        for i in range(n):
            if self.op_ix[i] in skip:
                continue
            name = self.names[self.name_ix[i]]
            out.calls[name] += 1
            out.self_s[name] += dur[i] - child[i]
            value = self.payload.get(i)
            if name == "fqf.value_counts":
                out.counts["fqf.value_counts.elements"] += value
            elif name == "fqf.even_lattice_exists_report" and value:
                out.counts[f"fqf.exists.reject.{value}"] += 1
            elif name == "fqf.forms_isomorphic" and self._under(i, recognize_id):
                out.counts["classify.recognize.iso_tests"] += 1
                out.counts["classify.recognize.iso_hits"] += bool(value)
        out.missing = list(self.missing)
        return out

    def _under(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_ix[p] == nid:
                return True
            p = self.parent[p]
        return False


class Totals:
    """Additive span totals; several recorders (one per child process) sum."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def add(self, other: "Totals") -> None:
        self.calls.update(other.calls)
        self.self_s.update(other.self_s)
        self.counts.update(other.counts)
        self.missing = sorted(set(self.missing) | set(other.missing))

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return out
