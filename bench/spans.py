"""Per-layer tracing from outside the program.

``Tracer`` wraps the public functions of each hochcyc module (the
boundaries below) for the duration of a ``with`` block.  A module-level
function is replaced in every module that binds it, the benchmark's own
included; a method is replaced on its class.  Each call records one span
(boundary, parent span, start, end) in compact arrays; spans stay in memory
and are aggregated into per-layer metrics when the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array
from typing import NamedTuple


class Boundary(NamedTuple):
    layer: str          # module under hochcyc
    owner: str | None   # class name, or None for a module-level function
    attr: str
    label: str
    parent: bool        # calls other boundaries, so it also reports total_s


def _fn(layer, attr, parent=True):
    return Boundary(layer, None, attr, attr, parent)


def _method(layer, owner, attr, label, parent=False):
    return Boundary(layer, owner, attr, f"{owner}.{label}", parent)


BOUNDARIES = (
    _method("scalars", "Context", "mono_mul", "mono_mul"),
    _method("scalars", "Scalar", "__init__", "init"),
    _method("scalars", "Scalar", "__add__", "add"),
    _method("scalars", "Scalar", "degree_parity", "degree_parity"),
    _fn("graded", "rotate"),
    _fn("graded", "s_perm", parent=False),
    _method("graded", "Element", "__init__", "init", parent=True),
    _method("graded", "Word", "__init__", "init", parent=True),
    _fn("graded", "word_from_factors"),
    _fn("ainfty", "hat_basis"),
    _fn("ainfty", "combine_basis_images"),
    _fn("ainfty", "ainfty_residual"),
    _fn("complexes", "diff_basis"),
    _fn("complexes", "hoch_diff_word"),
    _fn("complexes", "connes_canonical"),
    _fn("complexes", "project"),
    _fn("complexes", "is_canonical_tuple"),
    _fn("complexes", "dsquare_sweep"),
    _fn("complexes", "t_lemma_check"),
    _fn("homology", "homology"),
    _fn("homology", "naive_oracle"),
    _fn("homology", "chain_basis"),
    _fn("homology", "boundary_matrix"),
    _fn("homology", "mat_mul", parent=False),
    _fn("homology", "row_reduce", parent=False),
    _fn("openclosed", "random_cyclic_p"),
    _method("openclosed", "OCFamily", "symmetrized", "symmetrized", parent=True),
    _method("openclosed", "OCFamily", "eval_word", "eval_word", parent=True),
    _fn("openclosed", "theorem1_rewrite_check"),
    _fn("openclosed", "theorem_rhs_rotations"),
    _fn("openclosed", "structure_rhs"),
    _fn("openclosed", "chain_map_residual"),
    _fn("cli", "main"),
    _fn("cli", "parse_instance"),
)

NAMES = tuple(f"{b.layer}.{b.label}" for b in BOUNDARIES)

# The end-to-end metric and workload each layer's numbers should move.
SHOULD_MOVE = {
    "scalars": "verdict_s on coderivation_complexes; Scalar.init on "
               "homology_openclosed",
    "graded": "verdict_s on coderivation_complexes and homology_openclosed",
    "ainfty": "verdict_s and peak_rss_mb on coderivation_complexes",
    "complexes": "verdict_s on coderivation_complexes and "
                 "homology_openclosed",
    "homology": "verdict_s on homology_openclosed",
    "openclosed": "setup_s and verdict_s on homology_openclosed",
    "cli": "verdict_s and setup_s on homology_openclosed",
}


# Boundaries whose arguments or results feed a counter in Tracer._count.
_COUNTED = frozenset({"hat_basis", "diff_basis", "chain_basis",
                      "combine_basis_images", "is_canonical_tuple",
                      "boundary_matrix", "mat_mul"})

RATIOS = ("reuse", "kept_ratio", "density")


def unit_of(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    return "ratio" if field in RATIOS else "count"


class _Distinct:
    """Counts distinct (owner object, key) pairs without keeping owners
    alive, so an id reused after an algebra is freed is not a repeat."""

    def __init__(self):
        self.count = 0
        self._seen = weakref.WeakKeyDictionary()

    def add(self, owner, key) -> None:
        seen = self._seen.setdefault(owner, set())
        if key not in seen:
            seen.add(key)
            self.count += 1


class Tracer:
    def __init__(self):
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.hat_distinct = _Distinct()
        self.diff_distinct = _Distinct()
        self.chain_distinct = _Distinct()
        self.terms_out = 0
        self.canonical_kept = 0
        self.matrix_cells = 0
        self.matrix_nnz = 0
        self.dense_mults = 0

    # -- counters recorded at the boundaries --------------------------------

    def _count(self, label, args, kwargs, result) -> None:
        if label == "hat_basis":
            self.hat_distinct.add(args[0], args[1])
        elif label == "diff_basis":
            self.diff_distinct.add(args[0], args[1])
        elif label == "chain_basis":
            self.chain_distinct.add(
                args[0], (args[1:], tuple(sorted(kwargs.items()))))
        elif label == "combine_basis_images":
            self.terms_out += sum(len(s.terms) for s in result.terms.values())
        elif label == "is_canonical_tuple":
            self.canonical_kept += bool(result)
        elif label == "boundary_matrix":
            rows, dom, _ = result
            self.matrix_cells += len(rows) * len(dom)
            self.matrix_nnz += sum(1 for row in rows for x in row if x)
        elif label == "mat_mul":
            a, b = args
            if a and b:
                self.dense_mults += len(a) * len(b) * len(b[0])

    # -- installing and removing the wrappers --------------------------------

    def _wrap(self, nid: int, fn, label: str):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        count = self._count if label in _COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(label, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for nid, b in enumerate(BOUNDARIES):
            module = importlib.import_module(f"hochcyc.{b.layer}")
            if b.owner is not None:
                cls = getattr(module, b.owner)
                self._patch(cls, b.attr,
                            self._wrap(nid, cls.__dict__[b.attr], b.label))
                continue
            original = getattr(module, b.attr)
            wrapper = self._wrap(nid, original, b.label)
            for mod in list(sys.modules.values()):
                for attr, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(BOUNDARIES)
        calls = [0] * n
        total = [0.0] * n
        self_s = [0.0] * n
        names, parents = self.span_name, self.span_parent
        durations = array("d", (e - s for s, e in
                                zip(self.span_start, self.span_end)))
        covered = array("d", bytes(8 * len(durations)))
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += durations[i]
        homology_id = NAMES.index("homology.homology")
        oracle_id = NAMES.index("homology.naive_oracle")
        row_reduce_id = NAMES.index("homology.row_reduce")
        engine_rr = oracle_rr = 0.0
        # Replay the span tree in start order: `path` is the chain of open
        # ancestors, `open_` counts them per boundary, so a recursive call is
        # not counted twice in total_s.
        open_ = [0] * n
        path: list[int] = []
        for i, nid in enumerate(names):
            p = parents[i]
            while path and path[-1] != p:
                open_[names[path.pop()]] -= 1
            own = durations[i] - covered[i]
            calls[nid] += 1
            self_s[nid] += own
            if not open_[nid]:
                total[nid] += durations[i]
            if nid == row_reduce_id:
                if open_[homology_id]:
                    engine_rr += own
                elif open_[oracle_id]:
                    oracle_rr += own
            open_[nid] += 1
            path.append(i)

        out: dict[str, float] = {}
        for nid, b in enumerate(BOUNDARIES):
            out[f"{NAMES[nid]}.calls"] = calls[nid]
            out[f"{NAMES[nid]}.self_s"] = self_s[nid]
            if b.parent:
                out[f"{NAMES[nid]}.total_s"] = total[nid]

        def count_of(name):
            return calls[NAMES.index(name)]

        hat_calls = count_of("ainfty.hat_basis")
        canon_calls = count_of("complexes.is_canonical_tuple")
        out.update({
            "ainfty.hat_basis.distinct": self.hat_distinct.count,
            "ainfty.hat_basis.reuse": (1 - self.hat_distinct.count / hat_calls
                                       if hat_calls else 0.0),
            "ainfty.combine_basis_images.terms_out": self.terms_out,
            "complexes.diff_basis.distinct": self.diff_distinct.count,
            "complexes.is_canonical_tuple.kept_ratio": (
                self.canonical_kept / canon_calls if canon_calls else 0.0),
            "homology.chain_basis.distinct": self.chain_distinct.count,
            "homology.boundary_matrix.cells": self.matrix_cells,
            "homology.boundary_matrix.nnz": self.matrix_nnz,
            "homology.boundary_matrix.density": (
                self.matrix_nnz / self.matrix_cells
                if self.matrix_cells else 0.0),
            "homology.mat_mul.dense_mults": self.dense_mults,
            "homology.row_reduce.engine_self_s": engine_rr,
            "homology.row_reduce.oracle_self_s": oracle_rr,
        })
        return out

