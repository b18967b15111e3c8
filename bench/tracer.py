"""Benchmark-side tracing of the program's layers, from outside.

Wrappers are installed around public entry points of each layer:

* spans (name, start, end, parent, request) around calls whose self time
  matters, kept in memory and written out when the run ends;
* bare counters around calls too frequent for a span (scalar arithmetic,
  group actions);
* ``lru_cache`` statistics, read with ``cache_info()`` before and after.

A module-level function is replaced in every ``metabelian`` module that
binds it, because callers import functions by name (``invariants`` takes
``reynolds_*`` from ``dihedral``, ``cli`` takes the drivers and the
expression functions) and ``expr.eval_assoc`` recurses through its own
module global.  Methods are replaced on their class.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# Benchmark-side work done while tracing (coefficient size scans); its
# own span keeps it out of the self time of the layers around it.
SCAN_SPAN = "bench.scan"

# (module, attribute) of the lru caches whose hit ratios are reported.
CACHES = {
    "assoc.mono_times_u": ("metabelian.assoc", "_mono_times_u"),
    "dihedral.rotation_scalar": ("metabelian.dihedral", "rotation_scalar"),
    "dihedral.swap_straighten": ("metabelian.dihedral", "_swap_straighten"),
    "invariants.invariant_rows_assoc": ("metabelian.invariants", "_invariant_rows_assoc"),
    "invariants.invariant_rows_lie": ("metabelian.invariants", "_invariant_rows_lie"),
}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children.

    ``spans`` is a sequence of (name, start, end, parent, request) with
    ``parent`` the index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _row_bits(row) -> int:
    """Largest numerator or denominator bit length in a sparse row."""
    best = 0
    for value in row.values():
        for q in value.coeffs.values():
            b = q.numerator.bit_length()
            if b > best:
                best = b
            b = q.denominator.bit_length()
            if b > best:
                best = b
    return best


class Tracer:
    """Installs the layer wrappers into the imported program and records."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self.counts: Counter = Counter()
        self.bits_max = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._cells: dict[str, list[int]] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- wrapper factories ---------------------------------------------

    def _cell(self, name: str) -> list[int]:
        return self._cells.setdefault(name, [0])

    def _spanned(self, name: str, fn, after=None):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1], tracer.request)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        cell = self._cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _scan(self, rows) -> None:
        """Record the coefficient size of rows under its own span."""
        idx = len(self.spans)
        self.spans.append(None)
        start = perf_counter()
        for row in rows:
            b = _row_bits(row)
            if b > self.bits_max:
                self.bits_max = b
        self.spans[idx] = (SCAN_SPAN, start, perf_counter(), self._stack[-1], self.request)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, fn, wrapper) -> None:
        """Rebind ``fn`` to ``wrapper`` wherever a program module binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "metabelian" or mod_name.startswith("metabelian.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        from metabelian import assoc, cli, cyclo, dihedral, expr, invariants, lie, linalg, poly

        CycNum = cyclo.CycNum

        # cyclo: counts only
        mul_calls, mul_rational = self._cell("cyclo.mul.calls"), self._cell("cyclo.mul.rational")
        orig_mul = CycNum.__mul__

        def _is_rational(x) -> bool:
            if isinstance(x, CycNum):
                c = x.coeffs
                return not c or (len(c) == 1 and 0 in c)
            return isinstance(x, (int, Fraction))

        def cyc_mul(a, b):
            mul_calls[0] += 1
            if _is_rational(a) or _is_rational(b):
                mul_rational[0] += 1
            return orig_mul(a, b)

        self._set(CycNum, "__mul__", cyc_mul)
        self._set(CycNum, "__rmul__", cyc_mul)
        cyc_add = self._counted("cyclo.add.calls", CycNum.__add__)
        self._set(CycNum, "__add__", cyc_add)
        self._set(CycNum, "__radd__", cyc_add)
        self._set(CycNum, "inv", self._counted("cyclo.inv.calls", CycNum.inv))

        # poly
        pairs = self._cell("poly.mul.term_pairs")
        orig_pmul = poly.CommPoly.__mul__

        def pmul(a, b):
            pairs[0] += len(a.terms) * len(b.terms)
            return orig_pmul(a, b)

        self._set(poly.CommPoly, "__mul__", self._spanned("poly.mul", pmul))
        self._set(poly.CommPoly, "__add__", self._counted("poly.add.calls", poly.CommPoly.__add__))

        # assoc
        Assoc = assoc.MetAssocElem
        self._set(Assoc, "__mul__", self._spanned("assoc.mul", Assoc.__mul__))
        self._set(Assoc, "__pow__", self._counted("assoc.pow.calls", Assoc.__pow__))

        # lie: every MetLieElem arithmetic method is one span name
        for attr in ("__add__", "__sub__", "__neg__", "scale", "bracket", "module_action"):
            self._set(lie.MetLieElem, attr, self._spanned("lie.ops", getattr(lie.MetLieElem, attr)))

        # dihedral
        nonzero = self._cell("dihedral.reynolds.nonzero")

        def _count_nonzero(args, result):
            if not result.is_zero():
                nonzero[0] += 1

        for fn in (dihedral.reynolds_assoc, dihedral.reynolds_lie, dihedral.reynolds_uv, dihedral.reynolds_tensor):
            self._replace_function(fn, self._spanned("dihedral.reynolds", fn, _count_nonzero))
        for fn in (dihedral.act_assoc, dihedral.act_lie, dihedral.act_uv, dihedral.act_tensor):
            self._replace_function(fn, self._counted("dihedral.act.calls", fn))

        # linalg
        kept = self._cell("linalg.insert.kept")

        def _count_kept(args, enlarged):
            if enlarged:
                kept[0] += 1

        orig_rows = linalg.RowEchelon.rows
        spanned_insert = self._spanned("linalg.insert", linalg.RowEchelon.insert, _count_kept)

        def insert(ech, row):
            self._scan((row,))
            return spanned_insert(ech, row)

        def rows(ech):
            out = orig_rows(ech)
            self._scan(out)
            return out

        self._set(linalg.RowEchelon, "insert", insert)
        self._set(linalg.RowEchelon, "rows", rows)

        # invariants drivers
        for name in ("subalgebra_filtration", "lie_suite", "module_span_check"):
            fn = getattr(invariants, name)
            self._replace_function(fn, self._spanned(f"invariants.{name}", fn))

        # expr
        in_bytes = self._cell("expr.input_bytes")

        def _count_bytes(args, result):
            in_bytes[0] += len(args[0].encode("utf-8"))

        self._replace_function(expr.parse, self._spanned("expr.parse", expr.parse, _count_bytes))
        for name in ("eval_assoc", "to_xy", "print_elem"):
            fn = getattr(expr, name)
            self._replace_function(fn, self._spanned(f"expr.{name}", fn))

        # cli
        self._replace_function(cli.main, self._spanned("cli.main", cli.main))

        self._cache_start = self._cache_counts()

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        for name, (hits, misses) in self._cache_counts().items():
            h0, m0 = self._cache_start.get(name, (0, 0))
            self.counts[f"cache.{name}.hits"] += hits - h0
            self.counts[f"cache.{name}.misses"] += misses - m0
        self._cache_start = {}
        for name, cell in self._cells.items():
            self.counts[name] += cell[0]
            cell[0] = 0

    @staticmethod
    def _cache_counts() -> dict[str, tuple[int, int]]:
        out = {}
        for name, (mod_name, attr) in CACHES.items():
            info = getattr(sys.modules[mod_name], attr).cache_info()
            out[name] = (info.hits, info.misses)
        return out

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Raw sums over everything recorded; combine runs with ``merge``."""
        out: dict[str, float] = dict(self.counts)
        own = self_times(self.spans)
        for (name, *_), t in zip(self.spans, own):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + t
        out["linalg.row_bits_max"] = self.bits_max
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(a: dict, b: dict) -> dict:
    """Add two ``totals`` dicts; the bit-size maximum combines by max."""
    out = dict(a)
    for key, value in b.items():
        if key == "linalg.row_bits_max":
            out[key] = max(out.get(key, 0), value)
        else:
            out[key] = out.get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, requests: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per request, from merged ``totals``."""
    t = totals.get

    def per(key: str) -> float:
        return t(key, 0) / requests

    def cache_ratio(*names: str) -> float:
        hits = sum(t(f"cache.{n}.hits", 0) for n in names)
        misses = sum(t(f"cache.{n}.misses", 0) for n in names)
        return _ratio(hits, hits + misses)

    return {
        "cyclo.mul.calls": (per("cyclo.mul.calls"), "count"),
        "cyclo.add.calls": (per("cyclo.add.calls"), "count"),
        "cyclo.inv.calls": (per("cyclo.inv.calls"), "count"),
        "cyclo.mul.rational_ratio": (_ratio(t("cyclo.mul.rational", 0), t("cyclo.mul.calls", 0)), "ratio"),
        "poly.mul.calls": (per("poly.mul.calls"), "count"),
        "poly.mul.term_pairs": (per("poly.mul.term_pairs"), "count"),
        "poly.mul.self_s": (per("poly.mul.self_s"), "s"),
        "poly.add.calls": (per("poly.add.calls"), "count"),
        "assoc.mul.calls": (per("assoc.mul.calls"), "count"),
        "assoc.mul.self_s": (per("assoc.mul.self_s"), "s"),
        "assoc.pow.calls": (per("assoc.pow.calls"), "count"),
        "assoc.mono_times_u.hit_ratio": (cache_ratio("assoc.mono_times_u"), "ratio"),
        "lie.ops.calls": (per("lie.ops.calls"), "count"),
        "lie.ops.self_s": (per("lie.ops.self_s"), "s"),
        "dihedral.reynolds.calls": (per("dihedral.reynolds.calls"), "count"),
        "dihedral.reynolds.self_s": (per("dihedral.reynolds.self_s"), "s"),
        "dihedral.reynolds.nonzero_ratio": (
            _ratio(t("dihedral.reynolds.nonzero", 0), t("dihedral.reynolds.calls", 0)), "ratio"),
        "dihedral.act.calls": (per("dihedral.act.calls"), "count"),
        "dihedral.rotation_scalar.hit_ratio": (cache_ratio("dihedral.rotation_scalar"), "ratio"),
        "dihedral.swap_straighten.hit_ratio": (cache_ratio("dihedral.swap_straighten"), "ratio"),
        "linalg.insert.calls": (per("linalg.insert.calls"), "count"),
        "linalg.insert.kept_ratio": (_ratio(t("linalg.insert.kept", 0), t("linalg.insert.calls", 0)), "ratio"),
        "linalg.insert.self_s": (per("linalg.insert.self_s"), "s"),
        "linalg.row_bits_max": (t("linalg.row_bits_max", 0), "bits"),
        "invariants.subalgebra_filtration.self_s": (per("invariants.subalgebra_filtration.self_s"), "s"),
        "invariants.lie_suite.self_s": (per("invariants.lie_suite.self_s"), "s"),
        "invariants.module_span_check.self_s": (per("invariants.module_span_check.self_s"), "s"),
        "invariants.invariant_rows.hit_ratio": (
            cache_ratio("invariants.invariant_rows_assoc", "invariants.invariant_rows_lie"), "ratio"),
        "expr.parse.self_s": (per("expr.parse.self_s"), "s"),
        "expr.eval_assoc.self_s": (per("expr.eval_assoc.self_s"), "s"),
        "expr.to_xy.self_s": (per("expr.to_xy.self_s"), "s"),
        "expr.print_elem.self_s": (per("expr.print_elem.self_s"), "s"),
        "expr.input_bytes": (per("expr.input_bytes"), "bytes"),
        "cli.main.self_s": (per("cli.main.self_s"), "s"),
    }
