"""Spans and counters around qlatin's public functions, for traced runs.

The tracer replaces each traced function in every qlatin module that binds
it (``from .qls_core import verify_qls`` makes a second binding), so calls
between modules and within one are both seen. Nothing in qlatin changes;
``uninstall`` puts the originals back.

Three kinds of wrapper:

- a span records name, start, end, parent and op id, kept in memory;
- a timed leaf (``inner_product``, called up to millions of times per op)
  adds its time and count to per-op totals instead of storing one span per
  call, and charges its time to the enclosing span;
- a counter only counts calls; its time stays in the caller's self time.

A span's self time is its duration minus its child spans' durations minus
the timed-leaf time and leaf bookkeeping charged to it.

The tracer's own bookkeeping never raises into qlatin's call: an error there
is counted in ``errors`` and the call goes on. ``installed`` and ``missing``
name the functions that were and were not found, so a metric of a function
that could not be wrapped is reported absent rather than as zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Mapping

clock = time.perf_counter

SPANS = (
    ("qlatin.synthesis", "plan_for"),
    ("qlatin.synthesis", "execute_plan"),
    ("qlatin.qls_core", "verify_qls"),
    ("qlatin.qls_core", "cardinality"),
    ("qlatin.qls_core", "cardinality_oracle"),
    ("qlatin.qls_core", "grid_from_json"),
    ("qlatin.qls_core", "grid_to_json"),
    ("qlatin.generators", "realize_generator"),
)
TIMED_LEAVES = (("qlatin.vectors", "inner_product"),)
COUNTED = (
    ("qlatin.vectors", "tensor"),
    ("qlatin.vectors", "canonicalize"),
    ("qlatin.algebraic", "RadExt.sign"),
)

# span record fields
_ID, _PARENT, _NAME, _START, _END, _CHARGED, _OP = range(7)


def _short(module: str, attr: str) -> str:
    """'qlatin.algebraic', 'RadExt.sign' -> 'algebraic.sign'."""
    return f"{module.split('.')[-1]}.{attr.split('.')[-1]}"


def claim_span(claim_id: str) -> str:
    """Span and metric name of a claim: '/' is not allowed in metric names."""
    return "claims." + claim_id.replace("/", ".")


def traced_names() -> list[str]:
    """Short names of every traced function, as metric names begin."""
    return [_short(m, a) for m, a in SPANS + TIMED_LEAVES + COUNTED]


def metric_source(name: str) -> str | None:
    """The traced function, claim span or cache a per-layer metric is read
    from, or None for a metric the benchmark measures itself."""
    if name.startswith("cache."):
        return name
    if name.startswith("claims."):
        return name.removesuffix(".s")
    head = ".".join(name.split(".")[:2])
    return head if head in traced_names() else None


def _cache_size(obj) -> int | None:
    if hasattr(obj, "cache_info"):
        return obj.cache_info().currsize
    if hasattr(obj, "__len__"):
        return len(obj)
    return None


def cache_sizes() -> dict[str, int]:
    """Sizes of qlatin's unbounded caches, read from outside. A cache that
    no longer exists is left out. The block cache sums every cached
    ``make_block*`` function, however the blocks are split among them."""
    from qlatin import algebraic, generators, synthesis

    sizes = {
        "cache.algebraic._decompose.size": _cache_size(getattr(algebraic, "_decompose", None)),
        "cache.generators._REALIZE_CACHE.size": _cache_size(
            getattr(generators, "_REALIZE_CACHE", None)
        ),
        "cache.synthesis.reachable_sums.size": _cache_size(
            getattr(synthesis, "reachable_sums", None)
        ),
    }
    blocks = [
        _cache_size(fn) for name, fn in vars(generators).items()
        if name.startswith("make_block") and hasattr(fn, "cache_info")
    ]
    if blocks:
        sizes["cache.generators.make_block.size"] = sum(blocks)
    return {k: v for k, v in sizes.items() if v is not None}


def _support(entries) -> set:
    """Indices of the nonzero coordinates of a sparse layout: a mapping or a
    sequence of (index, coefficient) pairs."""
    if isinstance(entries, Mapping):
        pairs = entries.items()
    elif all(isinstance(e, tuple) and len(e) == 2 for e in entries):
        pairs = entries
    else:
        raise TypeError(f"unknown vector layout: {type(entries).__name__}")
    return {i for i, x in pairs if (x.terms if hasattr(x, "terms") else x)}


def _dense(entries) -> bool:
    return not isinstance(entries, Mapping) and len(entries) > 0 and hasattr(entries[0], "terms")


def disjoint_supports(u, v) -> bool | None:
    """Whether two vectors share no nonzero coordinate: True or False, or
    None when the layout of their ``entries`` is not one this knows. Dense
    entries are a sequence of coefficients with ``terms``; sparse ones are
    what ``_support`` reads."""
    try:
        a, b = u.entries, v.entries
        if _dense(a) and _dense(b):
            return not any(x.terms and y.terms for x, y in zip(a, b))
        return not (_support(a) & _support(b))
    except Exception:
        return None


class Tracer:
    def __init__(self) -> None:
        # span record: [id, parent id, name, start, end, charged seconds, op id]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = 0
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.errors: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _guard(self, name: str, hook, *args):
        """Run a bookkeeping hook; its error is counted, never raised."""
        try:
            return hook(*args)
        except Exception as exc:
            self.errors[f"{name}: {type(exc).__name__}: {exc}"] += 1
            return None

    def _span(self, name: str, fn, before=None, after=None):
        """``before(args)`` runs ahead of the clock and its result goes to
        ``after`` once the call returns or raises."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][_ID] if stack else -1, name, 0.0, 0.0, 0.0, self.op]
            spans.append(rec)
            token = self._guard(name, before, args) if before is not None else None
            stack.append(rec)
            rec[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
                if after is not None:
                    self._guard(name, after, token)

        return wrapper

    def _leaf(self, name: str, fn):
        stack = self.stack
        calls, self_s = f"{name}.calls", f"{name}.self_s"
        disjoint, unknown = f"{name}.disjoint", f"{name}.disjoint_unknown"

        def count(args, seconds):
            counts = self.counts[self.op]
            counts[calls] += 1
            counts[self_s] += seconds
            known = disjoint_supports(*args[:2]) if len(args) >= 2 else None
            if known is None:
                counts[unknown] += 1
            elif known:
                counts[disjoint] += 1

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            self._guard(name, count, args, t1 - t0)
            if stack:
                stack[-1][_CHARGED] += clock() - t0
            return out

        return wrapper

    def _counter(self, name: str, fn):
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.counts[self.op][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _realize_span(self, name: str, fn):
        cache = getattr(sys.modules["qlatin.generators"], "_REALIZE_CACHE", None)
        if cache is None:
            return self._span(name, fn)
        key = f"{name}.cache_misses"

        def after(size_before):
            # a hit returns without storing; a miss stores its grid
            if len(cache) > size_before:
                self.counts[self.op][key] += 1

        return self._span(name, fn, before=lambda args: len(cache), after=after)

    def _grid_from_json_span(self, name: str, fn):
        key = f"{name}.bytes"

        def before(args):
            # grid JSON is ASCII, so characters are bytes
            self.counts[self.op][key] += len(args[0])

        return self._span(name, fn, before=before)

    # -- installation -------------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, fn_name, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        self.installed.add(_short(module, attr))
        wrapper = make(_short(module, attr), original)
        if owner_name:
            targets = [owner]
        else:
            targets = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qlatin"]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, original))
                    setattr(target, key, wrapper)

    def install(self) -> None:
        """Wrap every traced function in the qlatin modules, and each claim
        of the claims registry as a span named ``claims.<claim id>``. The
        modules are all imported first, so that every binding of a function
        exists when it is wrapped."""
        for module in sorted({m for m, _ in SPANS + TIMED_LEAVES + COUNTED} | {"qlatin.claims"}):
            try:
                importlib.import_module(module)
            except ImportError:
                pass  # its functions are reported missing
        makers = {"realize_generator": self._realize_span, "grid_from_json": self._grid_from_json_span}
        for module, attr in SPANS:
            self._patch(module, attr, makers.get(attr, self._span))
        for module, attr in TIMED_LEAVES:
            self._patch(module, attr, self._leaf)
        for module, attr in COUNTED:
            self._patch(module, attr, self._counter)
        try:
            claims = sys.modules["qlatin.claims"]
            registry = claims.CLAIMS
            wrapped = tuple(
                (cid, kind, self._span(claim_span(cid), fn)) for cid, kind, fn in registry
            )
        except Exception:  # no claims registry of the shape (id, kind, function)
            self.missing.append("qlatin.claims.CLAIMS")
            return
        self._patches.append((claims, "CLAIMS", registry))
        claims.CLAIMS = wrapped
        self.installed.update(claim_span(cid) for cid, _, _ in registry)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans and counters out; called once, at exit."""
        payload = {
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
            "installed": sorted(self.installed),
            "missing": self.missing,
            "errors": dict(self.errors),
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def op_metrics(spans, counts) -> dict[int, Counter]:
    """Per-op totals from spans and counters: ``<span>.self_s``,
    ``<span>.calls`` and ``<span>.s`` (inclusive), plus every counter."""
    child = defaultdict(float)
    for rec in spans:
        if rec[_PARENT] >= 0:
            child[rec[_PARENT]] += rec[_END] - rec[_START]
    out: dict[int, Counter] = defaultdict(Counter)
    for rec in spans:
        dur = rec[_END] - rec[_START]
        acc = out[rec[_OP]]
        acc[f"{rec[_NAME]}.s"] += dur
        acc[f"{rec[_NAME]}.self_s"] += dur - child[rec[_ID]] - rec[_CHARGED]
        acc[f"{rec[_NAME]}.calls"] += 1
    for op, c in counts.items():
        out[int(op)].update(c)
    return out
