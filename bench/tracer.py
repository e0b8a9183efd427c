"""Call counting, self time and parent-linked spans for the traced run.

The tracer wraps library functions from outside the package: every module of
``nugrass`` that bound a function by name (``from .atlas import
_lam_gauss_inv``) gets the wrapper, and so does every class attribute that
aliases a method (``__rmul__ = __mul__``).  ``uninstall`` puts the originals
back, so untraced calls in the same process run the unmodified code.

Hot leaves keep only a count and summed self time.  Coarse boundaries also
record a span ``[id, parent_id, name, start, end]`` in memory; the caller
writes them out when the run ends.  Self time is a call's wall time minus
the wall time of the traced calls made inside it.
"""

from __future__ import annotations

import importlib
import sys
import time

# metric key -> (module, attribute path, kind); one key may cover several
# functions.  kind "span" records a parent-linked span, "leaf" only counts.
TARGETS = [
    ("superalgebra.grassmann_mul", "nugrass.superalgebra", "GrassmannNumber.__mul__", "leaf"),
    ("superalgebra.grassmann_addsub", "nugrass.superalgebra", "GrassmannNumber.__add__", "leaf"),
    ("superalgebra.grassmann_addsub", "nugrass.superalgebra", "GrassmannNumber.__sub__", "leaf"),
    ("superalgebra.grassmann_addsub", "nugrass.superalgebra", "GrassmannNumber.__neg__", "leaf"),
    ("superalgebra.grassmann_inv", "nugrass.superalgebra", "GrassmannNumber.inv", "leaf"),
    ("superalgebra.lambda_sample", "nugrass.superalgebra", "lambda_sample", "leaf"),
    ("superalgebra.rational_canon", "nugrass.superalgebra", "RationalFunction.__init__", "canon"),
    ("superalgebra.superfunction_mul", "nugrass.superalgebra", "SuperFunction.__mul__", "leaf"),
    ("superalgebra.superfunction_partial", "nugrass.superalgebra", "SuperFunction.partial", "leaf"),
    ("supermatrix.smat_inv", "nugrass.supermatrix", "smat_inv", "leaf"),
    ("supermatrix.smat_mul", "nugrass.supermatrix", "smat_mul", "leaf"),
    ("atlas.hop", "nugrass.atlas", "point_transition", "span"),
    ("atlas.minor_inv", "nugrass.atlas", "_lam_gauss_inv", "span"),
    ("atlas.sample_point", "nugrass.atlas", "sample_point", "leaf"),
    ("atlas.transition_symbolic", "nugrass.atlas", "transition_symbolic", "leaf"),
    ("atlas.plan_status", "nugrass.atlas", "HopPlan._classify", "leaf"),
    ("action.act", "nugrass.action", "act", "span"),
    ("action.gl_mul", "nugrass.action", "GLPoint.__mul__", "leaf"),
    ("action.sample_gl", "nugrass.action", "sample_gl", "leaf"),
    ("action.witness", "nugrass.action", "transitivity_witness", "leaf"),
    ("nulie.fundamental_field", "nugrass.nulie", "fundamental_field", "span"),
    ("nulie.rho_field", "nugrass.nulie", "rho_field", "leaf"),
    ("nulie.nu_defect", "nugrass.nulie", "nu_defect", "leaf"),
    ("nulie.field_bracket", "nugrass.nulie", "field_bracket", "span"),
    ("nulie.in_span", "nugrass.nulie", "in_span", "leaf"),
]


def _is_canonical_build(args, kwargs) -> bool:
    """RationalFunction(names, num, den, _canonical=False) skips the gcd
    when _canonical is true; only the gcd path counts as rational_canon."""
    return bool(kwargs.get("_canonical", args[4] if len(args) > 4 else False))


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, raised]
        self.spans: list[list] = []
        self.bindings: dict[str, list[str]] = {}
        self._patches: list[tuple] = []
        self._child = [0.0]  # traced callee time, one slot per open call
        self._open = [None]  # ids of the open spans

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, key, fn, kind):
        st = self.stats.setdefault(key, [0, 0.0, 0])
        if kind == "span":
            def spanned(*args, **kwargs):
                with _Span(self, key):
                    return fn(*args, **kwargs)
            return spanned

        child = self._child
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                st[2] += 1
                raise
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt - child.pop()
                child[-1] += dt

        if kind == "canon":
            def canon(*args, **kwargs):
                if _is_canonical_build(args, kwargs):
                    return fn(*args, **kwargs)
                return leaf(*args, **kwargs)
            return canon
        return leaf

    def span(self, key):
        """Context manager recording a span around harness code."""
        return _Span(self, key)

    # -- patching ------------------------------------------------------------

    def install(self):
        self.bindings = {}
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "nugrass" or name.startswith("nugrass.")]
        for key, modname, path, kind in TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrapper(key, original, kind)
            holders = [owner] if cls_path else package
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._patches.append((holder, name, original))
                        self.bindings.setdefault(key, []).append(
                            f"{holder.__module__}.{holder.__qualname__}.{name}"
                            if cls_path else f"{holder.__name__}.{name}")

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def reset(self):
        """Zero the counters and drop the spans; bindings stay installed."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0]
        self.spans.clear()


class _Span:
    __slots__ = ("tracer", "key", "rec")

    def __init__(self, tracer, key):
        self.tracer = tracer
        self.key = key

    def __enter__(self):
        t = self.tracer
        self.rec = [len(t.spans), t._open[-1], self.key, 0.0, 0.0]
        t.spans.append(self.rec)
        t._open.append(self.rec[0])
        t._child.append(0.0)
        self.rec[3] = time.perf_counter()

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        self.rec[4] = time.perf_counter()
        dt = self.rec[4] - self.rec[3]
        t._open.pop()
        st = t.stats.setdefault(self.key, [0, 0.0, 0])
        st[0] += 1
        st[1] += dt - t._child.pop()
        st[2] += exc_type is not None
        t._child[-1] += dt
        return False
