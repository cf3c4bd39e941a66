"""Per-layer tracing: wrap public functions of weylval from outside.

A wrapped function counts its calls and its self time: its span minus the
spans of wrapped functions it calls.  A name must be replaced in every
namespace that looks it up (``leading_data`` is looked up in both
``evaluate`` and ``orderings``, ``omega_element`` in four modules), and class
aliases such as ``WeylElement.__mul__`` must follow ``mul``, so `install`
replaces every module attribute and class attribute that is the original
function object.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

from weylval import coeff, descriptor, evaluate, expr, extension, orderings, series
from weylval.valuegroup import ValueGroupElement, VInfinity
from weylval.weyl import WeylElement


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ref_s: Dict[str, float] = {}
        self._self_raw: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self.terms_out = 0
        self.entries_out = 0
        self.rebuilds = 0
        self._built: set = set()
        self._undo: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        self.calls.setdefault(name, 0)
        self.self_ref_s.setdefault(name, 0.0)
        self._self_raw.setdefault(name, 0.0)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf() - start
                stack.pop()
                self.calls[name] += 1
                self._self_raw[name] += span - children[0]
                if stack:
                    stack[-1][0] += span
            if after is not None:
                after(args, result)
            return result

        return traced

    def pause(self, seconds: float) -> None:
        """Keep a yardstick sample out of the self time of what it interrupted."""
        if self._stack:
            self._stack[-1][0] += seconds

    def fold(self, factor: float) -> None:
        """Move the raw self time of the op that ended into reference time."""
        for name, raw in self._self_raw.items():
            self.self_ref_s[name] += raw * factor
            self._self_raw[name] = 0.0

    def begin_op(self) -> None:
        self._built.clear()

    # -- output sizes ----------------------------------------------------------

    def _mul_out(self, args, result) -> None:
        self.terms_out += len(result.terms)

    def _omega_built(self, args, result) -> None:
        key = (id(args[0]), args[1])
        if key in self._built:
            self.rebuilds += 1
        self._built.add(key)

    def _z_out(self, args, result) -> None:
        self.entries_out += len(result.explicit_entries)

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        targets = [
            ("evaluate.leading_data", evaluate.leading_data, None),
            ("orderings.sign", orderings.sign, None),
            ("valuegroup.cmp", ValueGroupElement.cmp, None),
            ("valuegroup.cmp", VInfinity.cmp, None),
            ("expr.parse_expr", expr.parse_expr, None),
            ("weyl.mul", WeylElement.mul, self._mul_out),
            ("weyl.pow", WeylElement.pow, None),
            ("descriptor.omega_element", descriptor.omega_element, self._omega_built),
            ("extension.resolve_gammas", extension.resolve_gammas, None),
            ("extension.omega_to_z", extension.omega_to_z, self._z_out),
            ("series.z_eval", series.z_eval, None),
            ("series.embed", series.embed, None),
            ("series.shift_variable", series.shift_variable, None),
            ("series.ore_mul", series.ore_mul, None),
            ("series.puiseux_make", series.PuiseuxSeries.make, None),
            ("coeff.nth_root", coeff.nth_root, None),
        ]
        modules = [m for n, m in sys.modules.items() if n == "weylval" or n.startswith("weylval.")]
        classes = [WeylElement, ValueGroupElement, VInfinity, series.PuiseuxSeries]
        for name, original, after in targets:
            self._replace(modules, classes, original, self.wrap(name, original, after))

    def _replace(self, modules, classes, original, traced) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, traced)
        for cls in classes:
            for attr, value in list(vars(cls).items()):
                if value is original:
                    self._undo.append((cls, attr, value))
                    setattr(cls, attr, traced)
                elif isinstance(value, staticmethod) and value.__func__ is original:
                    self._undo.append((cls, attr, value))
                    setattr(cls, attr, staticmethod(traced))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
