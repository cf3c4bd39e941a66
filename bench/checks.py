"""Output checks, made on the recorded outputs after the timed pass.

They test properties and closed forms, never a stored copy of an earlier
output, so a faster program that computes the same mathematics passes them
unchanged.  Each check returns a list of failure messages; empty means the
outputs are correct.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import weylval as wv

from workloads import Op, part_value


def _same(a, b) -> bool:
    return wv.cmp(a, b) == 0


def check_query(ops: Sequence[Op], outputs: Sequence[tuple], descs) -> List[str]:
    """v(fg) = v(f)+v(g), sign(fg) = sign(f)sign(g), sign(gg) = +1, and
    every value (or DepthExceeded) agrees with the shadow_eval oracle run on
    the element the op's text was made from, which also checks parse_expr."""
    failures: List[str] = []
    by_role: Dict[tuple, tuple] = {}
    for op, (value, signs) in zip(ops, outputs):
        desc = descs[op.fixture]
        try:
            shadow = wv.shadow_eval(desc, op.args[1])
        except wv.DepthExceeded:
            shadow = None
        if (value is None) != (shadow is None) or (
            value is not None and not _same(value, shadow)
        ):
            failures.append(f"{op.fixture} {op.args[0]}: eval {value} vs shadow {shadow}")
        if value is not None and len(signs) != len(wv.enumerate_orderings(desc)):
            failures.append(f"{op.fixture} {op.args[0]}: {len(signs)} signs")
        by_role[(op.fixture, op.group, op.role)] = (value, signs)
        if op.role != "gg":
            continue
        f, g, fg, gg = (
            by_role.pop((op.fixture, op.group, r), (None, ())) for r in ("f", "g", "fg", "gg")
        )
        if None not in (f[0], g[0], fg[0]):
            if not _same(fg[0], f[0].add(g[0])):
                failures.append(f"{op.fixture} group {op.group}: v(fg) != v(f) + v(g)")
            if fg[1] != tuple(a * b for a, b in zip(f[1], g[1])):
                failures.append(f"{op.fixture} group {op.group}: sign(fg) != sign(f) sign(g)")
        if gg[0] is not None and any(s != 1 for s in gg[1]):
            failures.append(f"{op.fixture} group {op.group}: sign(gg) = {gg[1]}")
    return failures


def check_tower(ops: Sequence[Op], outputs: Sequence[tuple], descs) -> List[str]:
    """The value is the closed form -a + k v(w_i) + l v(w_j); a sum of two
    parts with different values takes the smaller; even powers are positive."""
    failures: List[str] = []
    for op, (value, signs) in zip(ops, outputs):
        desc = descs[op.fixture]
        expected = min(part_value(desc, a, shape) for _, a, shape in op.args)
        if not _same(value, wv.ValueGroupElement.rational(expected)):
            failures.append(f"{op.fixture} {op.args}: value {value}, expected {expected}")
        if op.role == "product":
            c, a, shape = op.args[0]
            if c > 0 and a % 2 == 0 and all(k % 2 == 0 for _, k in shape):
                if any(s != 1 for s in signs):
                    failures.append(f"{op.fixture} {op.args}: even power has signs {signs}")
    return failures


def check_convert(ops: Sequence[Op], outputs: Sequence[object], descs) -> List[str]:
    """Rule entries r_i are the partial sums of m_k/n_k, depth d is a prefix
    of depth d+1, terminal towers end in a terminal, and every round-trip
    sample gives the same value through eval and through z_eval."""
    failures: List[str] = []
    previous = None
    for op, out in zip(ops, outputs):
        desc = descs[op.fixture]
        if op.role == "rule":
            depth = op.args[1]
            entries = out.explicit_entries
            partial = wv.Rat(0)
            rs = []
            for i in range(1, depth + 1):
                partial += wv.Rat(desc.step(i).m, desc.step(i).n)
                rs.append(partial)
            if [r for r, _ in entries] != rs:
                failures.append(f"{op.fixture} depth {depth}: exponents {entries}")
            if depth > 1 and (
                previous is None or previous != entries[: len(previous)]
            ):
                failures.append(f"{op.fixture} depth {depth}: depth {depth - 1} is no prefix")
            previous = entries
        elif op.role == "terminal":
            if out.terminal is None:
                failures.append(f"{op.fixture} sign {op.args[0]}: no terminal")
        else:
            direct, via_z = out
            if not _same(direct, via_z):
                failures.append(f"{op.fixture} {op.args[1]}: eval {direct} vs z_eval {via_z}")
    return failures


CHECKS = {"query": check_query, "tower": check_tower, "convert": check_convert}
