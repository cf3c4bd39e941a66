"""Compatible orderings: enumeration, the sign, and the extension map.

An ordering compatible with a tower valuation is pinned by one sign per slot
of a fixed 2-torsion basis of the value group modulo doubled values.  The
basis is the tower generator of maximal 2-adic step depth (x itself when
every n_i is odd) together with the irrational terminal slot when one is
declared, so a descriptor carries 1, 2, or 4 compatible orderings.

The sign of a nonzero element is read by `evaluate.Valuation.sign` from its
certified leading data: the sign of the residue relative to the canonical
representative word, times the character evaluated on the representative's
two parities.  Squares of even representatives have positive residue, which
makes the value of the representative the only thing that matters.  The
ordering axioms this sign must satisfy are sampled by
`oracles.compatibility_check`.
"""

from __future__ import annotations

from typing import List, Optional, Union

from .descriptor import OmegaDescriptor, basis_slot
from .errors import DeclarationInconsistent, NotExtendable
from .evaluate import Valuation
from .extension import free_step
from .records import Record
from .weyl import WeylElement, WeylFraction


class OrderingDescriptor(Record):
    """A character on the 2-torsion basis: one sign per basis slot.

    omega_index is the tower index of the maximal-depth generator (-1 means
    x itself, the all-odd-n case); None when the rational part of the value
    group is 2-divisible and the slot does not exist.  terminal marks the
    irrational slot of rank-two groups.  Signs of absent slots stay +1.
    """

    __slots__ = ("omega_index", "terminal", "omega_sign", "terminal_sign")

    def __init__(
        self,
        omega_index: Optional[int] = None,
        terminal: bool = False,
        omega_sign: int = 1,
        terminal_sign: int = 1,
    ):
        if omega_sign not in (-1, 1) or terminal_sign not in (-1, 1):
            raise DeclarationInconsistent("ordering signs must be +1 or -1")
        if omega_index is None and omega_sign != 1:
            raise DeclarationInconsistent("no omega slot to carry a -1 sign")
        if not terminal and terminal_sign != 1:
            raise DeclarationInconsistent("no terminal slot to carry a -1 sign")
        self.omega_index, self.terminal = omega_index, terminal
        self.omega_sign, self.terminal_sign = omega_sign, terminal_sign

    def character(self, eps_omega: int, eps_terminal: int) -> int:
        """Character value on a vector given by its two basis parities."""
        out = 1
        if self.omega_index is not None and eps_omega % 2:
            out *= self.omega_sign
        if self.terminal and eps_terminal % 2:
            out *= self.terminal_sign
        return out

    def to_json(self) -> dict:
        basis: dict = {}
        signs: List[int] = []
        if self.omega_index is not None:
            basis["omega_index"] = self.omega_index
            signs.append(self.omega_sign)
        if self.terminal:
            basis["terminal"] = True
            signs.append(self.terminal_sign)
        return {"basis": basis, "signs": signs}


def enumerate_orderings(desc: OmegaDescriptor) -> List[OrderingDescriptor]:
    """All orderings compatible with the descriptor's valuation: 1, 2, or 4.

    They depend on the descriptor alone, so they are found once and kept
    there, and each call returns a new list of them; a search that raises
    is not kept, and raises on every call.
    """
    orderings = desc._orderings
    if orderings is None:
        if desc._n_defect:
            # on a 2-divisible rule the search reads no step to refuse
            raise DeclarationInconsistent(desc._n_defect)
        slot = basis_slot(desc)
        omega_index = None if slot is None else slot[1] - 1
        has_terminal = desc.terminal is not None
        omega_choices = (1, -1) if slot is not None else (1,)
        terminal_choices = (1, -1) if has_terminal else (1,)
        orderings = desc._orderings = tuple(
            OrderingDescriptor(omega_index, has_terminal, s_o, s_t)
            for s_o in omega_choices
            for s_t in terminal_choices
        )
    return list(orderings)


def sign(
    desc: OmegaDescriptor,
    ordering: OrderingDescriptor,
    element: Union[WeylElement, WeylFraction],
    depth_limit: int = 64,
) -> int:
    """Sign of a nonzero element or left fraction under one ordering."""
    return Valuation(desc, depth_limit).sign(ordering, element)


class ExtensionResult(Record):
    """Extension data for one ordering: the forced root sign, if any, and
    the unique compatible ordering on the extension ring."""

    __slots__ = ("sign_choice", "ordering")

    def __init__(self, sign_choice: Optional[int], ordering: OrderingDescriptor):
        self.sign_choice, self.ordering = sign_choice, ordering


def extend_ordering(desc: OmegaDescriptor, ordering: OrderingDescriptor) -> ExtensionResult:
    """Extend one compatible ordering to the Ore ring over Puiseux series.

    Raises NotExtendable when the valuation itself does not extend, or when
    x is negative under the ordering (the extension ring contains fractional
    powers of x, which are squares there, so x must be positive).  Otherwise
    the root sign is forced by positivity of the maximal-depth generator,
    whose sign is the ordering's omega sign (w_{b-1} is its own
    representative, with residue 1), and the extension ring carries a
    unique compatible ordering: its value group's rational part is fully
    divisible, leaving only the terminal slot's sign to survive.  The sign
    of x reads no step past the data window, so no depth limit applies.
    """
    free = free_step(desc)
    if Valuation(desc).sign(ordering, WeylElement.x()) != 1:
        raise NotExtendable("x is negative under this ordering")
    sign_choice = None if free is None else ordering.omega_sign
    has_terminal = desc.terminal is not None
    extended = OrderingDescriptor(
        omega_index=None,
        terminal=has_terminal,
        terminal_sign=ordering.terminal_sign if has_terminal else 1,
    )
    return ExtensionResult(sign_choice, extended)
