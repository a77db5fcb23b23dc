"""Component libraries for loop-free program synthesis (paper Section 4).

The structure hypothesis of the program-synthesis application is that the
target program is a loop-free composition of components drawn from a
finite library L; every component is "essentially a bit-vector circuit".
A :class:`Component` therefore carries three views of its semantics:

* a concrete evaluator over fixed-width unsigned integers (used by the
  interpreter and by equivalence testing),
* a term-level encoder producing :mod:`repro.smt` bit-vector terms (used
  by the SMT synthesis encoding),
* a C-like pretty-printing template (used to render synthesized programs
  in the style of the paper's Figure 8).

The library builders at the bottom provide the standard component set of
the underlying ICSE'10 paper (bitwise/arithmetic primitives) and the two
task-specific libraries used by the Figure 8 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.exceptions import ReproError
from repro.smt.terms import BitVecTerm, bv_const, bv_ite, bv_lshr, bv_shl


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class Component:
    """One library component (a bit-vector circuit).

    Attributes:
        name: component name (e.g. ``"xor"``, ``"shl2"``).
        arity: number of inputs.
        evaluate: concrete semantics ``(args, width) -> value``.
        encode: symbolic semantics ``(args, width) -> term`` over bit-vector terms.
        template: format string used for pretty printing, with ``{0}``,
            ``{1}`` ... standing for the rendered argument expressions.
    """

    name: str
    arity: int
    evaluate: Callable[[Sequence[int], int], int]
    encode: Callable[[Sequence[BitVecTerm], int], BitVecTerm]
    template: str

    def apply(self, args: Sequence[int], width: int) -> int:
        """Evaluate the component on concrete arguments."""
        self.check_arity(len(args))
        return self.evaluate(args, width) & _mask(width)

    def check_arity(self, count: int) -> None:
        """Raise :class:`ReproError` unless ``count`` arguments fit the component."""
        if count != self.arity:
            raise ReproError(
                f"component {self.name} expects {self.arity} arguments, got {count}"
            )

    def render(self, arguments: Sequence[str]) -> str:
        """Render an application of the component on argument strings."""
        return self.template.format(*arguments)

    def __repr__(self) -> str:
        # The default dataclass repr would render the semantics callables,
        # whose reprs embed memory addresses — making the repr of anything
        # containing a Component (synthesized programs in particular)
        # unstable from run to run.  Identity is the name/arity/template
        # triple; the callables are implementation.
        return (
            f"Component(name={self.name!r}, arity={self.arity}, "
            f"template={self.template!r})"
        )


# ---------------------------------------------------------------------------
# Primitive components
# ---------------------------------------------------------------------------


def component_add() -> Component:
    """Addition component ``a + b``."""
    return Component(
        name="add",
        arity=2,
        evaluate=lambda args, width: args[0] + args[1],
        encode=lambda args, width: args[0] + args[1],
        template="{0} + {1}",
    )


def component_sub() -> Component:
    """Subtraction component ``a - b``."""
    return Component(
        name="sub",
        arity=2,
        evaluate=lambda args, width: args[0] - args[1],
        encode=lambda args, width: args[0] - args[1],
        template="{0} - {1}",
    )


def component_xor() -> Component:
    """Bitwise exclusive-or component ``a ^ b``."""
    return Component(
        name="xor",
        arity=2,
        evaluate=lambda args, width: args[0] ^ args[1],
        encode=lambda args, width: args[0] ^ args[1],
        template="{0} ^ {1}",
    )


def component_and() -> Component:
    """Bitwise and component ``a & b``."""
    return Component(
        name="and",
        arity=2,
        evaluate=lambda args, width: args[0] & args[1],
        encode=lambda args, width: args[0] & args[1],
        template="{0} & {1}",
    )


def component_or() -> Component:
    """Bitwise or component ``a | b``."""
    return Component(
        name="or",
        arity=2,
        evaluate=lambda args, width: args[0] | args[1],
        encode=lambda args, width: args[0] | args[1],
        template="{0} | {1}",
    )


def component_not() -> Component:
    """Bitwise complement component ``~a``."""
    return Component(
        name="not",
        arity=1,
        evaluate=lambda args, width: ~args[0],
        encode=lambda args, width: ~args[0],
        template="~{0}",
    )


def component_neg() -> Component:
    """Two's-complement negation component ``-a``."""
    return Component(
        name="neg",
        arity=1,
        evaluate=lambda args, width: -args[0],
        encode=lambda args, width: -args[0],
        template="-{0}",
    )


def component_increment() -> Component:
    """Increment component ``a + 1``."""
    return Component(
        name="inc",
        arity=1,
        evaluate=lambda args, width: args[0] + 1,
        encode=lambda args, width: args[0] + bv_const(1, args[0].width),
        template="{0} + 1",
    )


def component_decrement() -> Component:
    """Decrement component ``a - 1``."""
    return Component(
        name="dec",
        arity=1,
        evaluate=lambda args, width: args[0] - 1,
        encode=lambda args, width: args[0] - bv_const(1, args[0].width),
        template="{0} - 1",
    )


def component_shift_left(amount: int) -> Component:
    """Left shift by the constant ``amount`` (``a << amount``)."""
    if amount < 0:
        raise ReproError("shift amount must be non-negative")
    return Component(
        name=f"shl{amount}",
        arity=1,
        evaluate=lambda args, width: 0 if amount >= width else args[0] << amount,
        encode=lambda args, width: bv_shl(args[0], bv_const(amount, args[0].width)),
        template=f"{{0}} << {amount}",
    )


def component_shift_right(amount: int) -> Component:
    """Logical right shift by the constant ``amount`` (``a >> amount``)."""
    if amount < 0:
        raise ReproError("shift amount must be non-negative")
    return Component(
        name=f"shr{amount}",
        arity=1,
        evaluate=lambda args, width: 0 if amount >= width else args[0] >> amount,
        encode=lambda args, width: bv_lshr(args[0], bv_const(amount, args[0].width)),
        template=f"{{0}} >> {amount}",
    )


def component_constant(value: int) -> Component:
    """A constant-producing component (arity 0)."""
    return Component(
        name=f"const{value}",
        arity=0,
        evaluate=lambda args, width: value,
        encode=lambda args, width: bv_const(value, width),
        template=str(value),
    )


def component_is_zero() -> Component:
    """Comparison component ``(a == 0) ? 1 : 0``."""
    return Component(
        name="iszero",
        arity=1,
        evaluate=lambda args, width: int(args[0] == 0),
        encode=lambda args, width: bv_ite(
            args[0].eq(bv_const(0, args[0].width)),
            bv_const(1, args[0].width),
            bv_const(0, args[0].width),
        ),
        template="({0} == 0)",
    )


def component_select() -> Component:
    """Multiplexer component ``c != 0 ? a : b``."""
    return Component(
        name="select",
        arity=3,
        evaluate=lambda args, width: args[1] if args[0] != 0 else args[2],
        encode=lambda args, width: bv_ite(
            args[0].ne(bv_const(0, args[0].width)), args[1], args[2]
        ),
        template="({0} ? {1} : {2})",
    )


# ---------------------------------------------------------------------------
# Library builders
# ---------------------------------------------------------------------------


def standard_library() -> list[Component]:
    """A general-purpose component library (ICSE'10-style primitives)."""
    return [
        component_add(),
        component_sub(),
        component_xor(),
        component_and(),
        component_or(),
        component_not(),
        component_neg(),
        component_increment(),
    ]


def interchange_library() -> list[Component]:
    """Library for the Figure 8 / P1 benchmark: three XOR components.

    The XOR-swap idiom uses exactly three exclusive-or operations, so the
    library is the multiset ``{xor, xor, xor}`` (every library component is
    used exactly once in the synthesized program).
    """
    return [component_xor(), component_xor(), component_xor()]


def multiply45_library() -> list[Component]:
    """Library for the Figure 8 / P2 benchmark: shifts and adds.

    ``45 * y = (y << 2 + y) << 3 + (y << 2 + y)`` needs two shifts (by 2
    and by 3) and two additions.
    """
    return [
        component_shift_left(2),
        component_add(),
        component_shift_left(3),
        component_add(),
    ]


def insufficient_multiply45_library() -> list[Component]:
    """A deliberately insufficient library for the Figure 7 experiment.

    The shift-by-3 component is withheld, so no composition of the library
    realises multiplication by 45; the synthesizer must either report
    infeasibility or produce a program that is consistent with the seen
    examples but not equivalent to the oracle.
    """
    return [component_shift_left(2), component_add(), component_add()]
