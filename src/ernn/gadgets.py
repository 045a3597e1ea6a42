"""Gadget templates: the reusable building blocks of compiled instances.

A gadget is a bundle of parallel data lines at fixed offsets from a base
line, each carrying a pair of target labels. All data points on one line
share its labels, so a gadget constrains the network only through its
cross-section: the one-dimensional profile of each output along the normal
direction. Three kinds exist:

  * variable gadgets encode a value in the slope of a rising ramp,
  * inversion gadgets couple two slopes so the encoded values multiply to 1,
  * lower-bound gadgets dig a notch of chosen depth, used to convert
    at-least labels on isolated points into exact labels.

Offsets measure along the normal from the base line; labels live at those
offsets. Exact(v) means the output must equal v there; AtLeast(v) appears
only at isolated weak points and is compiled away before training data is
emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .geometry import Direction, OrientedLine, Rational
from .network import HiddenNeuron

SLOPE_MIN = Fraction(3, 2)
SLOPE_MAX = Fraction(3)
DEPTH_MIN = Fraction(2)
# Offset of a lower-bound gadget's notch: its deepest bend, where the weak
# point it serves sits.
NOTCH_CENTER = Fraction(4)


class GadgetError(ValueError):
    pass


class InvalidState(GadgetError):
    pass


class NoSuchMeasuringLine(GadgetError):
    pass


# ---------------------------------------------------------------------------
# Kinds and labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Inversion:
    pass


@dataclass(frozen=True)
class LowerBound:
    active_dims: Tuple[int, ...]  # subset of (1, 2), ascending, nonempty

    def __post_init__(self) -> None:
        if not self.active_dims or any(d not in (1, 2) for d in self.active_dims):
            raise GadgetError(f"bad active dims {self.active_dims}")
        if tuple(sorted(set(self.active_dims))) != self.active_dims:
            raise GadgetError(f"active dims must be sorted and unique: {self.active_dims}")


GadgetKind = Union[Variable, Inversion, LowerBound]


@dataclass(frozen=True)
class Exact:
    value: Rational


@dataclass(frozen=True)
class AtLeast:
    value: Rational


Label = Union[Exact, AtLeast]


@dataclass(frozen=True)
class TemplateEntry:
    offset: Rational
    labels: Tuple[Label, Label]

    @property
    def is_weak(self) -> bool:
        return any(isinstance(l, AtLeast) for l in self.labels)


@dataclass(frozen=True)
class GadgetTemplate:
    kind: GadgetKind
    entries: Tuple[TemplateEntry, ...]
    breakline_budget: int
    width: Rational

    @property
    def data_entries(self) -> Tuple[TemplateEntry, ...]:
        return tuple(e for e in self.entries if not e.is_weak)

    @property
    def weak_entries(self) -> Tuple[TemplateEntry, ...]:
        return tuple(e for e in self.entries if e.is_weak)


def _exact_pair(v1, v2) -> Tuple[Label, Label]:
    return (Exact(Fraction(v1)), Exact(Fraction(v2)))


def template(kind: GadgetKind) -> GadgetTemplate:
    """The fixed data-line table for a gadget kind."""
    if isinstance(kind, Variable):
        offsets = (0, 1, 2, 4, 6, 7, 8, 10, 12, 14, 15, 16)
        values = (0, 0, 0, 3, 6, 6, 6, 4, 2, 0, 0, 0)
        entries = [
            TemplateEntry(Fraction(o), _exact_pair(v, v))
            for o, v in zip(offsets, values)
        ]
        entries.append(
            TemplateEntry(Fraction(11, 3), (AtLeast(Fraction(2)), AtLeast(Fraction(2))))
        )
        return GadgetTemplate(kind, tuple(entries), breakline_budget=4, width=Fraction(16))

    if isinstance(kind, Inversion):
        offsets = (0, 1, 2, 4, 7, 9, 10, 11, 13, 15, 17, 18, 19)
        dim1 = (0, 0, 0, 3, 6, 6, 6, 6, 4, 2, 0, 0, 0)
        dim2 = (0, 0, 0, 0, 3, 6, 6, 6, 4, 2, 0, 0, 0)
        entries = tuple(
            TemplateEntry(Fraction(o), _exact_pair(v1, v2))
            for o, v1, v2 in zip(offsets, dim1, dim2)
        )
        return GadgetTemplate(kind, entries, breakline_budget=5, width=Fraction(19))

    if isinstance(kind, LowerBound):
        offsets = (0, 1, 2, 3, 5, 6, 7, 8)
        active = (0, 0, 0, -1, -1, 0, 0, 0)
        entries = tuple(
            TemplateEntry(
                Fraction(o),
                (
                    Exact(Fraction(v if 1 in kind.active_dims else 0)),
                    Exact(Fraction(v if 2 in kind.active_dims else 0)),
                ),
            )
            for o, v in zip(offsets, active)
        )
        return GadgetTemplate(kind, entries, breakline_budget=3, width=Fraction(8))

    raise GadgetError(f"unknown gadget kind {kind!r}")


# ---------------------------------------------------------------------------
# Placements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GadgetPlacement:
    """A template dropped into the plane: a normal and a base offset.

    The gadget occupies the stripe base_offset <= normal . p <= base_offset
    + width; entry at offset t lies on the line normal . p = base_offset + t.
    """

    template: GadgetTemplate
    normal: Direction
    base_offset: Rational

    def line_at(self, offset: Rational) -> OrientedLine:
        return OrientedLine(self.normal, self.base_offset + offset)

    def stripe(self) -> Tuple[Rational, Rational]:
        return (self.base_offset, self.base_offset + self.template.width)


# Measuring line offsets, (lower, upper) per output dimension.
_MEASURING = {
    Variable: {1: (Fraction(3), Fraction(5)), 2: (Fraction(3), Fraction(5))},
    Inversion: {1: (Fraction(3), Fraction(5)), 2: (Fraction(6), Fraction(8))},
}


def measuring_line(placement: GadgetPlacement, dim: int, side: str) -> OrientedLine:
    """The line where output dim reads 3 - s (lower) or 3 + s (upper).

    Measuring lines sit one unit on each side of a ramp midpoint, so a
    fitting network's values there sum to 6 regardless of the ramp slope s;
    each one alone reveals s. Lower-bound gadgets have none.
    """
    kind = placement.template.kind
    if isinstance(kind, LowerBound):
        raise NoSuchMeasuringLine("lower-bound gadgets have no measuring lines")
    if dim not in (1, 2):
        raise GadgetError(f"dim must be 1 or 2, got {dim}")
    try:
        lower, upper = _MEASURING[type(kind)][dim]
    except KeyError:
        raise GadgetError(f"unknown gadget kind {kind!r}") from None
    if side == "lower":
        return placement.line_at(lower)
    if side == "upper":
        return placement.line_at(upper)
    raise GadgetError(f"side must be 'lower' or 'upper', got {side!r}")


# ---------------------------------------------------------------------------
# States and profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GadgetState:
    """Free parameters of one placed gadget in a fitting network.

    Variable gadgets use slope_1 (both outputs share the ramp); inversion
    gadgets use both slopes, which must satisfy s1 * s2 = s1 + s2 (the
    inversion coupling); lower-bound gadgets use depth.
    """

    slope_1: Rational = Fraction(0)
    slope_2: Rational = Fraction(0)
    depth: Rational = Fraction(0)


def variable_state(slope) -> GadgetState:
    s = Fraction(slope)
    if not (SLOPE_MIN <= s <= SLOPE_MAX):
        raise InvalidState(f"slope {s} outside [{SLOPE_MIN}, {SLOPE_MAX}]")
    return GadgetState(slope_1=s, slope_2=s)


def inversion_state(slope_1) -> GadgetState:
    s1 = Fraction(slope_1)
    if not (SLOPE_MIN <= s1 <= SLOPE_MAX):
        raise InvalidState(f"slope {s1} outside [{SLOPE_MIN}, {SLOPE_MAX}]")
    s2 = s1 / (s1 - 1)
    if not (SLOPE_MIN <= s2 <= SLOPE_MAX):
        raise InvalidState(f"derived slope {s2} outside [{SLOPE_MIN}, {SLOPE_MAX}]")
    return GadgetState(slope_1=s1, slope_2=s2)


def lower_bound_state(depth) -> GadgetState:
    d = Fraction(depth)
    if d < DEPTH_MIN:
        raise InvalidState(f"depth {d} below {DEPTH_MIN}")
    return GadgetState(depth=d)


def ridge_changes(kind: GadgetKind, state: GadgetState) -> Tuple[Tuple[Rational, Tuple[Rational, Rational]], ...]:
    """Bend offsets and per-output slope changes of the gadget's profile.

    This is the single source of truth for gadget shapes: profile() sums
    these ridges directly and witness_neurons() turns each into one hidden
    unit, so the two can never drift apart.
    """
    if isinstance(kind, Variable):
        s = state.slope_1
        if s != state.slope_2:
            raise InvalidState("variable gadgets use one shared slope")
        if not (SLOPE_MIN <= s <= SLOPE_MAX):
            raise InvalidState(f"slope {s} outside [{SLOPE_MIN}, {SLOPE_MAX}]")
        return (
            (4 - 3 / s, (s, s)),
            (4 + 3 / s, (-s, -s)),
            (Fraction(8), (Fraction(-1), Fraction(-1))),
            (Fraction(14), (Fraction(1), Fraction(1))),
        )

    if isinstance(kind, Inversion):
        s1, s2 = state.slope_1, state.slope_2
        if s1 * s2 != s1 + s2:
            raise InvalidState(f"slopes {s1}, {s2} violate the inversion coupling")
        for s in (s1, s2):
            if not (SLOPE_MIN <= s <= SLOPE_MAX):
                raise InvalidState(f"slope {s} outside [{SLOPE_MIN}, {SLOPE_MAX}]")
        b1 = 4 - 3 / s1
        b2 = 4 + 3 / s1
        b3 = b2 + 6 / s2
        return (
            (b1, (s1, Fraction(0))),
            (b2, (-s1, s2)),
            (b3, (Fraction(0), -s2)),
            (Fraction(11), (Fraction(-1), Fraction(-1))),
            (Fraction(17), (Fraction(1), Fraction(1))),
        )

    if isinstance(kind, LowerBound):
        d = state.depth
        if d < DEPTH_MIN:
            raise InvalidState(f"depth {d} below {DEPTH_MIN}")
        u = d / (d - 1)
        arm = d - 1

        def act(v: Rational) -> Tuple[Rational, Rational]:
            return (
                v if 1 in kind.active_dims else Fraction(0),
                v if 2 in kind.active_dims else Fraction(0),
            )

        return (
            (NOTCH_CENTER - u, act(-arm)),
            (NOTCH_CENTER, act(2 * arm)),
            (NOTCH_CENTER + u, act(-arm)),
        )

    raise GadgetError(f"unknown gadget kind {kind!r}")


def profile(kind: GadgetKind, state: GadgetState, t: Rational) -> Tuple[Rational, Rational]:
    """Both outputs of the gadget's cross-section at offset t from the base."""
    f1 = Fraction(0)
    f2 = Fraction(0)
    for beta, (d1, d2) in ridge_changes(kind, state):
        if t > beta:
            f1 += d1 * (t - beta)
            f2 += d2 * (t - beta)
    return (f1, f2)


def witness_neurons(placement: GadgetPlacement, state: GadgetState) -> Tuple[HiddenNeuron, ...]:
    """Hidden units realizing the gadget's profile across its stripe.

    Each bend of the cross-section becomes one unit whose zero line is the
    bend line and whose inactive side faces the low-offset end, so the
    contribution vanishes outside the stripe on that side and, because the
    slope changes of each profile sum to zero, past the other end as well.
    """
    n = placement.normal
    out = []
    for beta, (d1, d2) in ridge_changes(placement.template.kind, state):
        out.append(
            HiddenNeuron(
                a1=n.n1,
                a2=n.n2,
                b=-(placement.base_offset + beta),
                c1=d1,
                c2=d2,
            )
        )
    return tuple(out)
