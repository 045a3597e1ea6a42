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
from functools import cached_property
from typing import Tuple, Union

from .geometry import Direction, OrientedLine, Point2, Rational
from .network import HiddenNeuron

SLOPE_MIN = Fraction(3, 2)
SLOPE_MAX = Fraction(3)
DEPTH_MIN = Fraction(2)
# Offset of a lower-bound gadget's notch: its deepest bend, where the weak
# point it serves sits.
NOTCH_CENTER = Fraction(4)
_ZERO = Fraction(0)


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

    @cached_property
    def values(self) -> Tuple[Rational, Rational]:
        """The two label values: a data line's targets, one pair object per
        entry, which every point realized on the line shares."""
        return (self.labels[0].value, self.labels[1].value)


@dataclass(frozen=True)
class GadgetTemplate:
    kind: GadgetKind
    entries: Tuple[TemplateEntry, ...]
    breakline_budget: int
    width: Rational

    @cached_property
    def data_entries(self) -> Tuple[TemplateEntry, ...]:
        return tuple(e for e in self.entries if not e.is_weak)

    @cached_property
    def weak_entries(self) -> Tuple[TemplateEntry, ...]:
        return tuple(e for e in self.entries if e.is_weak)


def _exact_pair(v1, v2) -> Tuple[Label, Label]:
    return (Exact(Fraction(v1)), Exact(Fraction(v2)))


def _on_active_dims(kind: LowerBound, v: Rational) -> Tuple[Rational, Rational]:
    """v in each output a lower-bound gadget acts on, 0 in the other."""
    return tuple(v if d in kind.active_dims else _ZERO for d in (1, 2))


def _build_template(kind: GadgetKind) -> GadgetTemplate:
    """The data-line table of a Variable, an Inversion or else a LowerBound."""
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

    offsets = (0, 1, 2, 3, 5, 6, 7, 8)
    active = (0, 0, 0, -1, -1, 0, 0, 0)
    entries = tuple(
        TemplateEntry(Fraction(o), _exact_pair(*_on_active_dims(kind, Fraction(v))))
        for o, v in zip(offsets, active)
    )
    return GadgetTemplate(kind, entries, breakline_budget=3, width=Fraction(8))


# Every gadget kind there is: LowerBound admits only these three dim sets.
_TEMPLATES = {
    kind: _build_template(kind)
    for kind in (Variable(), Inversion(), LowerBound((1,)), LowerBound((2,)), LowerBound((1, 2)))
}


def template(kind: GadgetKind) -> GadgetTemplate:
    """The fixed data-line table for a gadget kind, built once per kind."""
    try:
        return _TEMPLATES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise GadgetError(f"unknown gadget kind {kind!r}") from None


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


# Measuring line offsets, (lower, upper), per gadget kind and output dimension.
_MEASURING = {
    (Variable(), 1): (Fraction(3), Fraction(5)),
    (Variable(), 2): (Fraction(3), Fraction(5)),
    (Inversion(), 1): (Fraction(3), Fraction(5)),
    (Inversion(), 2): (Fraction(6), Fraction(8)),
}


def measuring_offset(kind: GadgetKind, dim: int, side: str) -> Rational:
    """Offset of the line where output dim reads 3 - s (lower) or 3 + s (upper).

    Measuring lines sit one unit on each side of a ramp midpoint, so a
    fitting network's values there sum to 6 regardless of the ramp slope s;
    each one alone reveals s. Lower-bound gadgets have none.
    """
    if isinstance(kind, LowerBound):
        raise NoSuchMeasuringLine("lower-bound gadgets have no measuring lines")
    lower, upper = _MEASURING[kind, dim]
    return {"lower": lower, "upper": upper}[side]


def measuring_line(placement: GadgetPlacement, dim: int, side: str) -> OrientedLine:
    """The placed gadget's measuring line; see measuring_offset()."""
    return placement.line_at(measuring_offset(placement.template.kind, dim, side))


def placed_through(
    tpl: GadgetTemplate, normal: Direction, offset: Rational, p: Point2
) -> GadgetPlacement:
    """The placement of tpl along normal whose line at offset passes through p."""
    return GadgetPlacement(tpl, normal, normal.n1 * p.x1 + normal.n2 * p.x2 - offset)


# ---------------------------------------------------------------------------
# States and profiles
# ---------------------------------------------------------------------------

def inversion_partner(s: Rational) -> Rational:
    """The dimension-2 slope s2 of an inversion gadget whose dimension-1 slope is s.

    s * s2 = s + s2, so the encoded values s - 1 and s2 - 1 multiply to 1;
    the map takes [3/2, 3] onto itself.
    """
    p, q = s.numerator, s.denominator
    return Fraction(p, p - q)


Ridges = Tuple[Tuple[Rational, Tuple[Rational, Rational]], ...]

# The last two ridges of every variable and inversion profile: the descent
# with slope -1 from the plateau at 6 starts at the first and ends at 0 at
# the second.
_VARIABLE_TAIL = (
    (Fraction(8), (Fraction(-1), Fraction(-1))),
    (Fraction(14), (Fraction(1), Fraction(1))),
)
_INVERSION_TAIL = (
    (Fraction(11), (Fraction(-1), Fraction(-1))),
    (Fraction(17), (Fraction(1), Fraction(1))),
)


def ridge_changes(kind: GadgetKind, state: Rational) -> Ridges:
    """Bend offsets and per-output slope changes of the gadget's profile.

    The state is one exact number: a variable gadget's ramp slope, an
    inversion gadget's dimension-1 slope, or a lower-bound gadget's notch
    depth. This is the one place a state is checked (InvalidState) and the
    single source of truth for gadget shapes: ridge_sum() reads the profile
    off these ridges and witness_neurons() turns each into one hidden unit,
    so the two can never drift apart. profile() derives them on each call;
    the reducer's witness() derives them once per distinct (kind, state) in
    a call and reads both its weak points' profiles and its units off them.
    """
    if isinstance(kind, LowerBound):
        d = state
        if d < DEPTH_MIN:
            raise InvalidState(f"depth {d} below {DEPTH_MIN}")
        # With d = p/q, the arms fall and rise d - 1 = arm/q and reach 0 at
        # u = d/(d - 1) = p/arm either side of the centre c = k/m.
        p, q = d.numerator, d.denominator
        k, m = NOTCH_CENTER.numerator, NOTCH_CENTER.denominator
        arm = p - q
        side = _on_active_dims(kind, Fraction(-arm, q))
        return (
            (Fraction(k * arm - m * p, m * arm), side),
            (NOTCH_CENTER, _on_active_dims(kind, Fraction(2 * arm, q))),
            (Fraction(k * arm + m * p, m * arm), side),
        )

    if not isinstance(kind, (Variable, Inversion)):
        raise GadgetError(f"unknown gadget kind {kind!r}")
    s = state
    if not (SLOPE_MIN <= s <= SLOPE_MAX):
        raise InvalidState(f"slope {s} outside [{SLOPE_MIN}, {SLOPE_MAX}]")

    # The ramp rises from offset 4 - 3/s to 4 + 3/s; with s = p/q those
    # are (4p -+ 3q)/p.
    p, q = s.numerator, s.denominator
    b1, b2 = Fraction(4 * p - 3 * q, p), Fraction(4 * p + 3 * q, p)
    if isinstance(kind, Variable):
        fall = -s
        return ((b1, (s, s)), (b2, (fall, fall))) + _VARIABLE_TAIL

    # Dimension 2 rises with slope s2 from b2 to 6, which it reaches 6/s2
    # = 6(p - q)/p later, at (10p - 3q)/p.
    s2 = inversion_partner(s)
    return (
        (b1, (s, _ZERO)),
        (b2, (-s, s2)),
        (Fraction(10 * p - 3 * q, p), (_ZERO, -s2)),
    ) + _INVERSION_TAIL


def ridge_sum(ridges: Ridges, t: Rational) -> Tuple[Rational, Rational]:
    """Both outputs at offset t of the profile that bends at ridges.

    Each ridge beta < t adds d*(t - beta) in each output. The sums run in
    ints, each output over its own running denominator, and only the two
    results are built as Fractions.
    """
    tn, td = t.numerator, t.denominator
    n1 = n2 = 0
    e1 = e2 = 1
    for beta, (d1, d2) in ridges:
        bd = beta.denominator
        rise = tn * bd - beta.numerator * td  # (t - beta) * td * bd
        if rise > 0:
            e = td * bd
            q1, q2 = d1.denominator * e, d2.denominator * e
            n1, e1 = n1 * q1 + d1.numerator * rise * e1, e1 * q1
            n2, e2 = n2 * q2 + d2.numerator * rise * e2, e2 * q2
    return (Fraction(n1, e1), Fraction(n2, e2))


def profile(kind: GadgetKind, state: Rational, t: Rational) -> Tuple[Rational, Rational]:
    """Both outputs of the gadget's cross-section at offset t from the base."""
    return ridge_sum(ridge_changes(kind, state), t)


def witness_neurons(placement: GadgetPlacement, ridges: Ridges) -> Tuple[HiddenNeuron, ...]:
    """Hidden units realizing the placed gadget's profile, given its ridges
    (ridge_changes() of its kind and state), across its stripe.

    Each bend of the cross-section becomes one unit whose zero line is the
    bend line and whose inactive side faces the low-offset end, so the
    contribution vanishes outside the stripe on that side and, because the
    slope changes of each profile sum to zero, past the other end as well.
    """
    n = placement.normal
    start = -placement.base_offset
    return tuple(
        HiddenNeuron(a1=n.n1, a2=n.n2, b=start - beta, c1=d1, c2=d2)
        for beta, (d1, d2) in ridges
    )
