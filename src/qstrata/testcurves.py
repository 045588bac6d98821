"""Boundary test curves on Mbar_{g,2g-2} and their enumerative oracles.

Three families of one-parameter families of stable curves, each pinned
down by a genus split i and a marked-point split s:

* family A: a fixed genus-i curve carrying p_1..p_s is attached at a
  point that sweeps a fixed genus-(g-i) curve carrying the rest;
* family B: two fixed curves glued at a node, with p_{s+1} sweeping the
  genus-i side;
* family C: two fixed curves joined through a three-pointed rational
  bridge, with p_{s+1} sweeping the bridge.

curve_functional returns the intersection numbers of the family
against the whole divisor basis as a CurveFunctional in orbit form, read
off _curve_terms (which the coefficient solver reads too).  Each family
splits the labels into its own blocks of consecutive labels,

* family A: base {1..s} | rest {s+1..n};
* family B: base | {s+1} | rest {s+2..n};
* family C: base | {s+1} | {s+2} | tail {s+3..n},

and each of its at most five boundary terms is one whole orbit of those
blocks, so a functional stores one coefficient per orbit key and one psi
coefficient per block.  oracle returns the independently derived
intersection numbers of the same families against the divisor class of
the quadratic-differential stratum with signature (1^{2g-2}, 2^{g-1});
the two routes are compared by the audit in qstrata.classes, and the
known disagreements are reported there rather than patched here.

Degenerate parameter corners whose unstable component would be
contracted keep their functional meaning through the delta_{0:{j}} =
-psi_j bookkeeping that picard's term router (from_terms) applies per
orbit; the one spec that is rejected (family A with i=0, s=1) is the one
whose contraction would hand the moving role to a different labelled
point.

A functional whose boundary terms would list more than 1,000,000 labels
on their canonical sides (family A at i = g lists about n^2/2) is refused
with BudgetExceeded before its table is filled; the labels are counted per
orbit, as orbit size times canonical-side length.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import BudgetExceeded, InvalidSpec
from .picard import (
    _MAX_DENSE_ENTRIES,
    CurveFunctional,
    OrbitTable,
    orbit_size,
)

FAMILIES = ("A", "B", "C")


class TestCurveSpec(NamedTuple("_TestCurveSpec", [("family", str), ("g", int), ("i", int), ("s", int)])):
    __slots__ = ()

    def __new__(cls, family: str, g: int, i: int, s: int):
        validate_spec(family, g, i, s)
        return super().__new__(cls, family, g, i, s)

    def __str__(self):
        return "%s_{%d:%d} (g=%d)" % (self.family, self.i, self.s, self.g)


_S_TOP = {"A": 2, "B": 3, "C": 4}  # s <= 2g - top; s <= 2g-5 for A and C at i = g


def _s_bounds(family: str, g: int, i: int) -> tuple[int, int]:
    """The admissible s of the family at genus g and split i, lo <= s <= hi:
    the one statement of the ranges validate_spec and valid_specs use.
    Raises InvalidSpec for an unknown family, g < 2 or i outside [0, g]."""
    if family not in FAMILIES:
        raise InvalidSpec("unknown family %r" % (family,))
    if g < 2:
        raise InvalidSpec("test curves need g >= 2")
    if not 0 <= i <= g:
        raise InvalidSpec("i=%d outside [0, %d]" % (i, g))
    # at i = 0 family A needs s >= 2: else the genus-0 side would carry two
    # special points and be contracted onto the moving attachment point
    if i == 0:
        return (1 if family == "C" else 2), 2 * g - _S_TOP[family]
    return (1 if family == "A" else 0), 2 * g - (5 if i == g and family != "B" else _S_TOP[family])


def validate_spec(family: str, g: int, i: int, s: int) -> None:
    lo, hi = _s_bounds(family, g, i)
    if not lo <= s <= hi:
        raise InvalidSpec("family %s with g=%d, i=%d needs %d <= s <= %d" % (family, g, i, lo, hi))


def valid_specs(g: int, families=FAMILIES) -> Iterator[TestCurveSpec]:
    """Every admissible spec of these families at genus g, by family, then
    i, then s: the (i, s) ranges validate_spec accepts, so _make skips it."""
    make = TestCurveSpec._make
    for family in families if g >= 2 else ():
        for i in range(g + 1):
            lo, hi = _s_bounds(family, g, i)
            for s in range(lo, hi + 1):
                yield make((family, g, i, s))


def _curve_terms(family: str, g: int, i: int, s: int):
    """The one table of test-curve terms, (blocks, boundary, psi): the
    family's label blocks, its boundary terms (i, counts, c) and the psi
    coefficient of each block.  Not validated: the coefficient solver reads
    family A on the whole (i, s) grid."""
    n = 2 * g - 2
    if family == "A":
        blocks = [range(1, s + 1), range(s + 1, n + 1)]  # base | rest
        boundary = [(i, (s, 0), -(4 * g - 2 * i - 4 - s)), (i, (s, 1), 1)]
        return blocks, boundary, [0, 1]
    if family == "B":
        blocks = [range(1, s + 1), range(s + 1, s + 2), range(s + 2, n + 1)]  # base | s+1 | rest
        boundary = [(i, (s, 0, 0), 1), (i, (s, 1, 0), -1), (0, (1, 1, 0), 1)]
        return blocks, boundary, [1, 2 * i - 1 + s, 0]
    # base | s+1 | s+2 | tail
    blocks = [range(1, s + 1), range(s + 1, s + 2), range(s + 2, s + 3), range(s + 3, n + 1)]
    t = n - s - 2
    boundary = [
        (i, (s, 0, 0, 0), -1),
        (g - i, (0, 0, 0, t), -1),
        (0, (0, 1, 1, 0), 1),
        (i, (s, 1, 0, 0), 1),
        (g - i, (0, 1, 0, t), 1),
    ]
    return blocks, boundary, [0, 1, 1, 0]


def curve_functional(spec: TestCurveSpec) -> CurveFunctional:
    """The functional of the test curve on Mbar_{g,2g-2} over the label
    blocks of _curve_terms (runs of consecutive labels covering 1..n in
    order, some maybe empty), where psi[k] is the psi coefficient of every
    label of block k.

    A boundary term is c times the sum of delta_{i:S} over every S with
    counts[k] labels of block k: one orbit of the block permutations, or
    nothing when a count exceeds its block.  The terms go through
    CurveFunctional.from_terms, which routes delta_{0:{j}} to -psi_j.

    Each term lists orbit size x canonical-side length labels, and more
    than _MAX_DENSE_ENTRIES in all (the printed functional lists them) is
    refused with BudgetExceeded: family A at i = g has about n^2/2.
    """
    g, n = spec.g, 2 * spec.g - 2
    blocks, boundary, psi = _curve_terms(spec.family, g, spec.i, spec.s)
    keep = [k for k, blk in enumerate(blocks) if blk]
    # the table refuses a space with too many labels, before len() of a
    # block could overflow
    table = OrbitTable(g, n, [blocks[k] for k in keep])
    full = tuple(map(len, blocks))
    terms, labels = [], 0
    for i, counts, c in boundary:
        size = orbit_size(g, full, i, counts)
        if not size:
            continue
        if len(keep) < len(full):
            counts = tuple(counts[k] for k in keep)
        t = sum(counts)
        # on a tie the canonical side holds label 1, which opens block 0,
        # and every term holds block 0 wholly or not at all
        keeps = i < g - i or (2 * i == g and counts[0])
        labels += size * (t if keeps else n - t)
        if labels > _MAX_DENSE_ENTRIES:
            raise BudgetExceeded(
                "a test curve on Mbar_{%d,%d} would list more than the limit of %d boundary labels"
                % (g, n, _MAX_DENSE_ENTRIES)
            )
        terms.append((i, counts, c))
    return CurveFunctional.from_terms(table, 0, [psi[k] for k in keep], 0, terms)


def a_dot_qg_formula(g: int, i: int, s: int) -> int:
    """Intersection of A_{i:s} with the signature-(1^{2g-2}, 2^{g-1}) class.

    Counted by the degree of the tuple-to-line-bundle map on each side of
    the node, with the s = 2g-2 corner split into a torsion-twisted count
    plus a Weierstrass-point count.  The arguments are not validated: the
    coefficient solver evaluates the formula on the whole (i, s) grid.
    """
    if s != 2 * g - 2:
        return 4 ** (g - 1) * (s - 2 * i) ** 2 * (g - i)
    return (4 ** (g - i) - 1) * 4**i * (g - i - 1) ** 2 * (g - i) + 4**i * (
        g - i
    ) * (g - i + 1) * (g - i - 1)


def oracle(spec: TestCurveSpec) -> int:
    """The independently derived intersection of the test curve with the
    signature-(1^{2g-2}, 2^{g-1}) class; the spec was validated when built."""
    g, i, s = spec.g, spec.i, spec.s
    if spec.family == "A":
        return a_dot_qg_formula(g, i, s)
    if spec.family == "B":
        if s == 0:
            # the collision of the moving point with the node is excluded
            return 4 ** (g - 1) * i - 4 ** (g - i) * i
        return 4 ** (g - 1) * i
    if s == 0:  # family C
        return 4 ** (g - i) * i
    if s == 2 * g - 4:
        return 4**i * (g - i)
    return 0
