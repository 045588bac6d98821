"""Signature bookkeeping, stratum dimensions, component counts, multidegree.

quad_components reproduces the published classification of connected
components of strata of quadratic differentials: the finite-area table
(total counts) when no pole has order two or more, and the primitive
component count otherwise.  Components arising as squares of abelian
differentials are out of catalogue and only flagged in the notes.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import NamedTuple, Sequence

from .errors import BadInput, BadSignature, OutOfCatalog


class Signature(NamedTuple("_Signature", [("k", int), ("g", int), ("m", tuple[int, ...])])):
    """A k-differential signature: orders m with sum(m) = k(2g-2)."""

    __slots__ = ()

    def __new__(cls, k: int, g: int, m: Sequence[int]):
        m = tuple(int(x) for x in m)
        if k < 1:
            raise BadSignature("need k >= 1")
        if g < 0:
            raise BadSignature("need g >= 0")
        if sum(m) != k * (2 * g - 2):
            raise BadSignature("orders must sum to k(2g-2) = %d, got %d" % (k * (2 * g - 2), sum(m)))
        return super().__new__(cls, k, g, m)

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def holomorphic(self) -> bool:
        return all(x >= 0 for x in self.m)


def dim_stratum(sig: Signature) -> int:
    """Dimension of the stratum of k-differentials with this signature.

    2g+n-1 for holomorphic abelian signatures, 2g+n-2 in every other case.
    """
    if sig.k == 1 and sig.holomorphic:
        return 2 * sig.g + sig.n - 1
    return 2 * sig.g + sig.n - 2


def codim_p(sig: Signature) -> int:
    """Codimension in M_{g,n} of the pointed k-canonical locus."""
    if sig.k == 1 and sig.holomorphic:
        return sig.g - 1
    return sig.g


def multidegree(g: int, d: Sequence[int]) -> int:
    """Degree g! * prod(d_i^2) of the map sending a g-tuple of points on a
    general genus-g curve to the line bundle sum(d_i p_i)."""
    d = tuple(int(x) for x in d)
    if g < 1 or len(d) != g:
        raise BadInput("need exactly g >= 1 weights, got %d for g=%s" % (len(d), g))
    if any(x == 0 for x in d):
        raise BadInput("weights must be nonzero")
    out = factorial(g)
    for x in d:
        out *= x * x
    return out


class ComponentCount(NamedTuple):
    count: int
    kind: str  # "FiniteArea" | "PrimitiveOnly"
    notes: str


_SPORADIC = (
    Counter([-1, 9]),
    Counter([-1, 3, 6]),
    Counter([-1, 3, 3, 3]),
    Counter([12]),
)


def _lanneau_count(g: int, mu: Counter) -> tuple[int, str]:
    """Total component count for finite-area quadratic strata."""
    if g == 2:
        if mu == Counter({-1: 2, 6: 1}) or mu == Counter({-1: 2, 3: 2}):
            return 2, "exceptional genus-2 stratum with two components"
        return 1, "connected (finite-area table, genus 2)"
    # sporadic strata take precedence over the parametric families;
    # the two lists do not actually overlap
    if mu in _SPORADIC:
        return 2, "sporadic stratum with two components"
    # The families (4(g-t)-6, 4t+2) for 0 <= t <= g-2, (2(g-t)-3, 2(g-t)-3,
    # 4t+2) for 0 <= t <= g-1 and (2(g-t)-3, 2(g-t)-3, 2t+1, 2t+1) for
    # -1 <= t <= g-2.  The orders are nonzero, at least -1 and sum to 4g-4,
    # so an order = 2 mod 4 is 4t+2 with t in range, and the others follow:
    # each family is one test of the sorted orders.
    m = sorted(mu.elements())
    if (len(m) == 2 and m[0] % 4 == m[1] % 4 == 2
            or len(m) == 3 and (m[0] == m[1] and m[2] % 4 == 2 or m[1] == m[2] and m[0] % 4 == 2)
            or len(m) == 4 and m[0] == m[1] and m[2] == m[3] and m[0] % 2):
        return 2, "hyperelliptic and non-hyperelliptic component"
    return 1, "connected (finite-area table)"


def _primitive_count(mu: Counter) -> tuple[int, str]:
    """Primitive component count for strata with a pole of order >= 2."""
    pos = sorted((x for x in mu.elements() if x > 0), reverse=True)
    neg = sorted(x for x in mu.elements() if x < 0)
    two = None
    if len(pos) == 1 and neg == [-2]:
        two = "(2n, -2) shape"
    elif len(pos) == 1 and pos[0] % 2 == 0 and len(neg) == 2 and neg[0] == neg[1] and neg[0] % 2:
        two = "(2n, -l, -l) shape with l odd"
    elif (
        len(pos) == 2
        and pos[0] == pos[1]
        and pos[0] % 2
        and len(neg) == 1
        and neg[0] % 2 == 0
    ):
        two = "(n, n, -2l) shape with n odd"
    elif (
        len(pos) == 2
        and pos[0] == pos[1]
        and len(neg) == 2
        and neg[0] == neg[1]
        and (pos[0] % 2 or neg[0] % 2)
    ):
        two = "(n, n, -l, -l) shape with n, l not both even"
    if two is not None:
        return 2, "two primitive components: " + two
    return 1, "one primitive component"


def quad_components(sig: Signature) -> ComponentCount:
    """Connected-component count of a stratum of quadratic differentials.

    Finite-area strata (no pole of order >= 2) get the total count; strata
    with higher-order poles get the primitive count only, flagged
    PrimitiveOnly, since square components are not catalogued here.
    """
    if sig.k != 2:
        raise BadSignature("component catalogue covers k = 2 only")
    if sig.g < 2:
        raise OutOfCatalog("component catalogue covers g >= 2 only")
    if any(x == 0 for x in sig.m):
        raise BadSignature("orders must be nonzero for the classifier")
    mu = Counter(sig.m)
    if min(sig.m) >= -1:
        count, notes = _lanneau_count(sig.g, mu)
        return ComponentCount(count, "FiniteArea", notes)
    count, notes = _primitive_count(mu)
    if all(x % 2 == 0 for x in sig.m):
        notes += "; squares of abelian differentials may add components (not counted)"
    return ComponentCount(count, "PrimitiveOnly", notes)
