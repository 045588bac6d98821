"""Exact arithmetic in the rational Picard group of Mbar_{g,n}.

The divisor basis is the Hodge class lambda, the cotangent classes
psi_1, ..., psi_n, the irreducible boundary class delta_0, and the
separating boundary classes delta_{i:S} for 0 <= i <= g and
S a subset of {1, ..., n}.  A separating class names the locus of curves
with a node splitting off a genus-i piece carrying exactly the marked
points in S, so delta_{i:S} = delta_{g-i:S^c} and an index is stored in a
canonical form.  Genus-0 pieces need at least two marked points besides
the node, which rules out (0, S) with |S| < 2 and its mirror (g, S) with
|S| > n - 2.

Every divisor class and curve functional keeps its separating boundary
part in one form, an OrbitTable: the labels form groups, and one
coefficient is stored per orbit of the label permutations that preserve
the groups, named by the genus part i and how many labels of each group S
holds; psi is stored once per group too.  A closed-form class groups
labels of equal weight, a test-curve functional groups them into its own
blocks of consecutive labels, and a pullback adds or splits off one
group.  A dense {canonical (i, S): coefficient}, given as `boundary=` or
read from JSON, takes one input route: its labels are grouped by what a
label symmetry must preserve (psi_j and the delta_{0:{j,k}} row), and the
grouping is kept only when every orbit it meets is checked to be full and
constant; otherwise each label is a group of its own.  Each entry finds
its orbit by one integer code (OrbitTable._orbit_code), decoded once per
orbit.  The JSON reader keys a canonical entry, as qstrata writes them,
as the plain (i, S); any other goes through canonicalize_index.  Terms
given per orbit go through one router, from_terms.

A functional pairs with a class by walking its own divisors and looking
each one up in the class's table; equal label groups let equals compare
table against table.  JSON and the CLI table print from the same sorted
walk of the table's divisors, which formats each orbit's coefficient
once.  The dense view, built from that walk on first access to `boundary`
and cached, serves only add, sub and scale and the comparison of vectors
whose label groups differ.  Walking more than _MAX_DENSE_ENTRIES divisors
is refused with BudgetExceeded before anything is allocated; so is filling
a class table with more orbit keys than that, and so is any space
Mbar_{g,n} with more labels than that.

All coefficients are fractions.Fraction; there is no floating point in
this module.  Values are immutable after construction and all operations
are pure, so everything here is safe to share between threads.  The
only writes after construction are a vector's dense boundary and a table's
orbit code: threads that race to build one build equal values, and each
stores a complete one with a single assignment.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, product, repeat
from math import comb, prod
from operator import lt, mul, sub
from typing import Iterable, Mapping, NamedTuple

from .errors import BudgetExceeded, DimensionMismatch, DomainError, InvalidIndex, WrongGenus

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    # the exact-type test first: isinstance against Fraction is an ABC check
    if type(x) is Fraction:
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError("exact coefficient expected (int or Fraction), got %r" % (x,))


def _json_int(x) -> int:
    if type(x) is not int:  # bool is an int subclass, float a silent truncation
        raise TypeError("expected an integer, got %r" % (x,))
    return x


def _json_list(x) -> list:
    if type(x) is not list:  # an object or a string would read as its keys or characters
        raise TypeError("expected an array, got %s" % type(x).__name__)
    return x


def format_rational(x: Rational) -> str:
    x = _frac(x)
    return "%d/%d" % (x.numerator, x.denominator)


# a class file repeats few coefficients many times: parsing each string once
# also makes equal coefficients one object, which _grouped compares first
@lru_cache(maxsize=1024)
def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str):
        raise TypeError("expected a rational as a string such as \"3/2\", got %r" % (s,))
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        if not int(q):
            raise ValueError("zero denominator in %r" % s)
        return Fraction(int(p), int(q))
    return Fraction(int(s))


class BoundaryIndex(NamedTuple):
    """Canonical name of a separating boundary divisor.

    The representative with the smaller genus part is stored; on a tie
    (i = g - i) the side containing marked point 1 is kept, which in
    particular rewrites (i, {}) to (i, {1..n}).  A named tuple, so it
    orders, hashes and compares equal as the plain tuple (i, points).
    """

    i: int
    points: tuple[int, ...]  # sorted marked-point labels

    @property
    def point_set(self) -> frozenset[int]:
        return frozenset(self.points)

    def __str__(self) -> str:
        return "delta_{%d:{%s}}" % (self.i, ",".join(map(str, self.points)))


# Most boundary entries a class may list densely, most orbit keys a table
# may walk (with all weights distinct every orbit is one divisor), and
# most labels a space may have.
_MAX_DENSE_ENTRIES = 1_000_000


def _check_size(g: int, n: int, size: int, what: str) -> None:
    if size > _MAX_DENSE_ENTRIES:
        raise BudgetExceeded(
            "a class on Mbar_{%d,%d} would need %d %s, more than the limit of %d"
            % (g, n, size, what, _MAX_DENSE_ENTRIES)
        )


def _check_gn(g: int, n: int) -> None:
    if g < 2:
        raise InvalidIndex("genus must be >= 2, got g=%s" % (g,))
    if n < 1:
        raise InvalidIndex("need n >= 1 marked points, got n=%s" % (n,))
    # every class and functional on Mbar_{g,n} lists n psi coefficients
    _check_size(g, n, n, "psi coefficients")


def _labels(n: int) -> frozenset[int]:
    """The marked-point labels {1..n}, built per call so that none is kept."""
    return frozenset(range(1, n + 1))


_INT = frozenset({int})


def _class_is_valid(g: int, n: int, i: int, size: int) -> bool:
    # A genus-0 side must carry >= 2 marked points; stated on both
    # representatives: i = 0 forces |S| >= 2, i = g forces |S| <= n - 2.
    if i == 0 and size < 2:
        return False
    if i == g and size > n - 2:
        return False
    return True


def _is_canonical(g: int, n: int, i, S) -> bool:
    """Is (i, S) on Mbar_{g,n}, g >= 2, a canonical side as it stands: i an
    int, S a strictly increasing sequence of int labels in 1..n on the kept
    side (see BoundaryIndex), with at least two labels at genus 0?"""
    return (type(i) is int and _INT.issuperset(map(type, S)) and all(map(lt, S, S[1:]))
            and (0 < S[0] and S[-1] <= n if S else 0 < 2 * i < g)
            and (0 < 2 * i < g or i == 0 and len(S) > 1 or 2 * i == g and S[0] == 1))


def canonicalize_index(g: int, n: int, i: int, S: Iterable[int]) -> BoundaryIndex:
    """Return the canonical representative of delta_{i:S} on Mbar_{g,n}.

    Raises InvalidIndex when neither (i, S) nor (g-i, S^c) names a
    boundary divisor, or when S repeats a label.
    """
    points = tuple(S)
    S = frozenset(points)
    if len(S) != len(points):
        raise InvalidIndex("marked points %s repeat a label" % (list(points),))
    kind, idx = boundary_term(g, n, i, S)
    if kind != "delta":
        raise InvalidIndex(
            "(i=%d, S=%s) is not a boundary divisor on Mbar_{%d,%d}"
            % (i, sorted(S), g, n)
        )
    return idx


def boundary_term(g: int, n: int, i: int, S: Iterable[int]):
    """Classify the formal symbol delta_{i:S} for term accumulation.

    Returns ("delta", BoundaryIndex) for an actual boundary divisor,
    ("psi", j) for the degenerate singleton case delta_{0:{j}} = -psi_j,
    and ("zero", None) for delta_{0:{}} (or its mirror), which is no
    divisor at all.  An i outside 0..g or a label outside 1..n raises
    InvalidIndex; {1..n} is built only to name a side or label by S^c.
    """
    _check_gn(g, n)
    S = frozenset(S)
    if not 0 <= i <= g:
        raise InvalidIndex("genus part i=%s outside [0, %s]" % (i, g))
    # a label is an int in 1..n; 2.0, Fraction(2) and True are equal to
    # one, so the types are checked before the values
    if not (_INT.issuperset(map(type, S)) and all(0 < p <= n for p in S)):
        bad = next(p for p in S if type(p) is not int or not 1 <= p <= n)
        raise InvalidIndex("marked point %r is not one of the labels 1..%s" % (bad, n))
    if _class_is_valid(g, n, i, len(S)):
        # the kept side has the smaller genus part, on a tie label 1
        if i < g - i or (2 * i == g and 1 in S):
            return ("delta", BoundaryIndex(i, tuple(sorted(S))))
        return ("delta", BoundaryIndex(g - i, tuple(sorted(_labels(n) - S))))
    if i == 0 and len(S) == 1:
        return ("psi", next(iter(S)))
    if i == g and n - len(S) == 1:
        return ("psi", next(iter(_labels(n) - S)))
    # an invalid side has i = 0 and |S| < 2 or i = g and n - |S| < 2; the
    # one-label cases are psi above, so S is empty at i = 0 or full at i = g
    return ("zero", None)


def canonical_boundary_indices(g: int, n: int) -> list[BoundaryIndex]:
    """All separating boundary classes on Mbar_{g,n}, each exactly once."""
    _check_gn(g, n)
    labels = range(1, n + 1)
    out = []
    for i in range(0, g // 2 + 1):
        for size in range(0, n + 1):
            if not _class_is_valid(g, n, i, size):
                continue
            for S in combinations(labels, size):
                if 2 * i == g and 1 not in S:
                    continue  # the mirror representative carries label 1
                out.append(BoundaryIndex(i, S))
    return out


def orbit_key(g: int, sizes: tuple[int, ...], i: int, counts: Iterable[int]):
    """Canonical name of the orbit of delta_{i:S}, where counts[k] is the
    number of labels of group k in S and sizes[k] the size of group k:
    the smaller of (i, counts) and its mirror (g-i, sizes - counts)."""
    counts = tuple(counts)
    if 2 * i < g:
        return (i, counts)
    mirror = (g - i, tuple(map(sub, sizes, counts)))
    return mirror if 2 * i > g else min((i, counts), mirror)


def self_mirror(g: int, sizes: tuple[int, ...], i: int, counts: tuple[int, ...]) -> bool:
    """Is the orbit (i, counts) its own mirror, so that S and S^c lie in it
    and name one divisor?"""
    return 2 * i == g and all(2 * c == z for z, c in zip(sizes, counts))


def orbit_size(g: int, sizes: tuple[int, ...], i: int, counts: tuple[int, ...]) -> int:
    """Number of boundary divisors in the orbit (i, counts); 0 when a
    count exceeds its group."""
    size = prod(map(comb, sizes, counts))
    return size // 2 if self_mirror(g, sizes, i, counts) else size


class OrbitTable:
    """Separating boundary coefficients that are constant on label orbits.

    `OrbitTable(g, n, groups)` splits the labels 1..n into the given
    groups: nonempty sorted label sequences, ordered by their smallest
    label and covering 1..n.  A closed-form class groups labels of equal
    weight (weight_table), a test-curve functional its blocks, and a
    pullback or a dense input its own grouping.  A coefficient is stored
    per canonical orbit key (see orbit_key) that names a boundary divisor;
    zero coefficients are not stored.  Fill the table with `put` before
    handing it to a DivisorClass or CurveFunctional, which never changes
    it afterwards.
    """

    __slots__ = ("g", "n", "groups", "sizes", "coeffs", "_code")

    def __init__(self, g: int, n: int, groups: Iterable):
        _check_gn(g, n)
        self.g = g
        self.n = n
        self.groups = tuple(groups)
        self.sizes = tuple(map(len, self.groups))
        self.coeffs: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        self._code = None

    def keys(self):
        """Every canonical orbit key that names a boundary divisor."""
        g, sizes = self.g, self.sizes
        _check_size(g, self.n, (g + 1) * prod(z + 1 for z in sizes), "orbit keys")
        for i in range(g // 2 + 1):  # a key names the side with i <= g - i
            for counts in product(*(range(z + 1) for z in sizes)):
                key = (i, counts)
                if _class_is_valid(g, self.n, i, sum(counts)) and orbit_key(g, sizes, *key) == key:
                    yield key

    def put(self, key, c: Rational) -> None:
        c = _frac(c)
        if c:
            self.coeffs[key] = c

    def _orbit_code(self):
        """(code, key), built on first use: code(i, S) names the orbit of
        delta_{i:S}, (i, S) a canonical side, by one integer, and key(code)
        is its orbit_key.  Each group has a digit wide enough for its size,
        in group order, so the labels of S sum to its counts read as digits,
        with i above them; on a tie (2i = g) the code keeps the smaller of S
        and S^c, as orbit_key does, since digit order is tuple order."""
        if self._code is None:
            g, width, bits = self.g, len(self.groups), max(self.sizes).bit_length()
            shifts = range(bits * (width - 1), -1, -bits)
            weight = [0] * (self.n + 1)
            for labels, shift in zip(self.groups, shifts):
                for j in labels:
                    weight[j] = 1 << shift
            full, top, mask, digit = sum(weight), bits * width, (1 << bits) - 1, weight.__getitem__

            def code(i, S):
                c = sum(map(digit, S)) if width > 1 else len(S)
                return i << top | (min(c, full - c) if 2 * i == g else c)

            def key(value):
                return value >> top, tuple([value >> shift & mask for shift in shifts])

            self._code = code, key
        return self._code

    def get(self, idx: BoundaryIndex) -> Fraction:
        code, key = self._orbit_code()
        return self.coeffs.get(key(code(*idx)), Fraction(0))

    def dense_size(self) -> int:
        """Number of entries of the dense view, counted without building it."""
        if len(self.groups) == self.n:
            return len(self.coeffs)  # one label per group: one divisor per orbit
        return sum(orbit_size(self.g, self.sizes, i, counts) for i, counts in self.coeffs)

    def _divisors(self):
        """The one walk of the divisors: (i, sides, c) per orbit, sides the
        sorted canonical side S of each divisor, once.  A key has i <= g - i,
        so only a tie needs the side holding label 1, and a self-mirror
        orbit, naming each divisor as S and as S^c, drops the second name."""
        _check_size(self.g, self.n, self.dense_size(), "dense boundary entries")
        g, n, groups = self.g, self.n, self.groups
        labels, points = _labels(n), range(1, n + 1)

        listed = {}

        def subsets(j, k):  # this walk's k-subsets of group j, listed when first met
            return listed.get((j, k)) or listed.setdefault((j, k), tuple(combinations(groups[j], k)))

        for (i, counts), c in self.coeffs.items():
            if len(groups) == n:
                # one label per group: counts marks the labels of S
                sides = (tuple(compress(points, counts)),)
            elif len(groups) == 1:
                sides = subsets(0, counts[0])  # sorted, as the group is
            else:
                parts = product(*map(subsets, range(len(groups)), counts))
                sides = map(tuple, map(sorted, map(chain.from_iterable, parts)))
            if 2 * i == g:
                if self_mirror(g, self.sizes, i, counts):
                    sides = [S for S in sides if S[0] == 1]
                else:
                    sides = [S if S and S[0] == 1 else tuple(sorted(labels.difference(S))) for S in sides]
            yield i, sides, c

    def dense(self) -> dict[BoundaryIndex, Fraction]:
        return {BoundaryIndex(i, S): c for i, sides, c in self._divisors() for S in sides}

    def _rendered(self) -> list[tuple[int, tuple[int, ...], str]]:
        """Every divisor as sorted (i, S, "p/q"), formatted once per orbit."""
        rows = []
        for i, sides, c in self._divisors():
            rows += zip(repeat(i), sides, repeat(format_rational(c)))
        rows.sort()
        return rows


def weight_table(g: int, n: int, weights: Iterable[int]) -> tuple[OrbitTable, tuple]:
    """An empty closed-form class table over the groups of labels of equal
    weight, and the weight of each group."""
    _check_gn(g, n)
    # every grouping has at least (g + 1)(n + 1) orbit keys, and a class
    # table walks them all: refuse before reading the n weights
    _check_size(g, n, (g + 1) * (n + 1), "orbit keys")
    weights = tuple(weights)
    if len(weights) != n:
        raise DimensionMismatch("expected %d label weights" % n)
    first = {}
    for j, w in enumerate(weights, start=1):
        first.setdefault(w, []).append(j)
    return OrbitTable(g, n, map(tuple, first.values())), tuple(first)


def _grouped(g: int, n: int, groups, total) -> OrbitTable | None:
    """A table over these label groups holding the dense entries `total`
    ((canonical (i, S), nonzero coefficient), each index once), or None
    when some orbit it meets has two coefficients or misses a divisor."""
    table = OrbitTable(g, n, groups)
    if total:
        code, key = table._orbit_code()
        coeffs = {}
        for (i, S), c in total:
            old = coeffs.setdefault(code(i, S), c)
            if old is not c and old != c:
                return None
        table.coeffs = {key(k): c for k, c in coeffs.items()}
    # no orbit holds more entries than divisors: equal totals mean that
    # every orbit met is full
    return table if table.dense_size() == len(total) else None


def _from_dense(g: int, n: int, psi, boundary: Mapping) -> tuple[OrbitTable, tuple]:
    """The input adapter: a dense {canonical (i, S) tuple: coefficient}
    and per-label psi as a table, and its psi per group.

    A label permutation that fixes the class maps the psi and
    delta_{0:{j,k}} coefficients of label j onto those of its image, so
    labels are grouped by psi_j and the sorted delta_{0:{j,k}} row over
    k != j.  The grouping is kept when every orbit the entries meet gets
    one coefficient from all of its divisors, so that the dense view is
    `boundary` less its zeros, entry for entry; otherwise each label is a
    group of its own.
    """
    psi = tuple(map(_frac, psi or (0,) * n))
    if len(psi) != n:
        raise DimensionMismatch("expected %d psi coefficients, one per label" % n)
    total, rows = [], [[] for _ in range(n + 1)]
    for idx, c in boundary.items():
        c = _frac(c)
        if c:
            total.append((idx, c))
            i, S = idx
            if i == 0 and len(S) == 2:
                for j in S:
                    rows[j].append(c)
    by_row = {}
    for j in range(1, n + 1):
        by_row.setdefault((psi[j - 1], tuple(sorted(rows[j]))), []).append(j)
    # a candidate of one label per group is the fallback, which always fits
    table = _grouped(g, n, map(tuple, by_row.values()), total)
    table = table or _grouped(g, n, [(j,) for j in range(1, n + 1)], total)
    return table, tuple(psi[labels[0] - 1] for labels in table.groups)


class _PicardVector:
    """Shared coefficient storage for divisor classes and curve functionals.

    The boundary part is an OrbitTable (`orbits`) and the psi coefficients
    are given one per label group (`group_psi`).  Without a table, the
    input adapter takes a dense {canonical BoundaryIndex: coefficient}
    (`boundary`) and per-label psi, and builds a table in the one candidate
    grouping `_from_dense` checks, else with one group per label.  The
    per-label psi is filled in at construction; the dense boundary is a
    view built on first access.
    """

    __slots__ = ("g", "n", "lam", "group_psi", "delta0", "orbits", "psi", "_dense")

    def __init__(self, g, n, lam=0, psi=None, delta0=0, boundary=None, orbits=None):
        _check_gn(g, n)
        self.g = g
        self.n = n
        self.lam = _frac(lam)
        self.delta0 = _frac(delta0)
        self._dense = None
        if orbits is None:
            orbits, psi = _from_dense(g, n, psi, boundary or {})
        self._same_space(orbits)
        self.orbits = orbits
        width = len(orbits.groups)
        self.group_psi = tuple(_frac(c) for c in (psi or (0,) * width))
        if len(self.group_psi) != width:
            raise DimensionMismatch("expected %d psi coefficients, one per label group" % width)
        psi = [None] * n
        for labels, c in zip(orbits.groups, self.group_psi):
            for j in labels:
                psi[j - 1] = c
        self.psi = tuple(psi)  # one per label

    @classmethod
    def from_terms(cls, table: OrbitTable, lam, group_psi, delta0, terms):
        """The vector with these lambda, group psi and delta_0 coefficients
        and the boundary terms (i, counts, c) over the groups of the empty
        table, which it fills.

        A term adds c to every divisor of the orbit (i, counts), once per
        divisor.  Like boundary_term, a term naming delta_{0:{j}} (or its
        mirror) adds -c to psi on the group of j instead, and one naming
        delta_{0:{}} (or its mirror) adds nothing.
        """
        g, n, sizes = table.g, table.n, table.sizes
        group_psi = list(group_psi)
        coeffs = {}
        for i, counts, c in terms:
            t = sum(counts)
            if _class_is_valid(g, n, i, t):
                key = orbit_key(g, sizes, i, counts)
                old = coeffs.get(key)
                coeffs[key] = c if old is None else old + c
            elif i == 0 and t == 1:
                group_psi[counts.index(1)] -= c
            elif i == g and t == n - 1:
                group_psi[list(map(sub, sizes, counts)).index(1)] -= c
        for key, c in coeffs.items():
            table.put(key, c)
        return cls(g, n, lam, group_psi, delta0, orbits=table)

    @property
    def boundary(self) -> dict[BoundaryIndex, Fraction]:
        """Dense boundary coefficients, nonzero entries only."""
        if self._dense is None:
            self._dense = self.orbits.dense()
        return self._dense

    # -- coefficient access ------------------------------------------------

    def psi_coeff(self, j: int) -> Fraction:
        if not 1 <= j <= self.n:
            raise InvalidIndex("psi index %s outside 1..%d" % (j, self.n))
        return self.psi[j - 1]

    def boundary_coeff(self, i: int, S: Iterable[int]) -> Fraction:
        return self.orbits.get(canonicalize_index(self.g, self.n, i, S))

    def _coeffs(self):
        return (self.lam, self.psi, self.delta0, self.boundary)

    def _same(self, other) -> bool:
        """Coefficientwise equality: table against table when the label
        groups agree, else over the dense views."""
        if self.orbits.groups == other.orbits.groups:
            return (self.lam, self.group_psi, self.delta0, self.orbits.coeffs) == (
                other.lam, other.group_psi, other.delta0, other.orbits.coeffs)
        return self._coeffs() == other._coeffs()

    def _same_space(self, other) -> None:
        if (self.g, self.n) != (other.g, other.n):
            raise DimensionMismatch(
                "operands live on Mbar_{%d,%d} and Mbar_{%d,%d}"
                % (self.g, self.n, other.g, other.n)
            )

    # -- linear structure ----------------------------------------------------

    def _combine(self, other, r: Rational, s: Rational = 1):
        """s * self + r * other, over the dense views."""
        self._same_space(other)
        r, s = _frac(r), _frac(s)
        boundary = {idx: s * c for idx, c in self.boundary.items()}
        for idx, c in other.boundary.items():
            boundary[idx] = boundary.get(idx, 0) + r * c
        return type(self)(
            self.g,
            self.n,
            s * self.lam + r * other.lam,
            [s * a + r * b for a, b in zip(self.psi, other.psi)],
            s * self.delta0 + r * other.delta0,
            boundary,
        )

    def add(self, other):
        return self._combine(other, 1)

    def sub(self, other):
        return self._combine(other, -1)

    def scale(self, r: Rational):
        return self._combine(self, r, 0)

    def is_zero(self) -> bool:
        return not (self.lam or self.delta0 or any(self.group_psi) or self.orbits.coeffs)

    # -- serialization -------------------------------------------------------

    def to_jsonable(self) -> dict:
        d = {
            "g": self.g,
            "n": self.n,
            "lambda": format_rational(self.lam),
            "psi": [format_rational(c) for c in self.psi],
            "delta0": format_rational(self.delta0),
            "boundary": [{"i": i, "S": list(S), "c": c} for i, S, c in self.orbits._rendered()],
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), check_circular=False)  # a tree of lists and dicts

    @classmethod
    def from_jsonable(cls, d: Mapping):
        g, n = _json_int(d["g"]), _json_int(d["n"])
        if cls is DivisorClass and d.get("functional"):  # d had "g": a JSON object
            raise TypeError("the file holds a curve functional, not a divisor class")
        # entries naming the same class under mirrored indices accumulate
        boundary, checked = {}, False
        for e in _json_list(d["boundary"]):
            # once an entry has checked (g, n), a canonical one is its own key
            if (checked and type(i := e["i"]) is int and type(S := e["S"]) is list
                    and _is_canonical(g, n, i, S)):
                idx = (i, tuple(S))
            else:
                i, S = _json_int(e["i"]), e["S"]
                try:
                    idx = canonicalize_index(g, n, i, S)
                except (DomainError, TypeError):
                    for p in S:
                        _json_int(p)  # a float, bool or str label is a TypeError, checked first
                    raise
                _json_list(S)  # "" or {} would name the empty set
                checked = True
            c, size = parse_rational(e["c"]), len(boundary)
            old = boundary.setdefault(idx, c)  # one hash of idx when it is new
            if len(boundary) == size:
                boundary[idx] = old + c
        return cls(g, n, parse_rational(d["lambda"]),
                   tuple(map(parse_rational, _json_list(d["psi"]))), parse_rational(d["delta0"]), boundary)

    def __repr__(self):
        # no dense view: a large class must still print
        return "%s(g=%d, n=%d, lambda=%s, delta0=%s, group_sizes=%r, orbit_keys=%d)" % (
            type(self).__name__, self.g, self.n, format_rational(self.lam),
            format_rational(self.delta0), self.orbits.sizes, len(self.orbits.coeffs))


class DivisorClass(_PicardVector):
    """A rational divisor class on Mbar_{g,n}, stored in the standard basis."""

    def equals(self, other: "DivisorClass") -> bool:
        """Coefficientwise equality; for g = 2 equality of normal forms.

        Two classes whose orbit tables have the same label groups are
        compared table against table, without building the dense view.
        The genus-2 Picard group carries the single relation
        lambda = delta_0/10 + delta_1/5, so classes there agree exactly
        when their lambda-free normal forms do.
        """
        self._same_space(other)
        if self.g == 2:
            return g2_normal_form(self)._same(g2_normal_form(other))
        return self._same(other)

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    @classmethod
    def from_json(cls, s: str) -> "DivisorClass":
        return cls.from_jsonable(json.loads(s))


class CurveFunctional(_PicardVector):
    """Intersection numbers of a one-parameter family against the basis.

    Pairing a functional with a DivisorClass is the bilinear form
    sum over basis elements of (functional value) * (class coefficient).
    The sum walks the functional's own divisors and looks each one up in
    the class's table, whatever the label groups of either side, so it
    costs one lookup per divisor the functional lists and builds no dense
    view.
    """

    def pair(self, d: DivisorClass) -> Fraction:
        self._same_space(d)
        get = d.orbits.get
        total = self.lam * d.lam + self.delta0 * d.delta0 + sum(map(mul, self.psi, d.psi))
        for i, sides, c in self.orbits._divisors():
            total += c * sum(get(BoundaryIndex(i, S)) for S in sides)
        return total

    def __eq__(self, other):
        if not isinstance(other, CurveFunctional):
            return NotImplemented
        self._same_space(other)
        return self._same(other)

    __hash__ = None

    def to_jsonable(self) -> dict:
        d = super().to_jsonable()
        d["functional"] = True
        return d


def pair(f: CurveFunctional, d: DivisorClass) -> Fraction:
    return f.pair(d)


def lambda_class(g: int, n: int) -> DivisorClass:
    return DivisorClass(g, n, lam=1)


def psi_class(g: int, n: int, j: int) -> DivisorClass:
    psi = [0] * n
    psi[j - 1] = 1
    return DivisorClass(g, n, psi=psi)


def delta0_class(g: int, n: int) -> DivisorClass:
    return DivisorClass(g, n, delta0=1)


def boundary_class(g: int, n: int, i: int, S: Iterable[int]) -> DivisorClass:
    return DivisorClass(g, n, boundary={canonicalize_index(g, n, i, S): 1})


def genus1_boundary_sum(g: int, n: int) -> DivisorClass:
    """Sum of all distinct boundary classes with a genus-1 side (g = 2 only)."""
    if g != 2:
        raise WrongGenus("genus-1 boundary total only defined for g=2")
    total = {}
    for idx in canonical_boundary_indices(g, n):
        if idx.i == 1:
            total[idx] = Fraction(1)
    return DivisorClass(g, n, boundary=total)


def g2_normal_form(d: DivisorClass) -> DivisorClass:
    """Unique representative with zero lambda coefficient, genus 2 only.

    Substitutes lambda = delta_0/10 + (1/5) * (sum of the distinct
    genus-1 boundary classes); idempotent by construction.
    """
    if d.g != 2:
        raise WrongGenus("normal form uses the genus-2 relation, got g=%d" % d.g)
    if not d.lam:
        return d
    # the relation delta_0/10 + (genus-1 classes)/5 - lambda = 0, added lambda times
    genus1 = genus1_boundary_sum(2, d.n).boundary
    relation = DivisorClass(2, d.n, -1, None, Fraction(1, 10), dict.fromkeys(genus1, Fraction(1, 5)))
    return d._combine(relation, d.lam)
