"""The dense class path: boundary-index validation, key order and output.

`boundary_term` is the one validator of boundary indices, and
`canonicalize_index` returns input that is already canonical as it is.
JSON and the table are printed from one list of sorted rows, walked
over the label subsets for a table at least half full and otherwise over
the divisors of each orbit, the walk that builds the dense
{BoundaryIndex: coefficient} view.  These tests pin the rejections, the
output order of the keys, the rows against the dense view, and a digest
of the dense output recorded before the keys became named tuples.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from qstrata import (
    BoundaryIndex,
    InvalidIndex,
    QdInput,
    canonical_boundary_indices,
    canonicalize_index,
    curve_functional,
    forget_pullback,
    logan_class,
    pullback_attach,
    qd_class,
    qg_class,
)
from qstrata.picard import boundary_term, format_rational, self_mirror
from qstrata.testcurves import TestCurveSpec as CurveSpec


@pytest.mark.parametrize("label", [0, 5, 2.0, Fraction(2), True, "1"])
def test_boundary_term_rejects_non_labels(label):
    # n = 4: the labels are the ints 1..4, not values equal to them
    for i in (0, 1, 2):
        with pytest.raises(InvalidIndex):
            boundary_term(3, 4, i, {label})
        with pytest.raises(InvalidIndex):
            boundary_term(3, 4, i, {label, 3})


def test_boundary_term_accepts_any_iterable_of_labels():
    expected = ("delta", BoundaryIndex(1, (1, 3)))
    for S in ({1, 3}, frozenset({3, 1}), (3, 1), [1, 3, 1], range(1, 4, 2), iter((1, 3))):
        assert boundary_term(3, 4, 1, S) == expected
    assert boundary_term(3, 4, 2, (2, 4)) == ("delta", BoundaryIndex(1, (1, 3)))
    assert boundary_term(3, 4, 3, (1, 2, 4)) == ("psi", 3)
    assert boundary_term(3, 4, 3, range(1, 5)) == ("zero", None)


def _old_key(idx):
    # genus part first, then the sorted labels, compared as tuples
    return (idx.i, idx.points)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_index_order_is_the_old_dataclass_order(g):
    for n in sorted({1, 2, 2 * g - 2}):
        indices = canonical_boundary_indices(g, n)
        assert sorted(indices) == sorted(indices, key=_old_key)
        assert list(map(_old_key, sorted(indices))) == sorted(map(_old_key, indices))


def test_boundary_index_is_a_named_tuple():
    idx = BoundaryIndex(1, (2, 3))
    assert (idx.i, idx.points) == (1, (2, 3))
    assert idx == (1, (2, 3)) and hash(idx) == hash((1, (2, 3)))
    assert repr(idx) == "BoundaryIndex(i=1, points=(2, 3))"
    assert str(idx) == "delta_{1:{2,3}}"
    assert idx.point_set == frozenset({2, 3})
    assert BoundaryIndex(0, (1, 2)) < BoundaryIndex(0, (1, 3)) < BoundaryIndex(1, ())
    with pytest.raises(AttributeError):
        idx.i = 2


def _dense_path_classes():
    """Closed-form classes up to g = 7 and their pullback images."""
    bases = [qg_class(g) for g in range(2, 8)]
    bases += [qd_class(QdInput(g, len(d), d)) for g, d in (
        (3, (1, 1, 1, 1)),
        (3, (2, 2)),
        (4, (3, -1, 2, 2)),
        (5, (4, 2, 2, 0, 0, 0)),
        (6, (3, -1, 1, 1, 2, 2, 1, 1)),
        (7, (5, -3, 1, 1, 1, 1, 2, 2, 1, 1)),
    )]
    bases += [logan_class(g, len(d), d) for g, d in (
        (3, (1, 1, 1, 0)),
        (4, (2, 1, 1, 0, 0, 0)),
        (5, (1, 1, 1, 1, 1, 0, 0, 0)),
        (6, (3, 0, 1, 0, 2, 0, 0, 0, 0, 0)),
        (7, (1,) * 7 + (0,) * 5),
    )]
    for cls in bases:
        yield cls
        yield forget_pullback(cls)
        if cls.g > 2:
            yield pullback_attach(cls, 1, cls.n)
        if cls.g > 3:  # attach the most genus the target allows
            yield pullback_attach(cls, cls.g - 2, 2)


# sha256 over the JSON of _dense_path_classes(), one line each, computed
# with the frozen-dataclass keys
_DENSE_PATH_DIGEST = "7747d5475a38a4c80140be27a38e149f4fed71565f8b65050ce96503f6a40fe0"


def test_dense_path_output_digest():
    # the tree through json.dumps, and to_json's text formatted from the rows
    classes = list(_dense_path_classes())
    for render in (lambda cls: json.dumps(cls.to_jsonable()), lambda cls: cls.to_json()):
        lines = [render(cls) for cls in classes]
        assert len(lines) == 62
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == _DENSE_PATH_DIGEST



def _walk_cases():
    """Small tables of every shape: one group, several groups and one
    label per group, at odd and even g, a pullback and a functional."""
    return [
        qg_class(4),
        qg_class(5),
        qd_class(QdInput(4, 6, (2, 2, 1, 1, 0, 0))),
        qd_class(QdInput(4, 6, (4, 3, 2, -1, -2, 0))),
        logan_class(4, 6, (2, 1, 1, 0, 0, 0)),
        logan_class(5, 8, (1, 1, 1, 1, 1, 0, 0, 0)),
        forget_pullback(qg_class(4)),
        pullback_attach(qd_class(QdInput(5, 8, (2, 2, 1, 1, 1, 1, 0, 0))), 1, 8),
        curve_functional(CurveSpec("C", 4, 2, 1)),
    ]


def test_rendered_walk_is_the_sorted_dense_view():
    shapes, mirrored = set(), 0
    for cls in _walk_cases():
        table = cls.orbits
        dense = table.dense()
        # a layout of its own: heads, a separator, the text before c and a
        # pad that some label lists reach and some do not
        heads = ["<%d|" % i for i in range(cls.g // 2 + 1)]
        want = [("<%d|" % idx.i + "+".join(map(str, idx.points)) + "> ").ljust(12) + format_rational(c)
                for idx, c in sorted(dense.items())]
        assert table._rendered(heads, "+", "> ", 12) == want, cls
        # each divisor once, read back by orbit lookup over every index
        assert len(dense) == table.dense_size()
        indices = canonical_boundary_indices(cls.g, cls.n)
        assert dense == {idx: c for idx in indices if (c := table.get(idx))}, cls
        groups = len(table.groups)
        shapes.add("one" if groups == 1 else "per-label" if groups == cls.n else "several")
        mirrored += sum(self_mirror(cls.g, table.sizes, *key) for key in table.coeffs)
    assert shapes == {"one", "several", "per-label"} and mirrored >= 2


class _Int(int):
    """An int that canonicalize_index does not take for canonical input:
    a genus part of this type sends the call the general route."""


def _outcome(g, n, i, S):
    try:
        return canonicalize_index(g, n, i, S)
    except Exception as exc:
        return type(exc), str(exc)


def test_canonical_input_route_matches_the_general_route():
    rng = random.Random(2024)
    kinds = ("sorted", "unsorted", "mirror", "tie", "repeat", "range", "bool", "float", "str")
    seen = set()
    for _ in range(3000):
        g, n, kind = rng.randint(1, 6), rng.randint(0, 8), rng.choice(kinds)
        i = g // 2 if kind == "tie" else rng.randint(0, g)
        S = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        if kind == "unsorted":
            rng.shuffle(S)
        elif kind == "mirror":
            i, S = g - i, [p for p in range(1, n + 1) if p not in S]
        elif kind == "repeat" and S:
            S.insert(rng.randrange(len(S)), rng.choice(S))
        elif kind == "range":
            S = sorted(S + [rng.choice((0, n + 1, -1))])
        elif kind in ("bool", "float", "str") and S:
            k = rng.randrange(len(S))
            S[k] = {"bool": True, "float": float(S[k]), "str": str(S[k])}[kind]
        got = _outcome(g, n, i, S)
        assert got == _outcome(g, n, _Int(i), S), (g, n, i, S)
        seen.add((kind, isinstance(got, BoundaryIndex)))
    # every kind was seen; sorted input both names a divisor and does not
    assert {kind for kind, _ in seen} == set(kinds)
    assert {("sorted", True), ("sorted", False), ("tie", True), ("float", False)} <= seen
