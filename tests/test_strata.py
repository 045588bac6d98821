import random

import pytest

from qstrata import (
    BadInput,
    BadSignature,
    OutOfCatalog,
    Signature,
    codim_p,
    dim_stratum,
    multidegree,
    quad_components,
)


def test_signature_validation():
    with pytest.raises(BadSignature):
        Signature(1, 2, (1, 2))  # sums to 3, not 2
    with pytest.raises(BadSignature):
        Signature(0, 2, (0, 0))
    sig = Signature(2, 2, (1, 1, 2))
    assert sig.n == 3 and sig.holomorphic


def test_dim_stratum():
    assert dim_stratum(Signature(1, 2, (1, 1))) == 5
    assert dim_stratum(Signature(2, 2, (1, 1, 2))) == 5
    assert dim_stratum(Signature(2, 2, (4,))) == 3
    assert dim_stratum(Signature(1, 2, (3, -1))) == 4  # meromorphic branch


def test_codim_p():
    assert codim_p(Signature(1, 3, (2, 1, 1))) == 2
    assert codim_p(Signature(2, 3, (2, 2, 2, 2, 2, -2))) == 3
    assert codim_p(Signature(1, 2, (3, -1))) == 2


def test_dim_codim_consistency():
    rng = random.Random(7)
    for _ in range(50):
        g = rng.randint(2, 5)
        k = rng.randint(1, 3)
        total = k * (2 * g - 2)
        m = [rng.randint(-3, 5) for _ in range(rng.randint(1, 5))]
        m.append(total - sum(m))
        sig = Signature(k, g, tuple(m))
        pointed_dim = (3 * g - 3 + sig.n) - codim_p(sig)
        assert dim_stratum(sig) == pointed_dim + 1


def test_multidegree_examples():
    assert multidegree(3, (1, 1, 4)) == 96
    assert multidegree(1, (1,)) == 1
    assert multidegree(2, (3, 4)) == 2 * 9 * 16


def test_multidegree_symmetry_and_sign_invariance():
    rng = random.Random(11)
    for _ in range(50):
        g = rng.randint(1, 4)
        d = [rng.choice([x for x in range(-5, 6) if x]) for _ in range(g)]
        base = multidegree(g, d)
        rng.shuffle(d)
        assert multidegree(g, d) == base
        flipped = [x if rng.random() < 0.5 else -x for x in d]
        assert multidegree(g, flipped) == base


def test_multidegree_validation():
    with pytest.raises(BadInput):
        multidegree(2, (1,))
    with pytest.raises(BadInput):
        multidegree(2, (1, 0))


def quad(m):
    total = sum(m)
    assert (total + 4) % 4 == 0
    return Signature(2, (total + 4) // 4, tuple(m))


def test_genus2_exceptions():
    assert quad_components(quad((-1, -1, 6))).count == 2
    assert quad_components(quad((-1, -1, 3, 3))).count == 2
    assert quad_components(quad((1, 1, 1, 1))).count == 1
    assert quad_components(quad((2, 1, 1))).count == 1


def test_lanneau_families():
    for g in range(3, 7):
        for t in range(0, g - 1):
            assert quad_components(quad((4 * (g - t) - 6, 4 * t + 2))).count == 2
        for t in range(0, g):
            mu = (2 * (g - t) - 3, 2 * (g - t) - 3, 4 * t + 2)
            assert quad_components(quad(mu)).count == 2
        for t in range(-1, g - 1):
            mu = (2 * (g - t) - 3, 2 * (g - t) - 3, 2 * t + 1, 2 * t + 1)
            assert quad_components(quad(mu)).count == 2


def test_lanneau_sporadic():
    for mu in ((-1, 9), (-1, 3, 6), (-1, 3, 3, 3), (12,)):
        out = quad_components(quad(mu))
        assert out.count == 2 and out.kind == "FiniteArea"


def test_irreducible_family_member():
    out = quad_components(quad((-1, 1, 2, 2)))
    assert out.count == 1 and out.kind == "FiniteArea"



def test_lanneau_generic_connected():
    for mu in ((4, 4), (2, 2, 2, 2), (5, 3), (-1, 1, 4, 4), (9, 3)):
        assert quad_components(quad(mu)).count == 1


def test_chen_gendron_shapes():
    two = [
        (10, -2),          # (2n, -2)
        (6, -2),
        (14, -3, -3),      # (2n, -l, -l), l odd
        (10, -3, -3),
        (7, 7, -6),        # (n, n, -2l), n odd
        (9, 9, -10),
        (5, 5, -3, -3),    # (n, n, -l, -l), not both even (here both odd)
        (7, 7, -3, -3),
        (9, 9, -5, -5),
    ]
    for mu in two:
        out = quad_components(quad(mu))
        assert out.count == 2, mu
        assert out.kind == "PrimitiveOnly"
    one = [
        (12, -2, -2),      # l even in (2n, -l, -l)
        (6, 6, -4, -4),    # n and l both even
        (6, 2, -4),        # unequal positives
        (13, 1, -2),
        (8, 8, -4),        # (n, n, -2l) with n even
    ]
    for mu in one:
        assert quad_components(quad(mu)).count == 1, mu


def test_square_note_flag():
    out = quad_components(quad((12, -2, -2)))
    assert "squares" in out.notes
    out = quad_components(quad((13, 1, -2)))
    assert "squares" not in out.notes


def test_irredq_family_is_connected():
    for g in range(2, 7):
        tail = (2,) * (2 * g - 3)
        for d1 in range(-5, 8):
            for d2 in range(-5, 8):
                d3 = 2 - d1 - d2
                if 0 in (d1, d2, d3) or abs(d3) > 7:
                    continue
                if not any(x % 2 for x in (d1, d2, d3)):
                    continue
                out = quad_components(quad((d1, d2, d3) + tail))
                assert out.count == 1, (g, d1, d2, d3)


def test_classifier_errors():
    with pytest.raises(OutOfCatalog):
        quad_components(Signature(2, 1, (0,)))  # zero entry also bad, g<2 first
    with pytest.raises(OutOfCatalog):
        quad_components(Signature(2, 1, (1, -1)))
    with pytest.raises(BadSignature):
        quad_components(Signature(2, 2, (4, 0)))
    with pytest.raises(BadSignature):
        quad_components(Signature(1, 2, (1, 1)))


def test_negative_genus_refused():
    # the orders sum to k(2g-2) = -8, so only the genus check refuses it
    with pytest.raises(BadSignature):
        Signature(2, -1, (-8,))


def test_no_even_2n_2n_minus_2_signature():
    # at k = 2 the orders sum to 4g - 4, 0 mod 4, while (p, p, -2) with p
    # even sums to 2p - 2, 2 mod 4: no such signature exists
    for g in range(2, 41):
        for p in range(0, 8 * g, 2):
            with pytest.raises(BadSignature):
                Signature(2, g, (p, p, -2))
    # with p odd the (n, n, -2l) shape answers
    out = quad_components(Signature(2, 5, (9, 9, -2)))
    assert out.count == 2
    assert out.notes == "two primitive components: (n, n, -2l) shape with n odd"
