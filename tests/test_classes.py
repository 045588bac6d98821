import pytest

from qstrata import (
    BadSignature,
    DimensionMismatch,
    InvalidIndex,
    WrongGenus,
    QdInput,
    boundary_class,
    curve_functional,
    forget_pullback,
    g2_normal_form,
    lambda_class,
    logan_class,
    psi_class,
    pullback_attach,
    qd_class,
    qg_class,
    solve_qg_coefficients,
    weierstrass_check,
    weierstrass_class,
    weierstrass_pullback,
)
from qstrata.testcurves import TestCurveSpec as CurveSpec


def _coeffs(v):
    """Every coefficient of a class or functional, the boundary as its dense view."""
    return (v.lam, v.psi, v.delta0, v.boundary)


def test_logan_examples():
    d = logan_class(2, 2, (1, 1))
    assert d.lam == -1
    assert d.psi == (1, 1)
    assert d.delta0 == 0
    assert d.boundary_coeff(0, {1, 2}) == -3
    assert logan_class(2, 2, (2, 0)).psi == (3, 0)


def test_logan_validation():
    with pytest.raises(BadSignature):
        logan_class(2, 2, (1, 2))
    with pytest.raises(BadSignature):
        logan_class(2, 2, (-1, 3))


def test_logan_delta0_always_zero():
    for g, n, d in ((2, 2, (1, 1)), (3, 2, (2, 1)), (4, 3, (2, 2, 0))):
        assert logan_class(g, n, d).delta0 == 0


def test_qg_examples():
    q3 = qg_class(3)
    assert q3.boundary_coeff(1, {1}) == 8
    assert q3.boundary_coeff(2, ()) == -72
    assert qg_class(2).psi[0] == 6
    assert q3.lam == -64
    assert q3.delta0 == 4


def test_qd_specializes_to_qg():
    for g in (2, 3, 4, 5):
        q = qd_class(QdInput(g, 2 * g - 2, (1,) * (2 * g - 2)))
        assert q.equals(qg_class(g))
        assert _coeffs(q) == _coeffs(qg_class(g))


def test_qd_negative_entry_psi():
    d = qd_class(QdInput(2, 2, (3, -1)))
    assert d.psi[1] == -2
    assert d.psi[0] == 30


def test_qd_even_case():
    d = qd_class(QdInput(2, 1, (2,)))
    assert d.lam == -15
    assert d.psi == (15,)
    assert d.delta0 == 1
    assert d.boundary_coeff(1, {1}) == -3


def test_qd_validation():
    with pytest.raises(BadSignature):
        QdInput(2, 2, (1, 2))
    with pytest.raises(BadSignature):
        QdInput(2, 3, (1, 1))


def test_qd_forgetful_pullback_consistency():
    # appending a zero weight agrees with the point-forgetting pullback,
    # coefficient by coefficient: at g = 2, == holds modulo the genus-2
    # relation only, so the JSON lists are compared too
    pairs = [(qd_class(QdInput(g, len(d), d)), qd_class(QdInput(g, len(d) + 1, d + (0,))))
             for g, d in ((2, (2, 0)), (3, (4, 0)), (3, (2, 2)), (4, (2, 2, 2)),
                          (3, (5, -1)), (4, (3, 3)))]
    pairs += [(logan_class(g, len(d), d), logan_class(g, len(d) + 1, d + (0,)))
              for g, d in ((2, (1, 1)), (3, (2, 1)), (4, (1, 1, 2)))]
    for base, appended in pairs:
        pulled = forget_pullback(base)
        assert pulled == appended
        assert pulled.to_jsonable() == appended.to_jsonable()


def test_weierstrass_class_values():
    w = weierstrass_class()
    assert w.psi == (3,)
    assert w.lam == -1
    assert w.delta0 == 0
    assert w.boundary_coeff(1, {1}) == -1


def test_pullback_attach_rules():
    # delta_{h:{1}} pulls back to -psi_1
    d = pullback_attach(boundary_class(5, 4, 2, {1}), 2)
    assert d.psi[0] == -1 and not d.boundary and d.lam == 0
    # lambda is untouched
    assert pullback_attach(lambda_class(5, 4), 2).lam == 1
    # 1 in S with i < h dies
    assert pullback_attach(boundary_class(5, 4, 1, {1, 2}), 2).is_zero()
    # otherwise the genus part drops by h
    d = pullback_attach(boundary_class(5, 4, 3, {1, 2}), 1)
    assert d.boundary_coeff(2, {1, 2}) == 1
    # psi_1 dies, other psi survive
    d = pullback_attach(psi_class(5, 4, 1).add(psi_class(5, 4, 3)), 2)
    assert d.psi == (0, 0, 1, 0)
    # classes written without label 1 route through the mirror first
    d = pullback_attach(boundary_class(5, 4, 2, {2, 3, 4}), 2)  # = (3, {1})
    assert d.boundary_coeff(1, {1}) == 1


def test_weierstrass_check():
    for g in (3, 4, 5):
        assert weierstrass_check(g)
        assert weierstrass_pullback(qg_class(g)).psi[0] == 18 * 4 ** (g - 2)


def test_weierstrass_pullback_multiples():
    # modulo the genus-2 relation, every qd class pulls back to 6*4^(g-2) W,
    # less one W when every weight is even and >= 0 (the 4^g - 1 branch),
    # and every logan class to W; weights of -1 and <= -2 are drawn too
    import random

    rng = random.Random(29)
    w = weierstrass_class()
    for g in range(3, 7):
        fixed = [(2 * g - 2,), (2 * g - 1, -1), (2 * g, -2), (2 * g + 1, -3), (2,) * (g - 1)]
        drawn = [[rng.randint(-3, 4) for _ in range(rng.randint(0, 4))] for _ in range(10)]
        for d in fixed + [tuple(d) + (2 * g - 2 - sum(d),) for d in drawn]:
            even = all(x >= 0 and x % 2 == 0 for x in d)
            cls = qd_class(QdInput(g, len(d), d))
            assert weierstrass_pullback(cls) == w.scale(6 * 4 ** (g - 2) - even), (g, d)
        for _ in range(6):
            d = [0] * rng.randint(1, 4)
            for _ in range(g):
                d[rng.randrange(len(d))] += 1
            assert weierstrass_pullback(logan_class(g, len(d), d)) == w, (g, d)


def test_pullbacks_refuse_functionals():
    # a functional is no class: pulling it back, or applying the genus-2
    # relation to it, is refused as adding or comparing it is
    f3 = curve_functional(CurveSpec("A", 3, 1, 2))
    f2 = curve_functional(CurveSpec("B", 2, 1, 1))
    for call, f in ((forget_pullback, f3), (lambda f: pullback_attach(f, 1), f3),
                    (weierstrass_pullback, f3), (g2_normal_form, f2),
                    (lambda_class(2, f2.n).equals, f2)):
        with pytest.raises(TypeError):
            call(f)


def test_qd_random_signatures_construct():
    import random

    rng = random.Random(1)
    for _ in range(200):
        g = rng.randint(2, 5)
        n = rng.randint(1, 5)
        d = [rng.randint(-3, 4) for _ in range(n - 1)]
        d.append(2 * g - 2 - sum(d))
        cls = qd_class(QdInput(g, n, tuple(d)))
        assert cls.delta0 == 4 ** (g - 2)
        # lambda distinguishes the all-even-nonnegative branch
        if all(x >= 0 and x % 2 == 0 for x in d):
            assert cls.lam == -(4**g - 1)
        else:
            assert cls.lam == -(4**g)


def test_classes_refusals():
    with pytest.raises(BadSignature):
        QdInput(1, 1, (0,))  # below genus 2
    d = qg_class(4)
    for h in (0, 3):  # no genus attached; a target below genus 2
        with pytest.raises(DimensionMismatch):
            pullback_attach(d, h)
    with pytest.raises(InvalidIndex):
        pullback_attach(d, 1, d.n + 1)
    with pytest.raises(WrongGenus):
        weierstrass_pullback(qg_class(2))
    with pytest.raises(InvalidIndex):
        solve_qg_coefficients(3).get(0, 99)


def test_label_arguments_must_be_int_labels():
    # 2.0 and True equal the labels 2 and 1, and 1.5 is no genus: each is a
    # one-line domain error, the type checked before the value
    d = qg_class(4)
    for j in (2.5, 2.0, True, "1"):
        for call in (lambda: pullback_attach(d, 1, j), lambda: psi_class(3, 4, j), lambda: d.psi_coeff(j)):
            with pytest.raises(InvalidIndex, match=r"^(attach label|psi index) %s outside 1\.\.\d+$" % repr(j)):
                call()
    for h in (1.5, 1.0, True):
        with pytest.raises(DimensionMismatch, match=r"^attached genus must be an int >= 1, got %s$" % h):
            pullback_attach(d, h)
    # the int labels still work: delta_{1:{2}} becomes -psi_2
    assert pullback_attach(d, 1, 2).psi[1] == -d.boundary_coeff(1, (2,)) and psi_class(3, 4, 2).psi_coeff(2) == 1


def test_closed_form_refusals():
    with pytest.raises(BadSignature):
        logan_class(3, 4, (1, 1, 1))  # three weights for four labels
    with pytest.raises(WrongGenus):
        qg_class(1)
