"""Exact polynomial arithmetic."""

from __future__ import annotations

import random

import pytest

from gainchrom.poly import (
    ONE,
    Poly2,
    Q,
    Z,
    _product_sum,
    falling_factorial,
    format_poly,
    parse_poly,
    poly_to_term_list,
)


def poly_from_term_list(terms) -> Poly2:
    """The polynomial of a term list as poly_to_term_list writes it."""
    return Poly2({(int(t["dq"]), int(t["dz"])): int(t["c"]) for t in terms})


def random_poly(rng: random.Random, max_deg: int = 3, max_coeff: int = 4) -> Poly2:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[mono] = terms.get(mono, 0) + rng.randint(-max_coeff, max_coeff)
    return Poly2(terms)


def test_zero_is_empty_and_falsy():
    assert Poly2.zero().is_zero()
    assert not Poly2.zero()
    assert Poly2({(1, 0): 0}).is_zero()


def test_additive_inverse_and_disjoint_support():
    assert Q + (-Q) == Poly2.zero()
    assert Q**2 + 2 * Z == Poly2({(2, 0): 1, (0, 1): 2})
    assert (Q - 3) + Poly2.const(3) == Q


def test_simple_products():
    assert Q * Z == Poly2({(1, 1): 1})
    assert (Q - 1) * (Q - 2) == Q**2 - 3 * Q + 2
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        assert p * ONE == p


def test_ring_axioms_on_random_polys():
    rng = random.Random(42)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_eval_is_a_ring_homomorphism():
    rng = random.Random(3)
    points = [(0, 0), (1, 1), (-1, 2), (4, -3), (7, 5)]
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        for q, z in points:
            assert (a * b).evaluate(q, z) == a.evaluate(q, z) * b.evaluate(q, z)
            assert (a + b).evaluate(q, z) == a.evaluate(q, z) + b.evaluate(q, z)


def test_eval_examples():
    assert (Q**2 - 3 * Q + 2 * Z).evaluate(4, 1) == 6
    assert Poly2.zero().evaluate(9, -9) == 0
    assert (Q * (Q - 3)).evaluate(-1, 0) == 4


def test_falling_factorial():
    assert falling_factorial(0) == ONE
    assert falling_factorial(2) == Q**2 - Q
    assert falling_factorial(3).evaluate(5) == 60
    for m in range(6):
        assert falling_factorial(m).evaluate(m) == _factorial(m)
        for q in range(m):
            assert falling_factorial(m).evaluate(q) == 0
    assert falling_factorial(3, shift=2) == (Q - 2) * (Q - 3) * (Q - 4)
    assert falling_factorial(0, shift=-7) == ONE


def test_falling_factorial_is_its_product():
    # both are built on one coefficient list; the definition multiplies Poly2 factors
    def product(w, roots):
        out = Poly2.const(w)
        for r in roots:
            out = out * (Q - r)
        return out

    for m in range(9):
        for shift in range(-3, 6):
            assert falling_factorial(m, shift) == product(1, range(shift, shift + m)), (m, shift)
    rng = random.Random(25)
    for _ in range(300):
        terms = [
            (rng.randint(-5, 5), [rng.randint(-4, 6) for _ in range(rng.randint(0, 5))])
            for _ in range(rng.randint(0, 4))
        ]
        assert _product_sum(terms) == sum((product(w, roots) for w, roots in terms), Poly2.zero()), terms
    assert _product_sum([]) == Poly2.zero()
    assert _product_sum([(7, [])]) == Poly2.const(7)
    assert _product_sum([(0, [1, 2]), (3, [])]) == Poly2.const(3)
    cancelled = _product_sum([(2, [1, -1]), (-2, [-1, 1]), (1, []), (-1, [])])
    assert cancelled == Poly2.zero() and cancelled._terms == {}
    # (q - 1)(q + 1) - q^2 leaves only the constant
    assert _product_sum([(1, [1, -1]), (-1, [0, 0])])._terms == {(0, 0): -1}


def _factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def test_substitution():
    assert (Q**2).substitute_q(Q - Z) == Q**2 - 2 * Q * Z + Z**2
    assert Poly2.const(7).substitute_q(Q - Z) == Poly2.const(7)
    assert (Q * (Q - 3)).substitute_q(Q - 1) == Q**2 - 5 * Q + 4
    with pytest.raises(ValueError):
        (Q + Z).substitute_q(Q - 1)


def test_substitute_z():
    total = Q**2 - 3 * Q + 2 * Z
    assert total.substitute_z(0) == Q**2 - 3 * Q
    assert total.substitute_z(1) == Q**2 - 3 * Q + 2
    assert total.substitute_z(5) == Q**2 - 3 * Q + 10


def test_rendering_order_and_format():
    assert format_poly(Q**2 - 3 * Q + 2 * Z) == "q^2 - 3*q + 2*z"
    assert format_poly(Poly2.zero()) == "0"
    assert format_poly(-Q) == "-q"
    assert format_poly(2 * Q * Z**2 + 1) == "2*q*z^2 + 1"


def test_parse_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        p = random_poly(rng)
        assert parse_poly(format_poly(p)) == p
    assert parse_poly("q^2-3*q+2*z") == Q**2 - 3 * Q + 2 * Z
    with pytest.raises(ValueError):
        parse_poly("q**2")
    with pytest.raises(ValueError):
        parse_poly("")


def test_term_list_round_trip():
    p = Q**3 - 2 * Q * Z + 5
    terms = poly_to_term_list(p)
    assert terms == [{"dq": 3, "dz": 0, "c": 1}, {"dq": 1, "dz": 1, "c": -2}, {"dq": 0, "dz": 0, "c": 5}]
    assert poly_from_term_list(terms) == p


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Poly2({(-1, 0): 1})


def test_cancelled_terms_are_not_stored():
    assert (Q + 1) * (Q - 1) == Q**2 - 1
    assert len(((Q + 1) * (Q - 1))._terms) == 2
    assert (Q + Z + 1) + (-Q - Z) == ONE and len(((Q + Z + 1) + (-Q - Z))._terms) == 1
    assert Poly2([((1, 0), 2), ((1, 0), -2), ((0, 0), 3)])._terms == {(0, 0): 3}
    assert (Q * Z - Q).substitute_z(1)._terms == {}
    assert (Q**2 * Z - 2 * Q**2 + Q).substitute_z(2)._terms == {(1, 0): 1}
