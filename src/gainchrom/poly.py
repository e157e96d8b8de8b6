"""Exact sparse polynomials in the two variables q and z.

A polynomial is a mapping from exponent pairs (dq, dz) to nonzero integer
coefficients.  Coefficients are plain Python ints, so every operation is
exact at any size; the zero polynomial is the empty mapping.

Polynomials that are univariate in q (every term has dz == 0) appear all
over the counting code; ``Poly1`` is an alias documenting that convention.
Rendering uses graded-lex term order (total degree, then q-degree, both
descending), e.g. ``q^2 - 3*q + 2*z``, and ``parse_poly`` reads that format
back losslessly.

Every closed form in q is a sum of weighted products of linear factors,
w * prod_i (q - r_i).  ``_product_sum`` expands such a sum from its
(w, roots) terms; ``falling_factorial`` is the one term with roots
shift, shift+1, ..., shift+m-1.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

Monomial = tuple[int, int]


def _add_terms(acc: dict, pairs: Iterable[tuple]) -> dict:
    """Add each (key, coefficient) pair into the sparse sum ``acc`` and drop
    the keys whose sum is 0; returns ``acc``.  Every sparse sum of the
    package (polynomial terms, combinations of graphs, memoised engine
    terms) is built by this one loop."""
    for key, c in pairs:
        s = acc.get(key, 0) + c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


class Poly2:
    """Immutable bivariate polynomial in (q, z) over the integers."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] | None = None,
    ):
        items = list(terms.items() if isinstance(terms, Mapping) else (terms or ()))
        for (dq, dz), _ in items:
            if dq < 0 or dz < 0:
                raise ValueError(f"negative exponent in monomial ({dq}, {dz})")
        self._terms = _add_terms({}, items)

    @classmethod
    def _of(cls, terms: dict[Monomial, int]) -> "Poly2":
        """The polynomial holding ``terms``, whose coefficients are all nonzero."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def const(cls, c: int) -> "Poly2":
        return cls({(0, 0): c})

    def items(self) -> list[tuple[Monomial, int]]:
        """Terms in graded-lex order (total degree, then q-degree, descending)."""
        return sorted(
            self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]), reverse=True
        )

    def coefficient(self, dq: int, dz: int = 0) -> int:
        return self._terms.get((dq, dz), 0)

    def degree_q(self) -> int:
        """Largest q-exponent, or -1 for the zero polynomial."""
        return max((dq for dq, _ in self._terms), default=-1)

    def is_univariate_q(self) -> bool:
        return all(dz == 0 for _, dz in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Poly2":
        return Poly2({m: -c for m, c in self._terms.items()})

    @staticmethod
    def _coerce(value: "Poly2 | int") -> "Poly2":
        return Poly2.const(value) if isinstance(value, int) else value

    def __add__(self, other: "Poly2 | int") -> "Poly2":
        other = self._coerce(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return Poly2._of(_add_terms(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __sub__(self, other: "Poly2 | int") -> "Poly2":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Poly2 | int") -> "Poly2":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Poly2 | int") -> "Poly2":
        other = self._coerce(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        products = [
            ((aq + bq, az + bz), ac * bc)
            for (aq, az), ac in self._terms.items()
            for (bq, bz), bc in other._terms.items()
        ]
        return Poly2._of(_add_terms({}, products))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly2.const(1)
        for _ in range(exponent):
            out = out * self
        return out

    def evaluate(self, q: int, z: int = 0) -> int:
        """Exact integer value at the point (q, z)."""
        return sum(c * q**dq * z**dz for (dq, dz), c in self._terms.items())

    def substitute_q(self, replacement: "Poly2") -> "Poly2":
        """Replace q by an arbitrary polynomial; requires deg_z == 0 throughout.

        Expanded exactly via Horner's rule.
        """
        if not self.is_univariate_q():
            raise ValueError("substitution requires a polynomial univariate in q")
        coeffs = {dq: c for (dq, _), c in self._terms.items()}
        out = Poly2.zero()
        for k in range(self.degree_q(), -1, -1):
            out = out * replacement + Poly2.const(coeffs.get(k, 0))
        return out

    def substitute_z(self, value: int) -> "Poly2":
        """Partially evaluate at z = value, leaving a polynomial in q alone."""
        return Poly2._of(_add_terms({}, [((dq, 0), c * value**dz) for (dq, dz), c in self._terms.items()]))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly2({format_poly(self)!r})"


# Univariate-in-q polynomials are ordinary Poly2 values with dz == 0 everywhere.
Poly1 = Poly2

Q = Poly2({(1, 0): 1})
Z = Poly2({(0, 1): 1})
ONE = Poly2.const(1)


def _product_sum(terms: Iterable[tuple[int, Iterable[int]]]) -> Poly1:
    """sum of w * prod_{r in roots} (q - r) over the (w, roots) terms.

    Each product is expanded on one coefficient list, scaled by its weight
    into a running list, and the sum is wrapped in a Poly2 once; every
    closed form of the package is built here."""
    total: list[int] = []  # total[k] is the coefficient of q^k
    for w, roots in terms:
        coeffs = [1]
        for root in roots:
            # times (q - root): q^k takes the old q^(k-1) less root times the old q^k
            coeffs = [lower - root * same for lower, same in zip([0, *coeffs], [*coeffs, 0])]
        total += [0] * (len(coeffs) - len(total))
        for k, c in enumerate(coeffs):
            total[k] += w * c
    return Poly2._of({(k, 0): c for k, c in enumerate(total) if c})


def falling_factorial(m: int, shift: int = 0) -> Poly1:
    """(q - shift)_m = (q-shift)(q-shift-1)...(q-shift-m+1); the empty product 1 for m = 0."""
    if m < 0:
        raise ValueError("falling factorial needs m >= 0")
    return _product_sum([(1, range(shift, shift + m))])


def format_poly(p: Poly2) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for (dq, dz), c in p.items():
        factors: list[str] = []
        if dq:
            factors.append("q" if dq == 1 else f"q^{dq}")
        if dz:
            factors.append("z" if dz == 1 else f"z^{dz}")
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_FACTOR_RE = re.compile(r"([qz])(?:\^(\d+))?\Z")


def parse_poly(text: str) -> Poly2:
    """Parse the output of format_poly (and obvious variants) back to a Poly2."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Poly2.zero()
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms: list[tuple[Monomial, int]] = []
    for token in tokens:
        sign = -1 if token.startswith("-") else 1
        body = token.lstrip("+-")
        if not body:
            raise ValueError(f"cannot parse term {token!r}")
        coeff, dq, dz = 1, 0, 0
        for part in body.split("*"):
            if part.isdigit():
                coeff *= int(part)
                continue
            m = _FACTOR_RE.match(part)
            if m is None:
                raise ValueError(f"cannot parse factor {part!r} in {text!r}")
            e = int(m.group(2) or 1)
            if m.group(1) == "q":
                dq += e
            else:
                dz += e
        terms.append(((dq, dz), sign * coeff))
    return Poly2(terms)


def poly_to_term_list(p: Poly2) -> list[dict[str, int]]:
    """JSON-friendly term list in canonical order."""
    return [{"dq": dq, "dz": dz, "c": c} for (dq, dz), c in p.items()]
