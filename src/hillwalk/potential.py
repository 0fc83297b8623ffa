"""Trigonometric-polynomial potentials and the two-term parameter block.

A potential is a finite set of nonzero Fourier coefficients on even nonzero
frequencies, v(x) = sum_m V(m) e^{i m x}.  The two-term family
v(x) = a e^{-2iRx} + b e^{2iSx} carries the derived integers d = gcd(R, S),
r = R/d, s = S/d used throughout the walk shell structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

from .numerics import GaussianRational, ScalarLike, _parse_rational


@dataclass(frozen=True)
class FourierPotential:
    """Immutable map frequency -> coefficient; zero coefficients are dropped."""

    coeffs: Tuple[Tuple[int, GaussianRational], ...]

    @staticmethod
    def of(mapping: Mapping[int, ScalarLike]) -> "FourierPotential":
        items = []
        for m, value in mapping.items():
            if not isinstance(m, int):
                raise TypeError(f"frequency must be int, got {m!r}")
            if m == 0 or m % 2 != 0:
                raise ValueError(f"frequencies must be even and nonzero, got {m}")
            g = GaussianRational.of(value)
            if not g.is_zero():
                items.append((m, g))
        items.sort(key=lambda kv: kv[0])
        return FourierPotential(tuple(items))

    def coefficient(self, m: int) -> GaussianRational:
        for freq, value in self.coeffs:
            if freq == m:
                return value
        return GaussianRational()

    def support(self) -> Tuple[int, ...]:
        """Frequencies with nonzero coefficient, ascending."""
        return tuple(freq for freq, _ in self.coeffs)

    def is_empty(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class TwoTermParams:
    """Parameters of v(x) = a e^{-2iRx} + b e^{2iSx} with a, b nonzero."""

    a: GaussianRational
    b: GaussianRational
    R: int
    S: int
    d: int
    r: int
    s: int

    def __post_init__(self) -> None:
        if self.R < 1 or self.S < 1:
            raise ValueError(f"R, S must be positive integers, got R={self.R}, S={self.S}")
        if self.a.is_zero() or self.b.is_zero():
            raise ValueError("two-term potentials need both coefficients nonzero")
        d = math.gcd(self.R, self.S)
        if (self.d, self.r, self.s) != (d, self.R // d, self.S // d):
            raise ValueError("inconsistent (d, r, s) for given (R, S)")

    @staticmethod
    def make(a: ScalarLike, b: ScalarLike, R: int, S: int) -> "TwoTermParams":
        ga, gb = GaussianRational.of(a), GaussianRational.of(b)
        d = math.gcd(R, S)
        return TwoTermParams(ga, gb, R, S, d, R // d, S // d)

    @staticmethod
    def from_potential(pot: FourierPotential) -> "TwoTermParams":
        sup = pot.support()
        if len(sup) != 2 or not (sup[0] < 0 < sup[1]):
            raise ValueError(
                "potential is not two-term (need exactly one negative and one "
                f"positive frequency, support={sup})"
            )
        R = -sup[0] // 2
        S = sup[1] // 2
        return TwoTermParams.make(pot.coefficient(sup[0]), pot.coefficient(sup[1]), R, S)


def two_term(a: ScalarLike, b: ScalarLike, R: int, S: int) -> Tuple[FourierPotential, TwoTermParams]:
    """Build the potential a e^{-2iRx} + b e^{2iSx} and its parameter block."""
    params = TwoTermParams.make(a, b, R, S)
    pot = FourierPotential.of({-2 * R: params.a, 2 * S: params.b})
    if len(pot.support()) != 2:
        raise ValueError("two-term frequencies must be distinct nonzero bands")
    return pot, params


# -- JSON literals ---------------------------------------------------------


def _rational_from_json(value) -> Fraction:
    """An int or a string 'p/q': the grammar of each part of a scalar."""
    if type(value) is int:  # a JSON true is no integer
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value)
    raise TypeError(f"a rational must be an int or a 'p/q' string, got {value!r}")


def _scalar_from_json(value) -> GaussianRational:
    """A string in the grammar of `GaussianRational.parse`, an int, or an
    object {"re", "im"} of rationals; an absent part is 0."""
    if isinstance(value, str):
        return GaussianRational.parse(value)
    if not isinstance(value, dict):
        return GaussianRational(_rational_from_json(value))
    unknown = set(value) - {"re", "im"}
    if unknown:
        raise ValueError(f"unknown scalar fields: {sorted(unknown)}")
    return GaussianRational(*(_rational_from_json(value.get(key, 0)) for key in ("re", "im")))


def parse_potential(text_or_obj: Union[str, dict]) -> Tuple[FourierPotential, Optional[TwoTermParams]]:
    """Read a potential literal.

    Accepted forms:
      {"terms": [{"m": -2, "re": "1", "im": "0"}, ...]}   explicit coefficients
      {"a": "1", "b": "1", "R": 1, "S": 3}                two-term shorthand

    A term is its frequency "m" and the parts of a {"re", "im"} scalar; a
    shorthand coefficient is any scalar (`_scalar_from_json`).  Every
    rational is an int or a string 'p/q': "1.5", 1.5 and "1e-3" are refused.
    A literal holds the keys of one form and no other key.  The two-term
    form also returns the derived parameter block, the explicit form
    returns one when the support happens to be two-term shaped.
    """
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    if not isinstance(obj, dict):
        raise ValueError("potential literal must be a JSON object")
    form = {"terms"} if "terms" in obj else {"a", "b", "R", "S"}
    if set(obj) != form:
        raise ValueError(f"potential literal needs the keys {sorted(form)} and no other, got {sorted(obj)}")
    if "terms" in obj:
        coeffs: dict = {}
        for term in obj["terms"]:
            m = term["m"]
            if type(m) is not int:
                raise ValueError(f"frequency must be an int, got {m!r}")
            if m in coeffs:
                raise ValueError(f"duplicate frequency {m}")
            coeffs[m] = _scalar_from_json({key: v for key, v in term.items() if key != "m"})
        pot = FourierPotential.of(coeffs)
        try:
            params: Optional[TwoTermParams] = TwoTermParams.from_potential(pot)
        except ValueError:
            params = None
        return pot, params
    a = _scalar_from_json(obj["a"])
    b = _scalar_from_json(obj["b"])
    R, S = obj["R"], obj["S"]
    if type(R) is not int or type(S) is not int:  # a JSON true is no integer
        raise ValueError("R and S must be integers")
    return two_term(a, b, R, S)


def potential_to_json(pot: FourierPotential) -> dict:
    return {
        "terms": [
            {"m": freq, "re": str(value.re), "im": str(value.im)}
            for freq, value in pot.coeffs
        ]
    }
