"""Potential construction, two-term parameters, JSON literals."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillwalk.numerics import GaussianRational
from hillwalk.potential import (
    FourierPotential,
    TwoTermParams,
    parse_potential,
    potential_to_json,
    two_term,
)


class TestTwoTerm:
    def test_basic(self):
        pot, params = two_term(1, 1, 1, 3)
        assert pot.support() == (-2, 6)
        assert (params.d, params.r, params.s) == (1, 1, 3)
        assert pot.coefficient(-2) == GaussianRational(Fraction(1))
        assert pot.coefficient(6) == GaussianRational(Fraction(1))
        assert pot.coefficient(2).is_zero()

    def test_equal_bands(self):
        pot, params = two_term(1, 1, 5, 5)
        assert (params.d, params.r, params.s) == (5, 1, 1)
        assert pot.support() == (-10, 10)

    def test_mixed(self):
        _, params = two_term(2, 3, 4, 6)
        assert (params.d, params.r, params.s) == (2, 2, 3)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            two_term(0, 1, 1, 3)
        with pytest.raises(ValueError):
            two_term(1, 0, 1, 3)

    def test_bad_bands_rejected(self):
        with pytest.raises(ValueError):
            two_term(1, 1, 0, 3)
        with pytest.raises(ValueError):
            two_term(1, 1, -1, 3)

    @given(R=st.integers(min_value=1, max_value=10 ** 4), S=st.integers(min_value=1, max_value=10 ** 4))
    @settings(max_examples=100)
    def test_coprimality(self, R, S):
        _, params = two_term(1, 1, R, S)
        assert math.gcd(params.r, params.s) == 1
        assert params.d * params.r == R
        assert params.d * params.s == S

    def test_from_potential_round_trip(self):
        pot, params = two_term(Fraction(2, 3), GaussianRational(0, Fraction(1)), 2, 5)
        again = TwoTermParams.from_potential(pot)
        assert again == params

    def test_from_potential_rejects_non_two_term(self):
        pot = FourierPotential.of({2: 1, 4: 1})
        with pytest.raises(ValueError):
            TwoTermParams.from_potential(pot)


class TestFourierPotential:
    def test_zero_coefficients_dropped(self):
        pot = FourierPotential.of({-2: 1, 4: 0})
        assert pot.support() == (-2,)

    def test_odd_or_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            FourierPotential.of({3: 1})
        with pytest.raises(ValueError):
            FourierPotential.of({0: 1})

    def test_empty(self):
        pot = FourierPotential.of({})
        assert pot.is_empty()
        assert pot.support() == ()


class TestJson:
    def test_two_term_shorthand(self):
        pot, params = parse_potential('{"a": "1", "b": "1", "R": 1, "S": 3}')
        assert pot.support() == (-2, 6)
        assert params is not None and params.s == 3

    def test_terms_form(self):
        pot, params = parse_potential(
            {"terms": [{"m": -2, "re": "1", "im": "0"}, {"m": 6, "re": "1/2", "im": "1/3"}]}
        )
        assert pot.support() == (-2, 6)
        assert pot.coefficient(6) == GaussianRational(Fraction(1, 2), Fraction(1, 3))
        assert params is not None and (params.R, params.S) == (1, 3)

    def test_terms_form_non_two_term_has_no_params(self):
        pot, params = parse_potential({"terms": [{"m": 2, "re": "1"}, {"m": 4, "re": "1"}]})
        assert params is None
        assert pot.support() == (2, 4)

    def test_complex_shorthand_values(self):
        pot, params = parse_potential({"a": "3", "b": "-12/5+9/5i", "R": 3, "S": 3})
        assert params.b == GaussianRational(Fraction(-12, 5), Fraction(9, 5))
        assert params.b.abs2() == 9 == params.a.abs2()

    def test_round_trip(self):
        pot, _ = two_term(Fraction(1, 2), GaussianRational(Fraction(0), Fraction(2)), 2, 4)
        blob = json.dumps(potential_to_json(pot), sort_keys=True)
        pot2, _ = parse_potential(blob)
        assert pot2 == pot

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(ValueError):
            parse_potential({"terms": [{"m": 2, "re": "1"}, {"m": 2, "re": "2"}]})

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_potential({"a": "1", "b": "1"})
        with pytest.raises(ValueError):
            parse_potential('{"a": "1", "b": "1", "R": "x", "S": 3}')


# the places a rational stands in a literal, each holding the coefficient of
# e^{-2ix}: a shorthand scalar, a part of a {"re", "im"} scalar, a term's part
PLACES = {
    "scalar": lambda lit: {"a": lit, "b": "1", "R": 1, "S": 3},
    "part-re": lambda lit: {"a": {"re": lit}, "b": "1", "R": 1, "S": 3},
    "part-im": lambda lit: {"a": {"im": lit}, "b": "1", "R": 1, "S": 3},
    "term-re": lambda lit: {"terms": [{"m": -2, "re": lit}, {"m": 6, "re": "1"}]},
    "term-im": lambda lit: {"terms": [{"m": -2, "im": lit}, {"m": 6, "re": "1"}]},
}


def _coefficient(place, literal):
    value = parse_potential(PLACES[place](literal))[0].coefficient(-2)
    return value.im if place.endswith("im") else value.re


class TestOneGrammar:
    @given(p=st.integers(-10 ** 6, 10 ** 6).filter(bool), q=st.integers(1, 10 ** 6))
    @settings(max_examples=100)
    def test_every_place_reads_a_rational_alike(self, p, q):
        """A JSON int and a string 'p/q', unreduced or not, read as the same
        rational in every place."""
        forms = [(Fraction(p, q), [f"{p}/{q}", f"{p} / {q}", str(Fraction(p, q))]),
                 (Fraction(p), [p, str(p), f"{p}/1"])]
        for place in PLACES:
            for value, literals in forms:
                for literal in literals:
                    assert _coefficient(place, literal) == value, (place, literal)
