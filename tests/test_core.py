import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deuce.core import (
    NonTerminatingError,
    _Laws,
    _Race,
    _row_moments,
    _SplitPowers,
    binomial_convolution_mass,
    binomial_convolution_tail,
    first_server_on_point,
    first_server_serves_game,
    games_served_by_first_server,
    geometric_moments,
    odds,
    serves_by_first_server,
)

import oracles


def test_odds_basic():
    assert odds(0.5) == 1.0
    assert odds(0.75) == pytest.approx(3.0)
    assert odds(0.0) == 0.0
    assert odds(1.0) == math.inf


def test_odds_rejects_out_of_range():
    with pytest.raises(ValueError):
        odds(1.5)
    with pytest.raises(ValueError):
        odds(-0.1)


def test_odds_broadcasts():
    out = odds(np.array([0.0, 0.5, 1.0]))
    assert out[0] == 0.0 and out[1] == 1.0 and out[2] == math.inf


def test_serve_counts_match_enumeration():
    for n in range(1, 200):
        assert serves_by_first_server(n) == oracles.abba_serve_count(n)
        assert first_server_on_point(n) == oracles.abba_server_is_first(n)


def test_serve_count_examples():
    assert serves_by_first_server(1) == 1
    assert serves_by_first_server(4) == 2
    assert serves_by_first_server(13) == 7
    assert first_server_on_point(1) is True
    assert first_server_on_point(13) is True
    assert first_server_on_point(19) is False


def test_serve_count_rejects_zero():
    with pytest.raises(ValueError):
        serves_by_first_server(0)
    with pytest.raises(ValueError):
        first_server_on_point(0)
    with pytest.raises(ValueError):
        games_served_by_first_server(0)


@given(st.integers(min_value=1, max_value=10_000))
def test_serve_split_is_balanced(n):
    s_a = serves_by_first_server(n)
    s_b = n - s_a
    assert abs(s_a - s_b) <= 1


def test_full_tiebreaker_serve_split_is_even():
    # through a full would-be tie-breaker of 2(K-1) points each player serves K-1 times
    for K in range(2, 40):
        assert serves_by_first_server(2 * (K - 1)) == K - 1


def test_game_alternation():
    assert games_served_by_first_server(1) == 1
    assert games_served_by_first_server(11) == 6
    assert first_server_serves_game(11) is True
    assert games_served_by_first_server(12) == 6
    assert first_server_serves_game(12) is False
    for g in range(1, 100):
        # alternation: count of odd numbers in 1..g
        assert games_served_by_first_server(g) == sum(j % 2 == 1 for j in range(1, g + 1))


def test_binomial_convolution_trivial_cases():
    assert binomial_convolution_mass(1, 0.5, 1, 0.5, 1) == pytest.approx(0.5)
    assert binomial_convolution_mass(2, 1.0, 2, 0.0, 2) == pytest.approx(1.0)
    assert binomial_convolution_mass(3, 0.4, 2, 0.7, 6) == 0.0  # k beyond support


def test_binomial_convolution_against_double_loop():
    cases = [
        (6, 0.6, 6, 0.45, 6),
        (6, 0.6, 6, 0.45, 3),
        (9, 0.13, 4, 0.97, 7),
        (5, 0.5, 7, 0.5, 6),
        (3, 0.0, 3, 1.0, 3),
        # edge cases: k beyond n1 + n2, empty trial sets, certain trials
        (3, 0.4, 2, 0.7, 6),
        (0, 0.4, 0, 0.7, 0),
        (0, 0.4, 0, 0.7, 1),
        (0, 0.3, 5, 0.8, 2),
        (4, 0.3, 0, 0.8, 4),
        (4, 1.0, 3, 0.0, 4),
        (4, 1.0, 3, 1.0, 7),
        (4, 0.0, 3, 0.0, 0),
        (4, 0.0, 3, 0.0, 1),
    ]
    for n1, p1, n2, p2, k in cases:
        oracle = oracles.binomial_convolution_double_loop(n1, p1, n2, p2, k)
        assert binomial_convolution_mass(n1, p1, n2, p2, k) == pytest.approx(oracle, abs=1e-14)
        tail = sum(
            oracles.binomial_convolution_double_loop(n1, p1, n2, p2, m)
            for m in range(max(k, 0), n1 + n2 + 1)
        )
        assert binomial_convolution_tail(n1, p1, n2, p2, k) == pytest.approx(tail, abs=1e-14)


def test_split_tables_serve_every_term_and_the_opponent():
    # One set of tables answers every (n1, n2, k) up to its size, and the
    # swapped view is the opponent's: success and failure exchanged.
    p1, p2 = 0.62, 0.27
    split = _SplitPowers(6, p1, 1.0 - p1, p2, 1.0 - p2)
    other = split.swapped()
    for n1 in range(7):
        for n2 in range(7):
            for k in range(n1 + n2 + 2):
                oracle = oracles.binomial_convolution_double_loop(n1, p1, n2, p2, k)
                assert split.mass(n1, n2, k) == pytest.approx(oracle, rel=1e-13, abs=0)
                flipped = oracles.binomial_convolution_double_loop(n1, 1.0 - p1, n2, 1.0 - p2, k)
                assert other.mass(n1, n2, k) == pytest.approx(flipped, rel=1e-13, abs=0)
    # the tables check nothing; the public entry that builds them does
    with pytest.raises(ValueError):
        binomial_convolution_mass(3, 0.5, 3, float("nan"), 1)


# unit pattern -> (the library's count of opener-served units among 1..m,
# whether the opener serves unit m, walked independently)
RACE_PATTERNS = {
    "abba points": (serves_by_first_server, oracles.abba_server_is_first),
    "alternating games": (games_served_by_first_server, lambda m: m % 2 == 1),
    "every unit": (lambda m: m, lambda m: True),
}


@pytest.mark.parametrize("n", [2, 3, 7, 10, 16])
@pytest.mark.parametrize("pattern", RACE_PATTERNS)
def test_race_matches_exact_score_walk(pattern, n):
    opener_units, opener_serves = RACE_PATTERNS[pattern]
    for p1, p2 in ((0.6, 0.45), (0.01, 0.99), (0.999, 0.001), (0.3, 0.3), (1.0, 0.0)):
        odds = (p1, 1.0 - p1, p2, 1.0 - p2)
        split = _SplitPowers(n - 1, *odds)
        a_wins, tie = split.race(n, opener_units)
        b_wins, b_tie = split.swapped().race(n, opener_units)
        exact_a, exact_b, exact_tie = oracles.race_outcome_exact(odds, n, opener_serves)
        assert len(a_wins) == len(b_wins) == n - 1
        for got, want in zip(a_wins + b_wins + [tie, b_tie],
                             exact_a + exact_b + [exact_tie, exact_tie]):
            if want == 0:
                assert got == 0.0
            elif want > 1e-300:
                assert got == pytest.approx(float(want), rel=1e-13, abs=0)
        assert sum(a_wins) + sum(b_wins) + tie == pytest.approx(1.0, abs=1e-14)
        # the race object pairs the same two races, labels them and merges the rows
        laws = _Laws(opener_units=opener_units)
        race = _Race(split, n, laws)
        rows = race.rows()
        scores = [(row.score, row.loser, *row.shares) for row in rows]
        assert race.tie == tie
        assert [(label, h) for label, h, _, _ in scores] == [(f"{n}-{h}", h) for h in range(n - 1)]
        assert [a for _, _, a, _ in scores] == a_wins
        assert [b for _, _, _, b in scores] == b_wins
        moments = _row_moments(rows, laws)
        for h, ((_, _, a, b), row, (mean, var)) in enumerate(zip(scores, rows, moments,
                                                                 strict=True)):
            assert row.units == n + h and row.mass == a + b
            assert (row.stacked, mean, var) == (False, n + h, 0.0)


def test_race_default_gives_every_unit_the_first_kind():
    split = _SplitPowers(6, 0.3, 0.7, 0.9, 0.1)
    assert split.race(7) == split.race(7, lambda m: m)


def test_binomial_convolution_normalizes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n1, n2 = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        p1, p2 = rng.random(), rng.random()
        total = sum(binomial_convolution_mass(n1, p1, n2, p2, k) for k in range(n1 + n2 + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_binomial_convolution_tail_consistent_with_mass():
    n1, p1, n2, p2 = 7, 0.62, 9, 0.38
    for k in range(-1, n1 + n2 + 3):
        expected = sum(
            binomial_convolution_mass(n1, p1, n2, p2, m)
            for m in range(max(k, 0), n1 + n2 + 1)
        )
        if k <= 0:
            expected = 1.0
        got = binomial_convolution_tail(n1, p1, n2, p2, k)
        assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k", [1.5, 2.0, True, False, "3", None])
def test_binomial_convolution_tail_rejects_non_integer_k(k):
    # the tail checks k as the mass does; only its range is wider (k <= 0 gives 1)
    for fn in (binomial_convolution_tail, binomial_convolution_mass):
        with pytest.raises(ValueError, match="^k must be an integer"):
            fn(3, 0.2, 2, 0.5, k)


def test_binomial_convolution_broadcasts():
    ps = np.linspace(0.0, 1.0, 11)
    vec = binomial_convolution_mass(6, ps, 6, 0.45, 6)
    for i, p in enumerate(ps):
        assert vec[i] == pytest.approx(binomial_convolution_mass(6, float(p), 6, 0.45, 6))


def test_geometric_moments_closed_form():
    assert geometric_moments(1.0) == (1.0, 0.0)
    assert geometric_moments(0.5) == (2.0, 2.0)
    mean, var = geometric_moments(0.52)
    assert mean == pytest.approx(1.9230769230769231, abs=1e-12)
    assert var == pytest.approx(1.7751479289940828, abs=1e-12)
    # below 2**-1024 the mean overflows, and the variance is inf, not nan
    with np.errstate(over="ignore", divide="ignore"):
        assert geometric_moments(1e-310) == (math.inf, math.inf)


def test_geometric_moments_match_series_oracle():
    mean, var = geometric_moments(0.52)
    s_mean, s_var = oracles.geometric_moments_series(0.52)
    assert mean == pytest.approx(s_mean, abs=1e-12)
    assert var == pytest.approx(s_var, abs=1e-12)
    for eta in np.linspace(0.01, 1.0, 34):
        mean, var = geometric_moments(float(eta))
        s_mean, s_var = oracles.geometric_moments_series(float(eta), terms=6000)
        assert mean == pytest.approx(s_mean, abs=1e-9)
        assert var == pytest.approx(s_var, abs=1e-9)


def test_geometric_moments_rejects_zero():
    with pytest.raises(NonTerminatingError):
        geometric_moments(0.0)


def test_system_spec_defaults_and_validation():
    from deuce.core import SystemSpec

    assert SystemSpec("st").k == 7
    assert SystemSpec("set", k=9).k == 9
    m = SystemSpec("match")
    assert (m.k0, m.k1, m.q) == (7, 7, 2)
    assert SystemSpec("bog", l=3).tiebreak == "sttg"
    assert SystemSpec("game").takes_pair is False
    assert SystemSpec("bofk", l=5).takes_pair is False
    for kind in ("stt", "st", "set", "match", "bog"):
        spec = SystemSpec(kind, l=4) if kind == "bog" else SystemSpec(kind)
        assert spec.takes_pair is True

    with pytest.raises(ValueError):
        SystemSpec("tiebreak7")
    with pytest.raises(ValueError):
        SystemSpec("game", k=7)  # game has no structural knobs
    with pytest.raises(ValueError):
        SystemSpec("bofk")  # l is required
    with pytest.raises(ValueError):
        SystemSpec("bog", l=3, k=7)
    with pytest.raises(ValueError):
        SystemSpec("st", k=1)
    with pytest.raises(ValueError):
        SystemSpec("match", q=0)
    with pytest.raises(ValueError):
        SystemSpec("bog", l=3, tiebreak="coin")
    with pytest.raises(ValueError):
        SystemSpec("bofk", l=True)  # a boolean is not a count
    with pytest.raises(ValueError):
        SystemSpec("st", k=False)
    for spec in (SystemSpec("st", k=np.int64(7)), SystemSpec("match", q=np.int32(3)),
                 SystemSpec("bofk", l=np.uint8(5))):
        for name in ("k", "k0", "k1", "q", "l"):
            value = getattr(spec, name)
            assert value is None or type(value) is int
