"""Independent reference implementations used only by the test suite.

Everything in here is deliberately written the slow, obvious way — direct
enumeration, truncated series, cached recursion over score states — so that
agreement with the library is meaningful.  None of these functions share code
with src/deuce.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def abba_server_is_first(n: int) -> bool:
    """Who serves point n of a tie-breaker, by literally walking the rotation.

    First server serves one point, then the players alternate two-point blocks.
    """
    server, remaining = 0, 1  # 0 = first server
    for _ in range(n - 1):
        remaining -= 1
        if remaining == 0:
            server ^= 1
            remaining = 2
    return server == 0


def abba_serve_count(n: int) -> int:
    return sum(abba_server_is_first(j) for j in range(1, n + 1))


def binomial_convolution_double_loop(n1, p1, n2, p2, k):
    """Pr{X+Y=k} by brute double loop over both binomial supports."""
    total = 0.0
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            if i + j == k:
                total += (
                    math.comb(n1, i) * p1**i * (1 - p1) ** (n1 - i)
                    * math.comb(n2, j) * p2**j * (1 - p2) ** (n2 - j)
                )
    return total


def geometric_moments_series(eta: float, terms: int = 4000) -> tuple[float, float]:
    """Mean/variance of Ge(eta) by truncated series summation."""
    m1 = m2 = 0.0
    for n in range(1, terms + 1):
        pmf = (1 - eta) ** (n - 1) * eta
        m1 += n * pmf
        m2 += n * n * pmf
    return m1, m2 - m1 * m1


def gt_win_prob_series(p: float, max_points: int = 200) -> float:
    """Two-point-advantage tie-breaker (single server), truncated enumeration.

    The process ends on an even point count 2k with the server having won the
    final pair after k-1 drawn pairs.
    """
    q = 1 - p
    total = 0.0
    for k in range(1, max_points // 2 + 1):
        total += (2 * p * q) ** (k - 1) * p * p
    return total


def stt_win_prob_series(pa: float, pb: float, max_pairs: int = 5000) -> float:
    """First-to-two-point-advantage with ABBA serving, as a geometric series.

    Each pair of points (one on each player's serve, in either order within the
    rotation) is decisive with probability pa*qb + qa*pb; A takes a decisive
    pair with probability pa*qb.
    """
    qa, qb = 1 - pa, 1 - pb
    tie = pa * pb + qa * qb
    total = 0.0
    for n in range(1, max_pairs + 1):
        total += tie ** (n - 1) * (pa * qb)
    return total


def st_win_prob_paths(pa: float, pb: float, K: int, order: str = "abba") -> float:
    """Set tie-breaker win probability by exhaustive score-path recursion.

    Walks every score path point by point with the serve-dependent win
    probability; at (K-1, K-1) the two-point-advantage continuation is scored
    with the closed geometric series (which the same oracle suite validates
    separately).  ``order`` selects the ABBA rotation or strict ABAB
    alternation — the result must not depend on it.
    """
    qa, qb = 1 - pa, 1 - pb

    def server_is_a(point_no: int) -> bool:
        if order == "abba":
            return abba_server_is_first(point_no)
        return point_no % 2 == 1

    # From (K-1, K-1) the first two-point advantage decides.  Both rotations
    # group the remaining points into pairs with one serve by each player, so
    # A takes a decisive pair with pa*qb no matter who opens the tie-breaker.
    denom = pa * qb + qa * pb
    stt_a = pa * qb / denom if denom else math.nan

    @lru_cache(maxsize=None)
    def rec(a: int, b: int) -> float:
        if a == K:
            return 1.0
        if b == K:
            return 0.0
        if a == K - 1 and b == K - 1:
            return stt_a
        n = a + b + 1
        p_point = pa if server_is_a(n) else qb
        return p_point * rec(a + 1, b) + (1 - p_point) * rec(a, b + 1)

    return rec(0, 0)


def game_length_pmf_dp(p: float, n_max: int) -> dict[int, float]:
    """PMF of game length by stepping score states point by point.

    States are (server points, receiver points); the game ends when someone
    has at least four points and a two-point lead.
    """
    states = {(0, 0): 1.0}
    out: dict[int, float] = {}
    for n in range(1, n_max + 1):
        nxt: dict[tuple[int, int], float] = {}
        for (a, b), prob in states.items():
            for da, pr in ((1, p), (0, 1 - p)):
                if pr == 0.0:
                    continue
                na, nb = a + da, b + (1 - da)
                w = prob * pr
                if (na >= 4 and na - nb >= 2) or (nb >= 4 and nb - na >= 2):
                    out[n] = out.get(n, 0.0) + w
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0.0) + w
        states = nxt
    return out


def st_score_probs_dp(
    pa: float, pb: float, k: int, order: str = "abba"
) -> tuple[dict[tuple[int, int], float], float]:
    """Final-score probabilities of a K-point set tie-breaker, by score walk.

    Returns ({(winner_points, loser_points... actually (a, b)): prob}, tie_prob)
    where finals have a == k or b == k and ``tie_prob`` is the mass absorbed at
    (k-1, k-1).
    """
    states = {(0, 0): 1.0}
    finals: dict[tuple[int, int], float] = {}
    tie = 0.0
    n = 0
    while states:
        n += 1
        if order == "abba":
            a_serves = abba_server_is_first(n)
        else:
            a_serves = n % 2 == 1
        nxt: dict[tuple[int, int], float] = {}
        for (a, b), prob in states.items():
            p_a = pa if a_serves else 1 - pb
            for a_won, w in ((True, p_a), (False, 1 - p_a)):
                if w == 0.0:
                    continue
                na, nb = a + a_won, b + (not a_won)
                wgt = prob * w
                if na == k - 1 and nb == k - 1:
                    tie += wgt
                elif na == k or nb == k:
                    finals[(na, nb)] = finals.get((na, nb), 0.0) + wgt
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0.0) + wgt
        states = nxt
    return finals, tie


def game_joint_pmf_dp(p: float, n_max: int = 200) -> list[tuple[bool, int, float]]:
    """Joint (server wins, length) PMF of a game, by the same score walk."""
    states = {(0, 0): 1.0}
    out: list[tuple[bool, int, float]] = []
    for n in range(1, n_max + 1):
        nxt: dict[tuple[int, int], float] = {}
        for (a, b), prob in states.items():
            for da, pr in ((1, p), (0, 1 - p)):
                if pr == 0.0:
                    continue
                na, nb = a + da, b + (1 - da)
                w = prob * pr
                if na >= 4 and na - nb >= 2:
                    out.append((True, n, w))
                elif nb >= 4 and nb - na >= 2:
                    out.append((False, n, w))
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0.0) + w
        states = nxt
    return out


def _append_increment(cell: list[float], inc: list[float]) -> list[float]:
    """Raw-moment bookkeeping for appending an independent increment.

    ``cell`` holds [P, E[N·1], E[N²·1], …] restricted to some event; ``inc``
    holds the joint moments [pr, pr·E[X], pr·E[X²], …] of the increment and
    the transition it rides on.  The sum's restricted moments follow from the
    binomial theorem: E[(N+X)^k·1] = Σ_j C(k,j)·E[N^j·1]·E[X^{k−j}·1].
    """
    m = len(cell)
    return [
        sum(math.comb(k, j) * cell[j] * inc[k - j] for j in range(k + 1))
        for k in range(m)
    ]


def _fixed_increment(pr: float, n: float, moments: int) -> list[float]:
    return [pr * n**k for k in range(moments + 1)]


def geometric_raw_moments(eta: float, kmax: int, terms: int = 6000) -> list[float]:
    """[E[G^0..G^kmax]] for G ~ Ge(eta) on {1,2,…}, by truncated summation."""
    out = [0.0] * (kmax + 1)
    for n in range(1, terms + 1):
        pmf = (1 - eta) ** (n - 1) * eta
        for k in range(kmax + 1):
            out[k] += n**k * pmf
    return out


def st_true_raw_by_winner(
    pa: float, pb: float, k: int, moments: int = 2
) -> dict[str, tuple[float, ...]]:
    """{winner: (P, E[N·1], …, E[N^m·1])} for the set tie-breaker score walk.

    The geometric continuation count is independent of who eventually sweeps a
    pair, so the tie branch splits between winners at fixed length moments;
    the head scores have deterministic lengths tied to the winner.
    """
    finals, tie = st_score_probs_dp(pa, pb, k)
    out = {"A": [0.0] * (moments + 1), "B": [0.0] * (moments + 1)}
    for (a, b), w in finals.items():
        acc = out["A" if a == k else "B"]
        n = a + b
        for j in range(moments + 1):
            acc[j] += w * n**j
    if tie > 0.0:
        eta = pa * (1 - pb) + (1 - pa) * pb
        g = geometric_raw_moments(eta, moments)
        base = 2 * (k - 1)
        # E[(base + 2G)^k], expanded over the geometric raw moments
        e = [
            sum(math.comb(kk, j) * base ** (kk - j) * 2**j * g[j] for j in range(kk + 1))
            for kk in range(moments + 1)
        ]
        share_a = pa * (1 - pb) / eta
        for winner, share in (("A", share_a), ("B", 1 - share_a)):
            acc = out[winner]
            for j in range(moments + 1):
                acc[j] += tie * share * e[j]
    return {w: tuple(v) for w, v in out.items()}


def st_true_points_raw_moments(pa: float, pb: float, k: int) -> tuple[float, float]:
    """(E[N], E[N^2]) of the set tie-breaker point count, from the score walk."""
    by_winner = st_true_raw_by_winner(pa, pb, k)
    return (
        by_winner["A"][1] + by_winner["B"][1],
        by_winner["A"][2] + by_winner["B"][2],
    )


def _game_joint_increments(p: float, moments: int) -> dict[bool, list[float]]:
    """Joint transition/length moments of one game, keyed by whether the server won."""
    out = {True: [0.0] * (moments + 1), False: [0.0] * (moments + 1)}
    for server_wins, n, pr in game_joint_pmf_dp(p):
        acc = out[server_wins]
        for j in range(moments + 1):
            acc[j] += pr * n**j
    return out


def set_true_outcomes_dp(
    pa: float, pb: float, k: int, moments: int = 2
) -> dict[tuple[str, object], tuple[float, ...]]:
    """Exact-process set outcomes with true joint game (winner, length) laws.

    Walks the set game by game, carrying for every live score the probability
    and the accumulated-point raw moments; splits absorption rows by
    (winner, final score).  Returns {(winner, (a, b)): (P, E1, …, Em)} with
    the restricted (unconditional) moments — divide by P for conditionals.
    The 6-6 rows fold in the set tie-breaker, whose count is independent of
    the twelve games before it.
    """
    inc_a = _game_joint_increments(pa, moments)
    inc_b = _game_joint_increments(pb, moments)
    st_by_winner = {
        w: list(v) for w, v in st_true_raw_by_winner(pa, pb, k, moments).items()
    }
    rows: dict[tuple[str, object], list[float]] = {}
    states = {(0, 0): [1.0] + [0.0] * moments}
    g = 0
    while states:
        g += 1
        a_serves = g % 2 == 1
        inc = inc_a if a_serves else inc_b
        nxt: dict[tuple[int, int], list[float]] = {}
        for (a, b), cell in states.items():
            for server_wins in (True, False):
                a_wins = server_wins if a_serves else not server_wins
                na, nb = a + a_wins, b + (not a_wins)
                cell2 = _append_increment(cell, inc[server_wins])
                over = (max(na, nb) == 6 and abs(na - nb) >= 2) or max(na, nb) == 7
                if na == 6 and nb == 6:
                    for winner, sx in st_by_winner.items():
                        acc = rows.setdefault(
                            (winner, (7, 6)), [0.0] * (moments + 1)
                        )
                        for j, v in enumerate(_append_increment(cell2, sx)):
                            acc[j] += v
                elif over:
                    winner = "A" if na > nb else "B"
                    acc = rows.setdefault((winner, (na, nb)), [0.0] * (moments + 1))
                    for j in range(moments + 1):
                        acc[j] += cell2[j]
                else:
                    acc = nxt.setdefault((na, nb), [0.0] * (moments + 1))
                    for j in range(moments + 1):
                        acc[j] += cell2[j]
        states = nxt
    return {key: tuple(v) for key, v in rows.items()}


def _central_stats(raw: list[float]) -> tuple[float, ...]:
    """(P, mean, variance[, central mu3, mu4…]) from restricted raw moments."""
    p = raw[0]
    e = [v / p for v in raw]
    mean = e[1]
    out = [p, mean]
    if len(raw) > 2:
        out.append(e[2] - mean * mean)
    for k in range(3, len(raw)):
        out.append(
            sum(math.comb(k, j) * e[j] * (-mean) ** (k - j) for j in range(k + 1))
        )
    return tuple(out)


def set_true_points_moments(pa: float, pb: float, k: int) -> tuple[float, float]:
    """Exact-process (mean, variance) of the set point count."""
    rows = set_true_outcomes_dp(pa, pb, k)
    total = [0.0, 0.0, 0.0]
    for v in rows.values():
        for j in range(3):
            total[j] += v[j]
    _, mean, var = _central_stats(total)
    return mean, var


def set_true_row_stats(
    pa: float, pb: float, k: int
) -> dict[str, tuple[float, float, float, float, float]]:
    """True per-final-score statistics {label: (P, mean, var, mu3, mu4)}.

    Rows merge the two winners at the mirrored score, exactly as the score
    breakdown tables do (label "6-2" covers A winning 6-2 and B winning 2-6;
    "7-6" covers the tie-breaker ending either way).
    """
    rows = set_true_outcomes_dp(pa, pb, k, moments=4)
    merged: dict[str, list[float]] = {}
    for (winner, (a, b)), v in rows.items():
        hi, lo = (a, b) if a > b else (b, a)
        acc = merged.setdefault(f"{hi}-{lo}", [0.0] * 5)
        for j in range(5):
            acc[j] += v[j]
    return {label: _central_stats(raw) for label, raw in merged.items()}


def _set_winner_increments(rows: dict) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for (w, _), v in rows.items():
        acc = out.setdefault(w, [0.0] * len(v))
        for j, x in enumerate(v):
            acc[j] += x
    return out


def match_true_points_stats(
    pa: float, pb: float, k0: int, k1: int, q: int, moments: int = 2
) -> tuple[float, ...]:
    """Exact-process match point-count stats (mean, variance[, mu3, mu4]).

    Aggregates the set walk's (winner, restricted length moments) and runs a
    second walk over set scores, using the k1 law from (q, q).
    """
    j0 = _set_winner_increments(set_true_outcomes_dp(pa, pb, k0, moments))
    j1 = _set_winner_increments(set_true_outcomes_dp(pa, pb, k1, moments))
    states = {(0, 0): [1.0] + [0.0] * moments}
    tot = [0.0] * (moments + 1)
    while states:
        nxt: dict[tuple[int, int], list[float]] = {}
        for (a, b), cell in states.items():
            law = j1 if (a == q and b == q) else j0
            for w, inc in law.items():
                na, nb = a + (w == "A"), b + (w == "B")
                cell2 = _append_increment(cell, inc)
                acc = (
                    tot
                    if (na == q + 1 or nb == q + 1)
                    else nxt.setdefault((na, nb), [0.0] * (moments + 1))
                )
                for j in range(moments + 1):
                    acc[j] += cell2[j]
        states = nxt
    return _central_stats(tot)[1:]


def match_true_points_moments(
    pa: float, pb: float, k0: int, k1: int, q: int
) -> tuple[float, float]:
    """Exact-process (mean, variance) of match points, via per-set joint laws."""
    mean, var = match_true_points_stats(pa, pb, k0, k1, q)
    return mean, var


def _race_raw_by_winner(
    dec_a: list[float], dec_b: list[float], ind: list[float]
) -> dict[str, list[float]]:
    """Raw cost moments of a win-by-two race, split by winner.

    Each round independently ends the race for A (restricted cost moments
    ``dec_a``), ends it for B (``dec_b``), or stays indecisive (``ind``,
    all patterns merged).  Entry k of the result is E[S^k . 1{winner}] for
    the total cost S accumulated over all rounds through the decisive one:
    m_k = dec[k] + sum_j C(k,j) ind[j] m_{k-j}, solved for m_k.
    """
    eta = dec_a[0] + dec_b[0]
    if eta <= 0.0:
        raise ValueError("race never terminates: no decisive round pattern")
    out: dict[str, list[float]] = {}
    for label, dec in (("A", dec_a), ("B", dec_b)):
        m = [0.0] * len(dec)
        for k in range(len(dec)):
            acc = dec[k]
            for j in range(1, k + 1):
                acc += math.comb(k, j) * ind[j] * m[k - j]
            m[k] = acc / eta
        out[label] = m
    return out


def bog_true_stats(
    pa: float, pb: float, l: int, tiebreak: str, moments: int = 2
) -> tuple[float, ...]:
    """Exact-process (win prob, mean, variance, ...) of a best-of-games match.

    Walks the game-score lattice with the true joint (winner, length) law of
    each service game, so category masses carry their genuinely conditional
    point counts; the l-l tie folds in the race's winner-split cost moments.
    """
    raw_a = _game_joint_increments(pa, moments)
    raw_b = _game_joint_increments(pb, moments)
    inc_a = raw_a  # A-serve game, keyed by "A won"
    inc_b = {True: raw_b[False], False: raw_b[True]}  # B-serve game, same key
    finals = {"A": [0.0] * (moments + 1), "B": [0.0] * (moments + 1)}
    states = {(0, 0): [1.0] + [0.0] * moments}
    for n in range(2 * l):
        nxt: dict[tuple[int, int], list[float]] = {}
        game = inc_a if (n + 1) % 2 == 1 else inc_b
        for (a, b), cell in states.items():
            for a_wins in (True, False):
                vec = _append_increment(cell, game[a_wins])
                na, nb = a + a_wins, b + (not a_wins)
                if na == l + 1 or nb == l + 1:
                    acc = finals["A" if a_wins else "B"]
                else:
                    acc = nxt.setdefault((na, nb), [0.0] * (moments + 1))
                for j in range(moments + 1):
                    acc[j] += vec[j]
        states = nxt
    tie_cell = states.get((l, l), [0.0] * (moments + 1))
    if tie_cell[0] > 0.0:
        if tiebreak == "sg":
            for a_wins, label in ((True, "A"), (False, "B")):
                inc = [
                    0.5 * (inc_a[a_wins][j] + inc_b[a_wins][j])
                    for j in range(moments + 1)
                ]
                vec = _append_increment(tie_cell, inc)
                finals[label] = [x + y for x, y in zip(finals[label], vec)]
        else:
            if tiebreak == "sttg":
                dec_a = _append_increment(inc_a[True], inc_b[True])
                dec_b = _append_increment(inc_a[False], inc_b[False])
                ind = [
                    x + y
                    for x, y in zip(
                        _append_increment(inc_a[True], inc_b[False]),
                        _append_increment(inc_a[False], inc_b[True]),
                    )
                ]
            else:  # sttp: one point on each serve per round, cost exactly 2
                dec_a = _fixed_increment(pa * (1 - pb), 2, moments)
                dec_b = _fixed_increment((1 - pa) * pb, 2, moments)
                ind = _fixed_increment(
                    pa * pb + (1 - pa) * (1 - pb), 2, moments
                )
            race = _race_raw_by_winner(dec_a, dec_b, ind)
            for label in ("A", "B"):
                vec = _append_increment(tie_cell, race[label])
                finals[label] = [x + y for x, y in zip(finals[label], vec)]
    total = [x + y for x, y in zip(finals["A"], finals["B"])]
    return (finals["A"][0],) + _central_stats(total)[1:]


# ------------------------------------------------------- dense length laws
#
# The set and match point-count laws composed the plain way: every factor a
# full-length array over 0..n_max and every convolution O(n_max^2).  Score
# masses come from the score walks above; game lengths are cut at 400 points
# like the library's default game PMF.

GAME_PMF_POINTS = 400


def _dense(pmf: dict[int, float], n_max: int) -> np.ndarray:
    arr = np.zeros(n_max + 1)
    for n, mass in pmf.items():
        if n <= n_max:
            arr[n] = mass
    return arr


def _dense_sums(units: list[np.ndarray], n_max: int) -> list[np.ndarray]:
    """[law of the sum of the first g units for g = 0..len(units)], each cut at n_max."""
    runs = [_dense({0: 1.0}, n_max)]
    for unit in units:
        runs.append(np.convolve(runs[-1], unit)[: n_max + 1])
    return runs


def st_length_pmf(pa: float, pb: float, k: int, n_max: int) -> dict[int, float]:
    """Set tie-breaker length PMF: score-walk finals plus the pair-count tail."""
    finals, tie = st_score_probs_dp(pa, pb, k)
    out: dict[int, float] = {}
    for (a, b), w in finals.items():
        out[a + b] = out.get(a + b, 0.0) + w
    eta = pa * (1 - pb) + (1 - pa) * pb
    pairs = 1
    while tie > 0.0 and 2 * (k - 1) + 2 * pairs <= n_max:
        out[2 * (k - 1) + 2 * pairs] = tie * eta * (1 - eta) ** (pairs - 1)
        pairs += 1
    return out


def game_outcome_exact(p: float) -> tuple[Fraction, Fraction]:
    """(server wins, server loses) of a game, exact for the float ``p``.

    Walks the score to 4 points or to deuce in rational arithmetic; from
    deuce the first decisive pair (p^2 or q^2) settles it.
    """
    p = Fraction(p)
    q = 1 - p
    won = lost = Fraction(0)
    states = {(0, 0): Fraction(1)}
    while states:
        nxt: dict[tuple[int, int], Fraction] = {}
        for (a, b), prob in states.items():
            if (a, b) == (3, 3):
                won += prob * p * p / (p * p + q * q)
                lost += prob * q * q / (p * p + q * q)
                continue
            for na, nb, w in ((a + 1, b, p), (a, b + 1, q)):
                if na == 4:
                    won += prob * w
                elif nb == 4:
                    lost += prob * w
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0) + prob * w
        states = nxt
    return won, lost


def game_points_moments_exact(p: float) -> tuple[Fraction, Fraction]:
    """(mean, variance) of a game's point count, exact for the float ``p``.

    Walks the score in rational arithmetic to 4 points or to deuce; from
    deuce the game lasts 6 + 2G points, G geometric with success p^2 + q^2,
    E[G] = 1/eta and E[G^2] = (2 - eta)/eta^2.
    """
    p = Fraction(p)
    q = 1 - p
    eta = p * p + q * q
    g1, g2 = 1 / eta, (2 - eta) / eta**2
    first = second = Fraction(0)
    states = {(0, 0): Fraction(1)}
    while states:
        nxt: dict[tuple[int, int], Fraction] = {}
        for (a, b), prob in states.items():
            if (a, b) == (3, 3):
                first += prob * (6 + 2 * g1)
                second += prob * (36 + 24 * g1 + 4 * g2)
                continue
            for na, nb, w in ((a + 1, b, p), (a, b + 1, q)):
                if 4 in (na, nb):
                    first += prob * w * (na + nb)
                    second += prob * w * (na + nb) ** 2
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0) + prob * w
        states = nxt
    return first, second - first * first


def st_outcome_exact(pa: float, pb: float, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(A wins, B wins, K-1 all reached) for a K-point set tie-breaker.

    Exact for the floats ``pa``, ``pb``: walks the ABBA score in rational
    arithmetic to K points or to K-1 all; from there each player takes the
    STT by sweeping the first decisive pair.
    """
    pa, pb = Fraction(pa), Fraction(pb)
    qa, qb = 1 - pa, 1 - pb
    a_stt = pa * qb / (pa * qb + qa * pb)
    b_stt = qa * pb / (pa * qb + qa * pb)
    a_wins = b_wins = tie = Fraction(0)
    states = {(0, 0): Fraction(1)}
    n = 0
    while states:
        n += 1
        a_point = pa if abba_server_is_first(n) else qb
        nxt: dict[tuple[int, int], Fraction] = {}
        for (a, b), prob in states.items():
            for na, nb, w in ((a + 1, b, a_point), (a, b + 1, 1 - a_point)):
                if (na, nb) == (k - 1, k - 1):
                    tie += prob * w
                    a_wins += prob * w * a_stt
                    b_wins += prob * w * b_stt
                elif na == k:
                    a_wins += prob * w
                elif nb == k:
                    b_wins += prob * w
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0) + prob * w
        states = nxt
    return a_wins, b_wins, tie


def race_outcome_exact(
    odds: tuple[float, float, float, float], n: int, opener_serves
) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """(A's wins by loser's count, B's wins by loser's count, n-1 all reached).

    A race to ``n`` units, walked score by score in rational arithmetic.
    ``odds`` are A's (win, loss) on a unit the opener serves, then on one the
    other player serves, exact for the floats given; ``opener_serves(m)``
    says whether the opener serves unit m.  The walk stops at n units or at
    n-1 all.
    """
    win1, loss1, win2, loss2 = map(Fraction, odds)
    a_wins = [Fraction(0)] * (n - 1)
    b_wins = [Fraction(0)] * (n - 1)
    tie = Fraction(0)
    states = {(0, 0): Fraction(1)}
    m = 0
    while states:
        m += 1
        win, loss = (win1, loss1) if opener_serves(m) else (win2, loss2)
        nxt: dict[tuple[int, int], Fraction] = {}
        for (a, b), prob in states.items():
            for na, nb, w in ((a + 1, b, win), (a, b + 1, loss)):
                if (na, nb) == (n - 1, n - 1):
                    tie += prob * w
                elif na == n:
                    a_wins[nb] += prob * w
                elif nb == n:
                    b_wins[na] += prob * w
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0) + prob * w
        states = nxt
    return a_wins, b_wins, tie


def set_score_probs_dp(pa: float, pb: float) -> dict[tuple[int, int], float]:
    """Final set-score probabilities by an exact game-score walk, 6-6 kept as one state.

    Each service game is won or lost with its own exact mass, so a break of
    serve is never formed as one minus a rounded hold.
    """
    hold_a, lose_a = game_outcome_exact(pa)
    hold_b, lose_b = game_outcome_exact(pb)
    finals: dict[tuple[int, int], Fraction] = {}
    states = {(0, 0): Fraction(1)}
    g = 0
    while states:
        g += 1
        a_wins, b_wins = (hold_a, lose_a) if g % 2 == 1 else (lose_b, hold_b)
        nxt: dict[tuple[int, int], Fraction] = {}
        for (a, b), prob in states.items():
            for na, nb, w in ((a + 1, b, a_wins), (a, b + 1, b_wins)):
                hi, lo = max(na, nb), min(na, nb)
                if (hi == 6 and lo <= 4) or hi == 7 or (hi, lo) == (6, 6):
                    finals[(na, nb)] = finals.get((na, nb), 0) + prob * w
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0) + prob * w
        states = nxt
    return {score: float(m) for score, m in finals.items()}


def set_points_pmf_dense(pa: float, pb: float, k: int, n_max: int) -> tuple[np.ndarray, float]:
    """(set length PMF over 0..n_max, truncation mass), composed densely.

    Rows by final score: g games for a g-game score, the twelve games plus
    the tie-breaker from 6-6; games alternate servers with A first.
    """
    game_a = _dense(game_length_pmf_dp(pa, GAME_PMF_POINTS), n_max)
    game_b = _dense(game_length_pmf_dp(pb, GAME_PMF_POINTS), n_max)
    runs = _dense_sums([game_a, game_b] * 6, n_max)
    tie_break = _dense(st_length_pmf(pa, pb, k, n_max), n_max)
    total = np.zeros(n_max + 1)
    for (a, b), prob in set_score_probs_dp(pa, pb).items():
        if a == b:
            total += prob * np.convolve(runs[12], tie_break)[: n_max + 1]
        else:
            total += prob * runs[a + b]
    return total, max(0.0, 1.0 - float(total.sum()))


def match_points_pmf_dense(
    pa: float, pb: float, k0: int, k1: int, q: int, n_max: int
) -> tuple[np.ndarray, float]:
    """(match length PMF over 0..n_max, truncation mass), composed densely.

    Walks set scores to their absorbing masses (the decider from (q, q) uses
    the k1 set), then mixes sums of set lengths over them.
    """
    set0, _ = set_points_pmf_dense(pa, pb, k0, n_max)
    set1, _ = set_points_pmf_dense(pa, pb, k1, n_max)
    finals = set_score_probs_dp(pa, pb)
    head = sum(m for (a, b), m in finals.items() if a > b)
    tied = finals.get((6, 6), 0.0)
    theta = {kk: head + tied * st_win_prob_paths(pa, pb, kk) for kk in {k0, k1}}
    runs = _dense_sums([set0] * (2 * q), n_max)
    decided = np.convolve(runs[2 * q], set1)[: n_max + 1]
    total = np.zeros(n_max + 1)
    states = {(0, 0): 1.0}
    while states:
        nxt: dict[tuple[int, int], float] = {}
        for (a, b), prob in states.items():
            decider = a == q and b == q
            t = theta[k1 if decider else k0]
            for na, nb, w in ((a + 1, b, t), (a, b + 1, 1 - t)):
                if max(na, nb) == q + 1:
                    total += prob * w * (decided if decider else runs[na + nb])
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0.0) + prob * w
        states = nxt
    return total, max(0.0, 1.0 - float(total.sum()))
