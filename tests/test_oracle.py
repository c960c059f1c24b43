import itertools
import random
from fractions import Fraction as Fr

import pytest

from momentforge.errors import SizeGuardError
from momentforge.oracle import (
    Histogram,
    _subcube_counter,
    enumerate_boards,
    enumerate_boolean,
    enumerate_permutations,
    enumerate_schur,
    histogram_moments,
    merge_histograms,
    sample_boolean,
)
from reference import marginal_maj, permutation_inv, permutation_maj, subcube_positions


def test_permutation_statistics_worked_example():
    assert permutation_inv((5, 2, 3, 1, 4)) == 6
    assert permutation_maj((5, 2, 3, 1, 4)) == 4


def test_joint_histogram_marginals():
    for n in range(1, 8):
        jh = enumerate_permutations(n)
        inv_h = jh.marginal_inv()
        maj_h = marginal_maj(jh)
        assert inv_h.counts == maj_h.counts
        assert inv_h.total == jh.total
    assert enumerate_permutations(3).marginal_inv().counts == {0: 1, 1: 2, 2: 2, 3: 1}


def test_permutation_guard():
    with pytest.raises(SizeGuardError):
        enumerate_permutations(10)


def test_schur_small_cases():
    assert enumerate_schur(1, 2).counts == {0: 2}
    assert enumerate_schur(3, 2).mean() == Fr(3, 4)
    assert enumerate_schur(5, 2).mean() == 2
    assert enumerate_schur(6, 2).mean() == 3
    assert enumerate_schur(5, 3).total == 3**5


def test_schur_partition_merge_deterministic():
    whole = enumerate_schur(9, 2)
    for parts in (2, 3, 8):
        split = enumerate_schur(9, 2, parts=parts)
        assert split.counts == whole.counts and split.total == whole.total


def test_subcube_worked_example():
    f = sum(1 << int(vertex, 2) for vertex in ("000", "001", "101", "011", "111"))
    assert _subcube_counter(3, 0)(f) == 5
    assert _subcube_counter(3, 1)(f) == 5  # 00B, 0B1, B01, 1B1, B11


def test_subcube_full_cube_and_sizes():
    import math

    for n in range(1, 5):
        full = (1 << (1 << n)) - 1
        for k in range(n + 1):
            expected = math.comb(n, k) * 2 ** (n - k)
            assert len(subcube_positions(n, k)) == expected
            assert _subcube_counter(n, k)(full) == expected


def test_subcube_counter_k0_is_popcount():
    import random

    rng = random.Random(7)
    for _ in range(20):
        f = rng.getrandbits(16)
        assert _subcube_counter(4, 0)(f) == bin(f).count("1")


def test_boolean_pgfs_match_printed():
    assert enumerate_boolean(1, 1).pgf().coeffs == (Fr(3, 4), Fr(1, 4))
    assert enumerate_boolean(2, 1).pgf().coeffs == (
        Fr(7, 16), Fr(4, 16), Fr(4, 16), Fr(0), Fr(1, 16),
    )
    # F_3 printed: (35+36q+54q^2+40q^3+30q^4+24q^5+16q^6+12q^7+8q^9+q^12)/256
    printed = [35, 36, 54, 40, 30, 24, 16, 12, 0, 8, 0, 0, 1]
    got = enumerate_boolean(3, 1).pgf()
    assert got.coeffs == tuple(Fr(v, 256) for v in printed)


def test_boolean_guard():
    with pytest.raises(SizeGuardError):
        enumerate_boolean(5, 1)


def test_boolean_sampler_reproducible():
    a = sample_boolean(4, 1, 300, seed=123)
    b = sample_boolean(4, 1, 300, seed=123)
    assert a.counts == b.counts and a.total == 300
    c = sample_boolean(4, 1, 300, seed=124)
    assert c.counts != a.counts  # astronomically unlikely to collide


def test_board_first_moment_table_entry():
    hb = enumerate_boards(2, 2)
    assert sum(v * c for v, c in hb.counts.items()) == 32
    assert enumerate_boards(1, 1).counts == {0: 2}
    hb33 = enumerate_boards(3, 3)
    assert sum(v * v * c for v, c in hb33.counts.items()) == 19968


def test_board_partition_merge_deterministic():
    whole = enumerate_boards(3, 4)
    for parts in (2, 5, 16):
        split = enumerate_boards(3, 4, parts=parts)
        assert split.counts == whole.counts


def test_board_guard():
    with pytest.raises(SizeGuardError):
        enumerate_boards(5, 5)


def test_histogram_moments():
    point = Histogram({7: 4}, 4)
    mv = histogram_moments(point, 3)
    assert mv.entries == (Fr(1), Fr(7), Fr(49), Fr(343))
    s3 = enumerate_permutations(3).marginal_inv()
    assert histogram_moments(s3, 1).entries[1] == Fr(3, 2)
    b = enumerate_boolean(2, 0)
    assert histogram_moments(b, 2).entries[2] == 5  # Binomial(4, 1/2): Var + mu^2


def test_merge_histograms_exact():
    h1 = Histogram({0: 2, 1: 3}, 5)
    h2 = Histogram({1: 1, 4: 2}, 3)
    merged = merge_histograms([h1, h2])
    assert merged.counts == {0: 2, 1: 4, 4: 2} and merged.total == 8


def test_histogram_serialization():
    h = Histogram({2: 1, 0: 3}, 4)
    assert h.to_csv_rows() == [(0, 3), (2, 1)]


# Naive per-pattern reference enumerators: every pattern of every
# configuration is tested one at a time, with no bit tricks, symmetry or
# incremental update.


def naive_schur(n, c):
    triples = [(x, y, x + y) for x in range(1, n + 1) for y in range(x, n - x + 1)]
    counts = {}
    for coloring in itertools.product(range(c), repeat=n):
        x = sum(1 for t in triples if len({coloring[e - 1] for e in t}) == 1)
        counts[x] = counts.get(x, 0) + 1
    return counts, c**n


def naive_boards(m, n):
    slots = [(r * n + col, r * n + col + 1) for r in range(m) for col in range(n - 1)]
    slots += [(r * n + col, (r + 1) * n + col) for r in range(m - 1) for col in range(n)]
    counts = {}
    for board in itertools.product((0, 1), repeat=m * n):
        x = sum(1 for i, j in slots if board[i] == board[j])
        counts[x] = counts.get(x, 0) + 1
    return counts, 2 ** (m * n)


def naive_subcubes(f, n, k):
    return sum(1 for pos in subcube_positions(n, k) if f & pos == pos)


@pytest.mark.parametrize("c,n_max", [(2, 14), (3, 8), (4, 6)])
def test_schur_matches_naive_enumeration(c, n_max):
    for n in range(1, n_max + 1):
        counts, total = naive_schur(n, c)
        got = enumerate_schur(n, c)
        assert got.counts == counts and got.total == total, (n, c)


def test_boards_match_naive_enumeration():
    for m in range(1, 15):
        for n in range(1, 14 // m + 1):
            counts, total = naive_boards(m, n)
            for parts in (1, 2, 3, 7):
                got = enumerate_boards(m, n, parts=parts)
                assert got.counts == counts and got.total == total, (m, n, parts)


def test_joint_inv_maj_matches_naive_enumeration():
    for n in range(1, 8):
        counts = {}
        for perm in itertools.permutations(range(1, n + 1)):
            key = (permutation_inv(perm), permutation_maj(perm))
            counts[key] = counts.get(key, 0) + 1
        got = enumerate_permutations(n)
        assert got.counts == counts and sum(got.counts.values()) == got.total, n


def test_subcube_counter_matches_subcube_positions():
    for n in range(4):
        for k in range(n + 1):
            for f in range(1 << (1 << n)):
                assert _subcube_counter(n, k)(f) == naive_subcubes(f, n, k), (f, n, k)
    rng = random.Random(2024)
    for n in (5, 6):
        for _ in range(200):
            f = rng.getrandbits(1 << n)
            for k in range(n + 1):
                assert _subcube_counter(n, k)(f) == naive_subcubes(f, n, k), (f, n, k)


def test_sampler_matches_naive_count_of_the_same_draws():
    for seed in (0, 99, 2**63 + 5):
        rng = random.Random(seed)
        counts = {}
        for _ in range(2000):
            x = naive_subcubes(rng.getrandbits(64), 6, 2)
            counts[x] = counts.get(x, 0) + 1
        got = sample_boolean(6, 2, 2000, seed)
        assert got.counts == counts and got.total == 2000, seed


def test_sampler_guard_refuses_before_building_anything():
    # one sample at n = 20, k = 10 would need C(20, 10) masks of 2^20 bits
    with pytest.raises(SizeGuardError, match="SAMPLER_GUARD"):
        sample_boolean(20, 10, 1, seed=1)
    with pytest.raises(SizeGuardError, match="SAMPLER_GUARD"):
        sample_boolean(14, 7, 2, seed=1)
