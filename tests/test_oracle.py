import itertools
import random
from fractions import Fraction as Fr

import pytest

from momentforge import oracle
from momentforge.errors import SizeGuardError
from momentforge.oracle import (
    Histogram,
    enumerate_boards,
    enumerate_boolean,
    enumerate_permutations,
    enumerate_schur,
    histogram_moments,
    merge_histograms,
    sample_boolean,
)
from reference import (
    board_counts,
    boolean_counts,
    marginal_maj,
    permutation_inv,
    permutation_maj,
    sample_counts,
    schur_counts,
    subcube_counter,
    subcube_positions,
)


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
    with pytest.raises(SizeGuardError, match=r"the permutations 10! = 3628800, beyond the PERM_GUARD"):
        enumerate_permutations(10)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: enumerate_permutations(10**7), r"the permutations 10000000! = 2\^9999999 or more, beyond the PERM_GUARD"),
        (lambda: enumerate_schur(10**8, 3), r"the colorings 3\^100000000 = 2\^100000000 or more, beyond the SCHUR_GUARD"),
        (lambda: enumerate_boards(10**5, 10**5), r"the boards 2\^10000000000 = 2\^10000000000 or more, beyond the BOARD_GUARD"),
        (lambda: enumerate_boolean(10**6, 1), r"the functions 2\^\(2\^1000000\) = 2\^18446744073709551616 or more"),
        (lambda: sample_boolean(10**9, 0, 1, seed=1), r"word operations = 2\^999999994 or more, beyond the SAMPLER_GUARD"),
    ],
    ids=["invmaj", "schur", "board", "boolean", "sampler"],
)
def test_oracle_guards_refuse_before_building_their_size(call, message):
    # each size would take seconds to gigabytes to build: the guard refuses on its bit length alone
    with pytest.raises(SizeGuardError, match=message):
        call()


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
    assert subcube_counter(3, 0)(f) == 5
    assert subcube_counter(3, 1)(f) == 5  # 00B, 0B1, B01, 1B1, B11


def test_subcube_full_cube_and_sizes():
    import math

    for n in range(1, 5):
        full = (1 << (1 << n)) - 1
        for k in range(n + 1):
            expected = math.comb(n, k) * 2 ** (n - k)
            assert len(subcube_positions(n, k)) == expected
            assert subcube_counter(n, k)(full) == expected


def test_subcube_counter_k0_is_popcount():
    import random

    rng = random.Random(7)
    for _ in range(20):
        f = rng.getrandbits(16)
        assert subcube_counter(4, 0)(f) == bin(f).count("1")


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


def test_histogram_serialization(run):
    # the CSV lists the histogram by value as a number: 10 after 9
    proc = run("oracle", "--family", "invmaj", "--n", "5", "--format", "csv")
    assert proc.code == 0
    lines = proc.out.splitlines()
    assert lines[0] == "value,count"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert rows == sorted(enumerate_permutations(5).marginal_inv().counts.items()) and rows[-1][0] == 10


# The lane-parallel enumerators against the per-configuration loops of
# reference.py, at the default chunk width and at widths narrow enough that
# every size above the smallest spans several chunks; ``parts`` of 3 and 7
# put block edges inside chunks.


def naive_subcubes(f, n, k):
    return sum(1 for pos in subcube_positions(n, k) if f & pos == pos)


@pytest.mark.parametrize("lane_bits", [oracle.LANE_BITS, 1 << 5])
@pytest.mark.parametrize("c,n_max", [(2, 14), (3, 9), (4, 7), (5, 6)])
def test_schur_matches_reference(monkeypatch, lane_bits, c, n_max):
    # n_max is the first n with c^n >= 10^4
    monkeypatch.setattr(oracle, "LANE_BITS", lane_bits)
    for n in range(1, n_max + 1):
        counts, total = schur_counts(n, c)
        for parts in (1, 3, 7):
            got = enumerate_schur(n, c, parts=parts)
            assert got.counts == counts and got.total == total, (n, c, parts)


@pytest.mark.parametrize("lane_bits", [oracle.LANE_BITS, 1 << 4])
def test_boards_match_reference(monkeypatch, lane_bits):
    monkeypatch.setattr(oracle, "LANE_BITS", lane_bits)
    for m in range(1, 17):
        for n in range(1, 16 // m + 1):
            counts, total = board_counts(m, n)
            for parts in (1, 2, 3, 7):
                got = enumerate_boards(m, n, parts=parts)
                assert got.counts == counts and got.total == total, (m, n, parts)


def test_boards_past_one_chunk_match_reference():
    # 3x6 walks 2^17 boards, two chunks at the default width
    counts, total = board_counts(3, 6)
    for parts in (1, 3):
        got = enumerate_boards(3, 6, parts=parts)
        assert got.counts == counts and got.total == total, parts


@pytest.mark.parametrize("lane_bits", [oracle.LANE_BITS, 1 << 3])
def test_boolean_matches_reference(monkeypatch, lane_bits):
    monkeypatch.setattr(oracle, "LANE_BITS", lane_bits)
    counted = []

    def spy(n, k, _route=oracle._boolean_counts):
        counted.append((n, k))
        return _route(n, k)

    monkeypatch.setattr(oracle, "_boolean_counts", spy)
    for n in range(5):
        for k in range(n + 1):
            counts, total = boolean_counts(n, k)
            got = enumerate_boolean(n, k)
            # counted at this lane width, not served from an earlier count
            assert counted[-1] == (n, k), (n, k)
            assert got.counts == counts and got.total == total, (n, k)
    assert len(counted) == 15


@pytest.mark.parametrize("lane_bits", [oracle.LANE_BITS, 1 << 8, 1 << 6])
def test_sampler_matches_per_sample_reference(monkeypatch, lane_bits):
    # 2^16 bits hold 1024 slots at n <= 6 and 512 at n = 7; 2^8 bits hold
    # 4 and 2; 2^6 bits hold one sample
    monkeypatch.setattr(oracle, "LANE_BITS", lane_bits)
    cases = [
        (n, k, 1100, seed) for n in (1, 2, 3, 5, 6, 7) for k in sorted({0, 1, n // 2, n}) for seed in (0, 41, 2**63 + 5)
    ]
    cases += [(6, 2, 2000, seed) for seed in (0, 99, 2**63 + 5)]
    for n, k, count, seed in cases:
        counts, total = sample_counts(n, k, count, seed)
        got = sample_boolean(n, k, count, seed)
        assert got.counts == counts and got.total == total, (n, k, count, seed)


def naive_joint(n):
    counts = {}
    for perm in itertools.permutations(range(1, n + 1)):
        key = (permutation_inv(perm), permutation_maj(perm))
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_joint_inv_maj_matches_naive_enumeration():
    # n = 8 is all of S_8 in one chunk of 8! lanes
    for n in range(1, 9):
        got = enumerate_permutations(n)
        assert got.counts == naive_joint(n) and sum(got.counts.values()) == got.total, n


@pytest.mark.parametrize("lane_bits", [24, 6])
def test_joint_inv_maj_across_chunks_matches_naive_enumeration(monkeypatch, lane_bits):
    # 24 lanes hold the sites of radix 1..4 and 6 lanes those of radix 1..3:
    # the sites above are scalar offsets per chunk, and the descent slot
    # between the lowest of them and the chunk's top site is a word per chunk
    monkeypatch.setattr(oracle, "LANE_BITS", lane_bits)
    for n in range(1, 8):
        got = enumerate_permutations(n)
        assert got.counts == naive_joint(n) and sum(got.counts.values()) == got.total, (lane_bits, n)


def test_subcube_counter_matches_subcube_positions():
    for n in range(4):
        for k in range(n + 1):
            for f in range(1 << (1 << n)):
                assert subcube_counter(n, k)(f) == naive_subcubes(f, n, k), (f, n, k)
    rng = random.Random(2024)
    for n in (5, 6):
        for _ in range(200):
            f = rng.getrandbits(1 << n)
            for k in range(n + 1):
                assert subcube_counter(n, k)(f) == naive_subcubes(f, n, k), (f, n, k)


def test_sampler_guard_refuses_before_building_anything():
    # one sample at n = 20, k = 10 would need C(20, 10) masks of 2^20 bits
    with pytest.raises(SizeGuardError, match="SAMPLER_GUARD"):
        sample_boolean(20, 10, 1, seed=1)
    with pytest.raises(SizeGuardError, match="SAMPLER_GUARD"):
        sample_boolean(14, 7, 2, seed=1)
