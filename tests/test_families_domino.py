import math
from fractions import Fraction as Fr

import pytest

from momentforge.errors import ConsistencyError, SizeGuardError
from momentforge.exact_core import stirling1_signed, stirling2
from momentforge.families import common, domino, moment_vector
from momentforge.families.common import half_binomial_moments
from momentforge.moment_algebra import (
    MomentVector, binomial_to_raw, raw_to_binomial, raw_to_central,
)
from momentforge.oracle import enumerate_boards, histogram_moments
from momentforge.poly_series import Polynomial
from reference import board1n_binomial_moments_symbolic, board1n_p_series, moments_to_cumulants, perimeter_counts

MU = Polynomial.variable("mu")
N = Polynomial.variable("n")

# the three printed data tables of 2^{mn} E[X^r]
TABLE_R1 = {
    1: [0, 2, 8, 24, 64, 160, 384, 896],
    2: [2, 32, 224, 1280, 6656, 32768, 155648, 720896],
    3: [8, 224, 3072, 34816, 360448],
    4: [24, 1280, 34816, 786432],
}
TABLE_R2 = {
    1: [0, 2, 12, 48, 160, 480, 1344, 3584],
    2: [2, 80, 896, 7040, 46592, 278528, 1556480, 8290304],
    3: [12, 896, 19968, 313344, 4145152],
    4: [48, 7040, 313344, 9830400],
}
TABLE_R3 = {
    1: [0, 2, 20, 108, 448, 1600, 5184, 15680],
    2: [2, 224, 3920, 41600, 346112, 2490368, 16265216, 99123200],
    3: [20, 3920, 138240, 2959360, 49561600],
    4: [108, 41600, 2959360, 127401984],
}


def _moments(kind, m, n, r_max):
    """The served moments E[X^r] (kind "raw") or E[(X - mu)^r] (kind "central") of the m-by-n board."""
    return moment_vector("domino", kind, r_max, {"m": m, "n": n}).entries


def test_slot_count_and_mean():
    assert domino.slot_count(2, 3) == 7
    assert domino.mean(2, 3) == Fr(7, 2)
    assert domino.slot_count(1, 1) == 0
    assert domino.mean(2, 2) == 2  # A = 2 mu


def test_raw_moments_printed_polynomials():
    raw = half_binomial_moments(2 * MU, 6, central=False)
    assert raw[0] == 1
    assert raw[1] == MU
    assert raw[2] == MU * MU + MU / 2
    assert raw[3] == MU * MU * (MU + Fr(3, 2))
    assert raw[4] == MU * (2 * MU + 1) * (2 * MU * MU + 5 * MU - 1) / 4
    assert raw[5] == MU * MU * (4 * MU**3 + 20 * MU * MU + 15 * MU - 5) / 4
    assert raw[6] == MU * (2 * MU + 1) * (4 * MU**4 + 28 * MU**3 + 31 * MU * MU - 23 * MU + 4) / 8


def test_central_moments_printed_polynomials():
    cm = half_binomial_moments(2 * MU, 6, central=True)
    assert cm[2] == MU / 2
    assert cm[4] == MU * (3 * MU - 1) / 4
    assert cm[6] == MU * (15 * MU * MU - 15 * MU + 4) / 8
    assert cm[1].is_zero() and cm[3].is_zero() and cm[5].is_zero()


@pytest.mark.parametrize("r,table", [(1, TABLE_R1), (2, TABLE_R2), (3, TABLE_R3)])
def test_printed_tables(r, table):
    for m, row in table.items():
        for idx, expected in enumerate(row):
            n = idx + 1
            assert _moments("raw", m, n, r)[r] * 2 ** (m * n) == expected, (m, n, r)


def test_worked_table_cell():
    assert _moments("raw", 2, 3, 3)[3] * 2 ** (2 * 3) == 3920


def test_raw_moments_match_oracle_where_slots_form_a_forest():
    # 1-by-n boards: the Stirling sum is exact for every order
    for n in (1, 2, 5, 8, 12):
        mv = histogram_moments(enumerate_boards(1, n), 8)
        for r in range(9):
            assert _moments("raw", 1, n, r)[r] == mv.entries[r], (n, r)
    # multi-row boards: exact through r = 3 (no cycle fits in 3 slots)
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 5), (4, 3)]:
        mv = histogram_moments(enumerate_boards(m, n), 3)
        for r in range(4):
            assert _moments("raw", m, n, r)[r] == mv.entries[r], (m, n, r)


def test_raw_moment_formula_deviates_on_cycles():
    # Known deviation of the mu-polynomial model: four slots around a 2x2
    # square are jointly monochromatic with probability 1/8, not 1/16, so
    # the Stirling sum undercounts E[X^4] there.  Frozen counterexample:
    mv = histogram_moments(enumerate_boards(2, 2), 4)
    assert mv.entries[4] == 44
    assert half_binomial_moments(2 * MU, 4, central=False)[4].eval(domino.mean(2, 2)) == Fr(85, 2)


def test_closed_form_domain():
    assert domino.in_closed_form_domain(5, 7, 3)
    assert domino.in_closed_form_domain(1, 9, 8)
    assert domino.in_closed_form_domain(9, 1, 8)
    assert not domino.in_closed_form_domain(2, 2, 4)


def test_raw_moment_exact_off_the_closed_form_domain():
    assert _moments("raw", 2, 2, 4)[4] == 44
    assert _moments("raw", 2, 2, 4)[4] * 2 ** (2 * 2) == 704
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 5), (4, 3)]:
        mv = histogram_moments(enumerate_boards(m, n), 8)
        assert tuple(_moments("raw", m, n, 8)) == tuple(mv.entries), (m, n)
        expect = raw_to_central(mv, mv.entries[1])
        assert tuple(_moments("central", m, n, 8)) == tuple(expect.entries), (m, n)


def test_transfer_matrix_matches_closed_forms_on_their_domain():
    # boards far beyond the oracle: r <= 3 on any board, every r on 1-by-n
    for m, n in [(5, 7), (7, 5), (6, 40), (1, 30), (30, 1)]:
        r_max = 3 if min(m, n) > 1 else 8
        b = domino.binomial_sums(m, n, r_max)
        for k in range(r_max + 1):
            # E[C(X, k)] from the mu-polynomials via E[(X)_k] = sum_r s(k, r) E[X^r]
            mean_ck = sum(
                stirling1_signed(k, r) * _moments("raw", m, n, r)[r] for r in range(k + 1)
            ) / math.factorial(k)
            assert Fr(b[k], 2**k) == mean_ck, (m, n, k)


def test_transfer_matrix_symmetries():
    # a sweep across either side: 8 rows of 3 cells, or 3 rows of 8
    assert domino.binomial_sums(3, 8, 6) == domino.binomial_sums(8, 3, 6)
    # the grid is bipartite: flipping one colour class maps X to A - X
    cm = moment_vector("domino", "central", 9, {"m": 4, "n": 6})
    assert all(cm.entries[r] == 0 for r in (1, 3, 5, 7, 9))


def test_binomial_sums_equal_a_sweep_run_to_the_length():
    # every board of width <= 6 up to 3r+6 rows, read off its own sweep up to
    # b + 2 rows and extrapolated past them, against one reference sweep run
    # over all of them
    for r in range(11):
        for w in range(1, 7):
            full = _reference_sweep(w, 3 * r + 6, r)
            for length in range(1, 3 * r + 7):
                expect = _scaled(full[length - 1], w, length)
                assert domino.binomial_sums(w, length, r) == expect, (w, length, r)
                assert domino.binomial_sums(length, w, r) == expect, (length, w, r)
                if r >= 4 and w >= 2:
                    raw = _raw_from_sums(full[length - 1], w, length)
                    assert _moments("raw", w, length, r) == raw, (w, length, r)


def _scaled(sums, w, rows):
    """s_k = b_k / 2^{mn-k}, the sums ``binomial_sums`` returns, from the sums b_k over the boards."""
    return tuple(Fr(b << k, 2 ** (w * rows)) for k, b in enumerate(sums))


def _first_row(r):
    """b = max(1, floor(r/2) - 1): every cumulant of order <= r is affine in each side from b on."""
    return max(1, r // 2 - 1)


def _raw_from_sums(sums, w, rows):
    """E[X^k], k <= r, of the board of ``rows`` rows of ``w`` cells from its sums b_k = 2^{mn} E[C(X, k)]."""
    binomial = [Fr(b, 2 ** (w * rows)) for b in sums]
    return binomial_to_raw(MomentVector("binomial", binomial)).entries


def _reference_sweep(w, rows, r):
    """The sweep as a dict of states rebuilt per cell, each state branching on its neighbours."""
    cells = w * rows
    slots = 2 * cells - w - rows
    width = w + r + 2 + max(math.comb(slots, k) for k in range(r + 1)).bit_length()
    mask = (1 << (width * (r + 1))) - 1
    low_bits = sum(1 << (width * k) for k in range(r + 1))
    coefficient = (1 << width) - 1
    full = (1 << w) - 1
    top = 1 << (w - 1)
    shifted = 0
    states = {0: 1}
    sums = []
    for i in range(rows):
        for j in range(w):
            if not (i or j):
                continue
            bit = 1 << j
            new = {}
            for s, c in states.items():
                s0 = s & ~bit
                s1 = s | bit
                if s0 & top:
                    s0 ^= full
                if s1 & top:
                    s1 ^= full
                if i and j:
                    up = (s >> j) & 1
                    if up == (s >> (j - 1)) & 1:
                        c2 = (c + (c << (width + 1)) + (c << (2 * width))) & mask
                        d0, d1 = (c2, c) if up == 0 else (c, c2)
                    else:
                        d0 = d1 = (c + (c << width)) & mask
                else:
                    other = (s >> j) & 1 if i else (s >> (j - 1)) & 1
                    c1 = (c + (c << width)) & mask
                    d0, d1 = (c1, c) if other == 0 else (c, c1)
                new[s0] = new.get(s0, 0) + d0
                new[s1] = new.get(s1, 0) + d1
            if i * w + j + 1 - w - r > shifted:
                shifted += 1
                for s, c in new.items():
                    assert not c & low_bits
                    new[s] = c >> 1
            states = new
        total = 2 * sum(states.values())
        sums.append(tuple(((total >> (width * k)) & coefficient) << shifted for k in range(r + 1)))
    return tuple(sums)


def test_sweep_equals_the_reference_sweep():
    # w = 1 has no face, w = 2 one face a row, whose pair update is both the
    # first and the last of its row; odd r truncate within a parity class
    for w in range(1, 11):
        for r in range(9):
            rows = 2 * r + 4
            counts = domino._face_sweep(w, rows, r)
            expect = _reference_sweep(w, rows, r)
            for length in range(1, rows + 1):
                got = domino._sums_from_counts(counts[length - 1], w, length)
                assert got == _scaled(expect[length - 1], w, length), (w, length, r)


def test_face_sweep_equals_the_face_sets_enumerated():
    # every board with at most 16 faces, at orders that cut inside the counts and past them all
    for w in range(1, 6):
        rows = 17 if w == 1 else 1 + 16 // (w - 1)
        for r in (4, 9, 2 * w * rows):
            counts = domino._face_sweep(w, rows, r)
            for length in range(1, rows + 1):
                expect = perimeter_counts(w, length)[: r + 1]
                expect += [0] * (r + 1 - len(expect))
                assert list(counts[length - 1]) == expect, (w, length, r)


def test_sweep_refuses_counts_off_the_grid_invariants():
    domino._check_counts((1, 0, 0, 0, 6, 0, 7), 4, 3)
    domino._check_counts((1, 0, 0), 4, 3)
    with pytest.raises(ConsistencyError, match=r"width 4, 3 rows: a face set has an odd perimeter"):
        domino._check_counts((1, 0, 0, 0, 6, 1, 7), 4, 3)
    with pytest.raises(ConsistencyError, match=r"width 4, 3 rows: 7 face sets of perimeter 4, not the 6"):
        domino._check_counts((1, 0, 0, 0, 7, 0, 7), 4, 3)


def test_binomial_sums_on_a_long_board_match_the_mu_form_through_r3():
    # 8 x 10^6 extrapolated at r = 3, 4 (and 10^6 x 8 at r = 8): E[X^q] for q <= 3 is the
    # moment of Binomial(A, 1/2), where the mu-forms and the extrapolation overlap
    m, n, r = 8, 10**6, 3
    b = domino.binomial_sums(m, n, r)
    raw = [sum(stirling2(q, k) * math.factorial(k) * Fr(b[k], 2**k) for k in range(q + 1)) for q in range(r + 1)]
    assert raw == half_binomial_moments(domino.slot_count(m, n), r, central=False)
    for m, n, r in [(8, 10**6, 4), (10**6, 8, 8)]:
        raw = _moments("raw", m, n, r)[:4]
        assert list(raw) == half_binomial_moments(domino.slot_count(m, n), 3, central=False), (m, n, r)


def _perimeter_counts(sums, w, rows):
    """N_0..N_r from the sums b_k of a board of ``rows`` rows of ``w`` cells: b_k = 2^{mn-k} sum_j N_j C(A-j, k-j)."""
    slots = 2 * w * rows - w - rows
    counts = []
    for k, b in enumerate(sums):
        count = Fr(b << k, 2 ** (w * rows)) - sum(n * math.comb(slots - j, k - j) for j, n in enumerate(counts) if n)
        assert count.denominator == 1, (w, rows, k)
        counts.append(int(count))
    return counts


def test_perimeter_counts_are_polynomials_of_degree_j_over_4_in_the_length():
    # the bound on its own, no fit: differences of order floor(j/4)+1 of
    # each N_j vanish from row max(1, j/2 - 1) on, read off a sweep of 2r+4 rows
    for w in range(1, 8):
        for r in range(0, 13, 2):
            sums = _reference_sweep(w, 2 * r + 4, r)
            sweep = [_perimeter_counts(row, w, rows) for rows, row in enumerate(sums, 1)]
            for j in range(0, r + 1, 2):
                column = [counts[j] for counts in sweep[max(1, j // 2 - 1) - 1 :]]
                for _ in range(j // 4 + 1):
                    column = [b - a for a, b in zip(column, column[1:])]
                assert not any(column), (w, r, j)


def _cumulant_table(r, widths, rows):
    """kappa_0..kappa_r, then d_0..d_r of log F, of every board of w in ``widths`` cells and 1..``rows`` rows.

    Both from reference sweeps; d_j = j [u^j] log F(u), F(u) = sum_j N_j u^j, by ``domino._logs``.
    """
    table = {}
    for w in widths:
        for length, sums in enumerate(_reference_sweep(w, rows, r), 1):
            kappa = moments_to_cumulants(_raw_from_sums(sums, w, length))
            table[w, length] = kappa + domino._logs(_perimeter_counts(sums, w, length))
    return table


def _second_differences(column):
    return [c - 2 * b + a for a, b, c in zip(column, column[1:], column[2:])]


@pytest.mark.parametrize("r", range(4, 13))
def test_cumulants_are_affine_in_each_side_from_row_b(r):
    # the fact the route rests on, read off reference sweeps and not the route:
    # every kappa_k, k <= r, and every coefficient d_j of log F that the route
    # extrapolates, has vanishing second differences in the length L from L = b
    # on, at every width w <= b + 4, and in the width from w = b on; from b - 1
    # on (b > 1 from r = 6 on), some second difference is not zero
    first, last = _first_row(r), _first_row(r) + 4
    table = _cumulant_table(r, range(1, last + 1), last)
    for k in range(2 * r + 2):
        for w in range(1, last + 1):
            assert not any(_second_differences([table[w, length][k] for length in range(first, last + 1)])), (w, k)
        for length in range(1, last + 1):
            assert not any(_second_differences([table[w, length][k] for w in range(first, last + 1)])), (length, k)
    if first > 1:
        assert any(
            any(_second_differences([table[w, length][k] for length in range(first - 1, last + 1)]))
            for k in range(2 * r + 2) for w in range(1, last + 1)
        ), r


# (board, sweep width, row): each row the route reads.  At r = 8, b = 3: a 3-by-40
# board reads rows 3 and 4 of one sweep of width 3 and checks row 5; a 10-by-40
# board reads rows 3 and 4 of widths 3 and 4 and checks row 5 of width 5.
READ_ROWS = [
    ((3, 40), 3, 3), ((3, 40), 3, 4), ((3, 40), 3, 5),
    ((10, 40), 3, 3), ((10, 40), 3, 4), ((10, 40), 4, 3), ((10, 40), 4, 4), ((10, 40), 5, 5),
]


def _count_off(monkeypatch, width, row):
    """Make the face sweep of ``width`` cells count one face set of perimeter 8 too many on ``row`` rows."""
    original = domino._face_sweep

    def corrupted(w, rows, r):
        counts = [list(c) for c in original(w, rows, r)]
        if w == width:
            counts[row - 1][8] += 1
        return tuple(tuple(c) for c in counts)

    monkeypatch.setattr(domino, "_SWEEPS", {})
    monkeypatch.setattr(domino, "_face_sweep", corrupted)


@pytest.mark.parametrize("board, width, row", READ_ROWS)
def test_a_count_off_a_row_the_route_reads_is_refused(board, width, row, monkeypatch):
    _count_off(monkeypatch, width, row)
    with pytest.raises(ConsistencyError, match=r"^r = 8: d_8 of the [35]x5 board is "):
        _moments("central", *board, 8)


@pytest.mark.parametrize("board, width, row", READ_ROWS)
def test_a_count_off_a_row_the_route_reads_exits_2(board, width, row, run, monkeypatch):
    # the fixture clears the kept sweeps, and leaves the corrupted sweep in place
    _count_off(monkeypatch, width, row)
    proc = run("central", "--family", "domino", "--m", str(board[0]), "--n", str(board[1]), "--r", "8")
    assert proc.code == 2
    assert proc.out == ""
    assert proc.err.startswith("validation failure: r = 8: d_8 of the "), proc.err


def _spy_sweeps(monkeypatch):
    """Record each face sweep run, by (w, rows, r), with nothing kept from earlier."""
    swept = []
    original = domino._face_sweep

    def spy(w, rows, r):
        swept.append((w, rows, r))
        return original(w, rows, r)

    monkeypatch.setattr(domino, "_SWEEPS", {})
    monkeypatch.setattr(domino, "_face_sweep", spy)
    return swept


def test_requests_at_one_order_share_their_small_sweeps(monkeypatch):
    # the five domino requests of a moments-exact round, widest sweep first; narrow
    # boards of widths 3 and 5 read the same sweeps, and a board of b + 2 rows or
    # fewer sweeps its own rows
    swept = _spy_sweeps(monkeypatch)
    for m, n in [(10, 40), (8, 120), (8, 240), (8, 80), (8, 20)]:
        moment_vector("domino", "central", 8, {"m": m, "n": n})
    assert swept == [(5, 5, 8), (3, 5, 8), (4, 5, 8)]
    moment_vector("domino", "central", 8, {"m": 3, "n": 100})
    moment_vector("domino", "central", 8, {"m": 40, "n": 5})
    moment_vector("domino", "central", 8, {"m": 4, "n": 4})
    assert swept[3:] == [(4, 4, 8)]
    swept.clear()
    moment_vector("domino", "central", 38, {"m": 12, "n": 210000})
    assert swept == [(12, 20, 38)]


def test_transfer_matrix_size_guard():
    # the first order whose widest sweep, 15 cells by 15 rows, is past the guard
    with pytest.raises(SizeGuardError, match="TRANSFER_GUARD"):
        _moments("raw", 100, 100, 28)[4]
    # the route sweeps at most b + 2 rows, whatever the length: 2 x 10^9 at r = 4,
    # 8 x 1562501 at r = 8 and 20 x 30 at r = 10 are served
    assert domino.binomial_sums(2, 10**9, 4)[:2] == (1, domino.slot_count(2, 10**9))
    assert _moments("central", 2, 10**9, 4)[1] == 0
    assert _moments("central", 8, 1562501, 8)[1] == 0
    assert _moments("raw", 20, 30, 10) == _moments("raw", 30, 20, 10)
    assert _moments("raw", 10, 40, 8) == _moments("raw", 40, 10, 8)
    # at r = 4 a set of faces has at most two of them in its profile, so 20 x 30 is served
    assert _moments("raw", 20, 30, 4)[4] == _moments("raw", 30, 20, 4)[4]
    assert _moments("raw", 12, 400, 8) == _moments("raw", 400, 12, 8)
    assert _moments("central", 8, 10**6, 8)[1] == 0
    # the mu-polynomials need no guard
    assert _moments("raw", 10**6, 10**6, 3)[3] == half_binomial_moments(2 * MU, 3, central=False)[3].eval(
        domino.mean(10**6, 10**6)
    )


# (w, r): the highest order the transfer guard served at width w, on a board of
# max(w, 2r+2) rows, when it weighed the whole width and the sums of the length
TRANSFER_EDGES = [(2, 291), (3, 254), (4, 231), (6, 202), (8, 129), (12, 38), (14, 17), (16, 11), (17, 11), (40, 5)]

# (w, r): the highest order served at each width before the face sweep, when
# the guard weighed all 2^(w-1) cell profiles
CELL_SWEEP_EDGES = [
    (2, 291), (3, 254), (4, 231), (5, 214), (6, 168), (7, 124), (8, 93), (9, 70),
    (10, 52), (11, 39), (12, 29), (13, 21), (14, 15), (15, 10), (16, 6),
]


class _Swept(Exception):
    """Raised by a stub face sweep once it has recorded the first sweep the route asks for."""


@pytest.mark.parametrize("w, r", TRANSFER_EDGES + CELL_SWEEP_EDGES)
def test_every_edge_served_before_is_weighed_within_the_guards(w, r, monkeypatch):
    # the widest sweep runs first, after the charge for the moments, which a fifth
    # of TRANSFER_GUARD passes: it is no wider than the board and no longer than
    # min(L, b + 2) rows
    swept, weights = [], []

    def sweep(*args):
        swept.append(args)
        raise _Swept

    def charge(weight, *args, **kwargs):
        weights.append(weight)
        common.charge(weight, *args, **kwargs)

    monkeypatch.setattr(domino, "_SWEEPS", {})
    monkeypatch.setattr(domino, "_face_sweep", sweep)
    monkeypatch.setattr(domino, "charge", charge)
    length = max(w, 2 * r + 2)
    top = _first_row(r) + 2
    with pytest.raises(_Swept):
        _moments("central", w, length, r)
    assert swept == [(min(w, top), min(length, top), r)]
    assert weights[0] < domino.TRANSFER_GUARD / 5


def test_transfer_guard_refuses_a_large_order_before_any_binomial(monkeypatch):
    def count_bits(w, rows, r):
        raise AssertionError("_count_bits called on a board the size term refuses")

    monkeypatch.setattr(domino, "_count_bits", count_bits)
    with pytest.raises(SizeGuardError, match="TRANSFER_GUARD = "):
        domino.binomial_sums(2, 10**7, 10**7)
    with pytest.raises(SizeGuardError, match="TRANSFER_GUARD = "):
        domino.binomial_sums(10**4, 10**4, 40000)


def test_board1n_p_series_printed():
    ps = board1n_p_series(5)
    assert tuple(ps.coeffs) == (Fr(1), Fr(0), Fr(1, 8), Fr(-1, 8), Fr(15, 128), Fr(-7, 64))


def test_board1n_binomial_moments_printed():
    bm = board1n_binomial_moments_symbolic(5)
    assert bm.entries[0] == 1 and bm.entries[1].is_zero()
    assert bm.entries[2] == (N - 1) / 8
    assert bm.entries[3] == -(N - 1) / 8
    assert bm.entries[4] == (N - 1) * (N + 13) / 128
    assert bm.entries[5] == -(N - 1) * (N + 5) / 64


def test_board1n_binomial_invariants():
    sym = board1n_binomial_moments_symbolic(6)
    for n in (1, 2, 5, 9):
        bm = raw_to_binomial(moment_vector("domino", "central", 6, {"m": 1, "n": n}))
        assert bm.entries[0] == 1 and bm.entries[1] == 0
        assert bm.entries[2] == Fr(n - 1, 8)
        # the numeric route and the polynomials in n agree
        assert tuple(bm.entries) == tuple(e.eval(n) for e in sym.entries), n
    assert raw_to_binomial(moment_vector("domino", "central", 2, {"m": 1, "n": 5})).entries[2] == Fr(1, 2)


def test_board1n_recurrence_step():
    # B(n) series equals P * B(n-1) with n -> n-1 substituted
    r_max = 6
    bm = board1n_binomial_moments_symbolic(r_max)
    p = board1n_p_series(r_max)
    shifted = [e.eval(N - 1) for e in bm.entries]
    for r in range(r_max + 1):
        acc = Polynomial("n", ())
        for s in range(r + 1):
            acc = acc + p.coefficient(s) * shifted[r - s]
        assert acc == bm.entries[r], r


def test_board1n_leading_terms():
    import math

    bm = board1n_binomial_moments_symbolic(9)
    for r in (1, 2, 3, 4):
        e = bm.entries[2 * r]
        assert (e.degree, e.coeffs[-1]) == (r, Fr(1, math.factorial(r) * 2 ** (3 * r))), r
    for r in (1, 2, 3):
        e = bm.entries[2 * r + 1]
        assert (e.degree, e.coeffs[-1]) == (r, Fr(-1, math.factorial(r - 1) * 2 ** (3 * r))), r


def test_board1n_second_order_terms():
    # Remark: B_{2r}(n) = n^r/(r! 8^r) + r(4r-5) n^{r-1}/((r-1)! 8^r) + ...
    import math

    bm = board1n_binomial_moments_symbolic(9)
    for r in (2, 3, 4):
        poly = bm.entries[2 * r]
        c2 = poly.coefficient(r - 1)
        assert c2 == Fr(r * (4 * r - 5), math.factorial(r - 1) * 2 ** (3 * r)), r
    for r in (2, 3):
        poly = bm.entries[2 * r + 1]
        c2 = poly.coefficient(r - 1)
        assert c2 == Fr(-r * (4 * r * r - 3 * r - 4), 3 * math.factorial(r - 1) * 2 ** (3 * r)), r


def test_board1n_central_vs_oracle():
    for n in (2, 5, 8):
        mv = histogram_moments(enumerate_boards(1, n), 6)
        expect = raw_to_central(mv, mv.entries[1])
        got = moment_vector("domino", "central", 6, {"m": 1, "n": n})
        assert tuple(got.entries) == tuple(expect.entries), n


def test_mgf_deviation_1n():
    sup0, _ = domino.mgf_deviation_1n(100, [0])
    assert sup0 == 0
    grid = [Fr(x, 2) for x in range(-4, 5)]
    sups = [domino.mgf_deviation_1n(n, grid)[0] for n in (100, 1000)]
    assert sups[1] < sups[0]


def test_param_validation():
    with pytest.raises(ValueError):
        domino.slot_count(0, 3)
    with pytest.raises(ValueError):
        domino.mgf_deviation_1n(1, [1])
    with pytest.raises(ValueError):
        moment_vector("domino", "central", 3, {"m": 1, "n": 0})
