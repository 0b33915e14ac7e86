"""Code construction, distance, and the syndrome decoder against ground truth."""

import random

import pytest

from brute_force import BruteForceDecoder
from gptrank import gabidulin
from gptrank.errors import DecodeFailure, ParameterError
from gptrank.fields import get_field
from gptrank.gabidulin import GabidulinCode, moore_matrix
from gptrank.linalg import (
    _span_combiner,
    identity_matrix,
    independent_elements,
    mat_inv,
    mat_mul,
    rank_over_base,
    sample_error,
    solve_linear,
    transpose,
    vec_add,
    vec_sub,
)
from gptrank.linpoly import LinPoly, lp_eea


def test_moore_matrix_frozen_row():
    # g = (1, alpha, alpha^2, alpha^3) in GF(2^4); squaring each entry gives
    # (1, alpha^2, alpha + 1, alpha^3 + alpha^2)
    ctx = get_field(2, 4)
    g = [1, 2, 4, 8]
    M = moore_matrix(ctx, g, 2)
    assert M[0] == [1, 2, 4, 8]
    assert M[1] == [1, 4, 3, 12]


def test_moore_matrix_rows_are_frobenius_powers():
    # log tables, odd q, and lane-packed fields with n = N, n < N and 64-bit lanes
    cases = [(2, 8, 5, 4), (3, 5, 5, 4), (2, 28, 28, 27), (2, 33, 20, 33), (2, 64, 64, 63)]
    for q, N, n, rows in cases:
        ctx = get_field(q, N)
        rng = random.Random(41)
        g = [ctx.rand_elem(rng) for _ in range(n - 1)] + [0]
        M = moore_matrix(ctx, g, rows)
        assert len(M) == rows and M[0] == g
        for i in range(rows):
            assert M[i] == [ctx.frobenius(gj, i) for gj in g]
        for prev, row in zip(M, M[1:]):
            assert row == [ctx.pow(a, ctx.q) for a in prev]
        # rows from N on repeat the first, as sigma^N is the identity
        wrapped = moore_matrix(ctx, g, N + 3)
        assert wrapped[:rows] == M and wrapped[N:] == wrapped[:3]
        assert wrapped[N] is not wrapped[0]  # no row is shared
        assert moore_matrix(ctx, g, 0) == []
        assert moore_matrix(ctx, [], 3) == [[], [], []]


def test_generator_is_moore_of_g():
    ctx = get_field(2, 8)
    rng = random.Random(42)
    code = GabidulinCode(ctx, independent_elements(ctx, 7, rng), 3)
    assert code.G == moore_matrix(ctx, code.g, 3)
    assert rank_over_base(ctx, code.g) == 7


def test_parity_check_annihilates_generator():
    rng = random.Random(43)
    for q, N, n, k in (
        (2, 8, 8, 3), (2, 10, 7, 4), (3, 5, 5, 2),
        (3, 6, 4, 1), (5, 3, 3, 2), (2, 16, 16, 15), (2, 28, 28, 14),
    ):
        ctx = get_field(q, N)
        code = GabidulinCode(ctx, independent_elements(ctx, n, rng), k)
        prod = mat_mul(ctx, code.G, transpose(code.H))
        assert all(v == 0 for row in prod for v in row)
        assert rank_over_base(ctx, code.h) == n


@pytest.mark.parametrize("q, N, n", [(2, 12, 12), (2, 12, 7), (3, 6, 6), (3, 6, 4)])
def test_parity_vector_is_independent_over_the_base_field(q, N, n):
    # the decoder's coordinate reader takes h as a basis and checks nothing:
    # an F_q-relation a among the h_j would make a a codeword of rank 1 < d
    ctx = get_field(q, N)
    rng = random.Random(60)
    for k in range(1, n):
        code = GabidulinCode(ctx, independent_elements(ctx, n, rng), k)
        assert rank_over_base(ctx, code.h) == n
        combine = _span_combiner(ctx, code.h)
        assert [combine([1], [hj]) for hj in code.h] == identity_matrix(n)


def test_rejects_dependent_evaluation_points():
    ctx = get_field(2, 6)
    with pytest.raises(ParameterError):
        GabidulinCode(ctx, [1, 2, 3], 1)  # 3 = 1 + 2 over F_2
    with pytest.raises(ParameterError):
        GabidulinCode(ctx, [1, 2, 4], 3)  # k must stay below n
    with pytest.raises(ParameterError):
        GabidulinCode(get_field(2, 4), [1, 2, 4, 8, 5], 2)  # n above N


@pytest.mark.parametrize("bad", [-1, 1 << 12, "a"])
def test_rejects_locators_outside_the_field(bad):
    with pytest.raises(ParameterError, match="^locator vector holds a value outside F_2\\^12$"):
        GabidulinCode(get_field(2, 12), [1, 2, 4, bad], 2)


def test_encode_is_linear():
    ctx = get_field(2, 8)
    rng = random.Random(44)
    code = GabidulinCode(ctx, independent_elements(ctx, 6, rng), 2)
    m1 = [ctx.rand_elem(rng) for _ in range(2)]
    m2 = [ctx.rand_elem(rng) for _ in range(2)]
    s = [ctx.add(a, b) for a, b in zip(m1, m2)]
    assert code.encode(s) == vec_add(ctx, code.encode(m1), code.encode(m2))


def test_minimum_distance_is_maximal():
    # rank distance d = n - k + 1, verified by enumerating the whole code
    rng = random.Random(45)
    ctx = get_field(2, 5)
    code = GabidulinCode(ctx, independent_elements(ctx, 5, rng), 2)
    assert BruteForceDecoder(code).min_distance() == 4
    ctx4 = get_field(2, 4)
    code4 = GabidulinCode(ctx4, independent_elements(ctx4, 4, rng), 2)
    assert BruteForceDecoder(code4).min_distance() == 3


def test_decode_clean_word():
    ctx = get_field(2, 8)
    rng = random.Random(46)
    code = GabidulinCode(ctx, independent_elements(ctx, 8, rng), 3)
    m = [ctx.rand_elem(rng) for _ in range(3)]
    got_m, got_e = code.decode(code.encode(m))
    assert got_m == m
    assert got_e == [0] * 8


# GF(2^28), GF(2^32) and GF(2^40) multiply without log tables, on 32-bit row
# lanes (N = n = 32 fills every one) and 64-bit row lanes, and on 64- and 128-bit
# scale_row lanes (n < N at N = 40); GF(3^11) is an odd-q field without tables.
# At N = n = 64 the kernel step eliminates 128-bit tagged rows and every lane is full.
DECODE_CASES = [
    (2, 8, 8, 3),
    (2, 12, 12, 6),
    (3, 5, 5, 1),
    (2, 10, 7, 3),
    (2, 28, 28, 14),
    (2, 32, 32, 16),
    (2, 40, 12, 6),
    (3, 11, 11, 5),
    (2, 64, 64, 58),
]


@pytest.mark.parametrize("q,N,n,k", DECODE_CASES)
def test_decode_roundtrip_all_ranks(q, N, n, k):
    ctx = get_field(q, N)
    rng = random.Random(100 * n + k)
    code = GabidulinCode(ctx, independent_elements(ctx, n, rng), k)
    for r in range(code.t + 1):
        for _ in range(8):
            m = [ctx.rand_elem(rng) for _ in range(k)]
            e = sample_error(ctx, n, r, rng)
            got_m, got_e = code.decode(vec_add(ctx, code.encode(m), e))
            assert got_m == m
            assert got_e == e


# log tables, 32-bit row lanes (64-bit scale_row lanes), 64-bit row lanes
# (128-bit scale_row lanes), and two odd-q table fields
@pytest.mark.parametrize("q,N", [(2, 12), (2, 28), (2, 40), (3, 5), (5, 3)])
def test_location_recursion_matches_the_moore_system_solve(q, N):
    ctx = get_field(q, N)
    rng = random.Random(q * N)
    code = GabidulinCode(ctx, independent_elements(ctx, 2, rng), 1)
    frob = ctx.frobenius
    for r in range(1, min(N, 10) + 1):
        for _ in range(4):
            E = independent_elements(ctx, r, rng)
            synd = [ctx.rand_elem(rng) for _ in range(r)]
            moore = [[frob(Ei, -l) for Ei in E] for l in range(r)]
            want = solve_linear(ctx, moore, [frob(synd[l], -l) for l in range(r)])
            assert code._solve_locations(E, synd) == want


def test_decoder_agrees_with_exhaustive_search():
    ctx = get_field(2, 4)
    rng = random.Random(47)
    code = GabidulinCode(ctx, independent_elements(ctx, 4, rng), 2)
    oracle = BruteForceDecoder(code)
    for _ in range(60):
        y = [ctx.rand_elem(rng) for _ in range(4)]
        m_o, c_o, d, unique = oracle.nearest(y)
        if d <= code.t and unique:
            m, e = code.decode(y)
            assert m == m_o
            assert vec_sub(ctx, y, e) == c_o
        else:
            with pytest.raises(DecodeFailure):
                code.decode(y)


@pytest.mark.parametrize("q,N,n,k", [(2, 10, 10, 4), (3, 5, 5, 1), (2, 10, 7, 3)])
def test_beyond_radius_never_silently_wrong(q, N, n, k):
    # rank t + 1 errors either fail loudly or return a self-consistent pair
    ctx = get_field(q, N)
    rng = random.Random(48)
    code = GabidulinCode(ctx, independent_elements(ctx, n, rng), k)
    failures = 0
    for _ in range(30):
        m = [ctx.rand_elem(rng) for _ in range(k)]
        e = sample_error(ctx, n, code.t + 1, rng)
        y = vec_add(ctx, code.encode(m), e)
        # the key equation always has a solution, so the decoder does not check
        V, _ = lp_eea(LinPoly.monomial(ctx, n - k), LinPoly(ctx, code.syndromes(y)),
                      (n - k + 1) // 2)
        assert not V.is_zero() and V.qdeg <= code.t
        try:
            got_m, got_e = code.decode(y)
        except DecodeFailure:
            failures += 1
            continue
        assert vec_add(ctx, code.encode(got_m), got_e) == y
        assert rank_over_base(ctx, got_e) <= code.t
    assert failures > 0


def test_decode_rejects_wrong_length():
    ctx = get_field(2, 8)
    rng = random.Random(49)
    code = GabidulinCode(ctx, independent_elements(ctx, 6, rng), 2)
    with pytest.raises(ParameterError):
        code.decode([0] * 5)


def test_syndromes_of_codeword_vanish():
    ctx = get_field(2, 8)
    rng = random.Random(50)
    code = GabidulinCode(ctx, independent_elements(ctx, 7, rng), 3)
    m = [ctx.rand_elem(rng) for _ in range(3)]
    assert all(s == 0 for s in code.syndromes(code.encode(m)))


@pytest.mark.parametrize("stage", ["span", "locations", "codeword"])
def test_decode_failure_names_the_failed_stage(stage):
    # with n < N an x_i can leave span_Fq(h), so random words reach all three
    ctx = get_field(2, 8)
    rng = random.Random(51)
    code = GabidulinCode(ctx, independent_elements(ctx, 6, rng), 2)
    stages = set()
    for _ in range(100):
        try:
            code.decode([ctx.rand_elem(rng) for _ in range(6)])
        except DecodeFailure as exc:
            stages.add(exc.stage)
    assert stage in stages <= {"span", "locations", "codeword"}


def test_full_length_codes_never_fail_at_locations():
    # with n = N the entries of h are an F_q-basis of the whole field
    ctx = get_field(2, 8)
    rng = random.Random(52)
    code = GabidulinCode(ctx, independent_elements(ctx, 8, rng), 2)
    stages = set()
    for _ in range(100):
        try:
            code.decode([ctx.rand_elem(rng) for _ in range(8)])
        except DecodeFailure as exc:
            stages.add(exc.stage)
    assert stages == {"span", "codeword"}


@pytest.mark.parametrize("length", [5, 7])
def test_encode_refuses_a_message_of_the_wrong_length(length):
    ctx = get_field(2, 12)
    code = GabidulinCode(ctx, independent_elements(ctx, 12, random.Random(53)), 6)
    with pytest.raises(ParameterError, match=f"^message length must be 6, got {length}$"):
        code.encode([1] * length)


@pytest.mark.parametrize("n", [10, 12])
def test_a_code_builds_its_decoding_tables_once_on_first_decode(monkeypatch, n):
    # n < N and n = N; the constructor leaves G_info^-1 and the h-coordinate reader unbuilt
    ctx = get_field(2, 12)
    rng = random.Random(54 + n)
    k = 4
    code = GabidulinCode(ctx, independent_elements(ctx, n, rng), k)
    assert code._info_inv is code._span_error is None
    builds = []
    for name in ("mat_inv", "_span_combiner"):
        build = getattr(gabidulin, name)
        counted = lambda *args, name=name, build=build: builds.append(name) or build(*args)
        monkeypatch.setattr(gabidulin, name, counted)
    for r in (2, 0, 1, code.t):
        m = [ctx.rand_elem(rng) for _ in range(k)]
        e = sample_error(ctx, n, r, rng)
        assert code.decode(vec_add(ctx, code.encode(m), e)) == (m, e)
    assert sorted(builds) == ["_span_combiner", "mat_inv"]
    assert code._info_inv == mat_inv(ctx, [row[:k] for row in code.G])
