"""Distinguisher behavior, cost estimates, and the reference table."""

import math
import random
from pathlib import Path

import pytest

from brute_force import BruteForceDecoder
from gptrank import attacks
from gptrank.attacks import (
    REFERENCE_WORK_EXPONENTS,
    SECURITY_THRESHOLD_BITS,
    WORK_FACTOR_NOTE,
    TrialSummary,
    attack_cost_report,
    attack_public_key,
    distinguish_public_key,
    distinguisher_trials,
    example_security_table,
    extend_public_key,
    rank_profile,
)
from gptrank.errors import ParameterError
from gptrank.fields import get_field
from gptrank.gabidulin import GabidulinCode, moore_matrix
from gptrank.gpt import GptParams, encrypt, keygen, preset, public_key_size_bits
from gptrank.keyfiles import load_public_key
from gptrank.linalg import (
    independent_elements,
    mat_frobenius,
    random_full_row_rank,
    random_matrix,
    rank_ext,
    rank_over_base,
    vec_mat_mul,
    vec_sub,
)
from parameter_sweep import accepted_sweep_params

DESK = dict(q=2, N=12, n=12, k=6)
GOLDEN = Path(__file__).parent / "golden"


def test_extend_public_key_shape_and_content():
    ctx = get_field(2, 8)
    rng = random.Random(81)
    M = [[ctx.rand_elem(rng) for _ in range(5)] for _ in range(2)]
    stacked = extend_public_key(ctx, M, 3)
    assert len(stacked) == 8
    assert stacked[:2] == M
    assert stacked[2:4] == mat_frobenius(ctx, M, 1)
    assert stacked[6:8] == mat_frobenius(ctx, M, 3)
    assert extend_public_key(ctx, M, 0) == M
    with pytest.raises(ParameterError):
        extend_public_key(ctx, M, -1)


def test_stack_of_hidden_code_collapses_without_scrambling():
    # the pure code case: stacking G of a length-n code gives rank k + u
    ctx = get_field(2, 8)
    rng = random.Random(82)
    code = GabidulinCode(ctx, independent_elements(ctx, 8, rng), 3)
    for u in range(0, 5):
        stacked = extend_public_key(ctx, code.G, u)
        assert rank_ext(ctx, stacked) == min(3 + u, 8)


def reference_matrices(ctx, rng):
    """Named matrices whose stacks grow, collapse or repeat in different ways."""
    full = random_matrix(ctx, 3, 8, rng)
    base = random_matrix(ctx, 3, 8, rng, base_field=True)
    return {
        "full": full,
        "base field": base,  # sigma fixes every entry: the stack collapses
        "base field plus one column": [row + [ctx.rand_elem(rng)] for row in base],
        "repeated row": full + [full[1]],
        "zero row": full[:2] + [[0] * 8] + full[2:],
        "zero column": [row[:4] + [0] + row[4:] for row in full],
        "1 x 1": random_matrix(ctx, 1, 1, rng),
        "more rows than columns": random_matrix(ctx, 6, 3, rng),
        # the stack of a Moore matrix grows by one row per level
        "moore": moore_matrix(ctx, independent_elements(ctx, min(ctx.N, 8), rng), 2),
        # the first level's free block is one column, the next one's none
        "one free column": random_matrix(ctx, 3, 4, rng),
        # one row, or a level that reaches one: its stack is a Moore matrix
        "row of base rank 2": [row_of_base_rank(ctx, 2, 6, rng)],
        "row over F_q": random_matrix(ctx, 1, 8, rng, base_field=True),
        "three multiples of one row": [
            [ctx.mul(f, a) for a in full[0]] for f in (1, ctx.rand_nonzero(rng), ctx.size - 1)
        ],
        "row with zero entries": [[0, full[0][1], 0, 0, full[0][4], full[0][5], 0, 1]],
    }


def row_of_base_rank(ctx, r, length, rng):
    """w B: w of r elements independent over F_q, B over F_q of full row rank r."""
    w = independent_elements(ctx, r, rng)
    return vec_mat_mul(ctx, w, random_full_row_rank(ctx, r, length, rng, base_field=True))


@pytest.mark.parametrize("q, N", [(2, 12), (2, 28), (2, 40), (3, 5), (5, 3)])
def test_rank_profile_equals_rank_of_built_stack(q, N):
    ctx = get_field(q, N)
    rng = random.Random(89 + N)
    for name, M in reference_matrices(ctx, rng).items():
        # u = N and beyond: sigma^N is the identity, so the stack repeats
        built = [rank_ext(ctx, extend_public_key(ctx, M, u)) for u in range(N + 2)]
        assert rank_profile(ctx, M, N + 1) == built, name


@pytest.mark.parametrize("q, N", [(2, 12), (2, 28), (3, 5)])
def test_stack_of_one_row_has_rank_min_of_depth_and_base_rank(q, N):
    # rank_profile's closed form for a one-row level, checked on built stacks
    ctx = get_field(q, N)
    rng = random.Random(300 + N)
    for r in range(1, min(N, 6) + 1):
        v = row_of_base_rank(ctx, r, 6, rng)
        assert rank_over_base(ctx, v) == r
        for u in range(N + 2):
            assert rank_ext(ctx, extend_public_key(ctx, [v], u)) == min(u + 1, r), (r, u)


@pytest.mark.parametrize(
    "q, N, rows, cols", [(2, 28, 14, 28), (2, 28, 3, 31), (2, 12, 6, 12), (3, 6, 2, 6)]
)
def test_random_matrices_follow_the_rank_profile_baseline(q, N, rows, cols):
    # the baseline a public key's rank profile is read against: a random
    # matrix's stack has full rank min((u + 1) rows, cols) at every depth
    ctx = get_field(q, N)
    rng = random.Random(1000 + rows)
    baseline = [min((u + 1) * rows, cols) for u in range(N)]
    for _ in range(3):
        assert rank_profile(ctx, random_matrix(ctx, rows, cols, rng), N - 1) == baseline


def test_rank_profile_refuses_negative_depth_before_any_work():
    unusable = object()  # any field operation or row access on it raises
    with pytest.raises(ParameterError):
        rank_profile(unusable, unusable, -1)


def test_distinguisher_separates_the_two_scrambler_families():
    rng = random.Random(83)
    ext = GptParams(**DESK, t1=2, s_ext=1)
    base = GptParams(**DESK, t1=2, scrambler_mode="base_field")
    s_ext = distinguisher_trials(ext, trials=4, rng=rng)
    s_base = distinguisher_trials(base, trials=4, rng=rng)
    assert s_ext.verdict == "NOT DISTINGUISHABLE"
    assert s_ext.observed_ranks == (12, 12, 12, 12)
    assert s_base.verdict == "DISTINGUISHABLE"
    assert s_base.observed_ranks == (11, 11, 11, 11)
    first = s_base.results[0]
    assert first.u == base.n - base.k - 1 == 5  # the default depth
    assert first.full_rank == 12
    assert first.leak_bound == 11


def test_distinguisher_on_concatenation_variant():
    rng = random.Random(84)
    ext = GptParams(**DESK, t1=1, t2=2, s_ext=1, variant=4)
    base = GptParams(**DESK, t1=1, t2=2, scrambler_mode="base_field", variant=4)
    r_ext = distinguisher_trials(ext, trials=4, rng=rng)
    r_base = distinguisher_trials(base, trials=4, rng=rng)
    assert r_ext.verdict == "NOT DISTINGUISHABLE"
    assert all(r.observed_rank == r.full_rank == 13 for r in r_ext.results)
    assert r_base.verdict == "DISTINGUISHABLE"
    # code part caps at k + u = 11, distortion block adds at most t1 = 1
    assert all(r.observed_rank <= 12 for r in r_base.results)


def test_trials_that_disagree_read_mixed():
    rng = random.Random(87)
    results = [
        distinguish_public_key(keygen(GptParams(**DESK, t1=2, scrambler_mode=mode), rng)[0])
        for mode in ("base_field", "extension_field")
    ]
    summary = TrialSummary(results)
    assert [r.distinguishable for r in summary.results] == [True, False]
    assert summary.verdict == "MIXED"


def test_trials_that_agree_read_their_common_verdict():
    rng = random.Random(88)
    for mode in ("base_field", "extension_field"):
        params = GptParams(**DESK, t1=2, scrambler_mode=mode)
        results = [distinguish_public_key(keygen(params, rng)[0]) for _ in range(3)]
        summary = TrialSummary(results)
        assert {r.verdict for r in results} == {results[0].verdict}
        assert summary.verdict == results[0].verdict


def test_stack_depth_validation():
    rng = random.Random(85)
    pub, _ = keygen(GptParams(**DESK, t1=2, s_ext=1), rng)
    with pytest.raises(ParameterError):
        distinguish_public_key(pub, u=0)
    with pytest.raises(ParameterError):
        distinguish_public_key(pub, u=12)
    res = distinguish_public_key(pub, u=3)
    assert res.full_rank == 12  # (3+1)*6 = 24 caps at 12 columns


def test_distinguisher_trials_requires_positive_count():
    with pytest.raises(ParameterError):
        distinguisher_trials(GptParams(**DESK, t1=2, s_ext=1), trials=0)


@pytest.mark.parametrize("count", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("entry", ["attack depth", "distinguisher depth", "trials", "code dimension"])
def test_depth_trial_and_dimension_counts_must_be_plain_ints(count, entry):
    params = GptParams(**DESK, t1=2, s_ext=1)
    pub, _ = keygen(params, random.Random(98))
    calls = {
        "attack depth": lambda: attack_public_key(pub, count),
        "distinguisher depth": lambda: distinguisher_trials(params, trials=1, u=count),
        "trials": lambda: distinguisher_trials(params, trials=count),
        "code dimension": lambda: GabidulinCode(get_field(2, 12), [1, 2, 4, 8], count),
    }
    with pytest.raises(ParameterError, match="must be an int"):
        calls[entry]()


def test_distinguisher_trials_checks_depth_before_drawing_a_key():
    params = GptParams(**DESK, t1=2, s_ext=1)
    unusable = object()  # drawing a key from it raises AttributeError
    for u in (0, 12, 99):
        with pytest.raises(ParameterError):
            distinguisher_trials(params, trials=2, u=u, rng=unusable)


# every depth 1..N-1, pinned from rank_ext(extend_public_key(G_pub, u)) on
# the raw public matrix, before the distinguisher ranked it by rank_profile
GOLDEN_PROFILES = {
    "basefield": [7, 8, 9, 10, 11] + [12] * 6,
    "desk12": [8, 9, 10, 11] + [12] * 7,
    "paper28": list(range(19, 28)) + [28] * 18,
    "q3": [4, 5, 6, 6, 6],
    "v4": [10, 11, 12, 13] + [14] * 7,
    "v5": [9, 10, 11, 12] + [13] * 7,
    "v6": [12, 13, 14, 15] + [16] * 9,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROFILES))
def test_rank_profile_of_golden_public_keys(name):
    pub = load_public_key(GOLDEN / f"{name}.public.bin")
    ctx, N = pub.params.field(), pub.params.N
    assert rank_profile(ctx, pub.matrix, N - 1)[1:] == GOLDEN_PROFILES[name]


def test_every_sweep_key_falls_below_the_random_baseline_by_depth_3():
    # one key per accepted tuple of the parameter-rule sweep, the i-th seeded
    # with Random(i): each stack is short of the random-matrix rank
    # min((u + 1) rows, cols) at some u <= 3, yet a depth-u verdict read at
    # the default depth n - k - 1 alone misses many of them
    first_short = {}
    not_distinguishable = 0
    for i, params in enumerate(accepted_sweep_params(), start=1):
        pub, _ = keygen(params, random.Random(i))
        ctx, rows, cols = params.field(), params.pub_rows, params.pub_cols
        profile = rank_profile(ctx, pub.matrix, 3)
        short = [u for u in (1, 2, 3) if profile[u] < min((u + 1) * rows, cols)]
        assert short, params
        first_short[short[0]] = first_short.get(short[0], 0) + 1
        not_distinguishable += not distinguish_public_key(pub).distinguishable
    assert first_short == {1: 340, 2: 270, 3: 80}
    assert not_distinguishable == 270


@pytest.mark.parametrize(
    "params",
    [
        GptParams(**DESK, t1=2, s_ext=1),
        GptParams(**DESK, t1=2, scrambler_mode="base_field"),
        GptParams(q=3, N=6, n=6, k=2, t1=1, s_ext=1),
        GptParams(q=2, N=14, n=12, k=6, t1=2, s_ext=1),  # n < N
        GptParams(**DESK, t1=1, t2=2, p=1, s_ext=1, variant=5),
        GptParams(q=2, N=14, n=14, k=6, t1=2, t2=1, m_cols=2, s_ext=1, x_ordinary_rank=1, variant=6),
    ],
)
def test_echelon_stack_rank_equals_raw_stack_rank(params):
    rng = random.Random(86)
    ctx = params.field()
    for _ in range(3):
        pub, _ = keygen(params, rng)
        for u in range(1, params.N):
            raw = rank_ext(ctx, extend_public_key(ctx, pub.matrix, u))
            assert distinguish_public_key(pub, u).observed_rank == raw, u


# -- cost estimates ------------------------------------------------


def test_cost_report_frozen_values():
    costs = attack_cost_report(preset("paper-28"))
    assert costs["basis_enumeration"] == pytest.approx(112.844, abs=0.01)
    assert costs["coordinate_enumeration"] == pytest.approx(147.599, abs=0.01)
    assert costs["polynomial_reconstruction"] == pytest.approx(302.335, abs=0.01)
    assert costs["brute_force"] == pytest.approx(84.0, abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="the enumeration costs are priced at the radius t = 7, not at the "
    "ciphertext's error rank 3, where basis enumeration costs about 2^49.2",
)
def test_paper28_basis_enumeration_is_below_the_threshold():
    costs = attack_cost_report(preset("paper-28"))
    assert costs["basis_enumeration"] < SECURITY_THRESHOLD_BITS


def test_message_enumeration_breaks_a_one_row_public_key():
    # a 1 x 31 public key has only 2^28 messages, far cheaper than brute force
    params = GptParams(N=28, n=28, k=14, t1=3, t2=2, p=13, variant=5)
    costs = attack_cost_report(params)
    assert costs["message_enumeration"] == pytest.approx(28 + 3 * math.log2(31))
    assert costs["message_enumeration"] < costs["brute_force"] == 84
    report = attack_public_key(keygen(params, random.Random(0))[0])
    assert not report.distinguisher.distinguishable
    assert (report.status, report.reason) == (
        "insecure",
        "message enumeration costs about 2^42.9, below the 2^64 threshold",
    )


def test_message_enumeration_recovers_the_plaintext_at_toy_size():
    params = GptParams(N=12, n=12, k=6, t1=1, t2=2, p=5, variant=5)
    rng = random.Random(7)
    pub, _ = keygen(params, rng)
    ctx = params.field()
    m = [ctx.rand_elem(rng)]
    c = encrypt(pub, m, rng)
    found = []
    for x in range(ctx.size):
        e = vec_sub(ctx, c, vec_mat_mul(ctx, [x], pub.matrix))
        if rank_over_base(ctx, e) <= params.t2:
            found.append([x])
    assert ctx.size == 4096 and found == [m]


def test_cost_report_scales_with_parameters():
    lo = attack_cost_report(GptParams(q=2, N=16, n=16, k=8, t1=2, s_ext=1))
    hi = attack_cost_report(preset("paper-28"))
    for key in lo:
        assert lo[key] < hi[key]


def test_security_status_branches(monkeypatch):
    # attack_public_key's status for a distinguishable key, a key without
    # extension-field columns that the default depth misses, and a healthy key,
    # under stand-in costs
    rng = random.Random(86)
    broken, _ = keygen(GptParams(**DESK, t1=2, scrambler_mode="base_field"), rng)
    saturated, _ = keygen(
        GptParams(**DESK, t1=1, variant=6, t2=1, m_cols=1, scrambler_mode="base_field"), rng
    )
    healthy, _ = keygen(preset("desk-12"), rng)

    def status(pub, costs):
        monkeypatch.setattr(attacks, "attack_cost_report", lambda params: costs)
        report = attack_public_key(pub)
        assert report.costs is costs
        return report.status, report.reason

    costs = {"a": 80.0, "b": 100.0}
    assert status(broken, costs) == (
        "insecure",
        "the extended-rank distinguisher separates this key from random, "
        "exposing the private code row space",
    )
    assert not attack_public_key(saturated).distinguisher.distinguishable
    # its profile is short of the random baseline at u = 1..4 and full only
    # at the default u = 5, so a verdict read from the profile would catch it
    params = saturated.params
    baseline = [min((u + 1) * params.pub_rows, params.pub_cols) for u in range(1, 6)]
    assert baseline == [12, 13, 13, 13, 13]
    assert rank_profile(params.field(), saturated.matrix, 5)[1:] == [9, 10, 11, 12, 13]
    assert status(saturated, costs) == (
        "insecure",
        "no extension-field scrambler columns (s_ext = 0): P^-1's kept block "
        "lies over F_q, which structural rank attacks strip",
    )
    assert status(healthy, costs) == ("secure", "cheapest known attack (a) costs about 2^80.0")
    assert status(healthy, {"a": 30.0})[0] == "insecure"
    # one cost just above the threshold constant and one just below it
    state, reason = status(healthy, {"a": SECURITY_THRESHOLD_BITS + 0.5})
    assert state == "secure" and "2^64.5" in reason
    state, reason = status(healthy, {"a": SECURITY_THRESHOLD_BITS - 0.5})
    assert state == "insecure" and "2^63.5" in reason and "2^64 threshold" in reason


def test_attack_report_end_to_end():
    rng = random.Random(86)
    pub, _ = keygen(GptParams(**DESK, t1=2, scrambler_mode="base_field"), rng)
    report = attack_public_key(pub)
    assert report.status == "insecure"
    assert report.distinguisher.distinguishable
    assert public_key_size_bits(pub.params) == 864
    pub2, _ = keygen(preset("desk-12"), rng)
    report2 = attack_public_key(pub2)
    assert not report2.distinguisher.distinguishable
    # still insecure at toy scale: brute force is cheap
    assert report2.status == "insecure"
    assert "brute force" in report2.reason


# -- reference table ------------------------------------------------

# example_security_table() as recorded, one row per branch of the verdict
# rule that derived it: no distortion, work factor below the threshold,
# secure, and the whole decodability budget spent
RECORDED_TABLE = [
    (0, 0, 0.0, 7, "insecure", "no distortion; information-set decoding applies"),
    (1, 24, 28.0, 6, "insecure", "work factor 2^24 is below the 2^64 threshold"),
    (2, 48, 56.0, 5, "insecure", "work factor 2^48 is below the 2^64 threshold"),
    (3, 72, 84.0, 4, "secure",
     "work factor 2^72 with 4 extension-field scrambler columns available"),
    (4, 96, 112.0, 3, "secure",
     "work factor 2^96 with 3 extension-field scrambler columns available"),
    (5, 120, 140.0, 2, "secure",
     "work factor 2^120 with 2 extension-field scrambler columns available"),
    (6, 144, 168.0, 1, "secure",
     "work factor 2^144 with 1 extension-field scrambler column available"),
    (7, 168, 196.0, 0, "insecure",
     "distortion uses the whole decodability budget, forcing a base-field scrambler"
     " that structural rank attacks strip"),
]  # fmt: skip


def test_reference_table_equals_the_recorded_rows():
    keys = ("t1", "stored_exponent", "formula_exponent", "ext_budget", "status", "reason")
    assert example_security_table() == [dict(zip(keys, row)) for row in RECORDED_TABLE]


def test_reference_table_statuses():
    rows = example_security_table()
    assert len(rows) == 8
    by_t1 = {row["t1"]: row for row in rows}
    for t1 in (0, 1, 2, 7):
        assert by_t1[t1]["status"] == "insecure", t1
    for t1 in (3, 4, 5, 6):
        assert by_t1[t1]["status"] == "secure", t1


def test_reference_table_exponents():
    rows = example_security_table()
    for row in rows:
        assert row["stored_exponent"] == REFERENCE_WORK_EXPONENTS[row["t1"]]
        assert row["stored_exponent"] == 24 * row["t1"]
        assert row["formula_exponent"] == pytest.approx(28 * row["t1"])
        assert row["ext_budget"] == 7 - row["t1"]


def test_reference_table_discrepancy_is_flagged():
    assert "24" in WORK_FACTOR_NOTE and "28" in WORK_FACTOR_NOTE
    rows = example_security_table()
    # the stored dataset and the formula genuinely disagree for t1 >= 1
    assert any(row["stored_exponent"] != row["formula_exponent"] for row in rows)


def test_reference_table_reasons_are_specific():
    rows = {row["t1"]: row for row in example_security_table()}
    assert "information-set" in rows[0]["reason"]
    assert "threshold" in rows[1]["reason"]
    assert "base-field" in rows[7]["reason"]


# -- exhaustive oracle guard ------------------------------------------------


def test_brute_force_decoder_guard():
    ctx = get_field(2, 12)
    rng = random.Random(87)
    code = GabidulinCode(ctx, independent_elements(ctx, 12, rng), 6)
    with pytest.raises(ParameterError):
        BruteForceDecoder(code)  # 2^72 codewords


def test_brute_force_decoder_identity_on_codewords():
    ctx = get_field(2, 4)
    rng = random.Random(88)
    code = GabidulinCode(ctx, independent_elements(ctx, 4, rng), 2)
    oracle = BruteForceDecoder(code)
    m = [ctx.rand_elem(rng), ctx.rand_elem(rng)]
    c = code.encode(m)
    got_m, got_c = oracle.decode(c)
    assert got_m == m and got_c == c
    assert oracle.min_distance() == 3


def test_brute_force_decoder_math_log_consistency():
    # the cost formulas use natural log only inside the log2 wrapper
    p = preset("paper-28")
    val = attack_cost_report(p)["polynomial_reconstruction"]
    by_hand = math.log2(math.log(2)) + 3 * (28 - 7) * math.log2(28)
    assert val == pytest.approx(by_hand, abs=1e-9)
