"""Distinguisher behavior, cost estimates, and the reference table."""

import math
import random

import pytest

from gptrank.attacks import (
    REFERENCE_WORK_EXPONENTS,
    SECURITY_THRESHOLD_BITS,
    WORK_FACTOR_NOTE,
    BruteForceDecoder,
    attack_cost_report,
    attack_public_key,
    default_stack_depth,
    distinguish_public_key,
    distinguisher_trials,
    example_security_table,
    extend_public_key,
    security_status,
)
from gptrank.errors import ParameterError
from gptrank.fields import get_field
from gptrank.gabidulin import GabidulinCode
from gptrank.gpt import GptParams, keygen, preset
from gptrank.linalg import mat_frobenius, rank_ext

DESK = dict(q=2, N=12, n=12, k=6)


def test_extend_public_key_shape_and_content():
    ctx = get_field(2, 8)
    rng = random.Random(81)
    M = [[ctx.rand_elem(rng) for _ in range(5)] for _ in range(2)]
    stacked = extend_public_key(ctx, M, 3)
    assert len(stacked) == 8
    assert stacked[:2] == M
    assert stacked[2:4] == mat_frobenius(ctx, M, 1)
    assert stacked[6:8] == mat_frobenius(ctx, M, 3)


def test_stack_of_hidden_code_collapses_without_scrambling():
    # the pure code case: stacking G of a length-n code gives rank k + u
    ctx = get_field(2, 8)
    rng = random.Random(82)
    code = GabidulinCode.random(ctx, 8, 3, rng)
    for u in range(0, 5):
        stacked = extend_public_key(ctx, code.G, u)
        assert rank_ext(ctx, stacked) == min(3 + u, 8)


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
    assert first.u == default_stack_depth(base) == 5
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


# -- cost estimates ------------------------------------------------


def test_cost_report_frozen_values():
    costs = attack_cost_report(preset("paper-28"))
    assert costs["basis_enumeration"] == pytest.approx(112.844, abs=0.01)
    assert costs["coordinate_enumeration"] == pytest.approx(147.599, abs=0.01)
    assert costs["polynomial_reconstruction"] == pytest.approx(302.335, abs=0.01)
    assert costs["brute_force"] == pytest.approx(84.0, abs=1e-9)


def test_cost_report_scales_with_parameters():
    lo = attack_cost_report(GptParams(q=2, N=16, n=16, k=8, t1=2, s_ext=1))
    hi = attack_cost_report(preset("paper-28"))
    for key in lo:
        assert lo[key] < hi[key]


def test_security_status_branches():
    costs = {"a": 80.0, "b": 100.0}
    assert security_status(costs, True)[0] == "insecure"
    assert security_status(costs, False)[0] == "secure"
    assert security_status({"a": 30.0}, False)[0] == "insecure"
    # one cost just above the threshold constant and one just below it
    status, reason = security_status({"a": SECURITY_THRESHOLD_BITS + 0.5}, False)
    assert status == "secure" and "2^64.5" in reason
    status, reason = security_status({"a": SECURITY_THRESHOLD_BITS - 0.5}, False)
    assert status == "insecure" and "2^63.5" in reason and "2^64 threshold" in reason


def test_attack_report_end_to_end():
    rng = random.Random(86)
    pub, _ = keygen(GptParams(**DESK, t1=2, scrambler_mode="base_field"), rng)
    report = attack_public_key(pub)
    assert report.status == "insecure"
    assert report.distinguisher.distinguishable
    assert report.key_size_bits == 864
    pub2, _ = keygen(preset("desk-12"), rng)
    report2 = attack_public_key(pub2)
    assert not report2.distinguisher.distinguishable
    # still insecure at toy scale: brute force is cheap
    assert report2.status == "insecure"
    assert "brute force" in report2.reason


# -- reference table ------------------------------------------------


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
    code = GabidulinCode.random(ctx, 12, 6, rng)
    with pytest.raises(ParameterError):
        BruteForceDecoder(code)  # 2^72 codewords


def test_brute_force_decoder_identity_on_codewords():
    ctx = get_field(2, 4)
    rng = random.Random(88)
    code = GabidulinCode.random(ctx, 4, 2, rng)
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
