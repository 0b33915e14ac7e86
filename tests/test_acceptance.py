"""Acceptance gate: one test per shipping criterion, each with its time budget.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Budgets are asserted, not advisory.
"""

import random
import time

import pytest

from brute_force import BruteForceDecoder
from gptrank.attacks import (
    WORK_FACTOR_NOTE,
    attack_cost_report,
    distinguisher_trials,
    example_security_table,
)
from gptrank.cli import main
from gptrank.fields import get_field
from gptrank.gabidulin import GabidulinCode
from gptrank.gpt import (
    GptParams,
    encrypt,
    decrypt,
    keygen,
    lemma1_check,
    preset,
    public_key_size_bits,
)
from gptrank.keyfiles import load_private_key, load_public_key
from gptrank.linalg import rank_over_base, sample_error, vec_add, vec_sub

DESK = dict(q=2, N=12, n=12, k=6)

ACCEPTANCE_VARIANTS = [
    GptParams(**DESK, t1=2, s_ext=1),
    GptParams(**DESK, t1=1, t2=2, s_ext=1, variant=4),
    GptParams(**DESK, t1=1, t2=2, s_ext=1, variant=5, p=1),
    GptParams(**DESK, t1=1, t2=1, s_ext=1, variant=6, m_cols=2),
]


def test_roundtrips_all_variants_within_budget():
    """200 encrypt/decrypt cycles per variant, all four variants, under 30s."""
    t0 = time.time()
    rng = random.Random(1001)
    for params in ACCEPTANCE_VARIANTS:
        ctx = params.field()
        pub, priv = keygen(params, rng)
        for _ in range(200):
            m = [ctx.rand_elem(rng) for _ in range(params.pub_rows)]
            c = encrypt(pub, m, rng)
            assert decrypt(priv, c) == m, f"roundtrip failed for variant {int(params.variant)}"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"roundtrips took {elapsed:.1f}s, budget 30s"
    print(f"\nPASS roundtrips: 200 cycles x 4 variants in {elapsed:.1f}s")


def test_scrambled_error_rank_never_leaves_the_radius():
    """1000/1000 fresh errors stay decodable through the hardened scrambler.

    The decoder sees rank(e P^-1) restricted to the kept block; that rank
    must never exceed t at either parameter scale, or decryption would be
    a matter of luck.
    """
    t0 = time.time()
    for params in (preset("desk-12"), preset("paper-28")):
        rng = random.Random(params.N)
        _, priv = keygen(params, rng)
        ctx = params.field()
        good = 0
        for _ in range(1000):
            e = sample_error(ctx, params.pub_cols, params.t1, rng)
            if lemma1_check(priv, e) <= params.t:
                good += 1
        assert good == 1000, f"{1000 - good} errors left the radius at N={params.N}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"rank budget checks took {elapsed:.1f}s, budget 60s"
    print(f"PASS rank budget: 1000/1000 at both scales in {elapsed:.1f}s")


def test_decoder_matches_exhaustive_oracle():
    """Syndrome decoder equals nearest-codeword search on two tiny codes.

    Every codeword is combined with 500 random errors inside the radius.
    For a linear code, c + e decodes uniquely to c for every c exactly when
    rank(e - w) > rank(e) for every nonzero codeword w, so the oracle side
    is verified once per error and the decoder on the full product.
    """
    t0 = time.time()
    for N, n, k in ((4, 4, 2), (5, 5, 1)):
        ctx = get_field(2, N)
        rng = random.Random(N * 100)
        code = GabidulinCode.random(ctx, n, k, rng)
        oracle = BruteForceDecoder(code)
        assert oracle.min_distance() == n - k + 1, "code is not maximum rank distance"
        errors = [sample_error(ctx, n, rng.randint(0, code.t), rng) for _ in range(500)]
        nonzero = [c for _, c in oracle.codewords if any(c)]
        for e in errors:
            r = rank_over_base(ctx, e)
            for w in nonzero:
                assert rank_over_base(ctx, vec_sub(ctx, e, w)) > r
        for m, c in oracle.codewords:
            for e in errors:
                got_m, got_e = code.decode(vec_add(ctx, c, e))
                assert got_m == m and got_e == e
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s, budget 60s"
    print(f"PASS decoder oracle: all codewords x 500 errors, two codes, in {elapsed:.1f}s")


def test_distinguisher_contrast_is_unanimous():
    """8/8 fresh base-field keys collapse to rank 11; 8/8 hardened reach 12."""
    t0 = time.time()
    rng = random.Random(1004)
    base = GptParams(**DESK, t1=2, scrambler_mode="base_field")
    hard = GptParams(**DESK, t1=2, s_ext=1)
    s_base = distinguisher_trials(base, trials=8, u=5, rng=rng)
    s_hard = distinguisher_trials(hard, trials=8, u=5, rng=rng)
    assert s_base.observed_ranks == (11,) * 8, s_base.observed_ranks
    assert s_base.verdict == "DISTINGUISHABLE"
    assert s_hard.observed_ranks == (12,) * 8, s_hard.observed_ranks
    assert s_hard.verdict == "NOT DISTINGUISHABLE"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"distinguisher trials took {elapsed:.1f}s, budget 30s"
    print(f"PASS distinguisher: 8/8 at rank 11 vs 8/8 at rank 12 in {elapsed:.1f}s")


def test_key_size_and_attack_costs():
    """Published key size is exact; cost exponents land within 1.0 of record."""
    params = preset("paper-28")
    assert public_key_size_bits(params) == 10976
    costs = attack_cost_report(params)
    assert costs["basis_enumeration"] == pytest.approx(113, abs=1.0)
    assert costs["coordinate_enumeration"] == pytest.approx(147, abs=1.0)
    assert costs["polynomial_reconstruction"] == pytest.approx(302, abs=1.0)
    print(
        "PASS key size and costs: 10976 bits, exponents "
        f"{costs['basis_enumeration']:.2f} / {costs['coordinate_enumeration']:.2f} / "
        f"{costs['polynomial_reconstruction']:.2f}"
    )


def test_reference_security_table_reproduced(capsys):
    """The analyze --table output carries all 8 rows with recorded verdicts."""
    rows = example_security_table()
    assert [row["t1"] for row in rows] == list(range(8))
    for row in rows:
        want = "insecure" if row["t1"] in (0, 1, 2, 7) else "secure"
        assert row["status"] == want, row
        assert row["stored_exponent"] == 24 * row["t1"]
        assert row["formula_exponent"] == pytest.approx(28 * row["t1"])
    assert main(["analyze", "--table"]) == 0
    out = capsys.readouterr().out
    for needle in ("t1", "insecure", "secure", WORK_FACTOR_NOTE):
        assert needle in out
    data_lines = [ln for ln in out.splitlines() if ln.strip() and ln.strip()[0].isdigit()]
    assert len(data_lines) == 8
    with capsys.disabled():
        print("\nPASS reference table: 8 rows, verdicts and both exponent columns intact")


def test_cli_determinism_and_format_fidelity(tmp_path, capsys):
    """Seeded runs are byte-identical; hex and bin carry identical key content."""
    t0 = time.time()

    def keygen_to(prefix, fmt, seed="55"):
        pub = tmp_path / f"{prefix}.pub"
        priv = tmp_path / f"{prefix}.priv"
        rc = main([
            "keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv),
            "--format", fmt, "--seed", seed,
        ])
        assert rc == 0
        return pub, priv

    a_pub, a_priv = keygen_to("a", "bin")
    b_pub, b_priv = keygen_to("b", "bin")
    assert a_pub.read_bytes() == b_pub.read_bytes()
    assert a_priv.read_bytes() == b_priv.read_bytes()

    h_pub, h_priv = keygen_to("h", "hex")
    assert load_public_key(h_pub).matrix == load_public_key(a_pub).matrix
    assert load_private_key(h_priv).P == load_private_key(a_priv).P

    msg = tmp_path / "msg"
    msg.write_bytes(b"acceptance: every byte back, any encoding")
    for key, fmt in ((a_pub, "bin"), (h_pub, "hex"), (a_pub, "json")):
        ct = tmp_path / f"ct.{fmt}"
        out = tmp_path / f"out.{fmt}"
        assert main(["encrypt", "--pub", str(key), "--in", str(msg),
                     "--out", str(ct), "--format", fmt, "--seed", "56"]) == 0
        assert main(["decrypt", "--priv", str(a_priv), "--in", str(ct),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == msg.read_bytes()
    elapsed = time.time() - t0
    with capsys.disabled():
        print(f"PASS cli determinism and formats: byte-identical keys, "
              f"3 encodings round-tripped in {elapsed:.1f}s")
