"""Committed key and ciphertext files load, re-save unchanged and keep their attack verdicts.

The fixtures under tests/golden/ were written by tests/golden/generate.py
with fixed seeds.  They cover every record kind in every encoding for the
desk-12 preset, a base-field scrambler, variants 4, 5 and 6, a q = 3 field
and the paper-28 public key (the only case with 4-byte elements).
"""

import importlib.util
import random
from pathlib import Path

import pytest

from gptrank.cli import main
from gptrank.gpt import GptPrivateKey, decrypt, keygen
from gptrank.keyfiles import (
    load_ciphertext,
    load_private_key,
    load_public_key,
    save_ciphertext,
    save_private_key,
    save_public_key,
)
from gptrank.linalg import (
    identity_matrix,
    mat_inv,
    mat_mul,
    rank_over_base,
    vec_mat_mul,
    vec_sub,
)

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("bin", "hex", "json")
KINDS = {
    "public": (load_public_key, save_public_key),
    "private": (load_private_key, save_private_key),
    "ciphertext": (load_ciphertext, save_ciphertext),
}
FILES = sorted(p.name for p in GOLDEN.iterdir() if p.suffix[1:] in FORMATS)
RECORDS = sorted({name.rsplit(".", 1)[0] for name in FILES})
KEYED = sorted(record.split(".")[0] for record in RECORDS if record.endswith(".private"))


def _generate():
    """tests/golden/generate.py, the script that wrote the fixtures."""
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate


def test_fixture_set_is_complete():
    # seven keys with public key and ciphertext, six of them with a private key
    assert len(RECORDS) == 20
    assert KEYED == ["basefield", "desk12", "q3", "v4", "v5", "v6"]
    assert FILES == sorted(f"{record}.{fmt}" for record in RECORDS for fmt in FORMATS)


def test_seeded_keygen_writes_the_committed_key_files(tmp_path):
    # generate.py rerun with today's code must draw the same keys and
    # ciphertexts as the code that wrote the fixtures
    _generate().main(str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == FILES
    assert len(FILES) == 60
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("key", KEYED)
def test_golden_ciphertexts_decrypt_and_carry_exact_rank_errors(key):
    # every encoding decrypts to the same plaintexts, and each block's error
    # c - m G_pub has the exact rank the parameters declare
    plaintexts = []
    for fmt in FORMATS:
        pub = load_public_key(GOLDEN / f"{key}.public.{fmt}")
        priv = load_private_key(GOLDEN / f"{key}.private.{fmt}")
        ct = load_ciphertext(GOLDEN / f"{key}.ciphertext.{fmt}")
        params = pub.params
        ctx = params.field()
        messages = [decrypt(priv, c) for c in ct.blocks]
        for m, c in zip(messages, ct.blocks):
            e = vec_sub(ctx, c, vec_mat_mul(ctx, m, pub.matrix))
            assert rank_over_base(ctx, e) == params.error_rank, (fmt, m)
        plaintexts.append(messages)
    assert plaintexts[0] == plaintexts[1] == plaintexts[2]


# each public key's stacked rank at the default depth, and the verdict it gives:
# only the base-field scrambler falls to the distinguisher
VERDICTS = {
    "basefield": (11, "DISTINGUISHABLE"),
    "desk12": (12, "NOT DISTINGUISHABLE"),
    "paper28": (28, "NOT DISTINGUISHABLE"),
    "q3": (6, "NOT DISTINGUISHABLE"),
    "v4": (14, "NOT DISTINGUISHABLE"),
    "v5": (13, "NOT DISTINGUISHABLE"),
    "v6": (16, "NOT DISTINGUISHABLE"),
}


@pytest.mark.parametrize("key", VERDICTS)
def test_attack_on_each_golden_key_prints_its_rank_and_verdict(key, capsys):
    rank, verdict = VERDICTS[key]
    assert main(["attack", "--pub", str(GOLDEN / f"{key}.public.bin")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"  observed stacked rank: {rank}" in lines
    assert f"  verdict: {verdict}" in lines


@pytest.mark.parametrize("name", FILES)
def test_resave_is_byte_identical(tmp_path, name):
    kind, fmt = name.split(".")[1:]
    load, save = KINDS[kind]
    out = tmp_path / name
    save(out, load(GOLDEN / name), fmt)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("record", RECORDS)
def test_encodings_load_to_equal_objects(record):
    kind = record.split(".")[1]
    load = KINDS[kind][0]
    bin_obj, hex_obj, json_obj = (load(GOLDEN / f"{record}.{fmt}") for fmt in FORMATS)
    assert bin_obj == hex_obj == json_obj


@pytest.mark.parametrize("key", KEYED)
def test_private_keys_equal_their_seeded_keygen_and_differ_in_one_p_inv_entry(key):
    make_params, seed, _ = _generate().CASES[key]
    _, drawn = keygen(make_params(), random.Random(seed))
    keys = [load_private_key(GOLDEN / f"{key}.private.{fmt}") for fmt in FORMATS]
    assert keys[0] == keys[1] == keys[2] == drawn
    P_inv = [list(row) for row in drawn.P_inv]
    P_inv[-1][-1] = (P_inv[-1][-1] + 1) % drawn.params.field().size
    changed = GptPrivateKey(drawn.params, drawn.g, drawn.S, drawn.P, P_inv)
    assert changed != drawn and changed != keys[0]


@pytest.mark.parametrize("key", KEYED)
def test_the_row_scrambler_map_of_each_golden_key(key):
    # square S: the map is S's inverse; rectangular S: S W = [I | 0]
    priv = load_private_key(GOLDEN / f"{key}.private.bin")
    ctx, k, rows = priv.params.field(), priv.params.k, priv.params.pub_rows
    if rows == k:
        assert priv.unscramble == mat_inv(ctx, priv.S)
    else:
        assert key == "v5"
        SW = mat_mul(ctx, priv.S, priv.unscramble)
        assert SW == [row + [0] * (k - rows) for row in identity_matrix(rows)]
