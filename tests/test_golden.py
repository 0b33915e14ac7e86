"""Format compatibility: committed key and ciphertext files load and re-save unchanged.

The fixtures under tests/golden/ were written by tests/golden/generate.py
with fixed seeds.  They cover every record kind in every encoding for the
desk-12 preset, a base-field scrambler, variants 4, 5 and 6, a q = 3 field
and the paper-28 public key (the only case with 4-byte elements).
"""

import importlib.util
from pathlib import Path

import pytest

from gptrank.gpt import decrypt
from gptrank.keyfiles import (
    load_ciphertext,
    load_private_key,
    load_public_key,
    save_ciphertext,
    save_private_key,
    save_public_key,
)
from gptrank.linalg import rank_over_base, vec_mat_mul, vec_sub

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


def _content(kind, obj):
    if kind == "public":
        return obj.params, obj.matrix
    if kind == "private":
        return obj.params, obj.code.g, obj.S, obj.S_inv, obj.P, obj.P_inv
    return obj


def test_fixture_set_is_complete():
    # seven keys with public key and ciphertext, six of them with a private key
    assert len(RECORDS) == 20
    assert KEYED == ["basefield", "desk12", "q3", "v4", "v5", "v6"]
    assert FILES == sorted(f"{record}.{fmt}" for record in RECORDS for fmt in FORMATS)


def test_seeded_keygen_writes_the_committed_key_files(tmp_path):
    # generate.py rerun with today's code must draw the same keys and
    # ciphertexts as the code that wrote the fixtures
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.main(str(tmp_path))
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
    bin_obj, hex_obj, json_obj = (
        _content(kind, load(GOLDEN / f"{record}.{fmt}")) for fmt in FORMATS
    )
    assert bin_obj == hex_obj == json_obj
