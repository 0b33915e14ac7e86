"""Serialization: lossless roundtrips, checksums, and cross-validation."""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from gptrank.attacks import attack_public_key
from gptrank.cli import main
from gptrank.errors import FormatError, ParameterError
from gptrank.gpt import GptParams, GptPrivateKey, decrypt, encrypt, keygen, preset
from gptrank.keyfiles import (
    MAGIC,
    CiphertextBundle,
    load_ciphertext,
    load_private_key,
    load_public_key,
    save_ciphertext,
    save_private_key,
    save_public_key,
    sniff_format,
)
from gptrank.linalg import FixedMatrix

FORMATS = ("bin", "hex", "json")
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def keypair():
    return keygen(preset("desk-12"), random.Random(90))


@pytest.fixture(scope="module")
def rect_keypair():
    params = GptParams(q=2, N=12, n=12, k=6, t1=1, t2=2, s_ext=1, variant=5, p=1)
    return keygen(params, random.Random(91))


def make_ct(params, rng):
    ctx = params.field()
    return CiphertextBundle(
        q=params.q,
        N=params.N,
        modulus=params.modulus,
        block_len=params.pub_cols,
        msg_len=17,
        blocks=[[ctx.rand_elem(rng) for _ in range(params.pub_cols)] for _ in range(2)],
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_public_key_roundtrip(tmp_path, keypair, fmt):
    pub, _ = keypair
    path = tmp_path / f"pub.{fmt}"
    save_public_key(path, pub, fmt)
    got = load_public_key(path)
    assert got.params == pub.params
    assert got.matrix == pub.matrix


@pytest.mark.parametrize("fmt", FORMATS)
def test_private_key_roundtrip(tmp_path, keypair, fmt):
    _, priv = keypair
    path = tmp_path / f"priv.{fmt}"
    save_private_key(path, priv, fmt)
    got = load_private_key(path)
    assert got.params == priv.params
    assert got.code.g == priv.code.g
    assert got.S == priv.S and got.unscramble == priv.unscramble
    assert got.P == priv.P and got.P_inv == priv.P_inv


@pytest.mark.parametrize("fmt", FORMATS)
def test_rectangular_private_key_roundtrip(tmp_path, rect_keypair, fmt):
    _, priv = rect_keypair
    path = tmp_path / f"rect.{fmt}"
    save_private_key(path, priv, fmt)
    got = load_private_key(path)
    assert got.S == priv.S
    assert got.unscramble == priv.unscramble
    assert got.params.variant == priv.params.variant


@pytest.mark.parametrize("fmt", FORMATS)
def test_ciphertext_roundtrip(tmp_path, keypair, fmt):
    pub, _ = keypair
    ct = make_ct(pub.params, random.Random(92))
    path = tmp_path / f"ct.{fmt}"
    save_ciphertext(path, ct, fmt)
    got = load_ciphertext(path)
    assert got.blocks == ct.blocks
    assert got.msg_len == 17
    assert (got.q, got.N, got.modulus, got.block_len) == (
        ct.q,
        ct.N,
        ct.modulus,
        ct.block_len,
    )


def test_sniffing(tmp_path, keypair):
    pub, _ = keypair
    for fmt in FORMATS:
        path = tmp_path / f"sniff.{fmt}"
        save_public_key(path, pub, fmt)
        assert sniff_format(path.read_bytes()) == fmt
    assert sniff_format(MAGIC + b"\x01junk") == "bin"


@pytest.mark.parametrize("fmt", FORMATS)
def test_bitflip_is_detected(tmp_path, keypair, fmt):
    pub, _ = keypair
    path = tmp_path / f"flip.{fmt}"
    save_public_key(path, pub, fmt)
    data = bytearray(path.read_bytes())
    # flip inside the body, away from magic and trailer
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_public_key(path)


def test_truncated_binary_rejected(tmp_path, keypair):
    pub, _ = keypair
    path = tmp_path / "trunc.bin"
    save_public_key(path, pub, "bin")
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError):
        load_public_key(path)
    path.write_bytes(b"GPTRANK1")
    with pytest.raises(FormatError):
        load_public_key(path)


def test_kind_confusion_rejected(tmp_path, keypair):
    pub, priv = keypair
    pub_path = tmp_path / "a.bin"
    priv_path = tmp_path / "b.bin"
    save_public_key(pub_path, pub, "bin")
    save_private_key(priv_path, priv, "bin")
    with pytest.raises(FormatError):
        load_private_key(pub_path)
    with pytest.raises(FormatError):
        load_public_key(priv_path)
    with pytest.raises(FormatError):
        load_ciphertext(pub_path)


def test_not_a_key_file(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("hello: world\n")
    with pytest.raises(FormatError):
        load_public_key(path)
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(range(256)))
    with pytest.raises(FormatError):
        load_public_key(raw)


def test_inconsistent_scrambler_pair_rejected(tmp_path, keypair):
    _, priv = keypair
    broken = GptPrivateKey(
        params=priv.params,
        g=priv.g,
        S=priv.S,
        P=priv.P,
        P_inv=[list(row) for row in priv.P],  # P twice is not a pair
    )
    path = tmp_path / "broken.json"
    save_private_key(path, broken, "json")
    with pytest.raises(FormatError):
        load_private_key(path)


def test_out_of_range_element_rejected(tmp_path, keypair):
    pub, _ = keypair
    path = tmp_path / "hot.json"
    save_public_key(path, pub, "json")
    doc = json.loads(path.read_text())
    del doc["checksum"]
    row = doc["matrix"][0].split()
    row[0] = "fff"  # 4095 is fine; push one digit wider instead
    doc["matrix"][0] = " ".join(["1fff"] + row[1:])
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    import hashlib

    doc["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_public_key(path)


def test_bad_parameters_in_file_are_a_format_error(tmp_path, keypair):
    pub, _ = keypair
    path = tmp_path / "badparams.json"
    save_public_key(path, pub, "json")
    doc = json.loads(path.read_text())
    del doc["checksum"]
    doc["params"]["k"] = 99  # k > n
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    import hashlib

    doc["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_public_key(path)


def test_hex_file_is_line_oriented_text(tmp_path, keypair):
    pub, _ = keypair
    path = tmp_path / "look.hex"
    save_public_key(path, pub, "hex")
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "gptrank: 1"
    assert lines[1] == "kind: public"
    assert lines[-1].startswith("checksum: ")
    assert sum(1 for ln in lines if ln.startswith("row: ")) == pub.params.pub_rows


def test_binary_file_is_canonical(tmp_path, keypair):
    pub, _ = keypair
    p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    save_public_key(p1, pub, "bin")
    save_public_key(p2, pub, "bin")
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(MAGIC)


# -- malformed files with valid checksums ------------------------------------------------


def hex_edit(name, key, value):
    """A golden hex file with one line replaced and the checksum recomputed."""
    lines = (GOLDEN / name).read_text().splitlines()[:-1]
    lines = [f"{key}: {value}" if ln.split(":", 1)[0] == key else ln for ln in lines]
    body = "\n".join(lines) + "\n"
    return body + f"checksum: {hashlib.sha256(body.encode()).hexdigest()}\n"


def json_edit(name, edit):
    """A golden json file changed by ``edit`` and re-checksummed."""
    doc = json.loads((GOLDEN / name).read_text())
    del doc["checksum"]
    edit(doc)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    return json.dumps(doc)


def _int_rows(doc):
    doc["matrix"] = [[int(tok, 16) for tok in row.split()] for row in doc["matrix"]]


MALFORMED = [
    pytest.param(load_public_key, lambda: hex_edit("desk12.public.hex", "k", "abc"), id="hex-k-abc"),
    pytest.param(load_public_key, lambda: hex_edit("desk12.public.hex", "N", "70"), id="hex-N-70"),
    pytest.param(
        load_public_key,
        lambda: hex_edit("desk12.public.hex", "modulus", "1 1 1"),
        id="hex-modulus-wrong-degree",
    ),
    pytest.param(
        load_public_key,
        lambda: json_edit("desk12.public.json", lambda d: d["params"].update(q="2")),
        id="json-q-string",
    ),
    pytest.param(
        load_public_key,
        lambda: json_edit("desk12.public.json", lambda d: d["params"].update(modulus=[1, "a"])),
        id="json-modulus-string-entry",
    ),
    pytest.param(
        load_public_key, lambda: json_edit("desk12.public.json", _int_rows), id="json-matrix-of-ints"
    ),
    pytest.param(
        load_public_key,
        lambda: json_edit("desk12.public.json", lambda d: d.update(params="q=2 N=12")),
        id="json-params-string",
    ),
    pytest.param(
        load_public_key,
        lambda: json_edit("desk12.public.json", lambda d: d["params"].update(N=1 << 16)),
        id="json-N-wider-than-bin-header",
    ),
    pytest.param(
        load_private_key,
        lambda: json_edit("desk12.private.json", lambda d: d.update(g=d["g"].split())),
        id="json-private-g-list",
    ),
    pytest.param(
        load_ciphertext,
        lambda: json_edit("desk12.ciphertext.json", lambda d: d.update(msg_len="5")),
        id="json-ciphertext-msg_len-string",
    ),
]


@pytest.mark.parametrize("load, make", MALFORMED)
def test_malformed_checksummed_file_is_a_format_error(tmp_path, load, make):
    path = tmp_path / "malformed"
    path.write_text(make())
    with pytest.raises(FormatError):
        load(path)


def _repeat_first(text):
    first, _, *rest = text.split()
    return " ".join([first, first, *rest])


def _copy_first_S_row(doc):
    doc["S"][1] = doc["S"][0]


def _shorten_first_row(doc):
    doc["matrix"][0] = doc["matrix"][0].rsplit(" ", 1)[0]


def bin_append(name, extra):
    """A golden bin file with ``extra`` appended to its payload and the sha256 trailer redone."""
    payload = (GOLDEN / name).read_bytes()[:-32] + extra
    return payload + hashlib.sha256(payload).digest()


# each loader check, reached by a file whose checksum holds
REFUSED = [
    pytest.param(
        load_private_key,
        lambda: json_edit("desk12.private.json", lambda d: d.update(g=_repeat_first(d["g"]))),
        "invalid code vector",
        id="json-private-g-repeats-an-entry",
    ),
    pytest.param(
        load_private_key,
        lambda: json_edit("desk12.private.json", _copy_first_S_row),
        "row scrambler does not have full row rank",
        id="json-private-S-two-equal-rows",
    ),
    pytest.param(
        load_private_key,
        lambda: json_edit("v5.private.json", _copy_first_S_row),
        "row scrambler does not have full row rank",
        id="json-private-v5-S-two-equal-rows",
    ),
    pytest.param(
        load_public_key,
        lambda: json_edit("desk12.public.json", _shorten_first_row),
        "expected 12 elements per row",
        id="json-public-row-one-element-short",
    ),
    pytest.param(
        load_public_key,
        lambda: bin_append("desk12.public.bin", bytes(4)),
        "trailing bytes after the public data",
        id="bin-public-4-trailing-bytes",
    ),
    pytest.param(
        load_public_key, lambda: '{"a": 1}', "not a recognized json key file", id="json-foreign"
    ),
]


@pytest.mark.parametrize("load, make, reason", REFUSED)
def test_loader_check_names_its_reason(tmp_path, load, make, reason):
    data = make()
    path = tmp_path / "refused"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    with pytest.raises(FormatError, match=reason):
        load(path)


def test_unknown_save_format_is_a_parameter_error(tmp_path, keypair):
    with pytest.raises(ParameterError, match="unknown file format"):
        save_public_key(tmp_path / "pub.xml", keypair[0], "xml")
    assert not (tmp_path / "pub.xml").exists()


def test_ciphertext_blocks_must_match_a_positive_block_len(tmp_path):
    ct = make_ct(preset("desk-12"), random.Random(95))
    with pytest.raises(ParameterError, match="must not be empty"):
        replace(ct, block_len=0)
    ct.blocks[1] = ct.blocks[1][:-1]  # 11 entries against block_len 12
    for fmt in FORMATS:
        with pytest.raises(ParameterError, match="disagree with block_len"):
            save_ciphertext(tmp_path / "ct", ct, fmt)


# json.loads itself fails on these, with errors other than JSONDecodeError
UNPARSABLE_JSON = {
    "nested-200000-deep": '{"a": ' + "[" * 200_000 + "]" * 200_000 + "}",  # RecursionError
    "int-of-5000-digits": '{"gptrank": 1, "q": ' + "7" * 5000 + "}",  # int conversion limit
}


@pytest.mark.parametrize("text", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON)
def test_unparsable_json_is_a_format_error(tmp_path, text):
    path = tmp_path / "pub.json"
    path.write_text(text)
    with pytest.raises(FormatError, match="bad json"):
        load_public_key(path)
    assert main(["attack", "--pub", str(path)]) == 4


@pytest.mark.parametrize(
    "spell", [lambda c: c + 2, lambda c: -c], ids=["coefficients-above-q", "negative-coefficients"]
)
def test_respelled_modulus_names_the_canonical_field(tmp_path, keypair, spell):
    canonical = preset("desk-12")
    params = preset("desk-12", modulus=[spell(c) for c in canonical.modulus])
    assert params == canonical and params.field() is canonical.field()
    pub, priv = keygen(params, random.Random(90))
    assert pub.matrix == keypair[0].matrix
    for fmt in FORMATS:
        save_public_key(tmp_path / "pub", pub, fmt)
        save_private_key(tmp_path / "priv", priv, fmt)
        save_public_key(tmp_path / "canonical", keypair[0], fmt)
        assert (tmp_path / "pub").read_bytes() == (tmp_path / "canonical").read_bytes()
        assert load_public_key(tmp_path / "pub").params == canonical
        assert load_private_key(tmp_path / "priv").params == canonical


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "spell", [lambda c: c + 2, lambda c: -c], ids=["coefficients-above-q", "negative-coefficients"]
)
def test_respelled_modulus_saves_the_canonical_ciphertext(tmp_path, spell, fmt):
    canonical = make_ct(preset("desk-12"), random.Random(92))
    ct = replace(canonical, modulus=[spell(c) for c in canonical.modulus])
    save_ciphertext(tmp_path / "ct", ct, fmt)
    save_ciphertext(tmp_path / "canonical", canonical, fmt)
    assert (tmp_path / "ct").read_bytes() == (tmp_path / "canonical").read_bytes()
    assert load_ciphertext(tmp_path / "ct") == canonical == ct


def test_fixed_matrices_save_the_bytes_of_plain_lists(tmp_path, keypair):
    pub, priv = keypair
    m = [1, 2, 3, 4, 5, 6]
    assert decrypt(priv, encrypt(pub, m, random.Random(93))) == m  # builds the kernels
    assert isinstance(pub.matrix, FixedMatrix) and pub.matrix.times is not None
    assert isinstance(priv.P_inv, FixedMatrix) and priv.P_inv.times is not None
    plain_pub = replace(pub, matrix=[list(row) for row in pub.matrix])
    plain_priv = replace(priv, P_inv=[list(row) for row in priv.P_inv])
    for fmt in FORMATS:
        for name, save, key, plain in (
            ("pub", save_public_key, pub, plain_pub),
            ("priv", save_private_key, priv, plain_priv),
        ):
            save(tmp_path / name, key, fmt)
            save(tmp_path / "plain", plain, fmt)
            assert (tmp_path / name).read_bytes() == (tmp_path / "plain").read_bytes()


def test_keygen_loading_and_the_attack_build_no_product_kernel(tmp_path):
    pub, priv = keygen(preset("desk-12"), random.Random(94))
    code = priv.code
    fixed = (pub.matrix, priv.P_inv, priv.unscramble, code.G, code._htab, code._info_inv)
    assert all(isinstance(M, FixedMatrix) and M.times is None for M in fixed)
    for fmt in FORMATS:
        save_public_key(tmp_path / "pub", pub, fmt)
        loaded = load_public_key(tmp_path / "pub")
        attack_public_key(loaded)
        assert isinstance(loaded.matrix, FixedMatrix) and loaded.matrix.times is None
