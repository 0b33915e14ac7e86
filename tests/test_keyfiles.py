"""Serialization: lossless roundtrips, checksums, and cross-validation."""

import copy
import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import per_element_codec
from gptrank.attacks import attack_public_key
from gptrank.cli import main
from gptrank.errors import DecodeFailure, FormatError, ParameterError
from gptrank.fields import is_irreducible
from gptrank.gpt import GptParams, GptPrivateKey, decrypt, encrypt, keygen, preset
from gptrank.keyfiles import (
    _CIPHERTEXT,
    _PRIVATE,
    _PUBLIC,
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
from gptrank.linalg import FixedMatrix, identity_matrix, mat_inv, mat_mul, vec_mat_mul

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
        block_len=params.pub_cols,
        msg_len=17,
        blocks=[[ctx.rand_elem(rng) for _ in range(params.pub_cols)] for _ in range(2)],
    )


@pytest.mark.parametrize("name", ["q", "N", "block_len", "msg_len"])
def test_ciphertext_counts_must_be_plain_ints(name):
    # a bool msg_len would make a ciphertext file that does not load
    kwargs = dict(q=2, N=12, block_len=12, msg_len=5, blocks=[])
    CiphertextBundle(**kwargs)
    for bad in (float(kwargs[name]), bool(kwargs[name])):
        with pytest.raises(ParameterError, match=f"^{name} must be an int"):
            CiphertextBundle(**{**kwargs, name: bad})


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
    assert (got.q, got.N, got.block_len) == (ct.q, ct.N, ct.block_len)
    assert got.field() is ct.field()


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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", ["public", "private", "ciphertext"])
def test_out_of_range_element_rejected(tmp_path, keypair, kind, fmt):
    # 0xffff >= 2^12 still fits bin's 2-byte word at N = 12, and hex and json
    # read its 4 digits where 3 are written
    pub, priv = keypair
    ct = make_ct(pub.params, random.Random(97))
    bad_priv = copy.copy(priv)
    bad_priv.S = [[0xFFFF] + list(priv.S[0][1:])] + priv.S[1:]
    obj = {
        "public": replace(pub, matrix=[[0xFFFF] + list(pub.matrix[0][1:])] + pub.matrix[1:]),
        "private": bad_priv,
        "ciphertext": replace(ct, blocks=[ct.blocks[0], [0xFFFF] + ct.blocks[1][1:]]),
    }[kind]
    rec, load, _ = RECORDS[kind]
    path = tmp_path / f"hot.{fmt}"
    path.write_bytes(per_element_codec.encode(rec, obj, fmt))
    with pytest.raises(FormatError, match="holds a value outside F_2\\^12$"):
        load(path)


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


# -- the stored modulus: (q, N) names the field, and the file must spell its default ---------

RECORDS = {
    "public": (_PUBLIC, load_public_key, save_public_key),
    "private": (_PRIVATE, load_private_key, save_private_key),
    "ciphertext": (_CIPHERTEXT, load_ciphertext, save_ciphertext),
}


def rewritten(tmp_path, name, header):
    """Golden file ``name`` rewritten under a valid checksum with header(its field) replaced."""
    kind, fmt = name.split(".")[1:]
    rec, load, _ = RECORDS[kind]
    obj = load(GOLDEN / name)
    path = tmp_path / name
    path.write_bytes(per_element_codec.encode(rec, obj, fmt, **header(rec.split(obj)[0].field())))
    return path


# spellings of the default modulus, with the fixtures they apply to
RESPELLINGS = {
    "coefficients-above-q": (("desk12", "q3"), lambda ctx: [c + ctx.q for c in ctx.modulus]),
    "coefficients-2q-above": (("desk12", "q3"), lambda ctx: [c + 2 * ctx.q for c in ctx.modulus]),
    "scaled-by-2-not-monic": (("q3",), lambda ctx: [2 * c for c in ctx.modulus]),
}


def check_respelled(tmp_path, spelling, kind, fmt):
    """A record storing a respelled default modulus loads and saves back to the golden bytes."""
    fixtures, spell = RESPELLINGS[spelling]
    _, load, save = RECORDS[kind]
    for fixture in fixtures:
        golden = GOLDEN / f"{fixture}.{kind}.{fmt}"
        path = rewritten(tmp_path, golden.name, lambda ctx: {"modulus": spell(ctx)})
        assert path.read_bytes() != golden.read_bytes()
        got = load(path)
        assert got == load(golden)
        save(tmp_path / "resaved", got, fmt)
        assert (tmp_path / "resaved").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("spelling", RESPELLINGS)
def test_respelled_modulus_names_the_canonical_field(tmp_path, spelling):
    for kind in ("public", "private"):
        for fmt in FORMATS:
            check_respelled(tmp_path, spelling, kind, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("spelling", RESPELLINGS)
def test_respelled_modulus_saves_the_canonical_ciphertext(tmp_path, spelling, fmt):
    check_respelled(tmp_path, spelling, "ciphertext", fmt)


@pytest.mark.parametrize("fmt", ["hex", "json"])  # bin has no sign to flip
@pytest.mark.parametrize("kind", RECORDS)
def test_negative_modulus_coefficients_are_a_format_error(tmp_path, kind, fmt):
    path = rewritten(
        tmp_path, f"desk12.{kind}.{fmt}", lambda ctx: {"modulus": [c - ctx.q for c in ctx.modulus]}
    )
    with pytest.raises(FormatError, match="header field 'modulus' has an invalid value"):
        RECORDS[kind][1](path)


# polynomials of the field's degree other than its default modulus, constant term first
OTHER_MODULI = {
    "desk12": (2, {"irreducible": (1,) + (0,) * 8 + (1, 0, 0, 1),  # x^12 + x^9 + 1
                   "reducible": (1,) + (0,) * 11 + (1,)}),  # x^12 + 1 = (x^3 + 1)^4
    "q3": (3, {"irreducible": (2, 2, 0, 0, 0, 0, 1),  # x^6 + 2x + 2
               "reducible": (1, 0, 0, 0, 0, 0, 1)}),  # x^6 + 1 = (x^2 + 1)^3
}  # fmt: skip


@pytest.mark.parametrize("which", ["irreducible", "reducible"])
@pytest.mark.parametrize("fixture", OTHER_MODULI)
@pytest.mark.parametrize("kind", RECORDS)
def test_non_default_modulus_is_a_format_error(tmp_path, kind, fixture, which):
    q, moduli = OTHER_MODULI[fixture]
    assert is_irreducible(q, moduli[which]) == (which == "irreducible")
    for fmt in FORMATS:
        name = f"{fixture}.{kind}.{fmt}"
        path = rewritten(tmp_path, name, lambda ctx: {"modulus": moduli[which]})
        with pytest.raises(FormatError, match="stored modulus is not the default"):
            RECORDS[kind][1](path)
    if kind == "public":
        assert main(["attack", "--pub", str(path)]) == 4


@pytest.mark.parametrize("header", [{"q": 0}, {"q": 4}, {"N": 1}], ids=["q=0", "q=4", "N=1"])
@pytest.mark.parametrize("kind", RECORDS)
def test_header_that_names_no_field_is_a_format_error(tmp_path, kind, header):
    # q and N are checked before the stored modulus is reduced mod q
    for fmt in FORMATS:
        path = rewritten(tmp_path, f"desk12.{kind}.{fmt}", lambda ctx: header)
        with pytest.raises(FormatError, match="file carries invalid parameters"):
            RECORDS[kind][1](path)


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
    assert priv._unscramble is None  # W waits for the first decrypt
    code = priv.code
    info_inv, _ = code._decoding_tables()
    fixed = (pub.matrix, priv.P_inv, priv.unscramble, code.G, code._htab, info_inv)
    assert all(isinstance(M, FixedMatrix) and M.times is None for M in fixed)
    for fmt in FORMATS:
        save_public_key(tmp_path / "pub", pub, fmt)
        loaded = load_public_key(tmp_path / "pub")
        attack_public_key(loaded)
        assert isinstance(loaded.matrix, FixedMatrix) and loaded.matrix.times is None


TWIN_CASES = {
    "desk12": (lambda: preset("desk-12"), 95),
    "paper28": (lambda: preset("paper-28"), 96),
    "q3": (lambda: GptParams(q=3, N=6, n=6, k=2, t1=1, s_ext=1), 97),
    "v5": (lambda: GptParams(q=2, N=12, n=12, k=6, t1=1, t2=2, s_ext=1, variant=5, p=1), 98),
}


def decrypt_outcome(sk, c):
    try:
        return decrypt(sk, c)
    except DecodeFailure as exc:
        return exc.stage


@pytest.mark.parametrize("name", TWIN_CASES)
def test_a_keygen_key_and_its_loaded_twin_decrypt_alike(tmp_path, name):
    # keygen leaves the decoding tables and W to the first decrypt; the loader builds them
    make_params, seed = TWIN_CASES[name]
    params = make_params()
    rng = random.Random(seed)
    pub, priv = keygen(params, rng)
    save_private_key(tmp_path / "priv", priv)
    twin = load_private_key(tmp_path / "priv")
    assert priv.code._info_inv is priv.code._span_error is priv._unscramble is None
    assert twin.code._info_inv is not None and twin.code._span_error is not None
    assert isinstance(twin._unscramble, FixedMatrix)
    assert priv == twin  # == reads the file's contents, built or not
    ctx, rows, cols = params.field(), params.pub_rows, params.pub_cols
    m = [ctx.rand_elem(rng) for _ in range(rows)]
    # the fresh key's first decode sees no syndrome; then honest ciphertexts and random words
    cts = [vec_mat_mul(ctx, m, pub.matrix)]
    cts += [encrypt(pub, [ctx.rand_elem(rng) for _ in range(rows)], rng) for _ in range(4)]
    cts += [[ctx.rand_elem(rng) for _ in range(cols)] for _ in range(4)]
    outcomes = [decrypt_outcome(priv, c) for c in cts]
    assert outcomes[0] == m and all(isinstance(out, list) for out in outcomes[:5])
    assert outcomes == [decrypt_outcome(twin, c) for c in cts]
    assert priv.code._info_inv == twin.code._info_inv
    W = priv._unscramble
    assert W == twin._unscramble and priv == twin
    if rows == params.k:
        assert W == mat_inv(ctx, priv.S)
    else:
        assert mat_mul(ctx, priv.S, W) == identity_matrix(params.k)[:rows]


# -- the bulk element codec ------------------------------------------------

# element widths 1 to 8 bytes, with both parities of element_hex_width
CODEC_FIELDS = [(2, 5), (3, 6), (2, 12), (2, 20), (2, 28), (2, 33), (2, 41), (2, 52), (3, 40), (2, 64)]


@pytest.fixture(scope="module", params=CODEC_FIELDS, ids=lambda f: f"GF({f[0]}^{f[1]})")
def codec_case(request):
    """A key pair over the field, its public matrix holding 0 and q^N - 1, and ciphertexts."""
    q, N = request.param
    params = GptParams(q=q, N=N, n=min(N, 6), k=2, t1=1)
    pub, priv = keygen(params, random.Random(N))
    ctx, top, cols = params.field(), params.field().size - 1, params.pub_cols
    matrix = [list(row) for row in pub.matrix]
    matrix[0][:2], matrix[-1][-1] = [0, top], top
    ct = make_ct(params, random.Random(N))
    cts = [replace(ct, blocks=blocks) for blocks in ([], [[top] * cols], ct.blocks + [[0] * cols])]
    return ctx, replace(pub, matrix=matrix), priv, cts


@pytest.mark.parametrize("fmt", FORMATS)
def test_bulk_codec_writes_the_per_element_bytes(tmp_path, codec_case, fmt):
    # every record kind, including one-row vectors (g, a one-block ciphertext)
    # and a ciphertext with no blocks, is byte-identical to the per-element
    # writers and loads back equal
    ctx, pub, priv, cts = codec_case
    path = tmp_path / f"file.{fmt}"
    cases = [(_PUBLIC, pub, save_public_key, load_public_key),
             (_PRIVATE, priv, save_private_key, load_private_key)]  # fmt: skip
    cases += [(_CIPHERTEXT, ct, save_ciphertext, load_ciphertext) for ct in cts]
    for rec, obj, save, load in cases:
        save(path, obj, fmt)
        assert path.read_bytes() == per_element_codec.encode(rec, obj, fmt), rec.name
        assert load(path) == obj, rec.name
    if fmt == "hex":  # the last file: a fixed-width token per element, read back by int(tok, 16)
        lines = path.read_text().splitlines()
        tokens = [tok for ln in lines if ln.startswith("block: ") for tok in ln[7:].split()]
        assert {len(tok) for tok in tokens} == {ctx.element_hex_width}
        assert [int(tok, 16) for tok in tokens] == [v for block in cts[-1].blocks for v in block]


@pytest.mark.parametrize("fmt", FORMATS)
def test_bulk_codec_refuses_elements_outside_the_field(tmp_path, codec_case, fmt):
    # q^N needs the ninth byte of a lane at 8-byte widths and fits a
    # narrower element's bytes elsewhere; neither may be truncated
    ctx, _, _, cts = codec_case
    path = tmp_path / f"ct.{fmt}"
    path.write_bytes(b"untouched")
    for bad in (-1, ctx.size, 1.0):
        ct = replace(cts[1], blocks=[[bad] + cts[1].blocks[0][1:]])
        with pytest.raises(ParameterError, match="outside F_"):
            save_ciphertext(path, ct, fmt)
        assert path.read_bytes() == b"untouched"


class IndexOnly:
    """Not an int, but usable as one through __index__, as a numpy integer is."""

    def __index__(self):
        return 5


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "bad", [-1, 1 << 12, 1.0, IndexOnly()], ids=["minus-1", "q^N", "float", "index-only"]
)
def test_writers_refuse_elements_outside_the_field(tmp_path, keypair, fmt, bad):
    pub, priv = keypair
    ct = make_ct(pub.params, random.Random(96))
    bad_priv = copy.copy(priv)
    bad_priv.S = [[bad] + list(row[1:]) for row in priv.S]
    cases = [(save_public_key, replace(pub, matrix=[[bad] + list(pub.matrix[0][1:])])),
             (save_private_key, bad_priv),
             (save_ciphertext, replace(ct, blocks=[[bad] + ct.blocks[0][1:]]))]  # fmt: skip
    path = tmp_path / f"out.{fmt}"
    path.write_bytes(b"untouched")
    for save, obj in cases:
        with pytest.raises(ParameterError, match="holds a value outside F_2\\^12"):
            save(path, obj, fmt)
        assert path.read_bytes() == b"untouched"
