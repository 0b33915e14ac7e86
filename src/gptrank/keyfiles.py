"""Key and ciphertext files in three interchangeable encodings.

* ``bin``: canonical binary.  Magic ``GPTRANK1``, a kind byte, a fixed
  parameter header, big-endian fixed-width field elements, and a raw
  sha256 trailer over everything before it.
* ``hex``: line-oriented text.  ``key: value`` pairs with field elements
  as fixed-width hex, closed by a ``checksum:`` line over the body.
* ``json``: one object whose ``checksum`` member is the sha256 of the
  canonical dump of the remaining members.

The three record kinds (public key, private key, ciphertext) are declared
once each as a `_Record`: the header scalars in their written order with
their bin struct codes, and the vectors and matrices that follow.  One
writer and one reader per encoding serve every kind.

No element takes a Python call of its own.  Bin packs a record's elements
into big-endian 64-bit lanes and keeps the low bytes of each lane by
strided slices (`fields._pack_bytes`); it reads each matrix back in one
`fields._unpack_bytes` call.  Hex and json write the last
``element_hex_width`` digits of each lane's 16, and read a row by mapping
``int(token, 16)`` over its tokens.

Savers check every element once, with `FieldCtx.check_elements`, before the
file is opened: a value that is no element of F_{q^N} raises ParameterError
and leaves the target file as it was.  Loaders sniff the encoding, verify the
checksum, type-check the header, check each member's elements, and
revalidate the algebra (parameters, what `GptPrivateKey` checks as it
derives a private key's code and S map, and P P^{-1} = I) before handing
back live objects.  (q, N) names the field: savers write its
`fields.default_modulus`, and a loader, once q and N pass, accepts a stored
modulus only if reducing it mod q and making it monic gives that default.
Any mismatch raises FormatError.  A loaded private key is ready to
decrypt: the loader builds the code's decoding tables and S's map W, which
a key fresh from `keygen` builds on its first decrypt.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable

from .errors import FormatError, ParameterError
from .fields import _check_counts, _check_field, _monic, _pack_bytes, _unpack_bytes, get_field
from .gpt import GptParams, GptPrivateKey, GptPublicKey
from .linalg import identity_matrix, mat_mul

__all__ = [
    "MAGIC",
    "CiphertextBundle",
    "save_public_key",
    "save_private_key",
    "save_ciphertext",
    "load_public_key",
    "load_private_key",
    "load_ciphertext",
    "sniff_format",
]

MAGIC = b"GPTRANK1"


@dataclass
class CiphertextBundle:
    """One encrypted message: the field's (q, N) plus the padded blocks.

    (q, N) is checked first, then that ``block_len`` and ``msg_len`` are ints
    and ``block_len`` is positive.
    """

    q: int
    N: int
    block_len: int
    msg_len: int
    blocks: list[list[int]]

    def __post_init__(self):
        _check_field(self.q, self.N)
        _check_counts(block_len=self.block_len, msg_len=self.msg_len)
        if not self.block_len:
            raise ParameterError("ciphertext blocks must not be empty")

    def field(self):
        return get_field(self.q, self.N)


# -- the schema ------------------------------------------------


@dataclass(frozen=True)
class _Member:
    """A matrix stored after the header, as a list of rows.

    Hex writes each row as a ``row:`` line, after an empty ``name:`` section
    line when ``section`` is set.  A vector (``row`` is None) is a one-row
    matrix that hex writes as a ``name:`` line and json as a plain string.
    """

    name: str
    row: str | None = None
    section: bool = False


@dataclass(frozen=True)
class _Record:
    """One record kind.

    ``header`` lists (name, bin struct code) in written order.  ``modulus``
    is a length-prefixed list that ``values`` leaves out: savers write the
    context's ``field().modulus``.  A member name stands for that matrix's
    row count, which only bin stores.  The context is the object that
    carries the field: GptParams, or a CiphertextBundle without blocks.
    """

    kind: int
    name: str
    header: tuple[tuple[str, str], ...]
    nested: bool  # json puts the header under "params"
    members: tuple[_Member, ...]
    values: Callable  # context -> header values but the modulus
    context: Callable  # checked header values -> context
    dims: Callable  # context -> {member: (rows or None for any, cols)}
    split: Callable  # object -> (context, {member: rows})
    build: Callable  # (context, {member: rows}) -> object

    @cached_property
    def scalars(self) -> tuple[str, ...]:
        """Header names every encoding writes, in order."""
        counts = {m.name for m in self.members}
        return tuple(name for name, _ in self.header if name not in counts)


_KEY_HEADER = (
    ("q", "I"), ("N", "H"), ("n", "H"), ("k", "H"), ("t1", "H"), ("variant", "B"),
    ("t2", "H"), ("p", "H"), ("m_cols", "H"), ("mode", "B"), ("s_ext", "H"),
    ("x_rank", "H"), ("modulus", "I"),
)  # fmt: skip

# header names whose GptParams attribute is spelled differently
_PARAM_ATTRS = {"mode": "scrambler_mode", "x_rank": "x_ordinary_rank"}

# bin stores these as small integers: (to bin, from bin)
_BIN_FORMS = {
    "mode": (lambda v: int(v == "extension_field"),
             lambda b: "extension_field" if b else "base_field"),
    "x_rank": (lambda v: 0 if v is None else v + 1, lambda b: b - 1 if b else None),
}  # fmt: skip


def _params_values(params: GptParams) -> dict:
    names = (name for name, _ in _KEY_HEADER if name != "modulus")
    values = {name: getattr(params, _PARAM_ATTRS.get(name, name)) for name in names}
    values["variant"] = int(params.variant)
    values["mode"] = params.scrambler_mode.value
    return values


def _params_context(values: dict) -> GptParams:
    return GptParams(**{_PARAM_ATTRS.get(name, name): value for name, value in values.items()})


def _private_build(params: GptParams, m: dict) -> GptPrivateKey:
    try:
        priv = GptPrivateKey(params, m["g"][0], m["S"], m["P"], m["P_inv"])
        priv.unscramble  # builds W, which checks S's full row rank
    except ParameterError as exc:
        raise FormatError(f"invalid code vector: {exc}") from None
    except ValueError as exc:  # S does not have full row rank
        raise FormatError(str(exc)) from None
    # decryption reuses the kernel the check builds on P_inv
    if mat_mul(params.field(), priv.P, priv.P_inv) != identity_matrix(params.pub_cols):
        raise FormatError("column scrambler pair is not mutually inverse")
    priv.code._decoding_tables()  # with W, a loaded key is ready to decrypt
    return priv


def _ciphertext_split(ct: CiphertextBundle):
    if any(len(b) != ct.block_len for b in ct.blocks):
        raise ParameterError("ciphertext blocks disagree with block_len")
    return ct, {"blocks": ct.blocks}


_PUBLIC = _Record(
    kind=1, name="public", header=_KEY_HEADER, nested=True,
    members=(_Member("matrix", row="row"),),
    values=_params_values,
    context=_params_context,
    dims=lambda p: {"matrix": (p.pub_rows, p.pub_cols)},
    split=lambda pub: (pub.params, {"matrix": pub.matrix}),
    build=lambda params, m: GptPublicKey(params=params, matrix=m["matrix"]),
)

_PRIVATE = _Record(
    kind=2, name="private", header=_KEY_HEADER, nested=True,
    members=(
        _Member("g"),
        _Member("S", row="row", section=True),
        _Member("P", row="row", section=True),
        _Member("P_inv", row="row", section=True),
    ),
    values=_params_values,
    context=_params_context,
    dims=lambda p: {
        "g": (1, p.n), "S": (p.pub_rows, p.k), "P": (p.pub_cols,) * 2, "P_inv": (p.pub_cols,) * 2
    },
    split=lambda sk: (sk.params, {"g": [sk.g], "S": sk.S, "P": sk.P, "P_inv": sk.P_inv}),
    build=_private_build,
)

_CIPHERTEXT = _Record(
    kind=3, name="ciphertext", nested=False,
    header=(("q", "I"), ("N", "H"), ("modulus", "I"),
            ("block_len", "I"), ("blocks", "I"), ("msg_len", "Q")),
    members=(_Member("blocks", row="block"),),
    values=lambda ct: {"q": ct.q, "N": ct.N, "block_len": ct.block_len, "msg_len": ct.msg_len},
    context=lambda values: CiphertextBundle(**values, blocks=[]),
    dims=lambda ct: {"blocks": (None, ct.block_len)},
    split=_ciphertext_split,
    build=lambda ct, m: replace(ct, blocks=m["blocks"]),
)

_KIND_NAMES = {r.kind: r.name for r in (_PUBLIC, _PRIVATE, _CIPHERTEXT)}
_SIZES = {code: struct.calcsize(code) for code in "BHIQ"}


def _fits(value, code: str, spare: int = 0) -> bool:
    """A plain non-negative int that, plus ``spare``, fits its bin field."""
    return type(value) is int and 0 <= value and value + spare < 1 << 8 * _SIZES[code]


def _check_header(rec: _Record, raw: dict) -> dict:
    """Type-check untrusted header values; the one gate for every encoding."""
    codes = dict(rec.header)
    values = {}
    for name in rec.scalars:
        if name not in raw:
            raise FormatError(f"missing header field {name!r}")
        value, code = raw[name], codes[name]
        if name == "modulus":
            ok = isinstance(value, list) and len(value) < 1 << 16
            ok = ok and all(_fits(c, code) for c in value)
        elif name == "mode":
            ok = isinstance(value, str)
        elif name == "x_rank":
            ok = value is None or _fits(value, code, spare=1)
        else:
            ok = _fits(value, code)
        if not ok:
            raise FormatError(f"header field {name!r} has an invalid value {value!r:.40}")
        values[name] = tuple(value) if name == "modulus" else value
    return values


# -- shared helpers ------------------------------------------------


def _elem_width(ctx) -> int:
    return ((ctx.size - 1).bit_length() + 7) // 8


def _hex_lines(rec: _Record, ctx, members: dict, flat) -> dict:
    """Each member's rows as lines of space-separated fixed-width hex elements.

    flat is every member's elements in order.  Their 8-byte big-endian lanes
    give 16 hex digits each, of which the last element_hex_width are kept.
    """
    w = ctx.element_hex_width
    digits = _pack_bytes(flat, 8).hex().encode()
    cells = bytearray(b" ") * ((w + 1) * len(flat))
    for j in range(w):  # each element's w digits, then a space
        cells[j :: w + 1] = digits[16 - w + j :: 16]
    text, pos, out = cells.decode(), 0, {}
    for m in rec.members:
        out[m.name] = lines = []
        for row in members[m.name]:
            end = pos + (w + 1) * len(row)
            lines.append(text[pos : end - 1])
            pos = end
    return out


def _parse_row(ctx, text, cols: int, what: str) -> list[int]:
    if not isinstance(text, str):
        raise FormatError(f"expected a line of hex elements, found {type(text).__name__}")
    try:
        row = list(map(int, text.split(), repeat(16)))
    except ValueError as exc:
        raise FormatError(f"bad element: {exc}") from None
    ctx.check_elements(row, what)
    if len(row) != cols:
        raise FormatError(f"expected {cols} elements per row, found {len(row)}")
    return row


def _parse_texts(rec: _Record, texts: dict, ctx, dims: dict) -> dict:
    """Members stored as lists of hex rows (hex and json), checked for shape and type."""
    out = {}
    for m in rec.members:
        rows, cols = dims[m.name]
        text = texts.get(m.name)
        if not isinstance(text, list) or rows is not None and len(text) != rows:
            raise FormatError(f"{m.name} should have {rows or 'a list of'} rows of {cols} elements")
        out[m.name] = [_parse_row(ctx, line, cols, m.name) for line in text]
    return out


def sniff_format(data: bytes) -> str:
    if data.startswith(MAGIC):
        return "bin"
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("not a recognized key file (bad magic, not text)") from None
    if text.lstrip().startswith("{"):
        return "json"
    return "hex"


def _expect_kind(rec: _Record, found) -> None:
    if found != rec.name:
        raise FormatError(f"expected a {rec.name} file, found {found}")


# -- bin ------------------------------------------------


def _bin_write(rec: _Record, values: dict, ctx, members: dict, flat) -> bytes:
    parts = [MAGIC, bytes([rec.kind])]
    for name, code in rec.header:
        value = values[name] if name in values else len(members[name])
        if name == "modulus":
            parts.append(struct.pack(f">H{len(value)}{code}", len(value), *value))
        else:
            to_bin = _BIN_FORMS[name][0] if name in _BIN_FORMS else int
            parts.append(struct.pack(">" + code, to_bin(value)))
    parts.append(_pack_bytes(flat, _elem_width(ctx)))
    payload = b"".join(parts)
    return payload + hashlib.sha256(payload).digest()


def _bin_read(rec: _Record, data: bytes):
    if len(data) < len(MAGIC) + 1 + 32:
        raise FormatError("file too short")
    payload = data[:-32]
    if hashlib.sha256(payload).digest() != data[-32:]:
        raise FormatError("checksum mismatch")
    kind = payload[len(MAGIC)]
    _expect_kind(rec, _KIND_NAMES.get(kind, f"kind {kind}"))
    raw, off = {}, len(MAGIC) + 1
    try:
        for name, code in rec.header:
            if name == "modulus":
                (count,) = struct.unpack_from(">H", payload, off)
                raw[name] = list(struct.unpack_from(f">{count}{code}", payload, off + 2))
                off += 2 + count * _SIZES[code]
            else:
                (value,) = struct.unpack_from(">" + code, payload, off)
                raw[name] = _BIN_FORMS[name][1](value) if name in _BIN_FORMS else value
                off += _SIZES[code]
    except struct.error as exc:
        raise FormatError(f"truncated header: {exc}") from None

    def members(ctx, dims):
        w = _elem_width(ctx)
        pos, out = off, {}
        for m in rec.members:
            rows, cols = dims[m.name]
            count = cols * raw.get(m.name, rows)
            end = pos + w * count
            if end > len(payload):
                raise FormatError("truncated element data")
            flat = _unpack_bytes(payload[pos:end], w)
            ctx.check_elements(flat, m.name)
            out[m.name] = [flat[i : i + cols] for i in range(0, count, cols)]
            pos = end
        if pos != len(payload):
            raise FormatError(f"trailing bytes after the {rec.name} data")
        return out

    return raw, members


# -- hex ------------------------------------------------


def _hex_value(text: str):
    """An int where the text is one, None for ``-``, else the text itself."""
    if text == "-":
        return None
    try:
        return int(text)
    except ValueError:
        return text


def _hex_write(rec: _Record, values: dict, ctx, members: dict, flat) -> bytes:
    lines = ["gptrank: 1", f"kind: {rec.name}"]
    for name in rec.scalars:
        value = values[name]
        text = " ".join(map(str, value)) if name == "modulus" else str(value)
        lines.append(f"{name}: {'-' if value is None else text}")
    texts = _hex_lines(rec, ctx, members, flat)
    for m in rec.members:
        if m.section:
            lines.append(f"{m.name}: ")
        lines += [f"{m.row or m.name}: {text}" for text in texts[m.name]]
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return (body + f"checksum: {digest}\n").encode("utf-8")


def _hex_read(rec: _Record, data: bytes):
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln.strip()]
    if not lines or not lines[-1].startswith("checksum:"):
        raise FormatError("missing checksum line")
    claimed = lines[-1].split(":", 1)[1].strip()
    body = "\n".join(lines[:-1]) + "\n"
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != claimed:
        raise FormatError("checksum mismatch")
    pairs = []
    for ln in lines[:-1]:
        if ":" not in ln:
            raise FormatError(f"malformed line {ln!r}")
        key, value = ln.split(":", 1)
        pairs.append((key.strip(), value.strip()))
    if pairs[:1] != [("gptrank", "1")]:
        raise FormatError("not a recognized text key file")
    _expect_kind(rec, dict(pairs[1:2]).get("kind"))
    # rows keyed by a member without a section line, and section headings
    loose = {m.row or m.name: m.name for m in rec.members if not m.section}
    sections = {m.name: m for m in rec.members if m.section}
    raw, texts, current, in_header = {}, {name: [] for name in loose.values()}, None, True
    for key, value in pairs[2:]:
        in_header = in_header and key in rec.scalars and key not in raw
        if in_header and key == "modulus":
            raw[key] = [_hex_value(tok) for tok in value.split()]
        elif in_header:
            raw[key] = _hex_value(value)
        elif key in loose:
            texts[loose[key]].append(value)
        elif key in sections and not value and key not in texts:
            current, texts[key] = sections[key], []
        elif current is not None and key == current.row:
            texts[current.name].append(value)
        else:
            raise FormatError(f"unexpected line {key!r} in a {rec.name} file")
    return raw, lambda ctx, dims: _parse_texts(rec, texts, ctx, dims)


# -- json ------------------------------------------------


def _json_write(rec: _Record, values: dict, ctx, members: dict, flat) -> bytes:
    doc = {"gptrank": 1, "kind": rec.name}
    doc.update({"params": values} if rec.nested else values)
    texts = _hex_lines(rec, ctx, members, flat)
    for m in rec.members:
        doc[m.name] = texts[m.name] if m.row else texts[m.name][0]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _json_read(rec: _Record, data: bytes):
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad syntax, deep nesting, a huge int
        raise FormatError(f"bad json: {exc}") from None
    if not isinstance(doc, dict) or doc.get("gptrank") != 1:
        raise FormatError("not a recognized json key file")
    claimed = doc.pop("checksum", None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if claimed != hashlib.sha256(canonical.encode("utf-8")).hexdigest():
        raise FormatError("checksum mismatch")
    _expect_kind(rec, doc.get("kind"))
    head = doc.get("params") if rec.nested else doc
    if not isinstance(head, dict):
        raise FormatError("params must be a json object")
    raw = {name: head[name] for name in rec.scalars if name in head}
    texts = {m.name: doc.get(m.name) if m.row else [doc.get(m.name)] for m in rec.members}
    return raw, lambda ctx, dims: _parse_texts(rec, texts, ctx, dims)


# -- one save and one load path for every kind ------------------------------------------------

_WRITERS = {"bin": _bin_write, "hex": _hex_write, "json": _json_write}
_READERS = {"bin": _bin_read, "hex": _hex_read, "json": _json_read}


def _save(path, rec: _Record, obj, fmt: str) -> None:
    name = str(fmt).strip().lower()
    write = _WRITERS.get(name)
    if write is None:
        raise ParameterError(f"unknown file format {fmt!r} (choose bin, hex, or json)")
    context, members = rec.split(obj)
    ctx = context.field()
    flat = [v for m in rec.members for row in members[m.name] for v in row]
    ctx.check_elements(flat, f"{rec.name} data")  # the codec would truncate any other value
    values = dict(rec.values(context), modulus=ctx.modulus)
    Path(path).write_bytes(write(rec, values, ctx, members, flat))


def _load(path, rec: _Record):
    data = Path(path).read_bytes()
    raw, read_members = _READERS[sniff_format(data)](rec, data)
    values = _check_header(rec, raw)
    modulus = values.pop("modulus")
    try:
        context = rec.context(values)
        ctx = context.field()
    except (ParameterError, ValueError) as exc:
        raise FormatError(f"file carries invalid parameters: {exc}") from None
    if tuple(_monic(modulus, ctx.q)) != ctx.modulus:  # q is known prime here
        raise FormatError(f"stored modulus is not the default {ctx.modulus} of F_{ctx.q}^{ctx.N}")
    try:  # the readers refuse an element outside the field with a ParameterError
        return rec.build(context, read_members(ctx, rec.dims(context)))
    except ParameterError as exc:
        raise FormatError(str(exc)) from None


def save_public_key(path, pub: GptPublicKey, fmt: str = "bin") -> None:
    _save(path, _PUBLIC, pub, fmt)


def load_public_key(path) -> GptPublicKey:
    return _load(path, _PUBLIC)


def save_private_key(path, sk: GptPrivateKey, fmt: str = "bin") -> None:
    _save(path, _PRIVATE, sk, fmt)


def load_private_key(path) -> GptPrivateKey:
    return _load(path, _PRIVATE)


def save_ciphertext(path, ct: CiphertextBundle, fmt: str = "bin") -> None:
    _save(path, _CIPHERTEXT, ct, fmt)


def load_ciphertext(path) -> CiphertextBundle:
    return _load(path, _CIPHERTEXT)
