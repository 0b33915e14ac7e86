"""The element codecs written one Python call per element, the tests' reference.

Key and ciphertext files and the CLI message chunkers pack their elements in
bulk (`gptrank.fields._pack_bytes` and `_unpack_bytes`).  These are the
per-element writers and chunkers that the bulk codec replaced; the tests
require byte-identical output from both.
"""

import hashlib
import json
import struct

from gptrank.cli import bytes_per_element
from gptrank.keyfiles import _BIN_FORMS, MAGIC


def _hex_row(ctx, row) -> str:
    return " ".join(format(v, f"0{ctx.element_hex_width}x") for v in row)


def _bin_file(rec, values, ctx, members) -> bytes:
    parts = [MAGIC, bytes([rec.kind])]
    for name, code in rec.header:
        value = values[name] if name in values else len(members[name])
        if name == "modulus":
            parts.append(struct.pack(f">H{len(value)}{code}", len(value), *value))
        else:
            to_bin = _BIN_FORMS[name][0] if name in _BIN_FORMS else int
            parts.append(struct.pack(">" + code, to_bin(value)))
    w = ((ctx.size - 1).bit_length() + 7) // 8
    for m in rec.members:
        parts += [int(v).to_bytes(w, "big") for row in members[m.name] for v in row]
    payload = b"".join(parts)
    return payload + hashlib.sha256(payload).digest()


def _hex_file(rec, values, ctx, members) -> bytes:
    lines = ["gptrank: 1", f"kind: {rec.name}"]
    for name in rec.scalars:
        value = values[name]
        text = " ".join(map(str, value)) if name == "modulus" else str(value)
        lines.append(f"{name}: {'-' if value is None else text}")
    for m in rec.members:
        if m.section:
            lines.append(f"{m.name}: ")
        lines += [f"{m.row or m.name}: {_hex_row(ctx, row)}" for row in members[m.name]]
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return (body + f"checksum: {digest}\n").encode("utf-8")


def _json_file(rec, values, ctx, members) -> bytes:
    doc = {"gptrank": 1, "kind": rec.name}
    doc.update({"params": values} if rec.nested else values)
    for m in rec.members:
        rows = [_hex_row(ctx, row) for row in members[m.name]]
        doc[m.name] = rows if m.row else rows[0]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


_FILES = {"bin": _bin_file, "hex": _hex_file, "json": _json_file}


def encode(rec, obj, fmt: str, **header) -> bytes:
    """The file that saving obj (of record kind rec) in fmt writes.

    Header values given by keyword replace the saved ones, the modulus
    included, under a checksum that still holds.
    """
    context, members = rec.split(obj)
    ctx = context.field()
    values = dict(rec.values(context), modulus=ctx.modulus) | header
    return _FILES[fmt](rec, values, ctx, members)


def message_to_blocks(params, data: bytes) -> list[list[int]]:
    bpe = bytes_per_element(params)
    per_block = bpe * params.pub_rows
    blocks = []
    for start in range(0, len(data), per_block):
        chunk = data[start : start + per_block].ljust(per_block, b"\x00")
        blocks.append(
            [int.from_bytes(chunk[i * bpe : (i + 1) * bpe], "big") for i in range(params.pub_rows)]
        )
    return blocks


def blocks_to_message(params, blocks, msg_len: int) -> bytes:
    bpe = bytes_per_element(params)
    out = b"".join(int(v).to_bytes(bpe, "big") for block in blocks for v in block)
    return out[:msg_len]
