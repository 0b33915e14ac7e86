"""Fuzzed key and ciphertext files end in a documented error, never another one.

Each case is a golden file with a few byte edits, re-checksummed so that the
edit reaches the parser and the algebra checks behind the checksum.  A
private key that still loads must then decrypt a random vector.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gptrank.errors import DecodeFailure, FormatError, ParameterError
from gptrank.gpt import decrypt
from gptrank.keyfiles import load_ciphertext, load_private_key, load_public_key

GOLDEN = Path(__file__).parent / "golden"
LOADERS = {"public": load_public_key, "private": load_private_key, "ciphertext": load_ciphertext}
FILES = [f"{key}.{kind}.{fmt}" for key in ("desk12", "q3", "v5") for kind in LOADERS
         for fmt in ("bin", "hex", "json")]  # fmt: skip
DOCUMENTED = (FormatError, ParameterError, DecodeFailure)

# json.loads itself fails on these, with errors other than JSONDecodeError
DEEP_JSON = ('{"a": ' + "[" * 200_000 + "]" * 200_000 + "}").encode()
HUGE_INT_JSON = ('{"gptrank": 1, "q": ' + "7" * 5000 + "}").encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _unseal(fmt: str, data: bytes) -> bytes:
    """The part of a file that its checksum covers, in a form worth mutating."""
    if fmt == "bin":
        return data[:-32]
    if fmt == "hex":
        return data[: data.rindex(b"checksum:")]
    doc = json.loads(data)
    del doc["checksum"]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _seal(fmt: str, body: bytes) -> bytes:
    """body with the checksum its loader expects; a body no loader parses stays as is."""
    if fmt == "bin":
        return body + hashlib.sha256(body).digest()
    if fmt == "hex":
        try:
            lines = [ln for ln in body.decode("utf-8").splitlines() if ln.strip()]
        except UnicodeDecodeError:
            return body
        text = "\n".join(lines) + "\n"
        return f"{text}checksum: {_sha(text.encode())}\n".encode()
    try:
        doc = json.loads(body)
    except (ValueError, RecursionError):
        return body
    if isinstance(doc, dict):
        doc["checksum"] = _sha(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    return json.dumps(doc).encode()


# what the text encodings splice in: bytes that keep a file text and often parsable
TOKENS = [b"0", b"1", b"2", b"9", b"f", b"-", b" ", b"\n", b":", b",", b"[", b"]", b'"',
          b"{}", b"null", b"-1", b"99999", b"\x00"]  # fmt: skip
INSERTS = {"bin": st.binary(max_size=3), "hex": st.sampled_from(TOKENS)}
INSERTS["json"] = INSERTS["hex"]


@st.composite
def mutated_files(draw):
    """(loader kind, file bytes, seed of the vector to decrypt)."""
    name = draw(st.sampled_from(FILES))
    _, kind, fmt = name.split(".")
    body = _unseal(fmt, (GOLDEN / name).read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(body)))
        cut, insert = draw(st.integers(0, 3)), draw(INSERTS[fmt])
        body = body[:pos] + insert + body[pos + cut :]
    return kind, _seal(fmt, body), draw(st.integers(0, 1 << 32))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_files())
@example(case=("public", DEEP_JSON, 0))
@example(case=("public", HUGE_INT_JSON, 0))
def test_loaders_raise_only_documented_errors(fuzz_path, case):
    kind, data, seed = case
    fuzz_path.write_bytes(data)
    try:
        loaded = LOADERS[kind](fuzz_path)
        if kind == "private":
            params, rng = loaded.params, random.Random(seed)
            decrypt(loaded, [params.field().rand_elem(rng) for _ in range(params.pub_cols)])
    except DOCUMENTED:
        pass


def test_unmutated_files_reseal_to_loadable_files(fuzz_path):
    # the fuzz edits must be all that differs from a loadable file
    for name in FILES:
        _, kind, fmt = name.split(".")
        fuzz_path.write_bytes(_seal(fmt, _unseal(fmt, (GOLDEN / name).read_bytes())))
        LOADERS[kind](fuzz_path)
