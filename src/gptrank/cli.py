"""Command line front end.

Subcommands:

* ``keygen``: draw a key pair and write the two key files.
* ``encrypt`` / ``decrypt``: transport a byte string through the scheme,
  chunking it into plaintext blocks of whole bytes per field element.
* ``analyze``: print parameter health, key size, the reference security
  table, the cost estimates and status that ``attack`` prints for one
  fixed-seed key of the parameters, and optionally a fresh-key
  distinguisher simulation contrasting the two scrambler families.
* ``attack``: run the extended-rank distinguisher against a public key
  file and report the security verdict.

Exit codes: 0 success, or standard output closed early (``| head``); 2 bad
parameters or usage; 3 decoding failure; 4 malformed or mismatched files.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

from .attacks import (
    WORK_FACTOR_NOTE,
    attack_public_key,
    distinguisher_trials,
    example_security_table,
)
from .errors import DecodeFailure, FormatError, ParameterError
from .fields import _pack_bytes, _unpack_bytes
from .gpt import (
    PRESET_NAMES,
    GptParams,
    ScramblerMode,
    _default_rng,
    decrypt,
    encrypt,
    keygen,
    preset,
    public_key_size_bits,
)
from .keyfiles import (
    CiphertextBundle,
    load_ciphertext,
    load_private_key,
    load_public_key,
    save_ciphertext,
    save_private_key,
    save_public_key,
)

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_DECODE = 3
EXIT_FORMAT = 4

# exception -> (stderr label, exit code); the first match wins, so subclasses come first
_FAILURES = {
    DecodeFailure: ("decoding failed", EXIT_DECODE),
    FormatError: ("bad file", EXIT_FORMAT),
    ParameterError: ("bad parameters", EXIT_PARAMS),
    BrokenPipeError: (None, EXIT_OK),  # a closed stdout is no failure
    OSError: ("file error", EXIT_FORMAT),
    ValueError: ("bad input", EXIT_PARAMS),
}

_COST_LABELS = {
    "basis_enumeration": "support basis enumeration",
    "coordinate_enumeration": "support coordinate enumeration",
    "polynomial_reconstruction": "map reconstruction",
    "brute_force": "rank component brute force",
    "message_enumeration": "message enumeration",
}


# -- message chunking ------------------------------------------------


def bytes_per_element(params: GptParams) -> int:
    """Whole bytes that fit losslessly in one field element; at least one."""
    bits = (params.q**params.N).bit_length() - 1
    if bits < 8:
        raise ParameterError(f"field elements hold only {bits} bits, too small for whole bytes")
    return bits // 8


def message_to_blocks(params: GptParams, data: bytes) -> list[list[int]]:
    """Chunk a byte string into zero-padded plaintext blocks.

    Each element is one big-endian bytes_per_element word, read by the
    codec that key and ciphertext files use for their elements.
    """
    bpe, rows = bytes_per_element(params), params.pub_rows
    flat = _unpack_bytes(data + bytes(-len(data) % (bpe * rows)), bpe)
    return [flat[i : i + rows] for i in range(0, len(flat), rows)]


def blocks_to_message(params: GptParams, blocks, msg_len: int) -> bytes:
    """Reassemble decrypted blocks into the original byte string.

    The inverse of `message_to_blocks`, written by the same element codec.
    """
    bpe = bytes_per_element(params)
    flat = [v for block in blocks for v in block]  # decrypt gives pub_rows entries a block
    if flat and not 0 <= min(flat) <= max(flat) < 1 << 8 * bpe:
        raise DecodeFailure("recovered element does not fit the message byte packing", "packing")
    out = _pack_bytes(flat, bpe)
    if msg_len > len(out):
        raise FormatError("declared message length exceeds the decrypted data")
    return out[:msg_len]


# -- parameter flags ------------------------------------------------


# (flag, GptParams field, type, help); --variant and --mode stay strings so
# that GptParams parses them and reports a bad spelling itself
_PARAM_FLAGS = (
    ("q", "q", int, "base field size (prime)"),
    ("bigN", "N", int, "extension degree"),
    ("n", "n", int, "code length"),
    ("k", "k", int, "code dimension"),
    ("t1", "t1", int, "error rank (variant 3) or distortion column rank"),
    ("t2", "t2", int, "error rank bound (variants 4, 5, 6)"),
    ("p", "p", int, "row scrambler deficiency (variant 5)"),
    ("mcols", "m_cols", int, "left distortion width (variant 6)"),
    ("variant", "variant", str, "3/simple, 4/extended, 5/rectangular_s, 6/two_distortion"),
    ("mode", "scrambler_mode", str, "base_field or extension_field scrambler"),
    ("sext", "s_ext", int, "extension-field scrambler columns"),
    ("xrank", "x_ordinary_rank", int, "ordinary rank of the distortion block"),
)


def _add_param_flags(sub) -> None:
    sub.add_argument("--preset", choices=PRESET_NAMES, help="named parameter set")
    for flag, _, kind, text in _PARAM_FLAGS:
        sub.add_argument(f"--{flag}", type=kind, help=text)


def _param_overrides(args) -> dict:
    """The GptParams fields given on the command line."""
    values = ((key, getattr(args, flag)) for flag, key, _, _ in _PARAM_FLAGS)
    return {key: value for key, value in values if value is not None}


def _params_from_args(args) -> GptParams:
    over = _param_overrides(args)
    if args.preset:
        return preset(args.preset, **over)
    required = ("N", "n", "k", "t1")
    missing = [flag for flag, key, _, _ in _PARAM_FLAGS if key in required and key not in over]
    if missing:
        raise ParameterError(
            "missing required parameters: --" + ", --".join(missing) + " (or use --preset)"
        )
    return GptParams(**over)


def _describe_params(params: GptParams) -> str:
    bits = public_key_size_bits(params)
    lines = [
        "parameters:",
        f"  base field q: {params.q}    extension degree N: {params.N}",
        f"  code length n: {params.n}    dimension k: {params.k}    "
        f"rank error capacity t: {params.t}",
        f"  variant: {int(params.variant)} ({params.variant.name.lower()})",
        f"  scrambler: {params.scrambler_mode.value} (extension columns s_ext: {params.s_ext})",
        f"  error set: {params.describe_error_set()}",
        f"  public matrix: {params.pub_rows} x {params.pub_cols}"
        f" ({bits:g} bits, {bits / 8:g} bytes)",
    ]
    return "\n".join(lines)


# -- subcommands ------------------------------------------------


def _rng(seed):
    """Seeded Mersenne Twister for reproducible runs, the OS CSPRNG otherwise."""
    return _default_rng(None if seed is None else random.Random(seed))


def _cmd_keygen(args) -> int:
    params = _params_from_args(args)
    rng = _rng(args.seed)
    pub, priv = keygen(params, rng)
    save_public_key(args.pub, pub, args.format)
    save_private_key(args.priv, priv, args.format)
    print(_describe_params(params))
    print(f"wrote public key: {args.pub} ({args.format})")
    print(f"wrote private key: {args.priv} ({args.format})")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    pub = load_public_key(args.pub)
    params = pub.params
    data = Path(args.infile).read_bytes()
    rng = _rng(args.seed)
    blocks = message_to_blocks(params, data)
    ct = CiphertextBundle(
        q=params.q,
        N=params.N,
        block_len=params.pub_cols,
        msg_len=len(data),
        blocks=[encrypt(pub, m, rng) for m in blocks],
    )
    save_ciphertext(args.out, ct, args.format)
    print(f"encrypted {len(data)} bytes in {len(ct.blocks)} blocks -> {args.out}")
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    sk = load_private_key(args.priv)
    params = sk.params
    ct = load_ciphertext(args.infile)
    if ct.field() != params.field():
        raise FormatError("ciphertext field does not match the private key")
    if ct.block_len != params.pub_cols:
        raise FormatError("ciphertext block length does not match the private key")
    messages = [decrypt(sk, c) for c in ct.blocks]
    data = blocks_to_message(params, messages, ct.msg_len)
    Path(args.out).write_bytes(data)
    print(f"decrypted {len(data)} bytes -> {args.out}")
    return EXIT_OK


def _print_report(report) -> None:
    print("attack cost estimates (log2 operations):")
    for key, label in _COST_LABELS.items():
        print(f"  {label:32s} {report.costs[key]:10.2f}")
    print(f"status: {report.status} ({report.reason})")


def _print_table() -> None:
    rows = example_security_table()
    print("reference security table (q=2, N=n=28, k=14, t=7):")
    print("  t1  stored 2^  formula 2^  ext cols  status    reason")
    for row in rows:
        print(
            f"  {row['t1']:2d}  {row['stored_exponent']:9d}  {row['formula_exponent']:10.0f}"
            f"  {row['ext_budget']:8d}  {row['status']:8s}  {row['reason']}"
        )
    print(f"  {WORK_FACTOR_NOTE}")


def _simulation_report(params: GptParams, args) -> str:
    """Distinguisher trials on fresh keys of params and of its twin, as text."""
    # the twin switches the scrambler family and leaves s_ext to GptParams
    (other,) = set(ScramblerMode) - {params.scrambler_mode}
    twin = replace(params, scrambler_mode=other, s_ext=None)
    rng = _rng(args.seed)
    lines = [f"distinguisher simulation ({args.trials} fresh keys per mode):"]
    for pp in (params, twin):
        summary = distinguisher_trials(pp, trials=args.trials, u=args.u, rng=rng)
        first = summary.results[0]
        ranks = " ".join(str(r) for r in summary.observed_ranks)
        lines.append(
            f"  {pp.scrambler_mode.value:15s} u={first.u}"
            f" observed ranks [{ranks}] full {first.full_rank}"
            f" base-field ceiling {first.leak_bound} -> {summary.verdict}"
        )
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    params = _params_from_args(args) if args.preset or _param_overrides(args) else None
    if params is None and not args.table:
        raise ParameterError("nothing to analyze: give parameters, --preset, or --table")
    # the trials run first, so a refused --trials or --u prints nothing and
    # draws no key; a fixed seed makes the status depend on params alone
    simulation = _simulation_report(params, args) if params and args.simulate else None
    report = attack_public_key(keygen(params, random.Random(0))[0]) if params else None
    if args.table:
        _print_table()
    if params is None:
        return EXIT_OK
    if args.table:
        print()
    print(_describe_params(params))
    _print_report(report)
    if simulation:
        print(simulation)
    return EXIT_OK


def _cmd_attack(args) -> int:
    pub = load_public_key(args.pub)
    report = attack_public_key(pub, u=args.u)
    res = report.distinguisher
    print(_describe_params(pub.params))
    print(f"extended-rank distinguisher (u={res.u}):")
    print(f"  observed stacked rank: {res.observed_rank}")
    print(f"  full rank of a healthy key: {res.full_rank}")
    print(f"  ceiling for a base-field scrambler: {res.leak_bound}")
    print(f"  verdict: {res.verdict}")
    _print_report(report)
    return EXIT_OK


# -- parser ------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptrank",
        description="rank-metric public-key toolkit: key generation, encryption, "
        "and structural cryptanalysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    kg = subs.add_parser("keygen", help="draw a key pair and write key files")
    _add_param_flags(kg)
    kg.add_argument("--pub", default="public.key", help="public key output path")
    kg.add_argument("--priv", default="private.key", help="private key output path")
    kg.add_argument("--format", default="bin", choices=("bin", "hex", "json"))
    kg.add_argument("--seed", type=int, help="deterministic key material (default: OS CSPRNG)")
    kg.set_defaults(func=_cmd_keygen)

    enc = subs.add_parser("encrypt", help="encrypt a file against a public key")
    enc.add_argument("--pub", required=True, help="public key file")
    enc.add_argument("--in", dest="infile", required=True, help="plaintext input file")
    enc.add_argument("--out", required=True, help="ciphertext output path")
    enc.add_argument("--format", default="bin", choices=("bin", "hex", "json"))
    enc.add_argument("--seed", type=int, help="deterministic error vectors (default: OS CSPRNG)")
    enc.set_defaults(func=_cmd_encrypt)

    dec = subs.add_parser("decrypt", help="decrypt a ciphertext file")
    dec.add_argument("--priv", required=True, help="private key file")
    dec.add_argument("--in", dest="infile", required=True, help="ciphertext input file")
    dec.add_argument("--out", required=True, help="plaintext output path")
    dec.set_defaults(func=_cmd_decrypt)

    an = subs.add_parser("analyze", help="parameter health, costs, reference table")
    _add_param_flags(an)
    an.add_argument("--table", action="store_true", help="print the reference security table")
    an.add_argument("--simulate", action="store_true", help="run fresh-key distinguisher trials")
    an.add_argument("--trials", type=int, default=8, help="keys per mode for --simulate")
    an.add_argument("--u", type=int, help="stack depth for --simulate")
    an.add_argument("--seed", type=int, help="deterministic --simulate keys (default: OS CSPRNG)")
    an.set_defaults(func=_cmd_analyze)

    at = subs.add_parser("attack", help="run the rank distinguisher on a public key file")
    at.add_argument("--pub", required=True, help="public key file")
    at.add_argument("--u", type=int, help="stack depth (default n - k - 1)")
    at.set_defaults(func=_cmd_attack)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except tuple(_FAILURES) as exc:
        label, code = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
        if label is None:  # send what is left of stdout nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        else:
            print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
