"""Command line front end.

Subcommands:

* ``keygen``: draw a key pair and write the two key files.
* ``encrypt`` / ``decrypt``: transport a byte string through the scheme,
  chunking it into plaintext blocks of whole bytes per field element.
* ``analyze``: print parameter health, key size, attack cost estimates,
  the reference security table, and optionally a fresh-key distinguisher
  simulation contrasting the two scrambler families.
* ``attack``: run the extended-rank distinguisher against a public key
  file and report the security verdict.

Exit codes: 0 success, 2 bad parameters or usage, 3 decoding failure,
4 malformed or mismatched files.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace
from pathlib import Path

from .attacks import (
    WORK_FACTOR_NOTE,
    attack_cost_report,
    attack_public_key,
    distinguisher_trials,
    example_security_table,
    security_status,
)
from .errors import DecodeFailure, FormatError, ParameterError
from .gpt import (
    PRESET_NAMES,
    GptParams,
    ScramblerMode,
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

_COST_LABELS = {
    "basis_enumeration": "support basis enumeration",
    "coordinate_enumeration": "support coordinate enumeration",
    "polynomial_reconstruction": "map reconstruction",
    "brute_force": "rank component brute force",
}


# -- message chunking ------------------------------------------------


def bytes_per_element(params: GptParams) -> int:
    """Whole bytes that fit losslessly in one field element; at least one."""
    bits = (params.q**params.N).bit_length() - 1
    if bits < 8:
        raise ParameterError(f"field elements hold only {bits} bits, too small for whole bytes")
    return bits // 8


def message_to_blocks(params: GptParams, data: bytes) -> list[list[int]]:
    """Chunk a byte string into zero-padded plaintext blocks."""
    bpe = bytes_per_element(params)
    per_block = bpe * params.pub_rows
    blocks = []
    for start in range(0, len(data), per_block):
        chunk = data[start : start + per_block].ljust(per_block, b"\x00")
        blocks.append(
            [
                int.from_bytes(chunk[i * bpe : (i + 1) * bpe], "big")
                for i in range(params.pub_rows)
            ]
        )
    return blocks


def blocks_to_message(params: GptParams, blocks, msg_len: int) -> bytes:
    """Reassemble decrypted blocks into the original byte string."""
    bpe = bytes_per_element(params)
    out = bytearray()
    for block in blocks:  # decrypt returns blocks of exactly pub_rows entries
        for v in block:
            try:
                out += int(v).to_bytes(bpe, "big")
            except OverflowError:
                raise DecodeFailure(
                    "recovered element does not fit the message byte packing", "packing"
                ) from None
    if msg_len > len(out):
        raise FormatError("declared message length exceeds the decrypted data")
    return bytes(out[:msg_len])


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
    # switching a preset to base_field must also drop its s_ext
    mode = over.get("scrambler_mode")
    if mode is not None and ScramblerMode.parse(mode) == ScramblerMode.BASE_FIELD:
        over.setdefault("s_ext", 0)
    if args.preset:
        return preset(args.preset, **over)
    required = ("N", "n", "k", "t1")
    missing = [flag for flag, key, _, _ in _PARAM_FLAGS if key in required and key not in over]
    if missing:
        raise ParameterError(
            "missing required parameters: --" + ", --".join(missing) + " (or use --preset)"
        )
    return GptParams(**over)


def _mode_twin(params: GptParams) -> GptParams:
    if params.scrambler_mode == ScramblerMode.EXTENSION_FIELD:
        return replace(params, scrambler_mode=ScramblerMode.BASE_FIELD, s_ext=0)
    return replace(params, scrambler_mode=ScramblerMode.EXTENSION_FIELD, s_ext=None)


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
    return random.SystemRandom() if seed is None else random.Random(seed)


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
        modulus=params.modulus,
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


def _print_costs(costs: dict) -> None:
    print("attack cost estimates (log2 operations):")
    for key, label in _COST_LABELS.items():
        print(f"  {label:32s} {costs[key]:10.2f}")


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


def _print_simulation(params: GptParams, trials: int, u, seed) -> None:
    rng = _rng(seed)
    print(f"distinguisher simulation ({trials} fresh keys per mode):")
    for pp in (params, _mode_twin(params)):
        summary = distinguisher_trials(pp, trials=trials, u=u, rng=rng)
        first = summary.results[0]
        ranks = " ".join(str(r) for r in summary.observed_ranks)
        print(
            f"  {pp.scrambler_mode.value:15s} u={summary.u}"
            f" observed ranks [{ranks}] full {first.full_rank}"
            f" base-field ceiling {first.leak_bound} -> {summary.verdict}"
        )


def _cmd_analyze(args) -> int:
    has_params = bool(args.preset or _param_overrides(args))
    if not has_params and not args.table:
        raise ParameterError("nothing to analyze: give parameters, --preset, or --table")
    if args.table:
        _print_table()
    if not has_params:
        return EXIT_OK
    params = _params_from_args(args)
    if args.table:
        print()
    print(_describe_params(params))
    costs = attack_cost_report(params)
    _print_costs(costs)
    structurally_leaky = params.scrambler_mode == ScramblerMode.BASE_FIELD
    status, reason = security_status(costs, structurally_leaky)
    print(f"status: {status} ({reason})")
    if args.simulate:
        _print_simulation(params, trials=args.trials, u=args.u, seed=args.seed)
    return EXIT_OK


def _cmd_attack(args) -> int:
    pub = load_public_key(args.pub)
    report = attack_public_key(pub, u=args.u)
    res = report.distinguisher
    print(_describe_params(report.params))
    print(f"extended-rank distinguisher (u={res.u}):")
    print(f"  observed stacked rank: {res.observed_rank}")
    print(f"  full rank of a healthy key: {res.full_rank}")
    print(f"  ceiling for a base-field scrambler: {res.leak_bound}")
    print(f"  verdict: {res.verdict}")
    _print_costs(report.costs)
    print(f"status: {report.status} ({report.reason})")
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
        return args.func(args)
    except DecodeFailure as exc:
        print(f"decoding failed: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except FormatError as exc:
        print(f"bad file: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ParameterError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    raise SystemExit(main())
