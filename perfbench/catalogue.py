"""Every workload and metric of the gptrank benchmark, with its reasons.

This module is the single list the runner reports from; BENCHMARK.json at
the repository root mirrors the names, units, directions and bounds, and
``selftest.py`` checks that the two agree.  ``python3 perfbench/run.py
--list`` prints all of it.
"""

from __future__ import annotations

# name -> (preset, why).  A workload's unit of work is one key-lifecycle
# session followed by the analyst's pass over two public-key files.
WORKLOADS = {
    "paper28-session": (
        "paper-28",
        "Recommended setting; every multiply is the table-less bit-serial loop, so field, "
        "decoder, elimination and key-file changes all show. Attack pass bypasses the decoder.",
    ),
    "desk12-session": (
        "desk-12",
        "Log-table multiply at N = 12 bypasses any multiply optimisation (predict no change); "
        "interpreter overhead, the F_2 location system and parsing weigh more here.",
    ),
}

# Encodings rotate bin -> hex -> json, one per session; a run is a whole
# number of rotations.
MESSAGES_PER_SESSION = 16
ENCODINGS = ("bin", "hex", "json")

# (name, unit, better, bound, definition)
END_TO_END = [
    ("session_s_p50", "s", "lower", 0.1,
     "one session: keygen, save both key files, load the public key, 16 encrypts, "
     "load the private key, 16 decrypts (the sum of its operation times)"),
    ("keygen_ms_p50", "ms", "lower", 0.15, "keygen of the workload's preset"),
    ("save_keys_ms_p50", "ms", "lower", 0.25, "save_public_key plus save_private_key"),
    ("load_private_ms_p50", "ms", "lower", 0.2, "load_private_key, all three encodings"),
    ("encrypt_ms_p50", "ms", "lower", 0.15, "one encrypt"),
    ("decrypt_ms_p50", "ms", "lower", 0.1, "one decrypt"),
    ("decrypt_ms_p90", "ms", "lower", 0.2,
     "one decrypt, 90th percentile; decrypt is the only operation with >= 100 samples a run"),
    ("attack_ms_p50", "ms", "lower", 0.15,
     "load_public_key plus attack_public_key at the default depth u = n-k-1 (the CLI attack "
     "path), alternating the session's extension-field key and a base-field key"),
    ("setup_s", "s", "lower", 0.25,
     "fresh process start through imports, get_field, warm-up and generation of the "
     "base-field key the attack pass reads; median of 5 set-ups a run"),
    ("peak_rss_mib", "MiB", "lower", 0.1, "ru_maxrss of the measuring process"),
]

FIELD_CALLS = [
    ("fields.mul.calls", ("keygen", "decrypt", "load_private", "attack")),
    ("fields.inv.calls", ("keygen", "decrypt", "attack")),
    ("fields.frobenius.calls", ("keygen", "decrypt", "attack")),
]

# Span metrics: (metric prefix, ops).  An empty ops tuple means a per-call
# figure over all operations.  ".ms" is inclusive time, ".self_ms" excludes
# wrapped children, both per operation of the named kind.
SPANS = [
    ("linalg.rank_ext.ms", ("keygen", "attack")),
    ("linalg.rank_ext.calls", ("keygen",)),
    ("linalg.mat_mul.ms", ("keygen", "load_private")),
    ("linalg.mat_inv.ms", ("keygen", "load_private")),
    ("linalg.vec_mat_mul.ms", ("encrypt", "decrypt")),
    ("linalg.rank_over_base.ms", ("keygen", "decrypt")),
    ("linalg.ext_nullspace.ms", ("keygen",)),
    ("linalg.mat_frobenius.ms", ("attack",)),
    ("linalg.sample_error.ms", ("encrypt",)),
    ("linpoly.lp_eea.ms", ("decrypt",)),
    ("linpoly.kernel_basis.ms", ("decrypt",)),
    ("gabidulin.code_init.ms", ("keygen", "load_private")),
    ("gabidulin.syndromes.ms", ("decrypt",)),
    ("gabidulin.decode.ms", ("decrypt",)),
    ("gabidulin.decode.self_ms", ("decrypt",)),
    ("gpt.keygen.self_ms", ()),
    ("gpt.build_scrambler.ms", ("keygen",)),
    ("gpt.decrypt.self_ms", ()),
    ("attacks.extend_public_key.ms", ("attack",)),
    ("attacks.distinguish.self_ms", ("attack",)),
    ("keyfiles.load_private_key.self_ms", ()),
    ("keyfiles.load_public_key.ms", ()),
    ("keyfiles.save_private_key.ms", ()),
    ("keyfiles.save_public_key.ms", ()),
]


def _unit(prefix: str) -> str:
    kind = prefix.rsplit(".", 1)[1]
    return {"calls": "count", "ms": "ms", "self_ms": "ms"}[kind]


def _expand(prefix, ops):
    return [f"{prefix}.{op}" for op in ops] if ops else [prefix]


# (name, unit, better)
PER_LAYER = (
    [(name, "count", "lower") for prefix, ops in FIELD_CALLS for name in _expand(prefix, ops)]
    + [(f"fields.{op}.ns", "ns", "lower") for op in ("mul", "inv", "frobenius")]
    + [(name, _unit(prefix), "lower") for prefix, ops in SPANS for name in _expand(prefix, ops)]
    + [
        ("gabidulin.decode.failures", "count", "lower"),
        ("gpt.keygen.code_draws", "count", "lower"),
        ("gpt.keygen.yield", "keys/draw", "higher"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
)

# Which end-to-end metric each layer metric should move, and where.
LAYER_MAP = [
    ("fields.mul.ns, fields.*.calls.*",
     "keygen_ms_p50, decrypt_ms_p50, load_private_ms_p50, session_s_p50, attack_ms_p50 on "
     "paper28-session; nothing on desk12-session; a table-based multiply may raise setup_s "
     "and peak_rss_mib"),
    ("gabidulin.decode.self_ms.decrypt, linpoly.*, gabidulin.syndromes.ms.decrypt",
     "decrypt_ms_p50/p90 on both workloads; not attack_ms_p50"),
    ("linalg.rank_ext.ms.attack, attacks.*",
     "attack_ms_p50 on both workloads (mostly paper28-session); not decrypt_ms_*"),
    ("linalg.rank_ext.*.keygen, gpt.keygen.*, gpt.build_scrambler.*",
     "keygen_ms_p50 and session_s_p50, and setup_s (the base-field key is made in set-up)"),
    ("linalg.mat_mul.ms.load_private, keyfiles.load_private_key.self_ms, "
     "gabidulin.code_init.ms.load_private",
     "load_private_ms_p50 on both workloads"),
    ("keyfiles.save_*", "save_keys_ms_p50"),
    ("keyfiles.load_public_key.ms", "session_s_p50 and attack_ms_p50"),
]


def describe() -> str:
    """Human-readable listing of every workload, metric and layer mapping."""
    out = ["workloads:"]
    for name, (preset, why) in WORKLOADS.items():
        out.append(f"  {name}  (preset {preset})  {why}")
    out.append("end-to-end metrics (--trace 0); times are wall times scaled to a reference "
               "machine speed (speed.py):")
    for name, unit, better, bound, what in END_TO_END:
        out.append(f"  {name} [{unit}] {better} is better, bound {bound:g}: {what}")
    out.append("  failed_frac = failed / attempted, in the result object")
    out.append("per-layer metrics (--trace 1):")
    for name, unit, better in PER_LAYER:
        out.append(f"  {name} [{unit}] {better} is better")
    out.append("which layer metric should move which end-to-end metric:")
    for layer, e2e in LAYER_MAP:
        out.append(f"  {layer} -> {e2e}")
    return "\n".join(out)
