"""Benchmark of the gptrank toolkit, driven through its public API.

    python3 perfbench/run.py --workload paper28-session --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --list

One process, one thread, a closed loop with one client and no think time.
A unit of work is one key-lifecycle session (keygen, save both key files,
load the public key, 16 encrypts, load the private key, 16 decrypts)
followed by the analyst's pass: load a public-key file and run the
distinguisher and cost report on it, once for the session's own
extension-field key and once for a base-field key made in set-up.  Key-file
encodings rotate bin -> hex -> json, one per session, and a run is a whole
number of rotations.  Every input comes from --seed; outputs are checked
outside the timed regions.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: it runs rotations untraced, again with spans and field-op counters
wrapped around the package (see tracing.py), and once more with spans only,
and fails unless all three produce the same output digest.  The last line
of standard output is one JSON object with keys correct, attempted, failed
and metrics.  The program is imported from src/ next to this directory;
without it the runner exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import catalogue as cat  # noqa: E402  (HERE is sys.path[0] when run as a script)
from speed import Speed  # noqa: E402
from tracing import Tracer, TraceError  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
clock = time.perf_counter


def import_program():
    src = ROOT / "src"
    if not (src / "gptrank" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gptrank package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import gptrank

    return gptrank


class Bench:
    """One workload's inputs, operations, checks and samples."""

    def __init__(self, g, workload, seed, workdir, messages):
        self.g = g
        self.name = workload
        self.seed = seed
        self.workdir = workdir
        self.messages = messages
        preset = cat.WORKLOADS[workload][0]
        self.params = g.preset(preset)
        base_params = g.preset(preset, scrambler_mode="base_field", s_ext=0)
        self.ctx = ctx = self.params.field()
        for i in range(1, ctx.N):  # build every Frobenius table before timing
            ctx.frobenius(ctx.alpha, i)
        pub, _ = g.keygen(base_params, random.Random(f"{workload}:{seed}:base-field"))
        self.base_files = {}
        for fmt in cat.ENCODINGS:
            path = workdir / f"base-pub.{fmt}"
            g.save_public_key(path, pub, fmt)
            self.base_files[fmt] = path
        self.tracer = None
        self.speed = Speed()
        self.attempted = 0  # operations, over the whole run
        self.failed = 0
        self.reset()

    def reset(self):
        """Drop the timing samples, to start a new pass."""
        self.samples = defaultdict(list)  # op -> reference seconds (see speed.py)
        self.sessions = []  # reference seconds per session
        self._pending = []  # (op, start, end) of the current unit

    def _timed(self, op, fn, *args):
        self.speed.due()
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(op)
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self._pending.append((op, t0, clock()))
            if tracer is not None:
                tracer.end()

    def _settle(self):
        """Scale the current unit's timings; returns the session's share."""
        self.speed.measure()
        session = 0.0
        for op, t0, t1 in self._pending:
            dt = (t1 - t0) * self.speed.scale(t0, t1)
            self.samples[op].append(dt)
            if op != "attack":
                session += dt
        self._pending.clear()
        return session

    def unit(self, index):
        """One session plus the attack pass; returns the digest of its outputs."""
        g, ctx, params = self.g, self.ctx, self.params
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        fmt = cat.ENCODINGS[index % len(cat.ENCODINGS)]
        pk_path = self.workdir / f"pub.{fmt}"
        sk_path = self.workdir / f"priv.{fmt}"
        msgs = [[ctx.rand_elem(rng) for _ in range(params.pub_rows)] for _ in range(self.messages)]

        def save(pub, priv):
            g.save_public_key(pk_path, pub, fmt)
            g.save_private_key(sk_path, priv, fmt)

        def decrypt(priv, c):
            try:
                return g.decrypt(priv, c)
            except g.DecodeFailure:
                return None

        def attack(path):
            return g.attack_public_key(g.load_public_key(path))

        pub, priv = self._timed("keygen", g.keygen, params, rng)
        self._timed("save_keys", save, pub, priv)
        pub2 = self._timed("load_public", g.load_public_key, pk_path)
        cts = [self._timed("encrypt", g.encrypt, pub2, m, rng) for m in msgs]
        priv2 = self._timed("load_private", g.load_private_key, sk_path)
        outs = [self._timed("decrypt", decrypt, priv2, c) for c in cts]
        reports = [self._timed("attack", attack, p) for p in (pk_path, self.base_files[fmt])]
        self.sessions.append(self._settle())

        verdicts = [
            (r.distinguisher.u, r.distinguisher.observed_rank, r.distinguisher.full_rank,
             r.distinguisher.leak_bound, r.distinguisher.verdict, r.status)
            for r in reports
        ]
        self._check(pub, priv, pub2, priv2, msgs, cts, outs, reports)
        h = hashlib.sha256()
        h.update(pk_path.read_bytes())
        h.update(sk_path.read_bytes())
        h.update(repr((cts, outs, verdicts)).encode())
        return h.hexdigest()

    def _check(self, pub, priv, pub2, priv2, msgs, cts, outs, reports):
        """Count operations whose output is wrong; none of this is timed."""
        g, ctx, params = self.g, self.ctx, self.params
        bad = []
        if (pub2.params, pub2.matrix) != (pub.params, pub.matrix):
            bad.append("load_public")
        if (priv2.params, priv2.S, priv2.P, priv2.P_inv, priv2.code.g) != (
            priv.params, priv.S, priv.P, priv.P_inv, priv.code.g
        ):
            bad.append("load_private")
        for m, c, out in zip(msgs, cts, outs):
            e = g.linalg.vec_sub(ctx, c, g.linalg.vec_mat_mul(ctx, m, pub.matrix))
            if g.rank_over_base(ctx, e) != params.t1 or g.lemma1_check(priv, e) > params.t:
                bad.append("encrypt")
            if out != m:
                bad.append("decrypt")
        own, base = (r.distinguisher for r in reports)
        if own.distinguishable or own.observed_rank != own.full_rank:
            bad.append("attack: extension-field key read as distinguishable")
        if not base.distinguishable or base.observed_rank > base.leak_bound:
            bad.append("attack: base-field key not distinguished")
        for what in bad:
            print(f"check failed: {what}", file=sys.stderr)
        self.attempted += 4 + 2 * len(msgs) + len(reports)
        self.failed += len(bad)

    def rotations(self, count=None, seconds=None):
        """Run whole rotations from the first, for `count` rotations or until `seconds` pass.

        Returns (per-rotation digests, reference seconds spent inside timed operations).
        """
        per = len(cat.ENCODINGS)
        digests = []
        busy0 = sum(sum(v) for v in self.samples.values())
        start = clock()
        r = 0
        while True:
            h = hashlib.sha256()
            for i in range(r * per, (r + 1) * per):
                h.update(self.unit(i).encode())
            digests.append(h.hexdigest())
            r += 1
            if count is not None and len(digests) >= count:
                break
            if count is None and clock() - start >= seconds:
                break
        return digests, sum(sum(v) for v in self.samples.values()) - busy0


# -- set-up --------------------------------------------------------------------


def workdir_for(pid):
    path = ROOT / ".bench_work" / str(pid)
    path.mkdir(parents=True, exist_ok=True)
    return path


def probe_setup(args, probes, speed):
    """Reference seconds from spawning a fresh runner until its set-up is done, per probe."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(probes):
        speed.measure()
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            dt = clock() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        speed.measure()
        out.append(dt * speed.scale(t0, t0 + dt))
    return out


# -- metrics ---------------------------------------------------------------------


def _p50(xs):
    return statistics.median(xs)


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def end_to_end(bench, setup_samples):
    """{name: (value, samples, unit)} for every end-to-end metric."""
    ms = {op: [1000 * x for x in v] for op, v in bench.samples.items()}

    def p50(op):
        return _p50(ms[op]), len(ms[op])

    values = {
        "session_s_p50": (_p50(bench.sessions), len(bench.sessions)),
        "keygen_ms_p50": p50("keygen"),
        "save_keys_ms_p50": p50("save_keys"),
        "load_private_ms_p50": p50("load_private"),
        "encrypt_ms_p50": p50("encrypt"),
        "decrypt_ms_p50": p50("decrypt"),
        "decrypt_ms_p90": (_p90(ms["decrypt"]), len(ms["decrypt"])),
        "attack_ms_p50": p50("attack"),
        "setup_s": (_p50(setup_samples), len(setup_samples)),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return {name: values[name] + (unit,) for name, unit, _, _, _ in cat.END_TO_END}


def field_op_ns(ctx, seed, speed, size=2000, reps=5):
    """Untraced reference ns per mul, inv and frobenius on a fixed seeded operand set."""
    rng = random.Random(f"field-ops:{seed}")
    xs = [ctx.rand_nonzero(rng) for _ in range(size)]
    ys = [ctx.rand_nonzero(rng) for _ in range(size)]
    ks = [1 + rng.randrange(ctx.N - 1) for _ in range(size)]
    inv_xs = xs[: size // 20]
    mul, inv, frob = ctx.mul, ctx.inv, ctx.frobenius

    def run_mul():
        for a, b in zip(xs, ys):
            mul(a, b)

    def run_inv():
        for a in inv_xs:
            inv(a)

    def run_frob():
        for a, k in zip(xs, ks):
            frob(a, k)

    out = {}
    for name, fn, n in (("mul", run_mul, size), ("inv", run_inv, len(inv_xs)),
                        ("frobenius", run_frob, size)):
        times = []
        for _ in range(reps):
            speed.measure()
            t0 = clock()
            fn()
            t1 = clock()
            speed.measure()
            times.append((t1 - t0) * speed.scale(t0, t1))
        out[f"fields.{name}.ns"] = (1e9 * _p50(times) / n, n * reps, "ns")
    return out


def per_layer(counted, timed, ns, overhead, scale):
    """Per-layer metrics from the counting pass and the span-timing pass.

    Span times are multiplied by `scale`, the speed factor over the timing pass.
    """
    out = dict(ns)

    def need(calls, metric):
        if not calls:
            raise TraceError(f"{metric}: no calls recorded where they are expected")

    for prefix, ops in cat.FIELD_CALLS:
        fop = prefix.split(".")[1]
        for op in ops:
            name = f"{prefix}.{op}"
            need(counted.field_calls[fop, op], name)
            out[name] = (counted.field_calls[fop, op] / counted.nops[op], counted.nops[op], "count")
    for prefix, ops in cat.SPANS:
        span, kind = prefix.rsplit(".", 1)
        for op in ops:
            name = f"{prefix}.{op}"
            if kind == "calls":
                need(counted.calls[span, op], name)
                out[name] = (counted.calls[span, op] / counted.nops[op], counted.nops[op], "count")
            else:
                need(timed.calls[span, op], name)
                total = (timed.incl if kind == "ms" else timed.self_time)[span, op]
                out[name] = (1000 * scale * total / timed.nops[op], timed.nops[op], "ms")
        if not ops:
            keys = [k for k in timed.calls if k[0] == span and k[1] is not None]
            calls = sum(timed.calls[k] for k in keys)
            need(calls, prefix)
            total = sum((timed.incl if kind == "ms" else timed.self_time)[k] for k in keys)
            out[prefix] = (1000 * scale * total / calls, calls, "ms")
    keygens = counted.nops["keygen"]
    draws = counted.calls["gabidulin.code_init", "keygen"]
    need(draws, "gpt.keygen.code_draws")
    failures = sum(v for (span, op), v in counted.raised.items()
                   if span == "gabidulin.decode" and op is not None)
    out["gabidulin.decode.failures"] = (failures, counted.nops["decrypt"], "count")
    out["gpt.keygen.code_draws"] = (draws / keygens, keygens, "count")
    out["gpt.keygen.yield"] = (keygens / draws, keygens, "keys/draw")
    out["trace.overhead_frac"] = overhead
    return {name: out[name] for name, _, _ in cat.PER_LAYER}


def _snapshot(tracer, bench):
    """The tracer's statistics so far, with the op counts they cover; clears the tracer."""
    snap = argparse.Namespace(nops={op: len(v) for op, v in bench.samples.items()})
    for attr in ("calls", "raised", "incl", "self_time", "field_calls"):
        stats = getattr(tracer, attr)
        setattr(snap, attr, defaultdict(int, stats))
        stats.clear()
    return snap


# -- runs --------------------------------------------------------------------------


def run_untraced(bench, args):
    probes = 1 if args.smoke else SETUP_PROBES
    setup_samples = probe_setup(args, probes, bench.speed)
    digests, _ = bench.rotations(seconds=args.seconds)
    print(f"rotations: {len(digests)}  digest: {digests[0]}")
    return end_to_end(bench, setup_samples)


def run_traced(bench, args):
    ns = field_op_ns(bench.ctx, args.seed, bench.speed)
    plain, plain_busy = bench.rotations(seconds=args.seconds / 3)

    tracer = Tracer().install()
    bench.tracer = tracer
    bench.reset()
    tracer.count_field_ops()
    counted_digest, _ = bench.rotations(count=1)
    tracer.stop_counting()
    counted = _snapshot(tracer, bench)

    bench.reset()
    t0 = clock()
    traced, traced_busy = bench.rotations(count=len(plain))
    scale = bench.speed.scale(t0, clock())
    timed = _snapshot(tracer, bench)

    if counted_digest != plain[:1] or traced != plain:
        raise TraceError("traced outputs differ from untraced outputs")
    print(f"rotations: {len(plain)}  digest: {plain[0]}")
    overhead = (traced_busy / plain_busy - 1, len(plain) * len(cat.ENCODINGS), "fraction")
    return per_layer(counted, timed, ns, overhead, scale)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(cat.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true", help="print every workload and metric and exit")
    ap.add_argument("--smoke", action="store_true",
                    help="self-test size: 2 messages per session, one set-up probe")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.list:
        print(cat.describe())
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    g = import_program()
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    workdir = workdir_for(os.getpid())
    try:
        messages = 2 if args.smoke else cat.MESSAGES_PER_SESSION
        bench = Bench(g, args.workload, args.seed, workdir, messages)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
        metrics = (run_traced if args.trace else run_untraced)(bench, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for name, (value, n, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  (n={n})")
    print(f"  failed_frac = {bench.failed}/{bench.attempted}")
    print(f"  {bench.speed.summary()}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, _, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
