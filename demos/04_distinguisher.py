"""Why the column scrambler must leave the base field.

Stack the images of the public matrix under x -> x^(q^i).  A base-field
scrambler commutes with that map, so the stacked rows overlap exactly
like the rows of the hidden structured generator and the rank collapses
below full.  Columns drawn from the extension field break the
commutation, and the same measurement reads full rank.

The collapse is not cosmetic: once the stacked matrix is rank deficient
its kernel hands over the secret code, which is the classical break of
base-field scrambling.

The stack need not be built to be ranked: sigma fixes the identity block
of the reduced echelon form, so the images beyond the first add only the
rank of the shallower stack of the differences sigma(A) - A of its free
block A, and rank_profile repeats that on ever smaller blocks until one
row v is left, whose stack is v's Moore matrix, of rank
min(u + 1, rank of v over F_q).  Each level's running total is the rank
at the next depth, so one rank_profile call gives every depth 0..u.
"""

import random

from gptrank import GptParams, distinguisher_trials, keygen, rank_profile

rng = random.Random(44)
DESK = dict(q=2, N=12, n=12, k=6, t1=2)

base = GptParams(**DESK, scrambler_mode="base_field")
hard = GptParams(**DESK, s_ext=1)

# anatomy of one measurement
pub, _ = keygen(base, rng)
ctx = base.field()
print("one base-field key, growing the stack:")
for u, r in enumerate(rank_profile(ctx, pub.matrix, 5)):
    full = min((u + 1) * base.k, base.n)
    marker = "  <- stuck at k + u" if r < full else ""
    print(f"  u = {u}: rank {r:2d} of {full}{marker}")

print("\neight fresh keys per construction, u = 5:")
for params in (base, hard):
    summary = distinguisher_trials(params, trials=8, u=5, rng=rng)
    ranks = ", ".join(str(r) for r in summary.observed_ranks)
    print(f"  {params.scrambler_mode.value:15s} ranks [{ranks}] -> {summary.verdict}")

print("\nthe hardened scrambler costs decoding budget: its extension columns")
print("count against the radius, so the error rank must shrink to match.")
for params in (base, hard):
    print(f"  {params.scrambler_mode.value:15s} s_ext = {params.s_ext}, "
          f"error rank = {params.t1}, radius t = {params.t}")
