"""Maximum-rank-distance codes: encode, corrupt by rank, decode.

The generator matrix applies the powers of x -> x^q to a vector g of
independent points, so codewords are evaluations of small linearized
polynomials and any two differ in rank at least n - k + 1.
"""

import random

from gptrank import DecodeFailure, GabidulinCode, get_field, rank_over_base, sample_error
from gptrank.linalg import independent_elements

ctx = get_field(2, 12)
rng = random.Random(21)

code = GabidulinCode(ctx, independent_elements(ctx, 12, rng), k=6)
print(code)
print("corrects any error of rank at most t =", code.t)

m = [ctx.rand_elem(rng) for _ in range(code.k)]
c = code.encode(m)
print("\nmessage   :", m)
print("codeword  :", c)

for r in range(code.t + 1):
    e = sample_error(ctx, code.n, r, rng)
    y = [ctx.add(a, b) for a, b in zip(c, e)]
    got_m, got_e = code.decode(y)
    status = "recovered" if got_m == m else "WRONG"
    print(f"rank-{r} corruption -> {status}, error rank seen {rank_over_base(ctx, got_e)}")

# one past the radius the decoder refuses rather than guessing
e = sample_error(ctx, code.n, code.t + 1, rng)
y = [ctx.add(a, b) for a, b in zip(c, e)]
try:
    code.decode(y)
    print(f"rank-{code.t + 1} corruption -> decoded (landed inside another sphere)")
except DecodeFailure as exc:
    print(f"rank-{code.t + 1} corruption -> refused: {exc}")

# rank beats Hamming here: spreading one error element over many positions
# does not add rank, so this stays decodable
spread = [ctx.rand_nonzero(rng)] * code.n  # rank 1, weight n
y = [ctx.add(a, b) for a, b in zip(c, spread)]
got_m, _ = code.decode(y)
print("\nfull-weight rank-1 corruption ->", "recovered" if got_m == m else "WRONG")
