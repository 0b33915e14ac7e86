"""Cryptanalysis tools for the disguised-generator scheme.

The central object is the extended-rank distinguisher.  Applying the field
automorphism x -> x^q entrywise to the public matrix and stacking the images

    [G_pub; sigma(G_pub); ...; sigma^u(G_pub)]

produces a tall matrix whose rank tells the two scrambler families apart.
A base-field scrambler commutes with sigma, so consecutive images overlap
in all but one Moore row of the hidden code and the stack collapses to
about k + u rows (plus the width of any distortion blocks).  A scrambler
with extension-field columns does not commute, and at the default depth
u = n - k - 1 a healthy key reaches the full rank min((u + 1) * rows, cols).
Not at every depth: below u = n - k - s_ext it reads k + u + s_ext, short
of the full rank that a random matrix gives.  A collapsed rank is the entry
point for recovering the private code row space, so "distinguishable"
here means structurally broken.

rank_profile measures that rank at every depth 0..u in one pass, without
building the stack: a reduced echelon pass gives the rank of G, and the
rest is the rank of a stack one level shallower on sigma(A) - A, A being
the non-pivot block.  The blocks shrink at every level, and a level of one
row v needs no elimination: its depth-u stack is v's Moore matrix, of
rank min(u + 1, rank_over_base(v)).

The module also carries work-factor estimates for the generic decoding
attacks (log2 of the operation count), and attack_public_key, which reads
the distinguisher and the estimates into the one status the package prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .fields import _check_counts
from .gpt import GptParams, GptPublicKey, _default_rng, keygen, preset
from .linalg import _rref, mat_frobenius, rank_ext, rank_over_base, vec_sub

__all__ = [
    "extend_public_key",
    "rank_profile",
    "DistinguisherResult",
    "distinguish_public_key",
    "TrialSummary",
    "distinguisher_trials",
    "attack_cost_report",
    "SECURITY_THRESHOLD_BITS",
    "AttackReport",
    "attack_public_key",
    "REFERENCE_WORK_EXPONENTS",
    "WORK_FACTOR_NOTE",
    "example_security_table",
]


# -- extended-rank distinguisher ----------------------------------------------


def extend_public_key(ctx, matrix, u: int):
    """Stack sigma^i(matrix) for i = 0..u into one ((u+1)*rows) x cols matrix."""
    if u < 0:
        raise ParameterError("u must be non-negative")
    stacked = [list(row) for row in matrix]
    for i in range(1, u + 1):
        stacked.extend(mat_frobenius(ctx, matrix, i))
    return stacked


def rank_profile(ctx, M, u: int) -> list[int]:
    """[rank_ext(ctx, extend_public_key(ctx, M, i)) for i = 0..u], without building a stack."""
    if u < 0:
        raise ParameterError("u must be non-negative")
    # R = the r nonzero rows of the reduced echelon form of M, A = its
    # non-pivot block.  sigma^i maps row spaces to row spaces, so the stacks
    # of R and M have one rank.  sigma fixes 0 and 1, so sigma^i(R) - R is 0
    # on R's identity block and sigma^i(A) - A elsewhere, and the stack has
    # rank r + rank([sigma^i(A) - A for i = 1..u]).  With D = sigma(A) - A,
    # sigma^i(A) - A = sum_{j<i} sigma^j(D), a block-unitriangular
    # recombination of [D; ...; sigma^(u-1)(D)], so that rank is the rank
    # of the depth-(u - 1) stack of D's nonzero rows.  Each pass keeps
    # total + rank(stack_u(M)) fixed and appends total + rank(M); the tail
    # fills the rest where the stack is trivial: M at depth 0, or no rows.
    profile, total = [], 0
    while u and M:
        if len(M) == 1:
            # The stack of one row v is its Moore matrix.  Write v = w B, w
            # of length r = rank_over_base(v) independent over F_q and B
            # over F_q of full row rank.  sigma fixes B, so the stack is
            # Moore(w) B, of the rank of Moore(w): min(u + 1, r), as a
            # Moore matrix of r <= N independent elements has full rank.
            r = rank_over_base(ctx, M[0])
            profile += [total + min(i + 1, r) for i in range(u)]
            total += min(u + 1, r)
            M, u = [], 0
            break
        work, pivots = _rref(ctx, M)
        total += len(pivots)
        profile.append(total)
        R = work[: len(pivots)]
        pivot_set = set(pivots)
        free = [c for c in range(len(M[0])) if c not in pivot_set]
        A = [[row[c] for c in free] for row in R]
        D = (vec_sub(ctx, sa, a) for sa, a in zip(mat_frobenius(ctx, A), A))
        M = [row for row in D if any(row)]
        u -= 1
    return profile + [total + rank_ext(ctx, extend_public_key(ctx, M, u))] * (u + 1)


@dataclass(frozen=True)
class DistinguisherResult:
    """Outcome of one extended-rank measurement on a public key."""

    u: int
    observed_rank: int
    full_rank: int
    leak_bound: int
    distinguishable: bool

    @property
    def verdict(self) -> str:
        return "DISTINGUISHABLE" if self.distinguishable else "NOT DISTINGUISHABLE"


def _leak_bound(params: GptParams, u: int, full: int) -> int:
    # rank ceiling for a base-field scrambler: Moore-row overlap caps the code
    # part at k + u, plus the columns left of the code and the overlay rank
    core = min(params.k + u, params.n)
    return min(core + params.kept_offset + params.overlay_rank, full)


def _stack_depth(params: GptParams, u: int | None) -> int:
    """u, or the default depth n - k - 1 when u is None; ParameterError unless 1 <= u < N."""
    if u is None:
        u = params.n - params.k - 1
    _check_counts(u=u)
    if not 1 <= u < params.N:
        raise ParameterError(f"stack depth u must lie in [1, {params.N - 1}]")
    return u


def distinguish_public_key(pub: GptPublicKey, u: int | None = None) -> DistinguisherResult:
    """Compare the public key's depth-u stacked rank (see rank_profile) with full rank."""
    params = pub.params
    u = _stack_depth(params, u)
    observed = rank_profile(params.field(), pub.matrix, u)[u]
    full = min((u + 1) * params.pub_rows, params.pub_cols)
    return DistinguisherResult(
        u=u,
        observed_rank=observed,
        full_rank=full,
        leak_bound=_leak_bound(params, u, full),
        distinguishable=observed < full,
    )


@dataclass
class TrialSummary:
    """Distinguisher outcomes over several freshly generated keys."""

    results: list[DistinguisherResult]

    @property
    def observed_ranks(self) -> tuple[int, ...]:
        return tuple(r.observed_rank for r in self.results)

    @property
    def verdict(self) -> str:
        verdicts = {r.verdict for r in self.results}
        return verdicts.pop() if len(verdicts) == 1 else "MIXED"


def distinguisher_trials(
    params: GptParams, trials: int = 8, u: int | None = None, rng=None
) -> TrialSummary:
    """Run the distinguisher on ``trials`` fresh keys (OS CSPRNG without rng)."""
    _check_counts(trials=trials)
    if trials < 1:
        raise ParameterError("need at least one trial")
    u = _stack_depth(params, u)
    rng = _default_rng(rng)
    keys = (keygen(params, rng)[0] for _ in range(trials))
    return TrialSummary([distinguish_public_key(pub, u) for pub in keys])


# -- work-factor estimates ------------------------------------------------


def attack_cost_report(params: GptParams) -> dict[str, float]:
    """log2 operation counts of the known generic attacks.

    ``basis_enumeration`` and ``coordinate_enumeration`` are the two
    rank-syndrome decoding strategies (guess a basis of the error support,
    or guess its expansion coordinates); ``polynomial_reconstruction`` is
    the algebraic attack that interpolates the hidden evaluation map;
    ``brute_force`` enumerates the rank-t1 secret component directly;
    ``message_enumeration`` tries every plaintext x and ranks c - x G_pub.
    """
    lg = math.log2
    N, n, k, q, t = params.N, params.n, params.k, params.q, params.t
    return {
        "basis_enumeration": 3 * lg(N * t) + (t - 1) * (k + 1) * lg(q),
        "coordinate_enumeration": 3 * lg(k + t) + 3 * lg(t) + (t - 1) * (N - t) * lg(q),
        "polynomial_reconstruction": lg(math.log(q)) + 3 * (N - t) * lg(N),
        "brute_force": n * params.t1 * lg(q),
        "message_enumeration": N * params.pub_rows * lg(q) + 3 * lg(params.pub_cols),
    }


# A key is insecure when some attack costs fewer than 2^SECURITY_THRESHOLD_BITS operations.
SECURITY_THRESHOLD_BITS = 64


@dataclass
class AttackReport:
    distinguisher: DistinguisherResult
    costs: dict[str, float]
    status: str
    reason: str


def attack_public_key(pub: GptPublicKey, u: int | None = None) -> AttackReport:
    """Full passive analysis of one public key: the one place that decides its status."""
    result = distinguish_public_key(pub, u)
    costs = attack_cost_report(pub.params)
    name, exponent = min(costs.items(), key=lambda kv: kv[1])
    name = name.replace("_", " ")
    if result.distinguishable:
        status, reason = "insecure", (
            "the extended-rank distinguisher separates this key from random, "
            "exposing the private code row space"
        )
    elif pub.params.s_ext == 0:
        # a parameter fact, kept while the default depth misses such keys
        status, reason = "insecure", (
            "no extension-field scrambler columns (s_ext = 0): P^-1's kept block "
            "lies over F_q, which structural rank attacks strip"
        )
    elif exponent < SECURITY_THRESHOLD_BITS:
        status, reason = "insecure", (
            f"{name} costs about 2^{exponent:.1f}, below the 2^{SECURITY_THRESHOLD_BITS} threshold"
        )
    else:
        status, reason = "secure", f"cheapest known attack ({name}) costs about 2^{exponent:.1f}"
    return AttackReport(distinguisher=result, costs=costs, status=status, reason=reason)


# -- reference security table ------------------------------------------------

# Published work factors and verdicts for the length-28 setting (q = 2,
# N = n = 28, k = 14, so t = 7): (t1, stored exponent, status, reason) for
# each distortion rank t1, kept verbatim.  The exponents step by 24 per unit
# of t1 and the q^(n*t1) brute-force formula by 28; the table shows both
# and flags the gap rather than reconciling it.
_REFERENCE_ROWS = (
    (0, 0, "insecure", "no distortion; information-set decoding applies"),
    (1, 24, "insecure", "work factor 2^24 is below the 2^64 threshold"),
    (2, 48, "insecure", "work factor 2^48 is below the 2^64 threshold"),
    (3, 72, "secure", "work factor 2^72 with 4 extension-field scrambler columns available"),
    (4, 96, "secure", "work factor 2^96 with 3 extension-field scrambler columns available"),
    (5, 120, "secure", "work factor 2^120 with 2 extension-field scrambler columns available"),
    (6, 144, "secure", "work factor 2^144 with 1 extension-field scrambler column available"),
    (
        7,
        168,
        "insecure",
        "distortion uses the whole decodability budget, forcing a "
        "base-field scrambler that structural rank attacks strip",
    ),
)

REFERENCE_WORK_EXPONENTS = {t1: stored for t1, stored, _, _ in _REFERENCE_ROWS}

WORK_FACTOR_NOTE = (
    "note: stored reference exponents grow by 24 per unit of distortion rank, "
    "while the q^(n*t1) brute-force formula at n = 28 grows by 28; both are "
    "shown unreconciled"
)


def example_security_table() -> list[dict]:
    """The recorded rows, with the formula exponent and t - t1 extension-field columns."""
    base = preset("paper-28")
    return [
        {
            "t1": t1,
            "stored_exponent": stored,
            "formula_exponent": base.n * t1 * math.log2(base.q),
            "ext_budget": base.t - t1,
            "status": status,
            "reason": reason,
        }
        for t1, stored, status, reason in _REFERENCE_ROWS
    ]
