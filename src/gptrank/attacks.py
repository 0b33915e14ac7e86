"""Cryptanalysis tools for the disguised-generator scheme.

The central object is the extended-rank distinguisher.  Applying the field
automorphism x -> x^q entrywise to the public matrix and stacking the images

    [G_pub; sigma(G_pub); ...; sigma^u(G_pub)]

produces a tall matrix whose rank tells the two scrambler families apart.
A base-field scrambler commutes with sigma, so consecutive images overlap
in all but one Moore row of the hidden code and the stack collapses to
about k + u rows (plus the width of any distortion blocks).  A scrambler
with extension-field columns does not commute, and a healthy key reaches
the full rank min((u + 1) * rows, cols).  A collapsed rank is the entry
point for recovering the private code row space, so "distinguishable"
here means structurally broken.

The module also carries work-factor estimates for the generic decoding
attacks (log2 of the operation count) and an exhaustive nearest-codeword
decoder used as a ground-truth oracle for tiny codes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .errors import DecodeFailure, ParameterError
from .gpt import GptParams, GptPublicKey, Variant, keygen, preset, public_key_size_bits
from .linalg import mat_frobenius, rank_ext, rank_over_base, vec_sub

__all__ = [
    "extend_public_key",
    "DistinguisherResult",
    "distinguish_public_key",
    "TrialSummary",
    "distinguisher_trials",
    "attack_cost_report",
    "SECURITY_THRESHOLD_BITS",
    "security_status",
    "AttackReport",
    "attack_public_key",
    "REFERENCE_WORK_EXPONENTS",
    "WORK_FACTOR_NOTE",
    "example_security_table",
    "BruteForceDecoder",
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


def _leak_bound(params: GptParams, u: int) -> int:
    # rank ceiling for a base-field scrambler: Moore-row overlap caps the
    # code part at k + u, distortion blocks add at most their own width
    core = min(params.k + u, params.n)
    if params.variant == Variant.SIMPLE:
        extra = 0
    elif params.variant in (Variant.EXTENDED, Variant.RECTANGULAR_S):
        extra = params.t1
    else:
        extra = params.t1 + params.m_cols
    full = min((u + 1) * params.pub_rows, params.pub_cols)
    return min(core + extra, full)


def default_stack_depth(params: GptParams) -> int:
    return params.n - params.k - 1


def distinguish_public_key(pub: GptPublicKey, u: int | None = None) -> DistinguisherResult:
    """Measure the stacked rank of one public key and compare with full rank."""
    params = pub.params
    if u is None:
        u = default_stack_depth(params)
    if not 1 <= u < params.N:
        raise ParameterError(f"stack depth u must lie in [1, {params.N - 1}]")
    ctx = params.field()
    observed = rank_ext(ctx, extend_public_key(ctx, pub.matrix, u))
    full = min((u + 1) * params.pub_rows, params.pub_cols)
    return DistinguisherResult(
        u=u,
        observed_rank=observed,
        full_rank=full,
        leak_bound=_leak_bound(params, u),
        distinguishable=observed < full,
    )


@dataclass
class TrialSummary:
    """Distinguisher outcomes over several freshly generated keys."""

    params: GptParams
    u: int
    results: list[DistinguisherResult] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def observed_ranks(self) -> tuple[int, ...]:
        return tuple(r.observed_rank for r in self.results)

    @property
    def distinguishable_count(self) -> int:
        return sum(1 for r in self.results if r.distinguishable)

    @property
    def verdict(self) -> str:
        if self.distinguishable_count == self.trials:
            return "DISTINGUISHABLE"
        if self.distinguishable_count == 0:
            return "NOT DISTINGUISHABLE"
        return "MIXED"


def distinguisher_trials(
    params: GptParams, trials: int = 8, u: int | None = None, rng=None
) -> TrialSummary:
    """Run the distinguisher on ``trials`` fresh keys (OS CSPRNG without rng)."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    if rng is None:
        rng = random.SystemRandom()
    if u is None:
        u = default_stack_depth(params)
    results = []
    for _ in range(trials):
        pub, _ = keygen(params, rng)
        results.append(distinguish_public_key(pub, u))
    return TrialSummary(params=params, u=u, results=results)


# -- work-factor estimates ------------------------------------------------


def attack_cost_report(params: GptParams) -> dict[str, float]:
    """log2 operation counts of the known generic attacks.

    ``basis_enumeration`` and ``coordinate_enumeration`` are the two
    rank-syndrome decoding strategies (guess a basis of the error support,
    or guess its expansion coordinates); ``polynomial_reconstruction`` is
    the algebraic attack that interpolates the hidden evaluation map;
    ``brute_force`` enumerates the rank-t1 secret component directly.
    """
    lg = math.log2
    N, n, k, q, t = params.N, params.n, params.k, params.q, params.t
    return {
        "basis_enumeration": 3 * lg(N * t) + (t - 1) * (k + 1) * lg(q),
        "coordinate_enumeration": 3 * lg(k + t) + 3 * lg(t) + (t - 1) * (N - t) * lg(q),
        "polynomial_reconstruction": lg(math.log(q)) + 3 * (N - t) * lg(N),
        "brute_force": n * params.t1 * lg(q),
    }


# A key is insecure when some attack costs fewer than 2^SECURITY_THRESHOLD_BITS operations.
SECURITY_THRESHOLD_BITS = 64


def security_status(costs: dict[str, float], distinguishable: bool) -> tuple[str, str]:
    """Classify a key as secure/insecure from attack costs and the distinguisher."""
    if distinguishable:
        return (
            "insecure",
            "the extended-rank distinguisher separates this key from random, "
            "exposing the private code row space",
        )
    name, exponent = min(costs.items(), key=lambda kv: kv[1])
    if exponent < SECURITY_THRESHOLD_BITS:
        return (
            "insecure",
            f"{name.replace('_', ' ')} costs about 2^{exponent:.1f}, "
            f"below the 2^{SECURITY_THRESHOLD_BITS} threshold",
        )
    return (
        "secure",
        f"cheapest known attack ({name.replace('_', ' ')}) costs about 2^{exponent:.1f}",
    )


@dataclass
class AttackReport:
    params: GptParams
    distinguisher: DistinguisherResult
    costs: dict[str, float]
    key_size_bits: float
    status: str
    reason: str


def attack_public_key(pub: GptPublicKey, u: int | None = None) -> AttackReport:
    """Full passive analysis of one public key."""
    result = distinguish_public_key(pub, u)
    costs = attack_cost_report(pub.params)
    status, reason = security_status(costs, result.distinguishable)
    return AttackReport(
        params=pub.params,
        distinguisher=result,
        costs=costs,
        key_size_bits=public_key_size_bits(pub.params),
        status=status,
        reason=reason,
    )


# -- reference security table ------------------------------------------------

# Published work factors for the length-28 setting (q = 2, N = n = 28,
# k = 14, so t = 7), indexed by the distortion rank t1.  Kept verbatim as a
# reference dataset: the exponents step by 24 per unit of t1, while the
# q^(n*t1) brute-force formula steps by 28.  Both are reported side by side
# and the gap is flagged, not reconciled.
REFERENCE_WORK_EXPONENTS = {0: 0, 1: 24, 2: 48, 3: 72, 4: 96, 5: 120, 6: 144, 7: 168}

WORK_FACTOR_NOTE = (
    "note: stored reference exponents grow by 24 per unit of distortion rank, "
    "while the q^(n*t1) brute-force formula at n = 28 grows by 28; both are "
    "shown unreconciled"
)


def example_security_table() -> list[dict]:
    """Security status of the length-28 setting for every distortion rank.

    One row per t1 in 0..7.  A row is insecure when there is no distortion
    at all (plain information-set decoding applies), when the distortion
    eats the whole decodability budget (no room for extension-field
    scrambler columns, so structural rank attacks strip the scrambler), or
    when the reference work factor sits below SECURITY_THRESHOLD_BITS.
    """
    base = preset("paper-28")
    t = base.t
    lg_q = math.log2(base.q)
    rows = []
    for t1, stored in sorted(REFERENCE_WORK_EXPONENTS.items()):
        formula = base.n * t1 * lg_q
        budget = t - t1
        if t1 == 0:
            status, reason = "insecure", "no distortion; information-set decoding applies"
        elif budget == 0:
            status, reason = (
                "insecure",
                "distortion uses the whole decodability budget, forcing a "
                "base-field scrambler that structural rank attacks strip",
            )
        elif stored < SECURITY_THRESHOLD_BITS:
            status, reason = (
                "insecure",
                f"work factor 2^{stored} is below the 2^{SECURITY_THRESHOLD_BITS} threshold",
            )
        else:
            status, reason = (
                "secure",
                f"work factor 2^{stored} with {budget} extension-field "
                f"scrambler column{'s' if budget != 1 else ''} available",
            )
        rows.append(
            {
                "t1": t1,
                "stored_exponent": stored,
                "formula_exponent": formula,
                "ext_budget": budget,
                "status": status,
                "reason": reason,
            }
        )
    return rows


# -- exhaustive oracle ------------------------------------------------


class BruteForceDecoder:
    """Nearest-codeword decoding by full enumeration, for tiny codes only.

    Ground truth oracle: no algebra beyond rank computations, so any
    disagreement with the syndrome decoder indicts the latter.
    """

    _LIMIT = 1 << 20

    def __init__(self, code):
        count = code.ctx.size**code.k
        if count > self._LIMIT:
            raise ParameterError(
                f"{count} codewords is too many to enumerate (limit {self._LIMIT})"
            )
        self.code = code
        self.ctx = code.ctx
        self.codewords = [
            (list(m), code.encode(list(m)))
            for m in itertools.product(range(code.ctx.size), repeat=code.k)
        ]
        self._min_distance = None

    def min_distance(self) -> int:
        if self._min_distance is None:
            self._min_distance = min(
                rank_over_base(self.ctx, c) for m, c in self.codewords if any(c)
            )
        return self._min_distance

    def nearest(self, y):
        """(message, codeword, distance, unique) of a closest codeword."""
        best = None
        best_d = None
        unique = True
        for m, c in self.codewords:
            d = rank_over_base(self.ctx, vec_sub(self.ctx, y, c))
            if best_d is None or d < best_d:
                best, best_d, unique = (m, c), d, True
            elif d == best_d:
                unique = False
        return best[0], best[1], best_d, unique

    def decode(self, y):
        m, c, d, unique = self.nearest(y)
        if not unique:
            raise DecodeFailure(f"no unique codeword at rank distance {d}")
        return m, c
