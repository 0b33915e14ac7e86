"""Exhaustive nearest-codeword decoder, the tests' ground-truth oracle.

Only tests call it, so it lives here and not in the package.
"""

import itertools

from gptrank.errors import DecodeFailure, ParameterError
from gptrank.linalg import rank_over_base, vec_sub


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
            raise DecodeFailure(f"no unique codeword at rank distance {d}", "codeword")
        return m, c
