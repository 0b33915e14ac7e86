"""The desk-12 parameter grid that the parameter-rule and distinguisher sweeps walk."""

import itertools

from gptrank.errors import ParameterError
from gptrank.gpt import GptParams


def sweep_grid():
    """Every combination of counts around the legal ranges, at desk-12 size.

    Each tuple is (variant, t1, t2, p, m_cols, scrambler mode, s_ext,
    x_ordinary_rank), in a fixed order.
    """
    return itertools.product(
        range(3, 7), range(-1, 5), range(-1, 4), range(-1, 3), range(-1, 3),
        ("base_field", "extension_field"), (None, -1, 0, 1, 2, 3), (None, 0, 1, 2, 3),
    )  # fmt: skip


def sweep_params(v, t1, t2, p, m_cols, mode, s_ext, rx):
    """The desk-12 GptParams of one grid tuple; ParameterError when the rules refuse it."""
    return GptParams(
        q=2, N=12, n=12, k=6, variant=v, t1=t1, t2=t2, p=p, m_cols=m_cols,
        scrambler_mode=mode, s_ext=s_ext, x_ordinary_rank=rx,
    )  # fmt: skip


def accepted_sweep_params():
    """The GptParams of every grid tuple that the rules accept, in grid order."""
    accepted = []
    for values in sweep_grid():
        try:
            accepted.append(sweep_params(*values))
        except ParameterError:
            continue
    return accepted
