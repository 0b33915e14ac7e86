"""Write the golden key and ciphertext files that tests/test_golden.py pins.

    PYTHONPATH=src python tests/golden/generate.py tests/golden

Every record is drawn from a fixed seed.  The committed fixtures were written
by the serializer that predates the declared key-file schema, so they pin the
byte layout of all three encodings.  Rewriting them is a change of file
format: do it only on purpose, and say so.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from gptrank.gpt import GptParams, encrypt, keygen, preset
from gptrank.keyfiles import CiphertextBundle, save_ciphertext, save_private_key, save_public_key

FORMATS = ("bin", "hex", "json")

# name -> (params, seed, write the private key too)
CASES = {
    "desk12": (lambda: preset("desk-12"), 101, True),
    "basefield": (lambda: preset("desk-12", scrambler_mode="base_field", s_ext=0), 102, True),
    "v4": (lambda: GptParams(q=2, N=12, n=12, k=6, t1=2, t2=2, s_ext=1, variant=4), 103, True),
    "v5": (lambda: GptParams(q=2, N=12, n=12, k=6, t1=1, t2=2, s_ext=1, variant=5, p=1), 104, True),
    "v6": (
        lambda: GptParams(
            q=2, N=14, n=14, k=6, t1=2, t2=1, s_ext=1, variant=6, m_cols=2, x_ordinary_rank=1
        ),
        105,
        True,
    ),
    "q3": (lambda: GptParams(q=3, N=6, n=6, k=2, t1=1, s_ext=1), 106, True),
    "paper28": (lambda: preset("paper-28"), 107, False),
}


def ciphertext(pub, rng) -> CiphertextBundle:
    params = pub.params
    ctx = params.field()
    blocks = [
        encrypt(pub, [ctx.rand_elem(rng) for _ in range(params.pub_rows)], rng) for _ in range(2)
    ]
    return CiphertextBundle(
        q=params.q,
        N=params.N,
        block_len=params.pub_cols,
        msg_len=5,
        blocks=blocks,
    )


def main(out_dir: str) -> None:
    out = Path(out_dir)
    for name, (make_params, seed, with_private) in CASES.items():
        rng = random.Random(seed)
        pub, priv = keygen(make_params(), rng)
        ct = ciphertext(pub, rng)
        for fmt in FORMATS:
            save_public_key(out / f"{name}.public.{fmt}", pub, fmt)
            if with_private:
                save_private_key(out / f"{name}.private.{fmt}", priv, fmt)
            save_ciphertext(out / f"{name}.ciphertext.{fmt}", ct, fmt)


if __name__ == "__main__":
    main(sys.argv[1])
