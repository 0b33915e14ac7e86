"""Work factors, key sizes, and the recorded security of the length-28 setting.

The cost estimates are log2 operation counts for the known generic
attacks; the reference table records, for each distortion rank, whether
the setting survives both the generic attacks and the structural rank
distinguisher.  The viable ranks at the end are measured instead: the
status that attack_public_key gives one seeded key per distortion rank.
"""

import random

from gptrank import (
    attack_cost_report,
    attack_public_key,
    example_security_table,
    keygen,
    preset,
    public_key_size_bits,
)
from gptrank.attacks import WORK_FACTOR_NOTE

params = preset("paper-28")
print(f"setting: q={params.q}, N={params.N}, n={params.n}, k={params.k}, "
      f"t={params.t}, distortion rank t1={params.t1}, s_ext={params.s_ext}")
print(f"public key: {public_key_size_bits(params):g} bits")

print("\nattack cost estimates (log2):")
for name, exponent in attack_cost_report(params).items():
    print(f"  {name:26s} {exponent:8.2f}")

print("\nrecorded security per distortion rank:")
print("  t1  stored  formula  status    why")
for row in example_security_table():
    print(f"  {row['t1']:2d}  {row['stored_exponent']:6d}  {row['formula_exponent']:7.0f}"
          f"  {row['status']:8s}  {row['reason']}")
print("\n" + WORK_FACTOR_NOTE)

# the sweet spot: enough distortion to beat enumeration, enough budget
# left for extension-field scrambler columns to beat the distinguisher
ranks = [row["t1"] for row in example_security_table() if row["t1"] >= 1]
keys = {t1: keygen(preset("paper-28", t1=t1), random.Random(t1))[0] for t1 in ranks}
viable = [t1 for t1, pub in keys.items() if attack_public_key(pub).status == "secure"]
print("\nviable distortion ranks at this scale:", viable)
