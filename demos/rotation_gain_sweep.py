"""What does splitting the workload over k keys buy, and when does it stop paying?

Sweeps k over powers of two for the reference CTR plan.  The security gain
per split is pinned between log2(k) and 2*log2(k) bits; the benefit column
(files protected per key spent) shows the economics turning down as k grows.
"""

from __future__ import annotations

from qkdplan import Mode, SecurityParams, compute_q_star, improvement_bits, sweep_k

params = SecurityParams.from_bits(128, 121, 96, target_bits=80)
plan = compute_q_star(Mode.CTR, params, file_size_bytes=1536)
print(f"ctr plan: {plan.q_star} files per key at worst-case {plan.worst_case_bits} bits")
print()

k_values = [1 << i for i in range(11)]
rows = sweep_k(Mode.CTR, params, plan.q_star, k_values)
print(f"{'k':>5s} {'gain bits':>15s} {'log2 k':>10s} {'2 log2 k':>10s} {'benefit':>15s}")
for row in rows:
    print(
        f"{row.k:>5d} {str(row.delta_bits):>15s} {str(row.lower_bound_bits):>10s} "
        f"{str(row.upper_bound_bits):>10s} {float(row.benefit.as_fraction()):>15.1f}"
    )

# The gain is log2(bound(Q*) / bound(Q*/k)), computed once; the bound ratio
# is checked exactly to lie in (k, k^2) before it is rounded, which places
# the gain strictly between log2 k and 2 log2 k.
report = improvement_bits(Mode.CTR, params, plan.q_star, 64)
print()
print(f"at k=64: log2 k {report.lower_bound_bits} < gain {report.delta_bits} < 2 log2 k {report.upper_bound_bits}")
