"""Charting a gamma slice: NPT regions, detected bound entanglement, unresolved PPT.

Sweeps the positivity bounding box of two slices and tallies the labels;
the gamma = -3/7 slice contains detected bound entangled cells, the
gamma = 0 slice cannot.
"""

from collections import Counter

from entwit.atlas import classify_point, lambda_scan, slice_sweep
from entwit.families import SimplexParams, horodecki_to_simplex

for gamma in (0.0, -3 / 7):
    report = slice_sweep(gamma, 61)
    tally = Counter(report.columns.label.tolist())
    print(f"gamma = {gamma:+.4f}: ", dict(sorted(tally.items())))

# the bound entangled Horodecki point b = 4 lives in the gamma = -3/7 slice
sample = classify_point(horodecki_to_simplex(4.0))
print("\nb = 4 embedded point:", sample.label,
      " (witness values:", {k: round(v, 5) for k, v in
                            sample.witness_values.items()}, ")")

# threshold scan summary
report = lambda_scan(0.2, 3 / 7, 500)
print(f"\nlambda_min over the scan: {report.min_lambda:.6f} "
      f"at gamma = {report.argmin_gamma:.6f}")

point = classify_point(SimplexParams(0.119, -0.333, -0.2857))
print("a nearby off-line point:", point.label)
