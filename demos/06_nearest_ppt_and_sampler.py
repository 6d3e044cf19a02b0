"""Nearest-PPT projection and the separable-minimum probe.

The alternating-projection solver reproduces the analytic nearest separable
points of the gamma = 0 slice; the probe over seeded product states, a few
seesaw sweeps then Newton steps, gives a one-sided floor for witness
expectations.  Given several witnesses, the probe draws one pool of product
states for all of them and runs one batched local search.
"""

from entwit import (
    SamplerConfig,
    SimplexParams,
    hs_norm,
    identity,
    min_separable_expectation,
    nearest_ppt,
    region_witnesses,
    simplex_state,
)

for alpha, beta in [(0.5, 0.0), (0.0, 0.8), (0.7, 0.15)]:
    rho = simplex_state(SimplexParams(alpha, beta, 0.0)).density()
    result = nearest_ppt(rho)
    print(f"({alpha}, {beta}): converged in {result.iterations} iterations, "
          f"distance {hs_norm(result.state.op - rho.op):.6f}, "
          f"min PT eigenvalue {result.min_pt_eigenvalue:+.2e}")

# one pool of 50000 product states serves both region witnesses
floors = min_separable_expectation(
    region_witnesses(), SamplerConfig(seed=0, count=50000))
print(f"\nseparable minimum probe of the region witnesses (one shared pool): "
      f"I {floors[0]:.3e}, II {floors[1]:.3e}")
print("(upper bounds on the true separable minima; certified witnesses "
      "never go negative; these tangent ones touch 0 up to rounding)")

# a non-witness: product states reach overlap 1/3 with |phi+>
phi_projector = simplex_state(SimplexParams(1.0, 0.0, 0.0)).op
floor = min_separable_expectation(
    0.3 * identity(3, 3) - phi_projector, SamplerConfig(seed=0, count=1000))
print(f"probe of 0.3*1 - P00: {floor:.6f} (exact minimum -1/30)")
