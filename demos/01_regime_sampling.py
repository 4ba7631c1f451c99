"""Regime processes with memory: building and sampling semi-Markov models.

A regime process switches between a finite set of market states.  Unlike a
plain Markov chain, the time spent in a state (the holding time) may follow
any distribution, so the exit intensity depends on the age Y(t) -- the time
elapsed since the last switch.  The pair (state, age) is jointly Markov.

This script builds a three-state model with Weibull holding times, samples
it with two independent algorithms (inverse-CDF and thinning), checks that
they agree, and verifies the generator of (state, age) with a Monte Carlo
Dynkin identity.
"""
import numpy as np
from scipy import stats

from smjd.rng import stream
from smjd.semi_markov import (RegimeModel, RegimeState, WeibullHolding,
                              dynkin_statistics, hazard_rate,
                              intensity_matrix, sample_regime_paths,
                              simulate_regime_direct,
                              simulate_regime_thinning)

# ---------------------------------------------------------------------------
# 1. The model: three states, uniform routing, age-dependent exit rates
# ---------------------------------------------------------------------------
kernel = np.array([[0.0, 0.5, 0.5],
                   [0.5, 0.0, 0.5],
                   [0.5, 0.5, 0.0]])
model = RegimeModel(kernel=kernel,
                    holding=(WeibullHolding(shape=1.5, scale=0.8),
                             WeibullHolding(shape=2.0, scale=1.0),
                             WeibullHolding(shape=1.2, scale=1.2)))

print("Hazard rates grow with age (shape > 1), so long sojourns end soon:")
for y in (0.1, 0.5, 1.0, 2.0):
    rates = [hazard_rate(model, i, y) for i in range(3)]
    print(f"  age {y:.1f}: " + "  ".join(f"state {i}: {r:6.3f}"
                                         for i, r in enumerate(rates)))

print("\nAge-frozen intensity matrix at y = 0.5 (rows sum to zero):")
print(np.array_str(intensity_matrix(model, 0.5), precision=3))

# ---------------------------------------------------------------------------
# 2. Two samplers, one law
# ---------------------------------------------------------------------------
# The direct sampler inverts each holding-time CDF; the thinning sampler
# proposes exits at a dominating rate and accepts with probability
# hazard/bound.  They are algorithmically unrelated, so their agreement is
# a strong correctness check.
def holding_times(sim, tag, n_paths=2000, horizon=10.0):
    out = []
    for k in range(n_paths):
        p = sim(model, RegimeState(0, 0.0), horizon, stream(7, tag, k))
        ts = [t for t, _ in p.events]
        out.extend(b - a for a, b in zip([0.0] + ts[:-1], ts))
    return np.array(out)


h_direct = holding_times(simulate_regime_direct, "direct")
h_thin = holding_times(simulate_regime_thinning, "thin")
ks = stats.ks_2samp(h_direct, h_thin)
print(f"\nDirect sampler: {len(h_direct)} events, "
      f"mean holding {h_direct.mean():.4f}")
print(f"Thinning sampler: {len(h_thin)} events, "
      f"mean holding {h_thin.mean():.4f}")
print(f"Two-sample KS distance {ks.statistic:.4f} (p = {ks.pvalue:.3f}) "
      "-- same distribution")

# ---------------------------------------------------------------------------
# 3. The generator, certified by the Dynkin identity
# ---------------------------------------------------------------------------
# For a test function phi(i, y), L phi = dphi/dy + hazard * sum_j p_ij
# (phi(j, 0) - phi(i, y)).  Dynkin:  E[phi(end)] - phi(start) =
# E[int_0^T L phi dt].  We estimate both sides on the same paths.
phi = lambda i, y: (i + 1.0) * np.exp(-y)
dphi = lambda i, y: -(i + 1.0) * np.exp(-y)

T, n_paths = 2.0, 3000
# within each sojourn the age runs at unit rate from its entry value (the
# origin age for the first segment, 0 after every switch); the generator is
# integrated along it by the trapezoid rule with step at most 0.01
paths = sample_regime_paths(model, RegimeState(0, 0.0), T, n_paths, 11,
                            tag="dynkin")
gaps = dynkin_statistics(model, paths, phi, dphi, dt=0.01)
gap, se = gaps.mean(), gaps.std(ddof=1) / np.sqrt(n_paths)
print(f"\nDynkin gap: {gap:+.4f} +/- {se:.4f} "
      f"({'consistent with 0' if abs(gap) < 3 * se else 'INCONSISTENT'})")
