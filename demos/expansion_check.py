"""Cross-validation of the slice-data expansions against the raw geometry.

The closed-form third-order expansions of (g, h) on the asymptotically null
slice are compared with a from-scratch pullback of the radiating metric: for
each of the twelve frame components the difference must decay like r^-4 or
faster.  Every coefficient function is switched on so that every displayed
term is exercised.
"""

import admbondi.jets as jx
from admbondi.bondi import BondiExpansion, expansion_consistency
from admbondi.ladder import slowest_order

Ac, Ad = 0.08, 0.05


def c(u, th, ps):
    return Ac * jx.sin(th) ** 2 * jx.cos(ps) * (1.0 + 0.5 * u)


def d(u, th, ps):
    return Ad * jx.sin(th) ** 2 * jx.sin(ps) * (1.0 - u / 3.0)


def M(u, th, ps):
    return 1.0 + 0.2 * jx.cos(th) + 0.0 * u


def N(u, th, ps):
    return 0.1 * Ac * jx.sin(th) ** 2 * jx.cos(th) * jx.cos(ps) + 0.0 * u


def P(u, th, ps):
    return 0.07 * Ad * jx.sin(th) ** 2 * jx.cos(th) * jx.sin(ps) + 0.0 * u


def C(u, th, ps):
    return 0.05 * Ac * jx.sin(th) ** 2 * jx.cos(ps) + 0.0 * u


def H(u, th, ps):
    return 0.05 * Ad * jx.sin(th) ** 2 * jx.sin(ps) + 0.0 * u


def a3(th, ps):
    return 0.02 * jx.sin(th) ** 2 * jx.sin(ps)


exp = BondiExpansion(c=c, d=d, M=M, N=N, P=P, C=C, H=H, name="biaxial")
radii = (50.0, 100.0, 200.0, 400.0, 800.0)
report = expansion_consistency(exp, u0=0.0, a3=a3, radii=radii)

print(f"{'component':>10}  {'fitted order':>12}  sup|pullback - closed form|")
for name, fit in report.items():
    tag = "exact" if fit.exact else f"{fit.exponent:12.3f}"
    sups = "  ".join(f"{s:.2e}" for s in fit.sups)
    print(f"{name:>10}  {tag:>12}  {sups}")
print()
slow_name, slow = slowest_order(report)
print(f"slowest fitted order: {slow:.3f} in {slow_name} "
      "(consistency requires >= 3.3)")
