"""The fibering map along a ray and the projection onto the Nehari manifold.

Every nonzero state spawns a one-variable energy profile t -> J(t u, t v)
that rises from zero, peaks exactly once, and falls to minus infinity.
The unique peak is where the ray crosses the manifold.  For the sine mode
on (0,1) the peak location solves a quadratic, giving a closed-form check.
"""

import numpy as np

from nehari import (
    DomainSpec,
    GridFunction,
    Nonlinearity,
    ProblemSpec,
    State,
    fibering_project,
    fibering_slope,
    fibering_value,
    nehari_xi,
)

n = 1024
dom = DomainSpec.dirichlet_box(1.0, n)
one = GridFunction.constant(dom, 1.0)
nl = Nonlinearity(((1.0, 4.0),))
spec = ProblemSpec(domain=dom, q=3.0, f1=nl, f2=nl, V1=one, V2=one,
                   lam=GridFunction.constant(dom, 0.0))

x = dom.axis_coordinates(0)
s = State(GridFunction(dom, np.sin(np.pi * x)), GridFunction.constant(dom, 0.0))

report, s_on = fibering_project(spec, s)
print(f"projection of the sine mode: t* = {report.t_star:.12f}")
print(f"energy at the peak:          phi(t*) = {report.phi_at_t:.12f}")
print(f"constraint residual:         xi = {nehari_xi(spec, s_on):.3e}")

# closed form: phi'(t)/t = A - B t^2 + C t with the three mode integrals
h = dom.spacing[0]
A = (4.0 / h**2 * np.sin(np.pi * h / 2.0) ** 2 + 1.0) * np.sum(np.sin(np.pi * x) ** 2) * h
B = np.sum(np.sin(np.pi * x) ** 4) * h
C = np.sum(np.abs(np.sin(np.pi * x)) ** 3) * h
t_closed = (C + np.sqrt(C * C + 4.0 * A * B)) / (2.0 * B)
print(f"quadratic-root oracle:       t* = {t_closed:.12f}")
print(f"continuum limit:             t* = 4.414654285064  (A = pi^2/2 + 1/2, "
      f"B = 3/8, C = 4/(3 pi))")

print("\n profile of the fibering map (one sign change of the slope):")
print(f"{'t':>10s} {'phi(t)':>14s} {'phi_prime(t)':>14s}")
for t in report.t_star * np.array([0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0]):
    print(f"{t:10.4f} {fibering_value(spec, s, t):14.6f} {fibering_slope(spec, s, t):14.6f}")

print("\nprojection is scale-free: t*(c s) = t*(s)/c")
for c in (0.5, 2.0, 10.0):
    rep_c, _ = fibering_project(spec, s.scaled(c))
    print(f"  c = {c:5.1f}:  t* c = {rep_c.t_star * c:.12f}")
