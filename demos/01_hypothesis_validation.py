"""Check the structural hypotheses before solving anything.

The variational machinery only works when every nonlinearity exponent sits
strictly above the defocusing exponent q and the coupling stays below the
geometric mean of the potentials.  This script validates the default
problem, shows how violations are reported, and computes the amplitude
beyond which the combined reaction term turns superlinear.
"""

import numpy as np

from nehari import Nonlinearity, radius_R, validate_nonlinearity, validate_problem
from nehari.cli import default_bounded_spec
from nehari.grid import GridFunction
from nehari.model import ProblemSpec, validate_potentials

spec = default_bounded_spec()
print("Default bounded problem: f(s) = |s|^2 s, q = 3, lambda = 0.3\n")
report = validate_problem(spec)
print(report.format_text())

print("A nonlinearity growing slower than |s|^(q-2) s is rejected:")
bad = validate_nonlinearity(Nonlinearity(((1.0, 2.5),)), q=3.0)
for check in bad.failures():
    print("  " + check.format_line())

print("\nA coupling above sqrt(V1 V2) breaks coercivity and is rejected:")
dom = spec.domain
too_strong = ProblemSpec(
    domain=dom, q=3.0, f1=spec.f1, f2=spec.f2,
    V1=spec.V1, V2=spec.V2,
    lam=GridFunction.constant(dom, 1.2),
)
for check in validate_potentials(too_strong).failures():
    print("  " + check.format_line())

print("\nRadius where F(s) overtakes |s|^q / q (superlinearity sets in):")
for terms, q in [(((1.0, 4.0),), 3.0), (((1.0, 4.0),), 2.5), (((10.0, 4.0),), 3.0)]:
    R = radius_R(Nonlinearity(terms), q)
    print(f"  terms={terms}, q={q}:  R = {R:.6f}")

# the combined term f(s) - |s|^(q-2) s really is sign-changing: negative
# for small amplitudes, positive beyond the crossing
nl = Nonlinearity(((1.0, 4.0),))
s = np.array([0.5, 0.9, 1.0, 1.1, 2.0])
combined = nl.f(s) - np.abs(s) ** 1.0 * s
print("\nCombined reaction term u^3 - u^2 at s =", s, ":")
print(" ", combined)
