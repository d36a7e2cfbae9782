"""Contraction along a translation axis, and the commuting window at the nub.

A hyperbolic tree isometry g attracts one end and repels another.  Three
effects of that are checked here at finite depth:

  * conjugates g^-k u g^k of a small perturbation u die out past a
    computable onset (contraction certificate);
  * the attracting half-tree supports a product decomposition that g maps
    strictly inside itself (the goodshrink construction);
  * translates of a window straddling the axis commute with each other
    over a whole range of shifts (the nub window).
"""
from tdlclab import (
    CylinderClopen,
    IsometrySpec,
    contraction_certificates,
    goodshrink_construct,
    hyperbolic_isometry,
    nub_window,
    parse_perm,
    regular,
    symmetric_group,
)

T3 = regular(3)
S3 = symmetric_group(3)
g = hyperbolic_isometry(T3, (0,))
print(f"g translates along the axis ...0101... with displacement {g.displacement}")

print("\n== contraction certificate ==")
u = IsometrySpec(T3, sites=(((0, 1), parse_perm("(0 2)", 3)),))  # swap below vertex 01
cert = contraction_certificates(g, [u], ball_radius=4)[0]
print(f"verdict: {cert['verdict']}")
print(f"conjugates trivial on the {cert['ball']}-ball from k = {cert['k']}")
print(f"onset monotone: {cert['onset_monotone']}")

print("\n== goodshrink on the attracting half-tree ==")
alpha = CylinderClopen.cylinder(T3, (0,))
kappa, report = goodshrink_construct(S3, g, alpha, depth=6)
print(f"alpha = {report['alpha']}, g.alpha = {report['beta']}, kappa = {kappa}")
print(f"chain measures: {[str(m) for m in report['chain_measures']]}")
for name, ok in report["checks"].items():
    print(f"  {name}: {ok}")
print(f"verdict: {report['verdict']}")

print("\n== nub window ==")
beta = CylinderClopen.cylinder(T3, (0, 2))
win = nub_window(S3, g, beta, v_level=3, m=3, depth=8)
print(f"window of {win['factor_count']} translates, shifts -3..3:")
for shift, cyl in sorted(win["translates"].items(), key=lambda kv: int(kv[0])):
    print(f"  g^{shift:>2} beta = {cyl}")
print(f"cross-pair commutators checked: {win['factor_pair_checks']}")
for name, ok in win["checks"].items():
    print(f"  {name}: {ok}")
print(f"verdict: {win['verdict']}")
