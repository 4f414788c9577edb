"""Heavy-traffic trajectories beyond plain lambda-scaling, and cancel-on-start.

Approaching the same boundary point from a tilted direction reweights the
exponentials of the limit law: on the n-model, tilting toward the {2}
constraint inflates the {2}-subsystem coefficient by mu2/(mu2 - delta).
The cancel-on-start limiting transform coincides with the
cancel-on-completion one, tilted or not.
"""
import itertools
from fractions import Fraction as F

from redundancy_ht import (SystemModel, TrajectorySpec,
                           critical_rate_and_subsets_bruteforce, crp_components,
                           default_trajectory, effective_rates, limit_law,
                           limiting_laplace, limiting_transform)

model = SystemModel(mu=(F(1), F(1)), lam=F(8, 10),
                    job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 2), F(1, 2)))
report = critical_rate_and_subsets_bruteforce(model)
dag = crp_components(model, report.lambda_star)

for delta in (F(0), F(3, 10)):
    traj = TrajectorySpec(gamma=(1 + delta, 1 - delta), epsilon=F(1, 20))
    rates = effective_rates(model, traj, report.lambda_star)
    law = limit_law(dag, traj)
    print(f"delta = {delta}: arrival rates at eps=1/20: {[str(r) for r in rates]}")
    for k, row in enumerate(law.coeffs):
        print(f"  U_{k + 1} coefficients: {[str(a) for a in row]}")
    print(f"  ({{2}}-subsystem coefficient is mu2/(mu2-delta) = {F(1)/(1-delta)})")

print("\ncancel-on-start transform equals cancel-on-completion on a grid:")
traj = TrajectorySpec(gamma=(F(13, 10), F(7, 10)), epsilon=F(1, 100))
grid = [F(i, 2) for i in range(4)]
agree = all(
    limiting_laplace(dag, t, traj)
    == limiting_transform(dag, t, traj)[0]
    for t in itertools.product(grid, repeat=2))
print("exact agreement on 16 rational points:", agree)

print("\nwith the default direction the transform of the total is Erlang:")
t1 = [F(1), F(1)]
print("  (1+t)^-K at t=1:", limiting_laplace(dag, t1, default_trajectory(model, F(1))))
