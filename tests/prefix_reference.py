"""The prefix-set recursions written once over generic scalars, kept as the
differential oracle of `analytic`'s integer engine.

`prefix_table` and `idle_sums` run the recursions of `analytic._prefix_table`
and `analytic._idle_sums` as their docstrings state them, in whatever
arithmetic the model and z bring: on Fractions every entry is exact, so the
integer engine must equal them entry for entry, raise the same PoleError
at the same set and the same DomainError at the same server set.
"""
from __future__ import annotations

from redundancy_ht.analytic import _bits, _server_mask
from redundancy_ht.errors import DomainError, PoleError


def idle_sums(model) -> list:
    """kappa(U) for every server mask U: K({}) = 1,
    K(I) = sum_{u in I} mu_u K(I - {u}) / (N lam compat(I)), then subset sums."""
    n = model.n_servers
    nlam = n * model.lam
    type_masks = [_server_mask(s) for s in model.job_types]
    kappa = [1] * (1 << n)
    for idle in range(1, 1 << n):
        compat = sum(p for p, m in zip(model.p, type_masks) if m & idle)
        if compat == 0:
            raise DomainError(
                f"servers {[u + 1 for u in _bits(idle)]} have no compatible job type")
        kappa[idle] = sum(model.mu[u] * kappa[idle ^ 1 << u] for u in _bits(idle)) \
            / (nlam * compat)
    for u in range(n):
        for idle in range(1 << n):
            if idle >> u & 1:
                kappa[idle] = kappa[idle] + kappa[idle ^ 1 << u]
    return kappa


def prefix_table(model, z, base: int = 0, top: int = None, open_top: bool = False) -> dict:
    """F_base(A) for base <= A <= top as a list of series coefficients:
    F_base(base) = 1 and
    F_base(A) = (N lam / mu(A)) / (1 - N lam pz(A) / mu(A)) * sum_{t in A - base} p_t z_t F_base(A - {t}),
    the stay factor left out at top with open_top."""
    top = (1 << model.n_types) - 1 if top is None else top
    nlam = model.n_servers * model.lam
    degrees = range(len(z[0]))
    pz = [[model.p[t] * c for c in z[t]] for t in model.type_indices]
    f = {base: [1] + [0] * (len(degrees) - 1)}
    free, sub = top & ~base, 0
    while sub != free:
        sub = (sub - free) & free
        a = base | sub
        rate = nlam / model.mu_of(_bits(a))
        pz_a = [sum(pz[t][k] for t in _bits(a)) for k in degrees]
        arrivals = [sum(pz[t][i] * f[a ^ 1 << t][k - i] for t in _bits(sub) for i in range(k + 1))
                    for k in degrees]
        if open_top and a == top:
            f[a] = [rate * x for x in arrivals]
            continue
        stay = 1 - rate * pz_a[0]
        if stay <= 0:
            raise PoleError(f"z is at or beyond a pole of the PGF (outside its domain) "
                            f"at the set of type indices {_bits(a)}")
        fa = []
        for k in degrees:
            fa.append(rate * (arrivals[k] + sum(pz_a[i] * fa[k - i] for i in range(1, k + 1)))
                      / stay)
        f[a] = fa
    return f
