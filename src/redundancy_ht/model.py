"""Parallel-server system model: servers, job types, arrival rates.

A system has N servers with speeds mu_n and a Poisson arrival stream of
total rate N*lambda. Each job carries a type S, a nonempty subset of the
servers it may be processed by; a fraction p_S of jobs is of type S.

Numbers are kept in whichever backend they arrive in: `fractions.Fraction`
for exact work (criticality decisions, identity tests) or plain floats.
All operations here are generic over the two.
"""
from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import DomainError, ModelError

Scalar = Fraction | int | float

PROB_TOL = 1e-12  # |sum p_S - 1| tolerance for float inputs
MODEL_FORMAT_VERSION = 1


def parse_scalar(value) -> Scalar:
    """Parse a JSON-ish numeric value: strings become exact Fractions, bare numbers floats."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"not a number: {value!r}") from None
    if isinstance(value, bool):
        raise ModelError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float) and math.isfinite(value):
        return value
    raise ModelError(f"not a number: {value!r}")


def _dump_scalar(x: Scalar):
    """Serialize a scalar so that parse_scalar returns it in its own backend:
    exact values as rational strings, floats as JSON numbers."""
    return str(x) if is_exact(x) else float(x)


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


def type_label(servers: Iterable[int]) -> str:
    return ",".join(str(n) for n in sorted(servers))


class Record:
    """A value class whose fields are its own annotated class attributes, in
    order; a field with a class-level value defaults to it.

    Gives what `@dataclass(frozen=True)` gives, without compiling methods at
    import: `__init__` by position or keyword, then `__post_init__` when
    defined; equality, hash and repr by field value; `replace`. Assigning to
    or deleting a field raises AttributeError.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        get = operator.attrgetter(*fields)  # the field values as one tuple, read in C
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        if len(args) > len(fields) or given.keys() & kwargs or not kwargs.keys() <= set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        values = {**self._defaults, **given, **kwargs}
        if len(values) < len(fields):
            raise TypeError(f"{type(self).__name__}() missing "
                            f"{[name for name in fields if name not in values]}")
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, checked by __post_init__ again."""
        return type(self)(**{**dict(zip(self._fields, self._values)), **changes})


class SystemModel(Record):
    """Immutable system description.

    Attributes
    ----------
    mu : tuple of Scalar
        Server speeds, indexed by server id - 1 (servers are 1..N).
    lam : Scalar
        Per-server arrival rate lambda; total arrival rate is N*lambda.
    job_types : tuple of frozenset of int
        Compatible-server sets, one per job type, pairwise distinct.
    p : tuple of Scalar
        Arrival fractions per job type, summing to one.
    """

    mu: tuple
    lam: Scalar
    job_types: tuple
    p: tuple

    def __post_init__(self):
        if not self.mu:
            raise ModelError("need at least one server")
        if any(m <= 0 for m in self.mu):
            raise ModelError("all server speeds must be positive")
        if self.lam <= 0:
            raise ModelError("lambda must be positive")
        if not self.job_types:
            raise ModelError("need at least one job type")
        if len(self.job_types) != len(self.p):
            raise ModelError("job_types and p length mismatch")
        n = len(self.mu)
        seen = set()
        for servers in self.job_types:
            if not servers:
                raise ModelError("job type with empty server set")
            if not all(1 <= s <= n for s in servers):
                raise ModelError(f"job type {set(servers)} references unknown servers")
            if servers in seen:
                raise ModelError(f"duplicate job type {{{type_label(servers)}}}")
            seen.add(servers)
        if any(ps <= 0 for ps in self.p):
            raise ModelError("all p_S must be positive")
        total = sum(self.p)
        if all(is_exact(ps) for ps in self.p):
            if total != 1:
                raise ModelError(f"p_S must sum to 1 exactly, got {total}")
        elif abs(total - 1) > PROB_TOL:
            raise ModelError(f"p_S must sum to 1, got {total!r}")

    @property
    def exact(self) -> bool:
        """True on the exact backend: every rate and fraction is a Fraction or int."""
        return all(is_exact(x) for x in (*self.mu, self.lam, *self.p))

    @property
    def n_servers(self) -> int:
        return len(self.mu)

    @property
    def n_types(self) -> int:
        return len(self.job_types)

    @property
    def type_indices(self) -> range:
        return range(len(self.job_types))

    def servers_of(self, type_set: Iterable[int]) -> frozenset:
        """Union of compatible servers over the given type indices."""
        servers = set()
        for t in type_set:
            servers |= self.job_types[t]
        return frozenset(servers)

    def p_of(self, type_set: Iterable[int]) -> Scalar:
        return sum(self.p[t] for t in type_set)

    def mu_of(self, type_set: Iterable[int]) -> Scalar:
        """Aggregate speed of all servers compatible with at least one type in the set."""
        return sum(self.mu[n - 1] for n in self.servers_of(type_set))

    def labels(self) -> list:
        return [type_label(s) for s in self.job_types]

    def with_lambda(self, lam: Scalar) -> "SystemModel":
        return self.replace(lam=lam)

    def as_float(self) -> "SystemModel":
        try:
            return SystemModel(
                mu=tuple(float(m) for m in self.mu),
                lam=float(self.lam),
                job_types=self.job_types,
                p=tuple(float(ps) for ps in self.p),
            )
        except OverflowError:
            raise ModelError("a model number is out of float range") from None


class TrajectorySpec(Record):
    """Direction and position on a heavy-traffic trajectory.

    The arrival-rate vector is lambda_S(eps) = N*lambda* p_S - eps*gamma_S
    with all gamma_S > 0. The default trajectory gamma_S = N*lambda* p_S
    recovers plain lambda scaling with eps = 1 - lambda/lambda*.
    """

    gamma: tuple
    epsilon: Scalar

    def __post_init__(self):
        if any(g <= 0 for g in self.gamma):
            raise ModelError("all gamma_S must be positive")
        if self.epsilon < 0:
            raise ModelError("epsilon must be nonnegative")

    def gamma_of(self, type_set: Iterable[int]) -> Scalar:
        return sum(self.gamma[t] for t in type_set)


def default_trajectory(model: SystemModel, lam_star: Scalar) -> TrajectorySpec:
    """gamma_S = N*lambda* p_S, eps = 1 - lambda/lambda* (the fixed-direction ray)."""
    n = model.n_servers
    gamma = tuple(n * lam_star * ps for ps in model.p)
    return TrajectorySpec(gamma=gamma, epsilon=1 - model.lam / lam_star)


def effective_rates(model: SystemModel, traj: TrajectorySpec, lam_star: Scalar) -> tuple:
    """Per-type arrival rates lambda_S(eps) = N*lambda* p_S - eps*gamma_S.

    Raises DomainError naming the offending type if any rate is nonpositive.
    """
    if len(traj.gamma) != model.n_types:
        raise ModelError("gamma length does not match the number of job types")
    n = model.n_servers
    rates = []
    for t in model.type_indices:
        rate = n * lam_star * model.p[t] - traj.epsilon * traj.gamma[t]
        if rate <= 0:
            raise DomainError(
                f"lambda_S(eps) <= 0 for type {{{type_label(model.job_types[t])}}}: {rate}"
            )
        rates.append(rate)
    return tuple(rates)


def model_at_trajectory(model: SystemModel, traj: TrajectorySpec, lam_star: Scalar) -> SystemModel:
    """The pre-limit system with arrival rates lambda_S(eps): new lambda and p vector."""
    rates = effective_rates(model, traj, lam_star)
    total = sum(rates)
    n = model.n_servers
    return SystemModel(
        mu=model.mu,
        lam=total / n,
        job_types=model.job_types,
        p=tuple(r / total for r in rates),
    )


def _field(obj, key: str, where: str):
    """obj[key] of a parsed JSON object; ModelError when obj is no object or lacks key."""
    if not isinstance(obj, Mapping):
        raise ModelError(f"{where}: expected a JSON object, got {obj!r}")
    if key not in obj:
        raise ModelError(f"{where}: missing field {key!r}")
    return obj[key]


def _scalar_field(obj, key: str, where: str) -> Scalar:
    value = _field(obj, key, where)
    try:
        return parse_scalar(value)
    except ModelError as exc:
        raise ModelError(f"{where}: {key}: {exc}") from None


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ModelError(f"{where}: expected a JSON list, got {value!r}")
    return value


def _server_ids(value, where: str) -> list:
    ids = _list(value, where)
    if not all(type(v) is int for v in ids):
        raise ModelError(f"{where}: server ids must be integers, got {ids}")
    return ids


def _parse_gamma(raw: Mapping, job_types: Sequence[frozenset]) -> tuple:
    if not isinstance(raw, Mapping):
        raise ModelError(f"trajectory.gamma: expected a JSON object, got {raw!r}")
    by_label = {type_label(s): i for i, s in enumerate(job_types)}
    gamma = [None] * len(job_types)
    for key in raw:
        if key not in by_label:
            raise ModelError(f"trajectory.gamma key {key!r} matches no job type")
        gamma[by_label[key]] = _scalar_field(raw, key, "trajectory.gamma")
    missing = [lbl for lbl, i in by_label.items() if gamma[i] is None]
    if missing:
        raise ModelError(f"trajectory.gamma missing entries for types {missing}")
    return tuple(gamma)


def load_model(path) -> tuple:
    """Load a model file; returns (SystemModel, TrajectorySpec | None).

    Format::

        { "servers": [{"id": 1, "mu": "1"}, ...],
          "types":   [{"servers": [1, 2], "p": "1/2"}, ...],
          "lambda":  "0.45",
          "trajectory": {"gamma": {"1,2": "1", ...}, "epsilon": "0.02"} }

    Numeric strings parse as exact rationals, bare numbers as floats.
    Duplicate type subsets are rejected, not merged.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, too many digits
        raise ModelError(f"{path}: unreadable model file: {exc}") from None
    return parse_model(raw, where=str(path))


def parse_model(raw: Mapping, where: str = "<model>") -> tuple:
    for key in ("servers", "types", "lambda"):
        _field(raw, key, where)
    unknown = set(raw) - {"servers", "types", "lambda", "trajectory"}
    if unknown:
        raise ModelError(f"{where}: unknown fields {sorted(unknown)}")
    servers = _list(raw["servers"], f"{where}: servers")
    ids = _server_ids([_field(s, "id", f"{where}: servers[{i}]") for i, s in enumerate(servers)],
                      f"{where}: servers")
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise ModelError(f"{where}: server ids must be exactly 1..N, got {ids}")
    mu = [None] * len(ids)
    for i, s in enumerate(servers):
        mu[s["id"] - 1] = _scalar_field(s, "mu", f"{where}: servers[{i}]")
    job_types, p = [], []
    for i, t in enumerate(_list(raw["types"], f"{where}: types")):
        at = f"{where}: types[{i}]"
        job_types.append(frozenset(_server_ids(_field(t, "servers", at), f"{at}: servers")))
        p.append(_scalar_field(t, "p", at))
    model = SystemModel(mu=tuple(mu), lam=_scalar_field(raw, "lambda", where),
                        job_types=tuple(job_types), p=tuple(p))
    traj = None
    if "trajectory" in raw:
        tr, at = raw["trajectory"], f"{where}: trajectory"
        traj = TrajectorySpec(gamma=_parse_gamma(_field(tr, "gamma", at), model.job_types),
                              epsilon=_scalar_field(tr, "epsilon", at))
    return model, traj


def dump_model(model: SystemModel, traj: TrajectorySpec = None) -> dict:
    out = {
        "servers": [{"id": n + 1, "mu": _dump_scalar(m)} for n, m in enumerate(model.mu)],
        "types": [{"servers": sorted(s), "p": _dump_scalar(ps)}
                  for s, ps in zip(model.job_types, model.p)],
        "lambda": _dump_scalar(model.lam),
    }
    if traj is not None:
        out["trajectory"] = {
            "gamma": {type_label(s): _dump_scalar(g)
                      for s, g in zip(model.job_types, traj.gamma)},
            "epsilon": _dump_scalar(traj.epsilon),
        }
    return out
