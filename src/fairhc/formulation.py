"""Fairness policies and their mapping onto hosting-capacity problem instances.

A policy only changes the decision-variable box, an optional tying constraint
(egalitarian) and the objective (bargaining); the network constraints are shared.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingReference, ParameterOutOfRange
from .netmodel import NormalizedFeeder

VARIANTS = ("utilitarian", "egalitarian", "bounded", "bargaining")


@dataclass(frozen=True)
class FairnessPolicy:
    """Tagged fairness choice. ``alpha``/``beta`` belong to bounded, ``k`` to bargaining."""

    variant: str
    alpha: float | None = None
    beta: float | None = None
    k: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterOutOfRange(f"unknown fairness variant {self.variant!r}")
        need = {"bounded": ("alpha", "beta"), "bargaining": ("k",)}.get(self.variant, ())
        for name in ("alpha", "beta", "k"):
            value = getattr(self, name)
            if name in need:
                if value is None:
                    raise ParameterOutOfRange(f"{self.variant} policy requires {name}")
                if not 0.0 <= value <= 1.0:
                    raise ParameterOutOfRange(f"{name}={value} outside [0, 1]")
            elif value is not None:
                raise ParameterOutOfRange(f"{self.variant} policy does not take {name}")

    @classmethod
    def utilitarian(cls) -> "FairnessPolicy":
        return cls("utilitarian")

    @classmethod
    def egalitarian(cls) -> "FairnessPolicy":
        return cls("egalitarian")

    @classmethod
    def bounded(cls, alpha: float, beta: float) -> "FairnessPolicy":
        return cls("bounded", alpha=alpha, beta=beta)

    @classmethod
    def bargaining(cls, k: float) -> "FairnessPolicy":
        return cls("bargaining", k=k)


def parse_policy(text: str) -> FairnessPolicy:
    """Parse the CLI/JSON policy grammar, e.g. ``bounded:alpha=0.5,beta=0.3``."""
    head, _, tail = text.strip().partition(":")
    head = head.strip().lower()
    params: dict[str, float] = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ParameterOutOfRange(f"bad policy parameter {item!r}")
            try:
                params[key.strip()] = float(value)
            except ValueError as exc:
                raise ParameterOutOfRange(f"bad policy parameter {item!r}") from exc
    return FairnessPolicy(head, **params)


def policy_string(policy: FairnessPolicy) -> str:
    if policy.variant == "bounded":
        return f"bounded:alpha={policy.alpha},beta={policy.beta}"
    if policy.variant == "bargaining":
        return f"bargaining:k={policy.k}"
    return policy.variant


@dataclass(frozen=True)
class References:
    """Cached reference solutions (per unit) needed by the bounded policy."""

    egal_per_load: float  # uniform egalitarian allocation per load
    uti_allocation: np.ndarray  # utilitarian allocation vector


@dataclass(frozen=True)
class HCProblem:
    """Box and objective spec for one hosting-capacity solve."""

    feeder: NormalizedFeeder
    policy: FairnessPolicy
    lower: np.ndarray  # (D,) pu
    upper: np.ndarray  # (D,) pu
    reference_egal: float | None = None

    def __post_init__(self):
        if np.any(self.lower < -1e-12) or np.any(self.lower > self.upper + 1e-12):
            raise ParameterOutOfRange("problem box must satisfy 0 <= lower <= upper")

    @property
    def n_loads(self) -> int:
        return self.feeder.n_loads

    @property
    def tie(self) -> bool:
        """All allocations forced equal (the egalitarian policy)."""
        return self.policy.variant == "egalitarian"

    def objective(self, p: np.ndarray) -> float | np.ndarray:
        """Value to maximize at allocation ``p`` (pu), loads on the last axis.

        A 1-D allocation gives a float; a stack of allocations gives one value each.
        """
        value = p.sum(axis=-1)
        if self.policy.variant == "bargaining" and p.shape[-1]:
            k = self.policy.k
            disparity = np.max(np.abs(p - p.mean(axis=-1, keepdims=True)), axis=-1)
            value = k * value - (1.0 - k) * disparity
        return float(value) if p.ndim == 1 else value


def build_problem(nf: NormalizedFeeder, policy: FairnessPolicy,
                  refs: References | None = None) -> HCProblem:
    """Instantiate the per-policy box/objective over the feeder's load buses."""
    n = nf.n_loads
    if policy.variant != "bounded":
        return HCProblem(nf, policy, np.zeros(n), np.full(n, nf.dg_cap),
                         reference_egal=refs.egal_per_load if refs is not None else None)
    if refs is None:
        raise MissingReference("bounded policy needs egalitarian and utilitarian references")
    p_egal = refs.egal_per_load
    span = float(np.max(refs.uti_allocation)) - p_egal
    lower = np.full(n, policy.alpha * p_egal)
    upper = np.full(n, p_egal + policy.beta * max(span, 0.0))
    return HCProblem(nf, policy, lower, upper, reference_egal=p_egal)
