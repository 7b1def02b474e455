"""Algorithm OpTop: the Price of Optimum on parallel links (Corollary 2.2).

OpTop computes the minimum portion ``beta_M`` of the total flow ``r`` a Leader
must control to induce the optimum cost ``C(O)`` on a parallel-link instance,
together with the optimal strategy.  The paper states it as a loop: compute
the optimum ``O`` once, then repeatedly compute the Nash equilibrium of the
current subsystem and freeze every *under-loaded* link (``n_i < o_i``,
Definition 4.3) at ``s_i = o_i``, until no link is under-loaded.

Its correctness argument (Section 7.4: Theorem 7.2, Lemma 7.5 and
Proposition 7.1) fixes which links the loop never freezes: the used links
whose latency at the optimum is minimal,

    U = {i : o_i > 0, l_i(o_i) = min_j l_j(o_j)},   beta = 1 - o(U) / r.

While a link outside ``U`` is active, the Nash level of the active subsystem
lies strictly above ``min l(o)``, so some link is under-loaded; once only
``U`` remains, ``o`` restricted to it is a Nash flow.  :func:`optop` solves
the optimum once, evaluates ``l(o)`` in one batched call and freezes every
used link whose optimum latency exceeds the minimum by more than ``delta``.
It still solves the Nash equilibrium (for ``C(N)``) and the induced
equilibrium ``S + T`` (to verify the strategy).

**Ties.**  ``beta`` jumps at ties, and the computed latencies of tied links
differ in their last bits, so ties are decided in latency units with
``delta = underload_atol * C(O) / r``, a fraction of the mean optimum
latency.  The Followers' Nash level on ``U`` then lies within ``delta`` of
``min l(o)``, hence ``C(S + T) <= C(O) + delta * r``.

**The round trace.**  The loop survives as a test oracle:
:attr:`OpTopResult.rounds` runs it on first access, with the same latency
rule (a used link is under-loaded iff ``l_i(o_i) > L_N + delta`` for the
round's Nash level ``L_N``); ``solve(instance, "optop")`` never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import SolveConfig

from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.parallel import parallel_nash, parallel_optimum
from repro.equilibrium.result import ParallelFlowResult, StackelbergOutcome
from repro.core.strategy import ParallelStackelbergStrategy

__all__ = ["OpTopRound", "OpTopResult", "optop"]


@dataclass(frozen=True)
class OpTopRound:
    """Trace of one OpTop iteration.

    Attributes
    ----------
    active_links:
        Original link indices still in play at the start of the round.
    remaining_flow:
        Selfish flow routed on those links at the start of the round.
    nash_flows:
        Nash assignment of that flow on the active links (aligned with
        ``active_links``).
    frozen_links:
        Links detected as under-loaded in this round and frozen at their
        optimum flow.
    """

    active_links: Tuple[int, ...]
    remaining_flow: float
    nash_flows: np.ndarray
    frozen_links: Tuple[int, ...]


@dataclass(frozen=True)
class OpTopResult:
    """Result of :func:`optop`.

    ``beta`` is the Price of Optimum; ``strategy`` the optimal Leader strategy
    (optimum flow on every frozen link); ``outcome`` the induced Stackelberg
    equilibrium ``S + T`` (which matches the optimum up to solver tolerance).
    ``frozen_links`` are the links the Leader controls, ``tie_tol`` is the
    latency tolerance ``delta`` that decided them and ``tie_margin`` the
    smallest ``l_i(o_i) - min l(o)`` among them (``None`` if there are none).
    """

    instance: ParallelLinkInstance
    beta: float
    strategy: ParallelStackelbergStrategy
    optimum: ParallelFlowResult
    initial_nash: ParallelFlowResult
    outcome: StackelbergOutcome
    frozen_links: Tuple[int, ...]
    tie_tol: float
    tie_margin: Optional[float]
    #: Water-filling settings of the solve, reused by the round oracle.
    water_fill_tol: float
    kernel_backend: str

    @property
    def controlled_flow(self) -> float:
        """Flow controlled by the Leader (``beta * r``)."""
        return self.strategy.controlled_flow

    @cached_property
    def rounds(self) -> Tuple[OpTopRound, ...]:
        """The paper's round-by-round trace, computed on first access.

        One Nash solve per round on the active links with the flow they
        carry at the optimum.  A used link is under-loaded iff
        ``l_i(o_i) > L_N + tie_tol``.  Latency cannot show this for a
        constant link: a used one sits at the cheapest constant's value,
        which caps ``L_N``.  At that level it is under-loaded exactly when
        an increasing used link is over-loaded (``l_i(o_i) < L_N -
        tie_tol``), since both flows route the same total.
        """
        instance, delta = self.instance, self.tie_tol
        opt, batch = self.optimum.flows, instance.latency_batch()
        latency, constant = batch.values(opt), batch.is_constant
        used = opt > 0.0
        active = np.arange(instance.num_links)
        remaining = instance.demand
        rounds: List[OpTopRound] = []
        while active.size:
            if active.size == instance.num_links:
                nash = self.initial_nash
            else:
                nash = parallel_nash(
                    instance.sub_instance(active.tolist(), remaining),
                    tol=self.water_fill_tol, backend=self.kernel_backend)
            live, lat = used[active], latency[active]
            under = live & (lat > nash.common_value + delta)
            if (live & ~constant[active]
                    & (lat < nash.common_value - delta)).any():
                under |= live & constant[active]
            frozen = active[under]
            rounds.append(OpTopRound(
                active_links=tuple(active.tolist()),
                remaining_flow=remaining,
                nash_flows=nash.flows.copy(),
                frozen_links=tuple(frozen.tolist()),
            ))
            if not frozen.size:
                break
            remaining = max(0.0, remaining - float(opt[frozen].sum()))
            active = active[~under]
        return tuple(rounds)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def optimum_cost(self) -> float:
        return self.optimum.cost

    @property
    def induced_cost(self) -> float:
        return self.outcome.cost

    @property
    def nash_cost(self) -> float:
        return self.initial_nash.cost


def optop(instance: ParallelLinkInstance, *, atol: Optional[float] = None,
          tol: Optional[float] = None,
          config: "SolveConfig | None" = None) -> OpTopResult:
    """Run algorithm OpTop on a parallel-link instance.

    Parameters
    ----------
    instance:
        The scheduling instance ``(M, r)``.
    atol:
        Tie tolerance relative to the mean optimum latency: links whose
        optimum latency lies within ``delta = atol * C(O) / r`` of the
        minimum count as tied and are left to the Followers.  Defaults to
        1e-8.
    tol:
        Tolerance passed to the water-filling solvers.  Defaults to 1e-12.
    config:
        A :class:`repro.api.SolveConfig` supplying ``underload_atol`` and
        ``water_fill_tol``; explicit keywords take precedence.

    Returns
    -------
    OpTopResult
        With the Price of Optimum ``beta``, the optimal strategy and the
        induced equilibrium; the round trace is built lazily.
    """
    if config is not None:
        atol = config.underload_atol if atol is None else atol
        tol = config.water_fill_tol if tol is None else tol
    atol = 1e-8 if atol is None else atol
    tol = 1e-12 if tol is None else tol
    backend = "auto" if config is None else config.kernel_backend
    optimum = parallel_optimum(instance, tol=tol, backend=backend)
    initial_nash = parallel_nash(instance, tol=tol, backend=backend)

    opt, demand = optimum.flows, instance.demand
    latency = instance.latency_batch().values(opt)
    used = opt > 0.0
    excess = latency - latency.min(where=used, initial=np.inf)
    delta = atol * optimum.cost / demand if demand > 0.0 else 0.0
    frozen = used & (excess > delta)
    strategy_flows = np.where(frozen, opt, 0.0)
    strategy = ParallelStackelbergStrategy(flows=strategy_flows,
                                           total_demand=demand)
    return OpTopResult(
        instance=instance,
        beta=float(strategy_flows.sum()) / demand,
        strategy=strategy,
        optimum=optimum,
        initial_nash=initial_nash,
        outcome=strategy.induce(instance, tol=tol, backend=backend),
        frozen_links=tuple(np.flatnonzero(frozen).tolist()),
        tie_tol=delta,
        tie_margin=float(excess[frozen].min()) if frozen.any() else None,
        water_fill_tol=tol,
        kernel_backend=backend,
    )
