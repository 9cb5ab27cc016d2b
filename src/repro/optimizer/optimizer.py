"""The chooser: price every strategy, pick one, explain it, cache it.

:meth:`Optimizer.choose` enumerates the registered strategy space
(:mod:`repro.optimizer.space`), prices each option twice -- the analytic
model for ordering/explanation, then (by default) the calibrated
simulator itself for the authoritative makespan -- and returns a
:class:`Decision` carrying every candidate's price, so callers can ask
not just *what* was chosen but *why* and *what it beat*.

Decisions are content-addressed: the cache key is plan hash + stats
digest + calibration fingerprint + cluster shape, so a repeat query
skips enumeration and simulation entirely, and any change to the data
stats or the platform re-prices from scratch.

Tie-breaking prefers the *simpler* strategy (serial < fused < fission <
fused+fission < round-trip < host < cluster): when pipelining or devices
buy nothing, the optimizer should say so by picking the plain plan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..errors import DeviceOOMError, FaultError, PlanError
from ..plans.plan import Plan
from ..runtime.executor import Executor, RunResult
from ..runtime.strategies import ExecutionConfig, Strategy
from ..simgpu.device import DeviceSpec
from .costmodel import CostEstimate, CostModel
from .fingerprint import (calibration_fingerprint, cluster_fingerprint,
                          plan_fingerprint)
from .plancache import PlanCache
from .space import EnumContext, StrategyOption, enumerate_from
from .stats import DataStats

#: tie-break order: simpler strategies win equal prices
_RANK = {
    Strategy.SERIAL: 0, Strategy.FUSED: 1, Strategy.FISSION: 2,
    Strategy.FUSED_FISSION: 3, Strategy.WITH_ROUND_TRIP: 4,
}


def _rank(option: StrategyOption) -> int:
    if option.kind == "single":
        return _RANK[option.strategy]
    if option.kind == "cpubase":
        return 5
    return 6 + option.devices


@dataclass(frozen=True)
class PricedOption:
    """One candidate with its analytic and (optionally) simulated price."""

    option: StrategyOption
    est: CostEstimate
    #: the simulator's authoritative makespan; None when pricing was
    #: analytic-only (``simulate=False``) or the option was infeasible
    sim_makespan_s: float | None = None
    feasible: bool = True
    notes: tuple[str, ...] = ()

    @property
    def price_s(self) -> float:
        """What the chooser compares: simulated when available."""
        if self.sim_makespan_s is not None:
            return self.sim_makespan_s
        return self.est.total_s

    @property
    def label(self) -> str:
        return self.option.label


@dataclass
class Decision:
    """A priced, explainable strategy choice for (plan, stats, devices)."""

    plan_name: str
    plan_fp: str
    stats_digest: str
    calibration_fp: str
    max_devices: int
    chosen: PricedOption
    #: every candidate, feasible first, each tier sorted by price
    candidates: tuple[PricedOption, ...]
    simulated: bool = True
    cache_key: str = ""
    cache_hit: bool = False

    # ------------------------------------------------------------------
    def ranked(self) -> list[PricedOption]:
        """Feasible candidates, cheapest first."""
        return sorted((c for c in self.candidates if c.feasible),
                      key=lambda c: (c.price_s, _rank(c.option)))

    def rejected(self, n: int = 2) -> list[PricedOption]:
        """The best `n` feasible candidates the chooser did not pick."""
        out = [c for c in self.ranked() if c.option != self.chosen.option]
        return out[:n]

    @property
    def best_price_s(self) -> float:
        ranked = self.ranked()
        return ranked[0].price_s if ranked else self.chosen.price_s

    def explain(self) -> str:
        """Human-readable pricing table (the ``--explain`` output)."""
        lines = [
            f"plan {self.plan_name}  stats {self.stats_digest[:12]}  "
            f"calibration {self.calibration_fp[:12]}  "
            f"max_devices {self.max_devices}"
            + ("  [cache hit]" if self.cache_hit else ""),
            f"{'':2s}{'strategy':28s} {'est (ms)':>10s} {'sim (ms)':>10s}"
            f"  notes",
        ]
        for cand in self.ranked() + [c for c in self.candidates
                                     if not c.feasible]:
            mark = "*" if cand.option == self.chosen.option else " "
            sim = ("" if cand.sim_makespan_s is None
                   else f"{cand.sim_makespan_s * 1e3:10.3f}")
            note = "; ".join(cand.notes)
            if not cand.feasible:
                note = ("infeasible" + (": " + note if note else ""))
            lines.append(f"{mark:2s}{cand.label:28s} "
                         f"{cand.est.total_s * 1e3:10.3f} {sim:>10s}  {note}")
        return "\n".join(lines)

    def summary(self) -> dict:
        """Deterministically-rounded dict (CI byte-compares the sorted
        JSON dump of this across reruns)."""
        out: dict[str, object] = {
            "optimizer.plan": self.plan_name,
            "optimizer.plan_fp": self.plan_fp,
            "optimizer.stats_digest": self.stats_digest,
            "optimizer.calibration_fp": self.calibration_fp,
            "optimizer.max_devices": self.max_devices,
            "optimizer.chosen": self.chosen.label,
            "optimizer.chosen_price_s": round(self.chosen.price_s, 9),
            "optimizer.simulated": int(self.simulated),
            "optimizer.candidates": len(self.candidates),
        }
        for cand in self.candidates:
            key = f"candidate.{cand.label}"
            out[f"{key}.est_s"] = round(cand.est.total_s, 9)
            out[f"{key}.feasible"] = int(cand.feasible)
            if cand.sim_makespan_s is not None:
                out[f"{key}.sim_s"] = round(cand.sim_makespan_s, 9)
        return out


class Optimizer:
    """Cost-based strategy chooser with a content-addressed decision cache."""

    def __init__(self, device: DeviceSpec | None = None,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS,
                 cache: PlanCache | None = None,
                 simulate: bool = True,
                 cluster_seed: int = 0,
                 pcie_sharers: int | None = None):
        self.device = device or DeviceSpec()
        self.costs = costs
        #: plan cache for this optimizer's ``decision:*`` choices and
        #: ``absint:*`` memory verdicts (the executors it spawns keep
        #: nothing: size estimation, fusion and distribution re-run)
        self.cache = cache
        #: refine analytic prices with the simulator (authoritative)
        self.simulate = simulate
        self.cluster_seed = cluster_seed
        self.pcie_sharers = pcie_sharers
        self.cost_model = CostModel(self.device, costs)

    # ------------------------------------------------------------------
    def choose(self, plan: Plan, source_rows: dict[str, int] | None = None,
               stats: DataStats | None = None, max_devices: int = 1,
               schemes: tuple[str, ...] = ("hash",),
               include_cpubase: bool = True) -> Decision:
        """Price the strategy space for (plan, stats) and pick a winner."""
        plan.validate()
        if stats is None:
            stats = DataStats.from_rows(plan, source_rows)

        plan_fp = plan_fingerprint(plan)
        calib_fp = calibration_fingerprint(self.device)
        stats_dg = stats.digest()
        cache_key = PlanCache.key(
            "decision", plan_fp, stats_dg, calib_fp,
            cluster_fingerprint(max_devices, "/".join(schemes),
                                self.cluster_seed, self.pcie_sharers),
            include_cpubase, self.simulate)
        if self.cache is not None:
            hit = self.cache.get(cache_key)
            if hit is not None:
                return dataclasses.replace(hit, cache_hit=True)

        ctx = EnumContext(plan=plan, stats=stats, max_devices=max_devices,
                          schemes=schemes, include_cpubase=include_cpubase)
        priced: list[PricedOption] = []
        for option in enumerate_from(ctx):
            dist = (ctx.distributable(option.devices)
                    if option.kind == "cluster" else None)
            est = self.cost_model.estimate(plan, stats, option, dist=dist)
            sim, feasible, notes = None, True, []
            verdict = self._memory_verdict(plan, plan_fp, stats_dg,
                                           calib_fp, option, stats)
            if verdict is not None and verdict.certain_oom:
                # hard-prune without simulating: the abstract interpreter
                # proved the dispatch would raise DeviceOOMError
                feasible = False
                notes = [f"MEM701 certain OOM: {verdict.detail}"]
            elif self.simulate:
                sim, feasible, notes = self._simulate(plan, stats, option)
            priced.append(PricedOption(
                option=option, est=est, sim_makespan_s=sim,
                feasible=feasible, notes=tuple(notes)))

        feasible = [c for c in priced if c.feasible]
        if not feasible:
            raise PlanError(
                f"no feasible execution strategy for plan {plan.name!r}")
        chosen = min(feasible, key=lambda c: (c.price_s, _rank(c.option)))
        decision = Decision(
            plan_name=plan.name, plan_fp=plan_fp, stats_digest=stats_dg,
            calibration_fp=calib_fp, max_devices=max_devices, chosen=chosen,
            candidates=tuple(priced), simulated=self.simulate,
            cache_key=cache_key)
        if self.cache is not None:
            self.cache.put(cache_key, decision)
        return decision

    # ------------------------------------------------------------------
    def _memory_verdict(self, plan: Plan, plan_fp: str, stats_dg: str,
                        calib_fp: str, option: StrategyOption,
                        stats: DataStats):
        """Static memory verdict for a single-device option, cached under
        ``absint:*`` keys (None for cluster/host options: hosts cannot
        OOM and cluster shards are priced by simulation)."""
        if option.kind != "single":
            return None
        from ..analyze.memory_check import check_strategy
        key = PlanCache.key("absint", plan_fp, stats_dg, calib_fp,
                            option.strategy.value)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        verdict = check_strategy(plan, option.strategy,
                                 stats.source_rows(), self.device,
                                 stats=stats)
        if self.cache is not None:
            self.cache.put(key, verdict)
        return verdict

    # ------------------------------------------------------------------
    def _simulate(self, plan: Plan, stats: DataStats,
                  option: StrategyOption):
        """Authoritative price: actually run the option on the simulator.
        Returns (makespan | None, feasible, notes)."""
        rows = stats.source_rows()
        try:
            if option.kind == "cpubase":
                res = self._executor().run_cpubase(plan, rows)
                return res.makespan, True, []
            if option.kind == "single":
                res = self._executor().run(
                    plan, rows, ExecutionConfig(strategy=option.strategy))
                notes = ([f"{res.num_chunks} chunks"]
                         if res.num_chunks > 1 else [])
                return res.makespan, True, notes
            from ..cluster.executor import ClusterConfig, ClusterExecutor
            cx = ClusterExecutor(
                self.device, costs=self.costs,
                config=ClusterConfig(
                    num_devices=option.devices, scheme=option.scheme,
                    seed=self.cluster_seed, strategy=option.strategy,
                    pcie_sharers=self.pcie_sharers, preagg=option.preagg,
                    merge=option.merge))
            res = cx.run(plan, rows)
            return res.makespan, True, []
        except (DeviceOOMError, PlanError, FaultError, KeyError,
                ValueError) as err:
            return None, False, [f"{type(err).__name__}: {err}"]

    def _executor(self, faults=None, check: bool = False,
                  analyze: bool = False) -> Executor:
        return Executor(self.device, costs=self.costs, check=check,
                        faults=faults, analyze=analyze)

    # ------------------------------------------------------------------
    def run(self, plan: Plan, source_rows: dict[str, int] | None = None,
            stats: DataStats | None = None, max_devices: int = 1,
            schemes: tuple[str, ...] = ("hash",),
            include_cpubase: bool = True, faults=None, check: bool = False,
            analyze: bool = False):
        """Choose a strategy and execute it.

        Returns ``(result, decision)``; the result is a
        :class:`~repro.runtime.executor.RunResult` for single-device /
        host choices and a
        :class:`~repro.cluster.executor.ClusterRunResult` for cluster
        choices.  A run that degrades off the chosen strategy (fault
        ladder) *invalidates* the cached decision instead of pinning the
        failed strategy for future queries.
        """
        decision = self.choose(plan, source_rows, stats=stats,
                               max_devices=max_devices, schemes=schemes,
                               include_cpubase=include_cpubase)
        option = decision.chosen.option
        rows = source_rows if source_rows is not None else (
            stats.source_rows() if stats is not None else {})
        if option.kind == "cpubase":
            result: object = self._executor(
                faults=faults, check=check).run_cpubase(plan, rows)
        elif option.kind == "single":
            result = self._executor(faults=faults, check=check,
                                    analyze=analyze).run(
                plan, rows, ExecutionConfig(strategy=option.strategy))
        else:
            from ..cluster.executor import ClusterConfig, ClusterExecutor
            cx = ClusterExecutor(
                self.device, costs=self.costs,
                config=ClusterConfig(
                    num_devices=option.devices, scheme=option.scheme,
                    seed=self.cluster_seed, strategy=option.strategy,
                    check=check, faults=faults, analyze=analyze,
                    pcie_sharers=self.pcie_sharers, preagg=option.preagg,
                    merge=option.merge))
            result = cx.run(plan, rows)
        degraded = getattr(result, "degraded_to", None)
        if degraded is None and hasattr(result, "shard_runs"):
            if any(r.degraded_to for r in result.shard_runs):
                degraded = "cluster-shard"
        if degraded is not None and self.cache is not None:
            # don't pin a strategy that just faulted its way down the
            # ladder: the next identical query re-prices from scratch
            self.cache.invalidate(decision.cache_key)
        return result, decision
