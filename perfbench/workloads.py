"""The benchmark's workloads (why each exists: ``perfbench/README.md``).

Every workload takes the workload seed and the engine, and one call of
:meth:`Workload.run_once` performs one measured repetition: it times the
set-up and the body separately and returns every operation's output.
An operation is one simulated grid point or one standalone baseline.

The point workloads drive the library exactly as the harness does for
the same point (same configs, same ``make_mix`` call; the benchmark's
tests compare their statistics with ``Session.run``), but without a
``Session``, so set-up can be timed apart from the simulation.  The
modelled LLC starts empty in every simulation, as in the harness.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import ExperimentSpec, Session
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.sim.stats import RunStatistics
from repro.workloads import mixes
from repro.workloads.attacker import AttackerConfig

from perfbench.env import WORK_DIR
from perfbench.outputs import digest

clock = time.perf_counter


@dataclass
class Rep:
    """One measured repetition of a workload."""

    wall_s: float
    setup_s: List[float]
    #: Operation id -> output (``RunStatistics`` or ``AloneResult``).
    outputs: Dict[str, object]
    figure: Optional[Dict[str, object]] = None
    warm_s: List[float] = field(default_factory=list)
    #: Every warm pass simulated nothing and reproduced the cold figure.
    warm_equal: bool = True
    runs_executed: int = 0

    def digests(self) -> Dict[str, str]:
        result = {op: digest(output) for op, output in self.outputs.items()}
        if self.figure is not None:
            result["figure"] = digest(self.figure)
        return result


def point_id(mix: str, mechanism: str, nrh: int, breakhammer: bool) -> str:
    return f"{mix}/{mechanism}/{nrh}/{'bh' if breakhammer else 'nobh'}"


class Workload:
    name = ""

    def __init__(self, seed: int, engine: str) -> None:
        self.seed = seed
        self.engine = engine

    def run_once(self) -> Rep:
        raise NotImplementedError

    def reference_digests(self) -> Dict[str, str]:
        return self.run_once().digests()


class PointWorkload(Workload):
    """Simulations at the ``fast`` profile, built and run directly."""

    def __init__(self, seed: int, engine: str) -> None:
        super().__init__(seed, engine)
        self.spec = ExperimentSpec.fast(seeds=(seed,), engine=engine)
        self.base = SystemConfig.fast_profile(
            sim_cycles=self.spec.sim_cycles,
            threat_threshold=self.spec.threat_threshold,
            outlier_threshold=self.spec.outlier_threshold,
        )
        self.sim_config = SimulationConfig(max_cycles=self.spec.sim_cycles,
                                           engine=engine)

    def make_mix(self, name: str) -> mixes.WorkloadMix:
        # Looked up on the module at call time, so the traced run's span
        # around make_mix sees this call.
        return mixes.make_mix(
            name,
            device=self.base.device,
            mapping=self.base.mapping,
            entries_per_core=self.spec.entries_per_core,
            attacker_entries=self.spec.attacker_entries,
            seed=self.seed,
            attacker_config=AttackerConfig(
                entries=self.spec.attacker_entries, seed=self.seed
            ),
        )

    def build(self) -> List[Tuple[str, Simulator]]:
        raise NotImplementedError

    def run_once(self) -> Rep:
        start = clock()
        simulators = self.build()
        setup = clock() - start
        start = clock()
        results = [simulator.run() for _, simulator in simulators]
        wall = clock() - start
        return Rep(wall, [setup], {
            op: result.stats for (op, _), result in zip(simulators, results)
        })


class GridPoint(PointWorkload):
    point: Tuple[str, str, int, bool] = ("", "", 0, False)

    def build(self) -> List[Tuple[str, Simulator]]:
        mix_name, mechanism, nrh, breakhammer = self.point
        mix = self.make_mix(mix_name)
        config = self.base.with_(mitigation=mechanism, nrh=nrh,
                                 breakhammer_enabled=breakhammer)
        return [(point_id(*self.point),
                 Simulator(config, mix.traces, self.sim_config,
                           attacker_threads=mix.attacker_threads))]


class AttackPara(GridPoint):
    name = "attack_para"
    point = ("HHMA", "para", 64, True)


class AttackBlockHammer(GridPoint):
    name = "attack_blockhammer"
    point = ("HHMA", "blockhammer", 64, False)


class AloneBenign(PointWorkload):
    """The standalone-IPC baselines of every trace of one benign mix."""

    name = "alone_benign"
    mix = "MMLL"

    def build(self) -> List[Tuple[str, Simulator]]:
        mix = self.make_mix(self.mix)
        config = self.base.with_(num_cores=1, mitigation="none",
                                 breakhammer_enabled=False)
        return [(f"alone/{trace.name}",
                 Simulator(config, [trace], self.sim_config))
                for trace in mix.traces]


class FigureSweep(Workload):
    """``Session.figure`` on the ``smoke`` grid, serially, from an empty cache.

    After the cold pass, :attr:`WARM_PASSES` fresh sessions recompute the
    figure over the now-warm run cache; each must simulate nothing and
    return the cold figure unchanged.
    """

    name = "fig8_sweep"
    figure_id = "fig8"
    #: Session constructions timed per repetition: one takes about a
    #: millisecond, so set-up time is the median of several.
    SESSION_SETUPS = 5
    WARM_PASSES = 5

    def __init__(self, seed: int, engine: str) -> None:
        super().__init__(seed, engine)
        self.spec = ExperimentSpec.smoke(seeds=(seed,), engine=engine)

    def _session(self, cache_dir: str) -> Session:
        return Session(self.spec, cache_dir=cache_dir, jobs=1,
                       backend="local")

    def run_once(self) -> Rep:
        WORK_DIR.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="fig-cache-", dir=WORK_DIR)
        try:
            return self._passes(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _passes(self, cache_dir: str) -> Rep:
        setup: List[float] = []
        sessions: List[Session] = []
        for _ in range(self.SESSION_SETUPS):
            start = clock()
            sessions.append(self._session(cache_dir))
            setup.append(clock() - start)
        for spare in sessions[:-1]:
            spare.close()
        with sessions[-1] as session:
            start = clock()
            result = session.figure(self.figure_id)
            wall = clock() - start
            figure = result.as_dict()
            outputs = self._operation_outputs(session)
            runs_executed = session.runs_executed
        rep = Rep(wall, setup, outputs, figure=figure,
                  runs_executed=runs_executed)
        for _ in range(self.WARM_PASSES):
            with self._session(cache_dir) as session:
                start = clock()
                again = session.figure(self.figure_id)
                rep.warm_s.append(clock() - start)
                rep.warm_equal &= (session.runs_executed == 0
                                   and again.as_dict() == figure)
        return rep

    def _operation_outputs(self, session: Session) -> Dict[str, object]:
        """Every operation's result, read back from the session's handles.

        Re-submitting the figure's plan returns the already-resolved
        handles; nothing is simulated again.
        """

        runner = session.runner
        outputs: Dict[str, object] = {}
        for handle in runner.submit_plan(runner.figure_plan(self.figure_id)):
            result = handle.result()
            if isinstance(result, RunStatistics):
                mix, _seed, mechanism, nrh, breakhammer = handle.key[:5]
                outputs[point_id(mix, mechanism, nrh, breakhammer)] = result
            else:
                outputs[f"alone/{result.trace_name}"] = result
        return outputs


WORKLOADS = {
    workload.name: workload
    for workload in (AttackPara, AttackBlockHammer, AloneBenign, FigureSweep)
}
