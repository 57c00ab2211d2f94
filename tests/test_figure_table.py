"""Every ``FIGURE_DEFS`` entry's plans cover exactly what its frames read.

A figure's sweep plan, per-seed frame and escalation plans all derive from
its one table entry.  For each entry these tests check that a resolved plan
leaves nothing for the frames to simulate (alone baselines included), and
that the escalation plan of any single cell is a slice of the full plan
whose frame holds just that series and reproduces the full frame's value
bit for bit.

Runs come from a module-wide disk cache warmed with every full plan; each
frame is built with that cache detached, so a run or baseline its plan
failed to list shows up as a ``Simulator.run`` call.
"""

import pytest

from repro.analysis.experiments import FIGURE_DEFS
from repro.api import ExperimentSpec, Session
from repro.sim.simulator import Simulator

SPEC = ExperimentSpec.tiny(mechanisms=("para", "graphene"),
                           nrh_sweep=(1024, 64), seeds=(0, 1))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """A run cache holding every run of every figure's full plan."""

    path = str(tmp_path_factory.mktemp("runs"))
    with Session(SPEC, jobs=1, cache_dir=path) as session:
        for figure_id in FIGURE_DEFS:
            session.runner.resolve_plan(session.runner.figure_plan(figure_id))
    return path


@pytest.fixture
def simulations(monkeypatch):
    """Every ``Simulator.run`` call, standalone baselines included."""

    calls = []
    original = Simulator.run

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counted)
    return calls


def resolved_frames(plan, cache_dir, simulations, monkeypatch):
    """Resolve ``plan`` in a fresh runner, then build its frames uncached.

    Returns one frame per seed of the plan, and asserts that building them
    simulated nothing.
    """

    with Session(SPEC, jobs=1, cache_dir=cache_dir) as session:
        runner = session.runner
        runner.resolve_plan(plan)
        monkeypatch.setattr(runner, "_disk_cache", None)
        before = len(simulations)
        frames = [runner.figure_frame(plan, seed) for seed in plan.seeds]
        assert len(simulations) == before, (
            f"{plan.figure_id}: the frames read runs the plan does not list"
        )
    return frames


@pytest.mark.parametrize("figure_id", sorted(FIGURE_DEFS))
def test_resolved_plan_leaves_nothing_to_simulate(figure_id, cache_dir,
                                                  simulations, monkeypatch):
    with Session(SPEC, jobs=1, cache_dir="") as session:
        plan = session.runner.figure_plan(figure_id)
    frames = resolved_frames(plan, cache_dir, simulations, monkeypatch)
    assert [frame.figure_id for frame in frames] == [figure_id] * 2
    assert all(frame.series for frame in frames)


@pytest.mark.parametrize("figure_id", sorted(FIGURE_DEFS))
def test_single_cell_escalation_is_a_slice_of_the_plan(
        figure_id, cache_dir, simulations, monkeypatch):
    with Session(SPEC, jobs=1, cache_dir="") as session:
        runner = session.runner
        plan = runner.figure_plan(figure_id)
        full = resolved_frames(plan, cache_dir, simulations, monkeypatch)
        cells = [(label, x) for label in full[0].series
                 for x in full[0].x_values]
        escalations = [runner.escalation_plan(plan, [cell])
                       for cell in cells]
    for (label, x), escalation in zip(cells, escalations):
        assert set(escalation.runs) <= set(plan.runs)
        assert set(escalation.alone_mixes) <= set(plan.alone_mixes)
        frames = resolved_frames(escalation, cache_dir, simulations,
                                 monkeypatch)
        for frame, reference in zip(frames, full):
            assert list(frame.series) == [label]
            value = frame.series[label].values[frame.x_values.index(x)]
            expected = reference.series[label].values[
                reference.x_values.index(x)]
            assert value.hex() == expected.hex(), (figure_id, label, x)
