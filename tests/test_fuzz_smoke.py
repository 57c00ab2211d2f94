"""Fixed-seed differential-fuzz corpus (``pytest -m fuzz_smoke``).

The corpus replayed here is ``repro.testing.scenarios.fuzz_corpus()`` — 59
deterministic scenarios spanning every registered mitigation mechanism,
single- to four-core mixes with attacker and DMA-style traffic, both rank
geometries, every scheduler policy, and warmup / instruction-limit
combinations.  Each scenario must produce bit-identical results under the
``cycle`` reference and every engine of its ``check_engines`` tuple (the
sampler rotates ``batch`` in; the fixed ``batch_corpus`` checks both
``fast`` and ``batch``); a harness-shaped batch must additionally be
bit-identical under serial and process-pool (``jobs=2``) sweep execution,
and lockstep-batched runs must match solo runs lane for lane.

A failure prints a minimised, paste-able reproduction (see
``repro.testing.fuzz.shrink``); long offline campaigns run through
``python -m repro.testing.fuzz`` (ROADMAP.md "Validating engines").
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.mitigations.registry import PAIRED_MECHANISMS
from repro.testing.fuzz import (
    batch_differential,
    executor_differential,
    repro_snippet,
    run_differential,
    shrink,
)
from repro.testing.scenarios import (
    FUZZ_MECHANISMS,
    Scenario,
    batch_corpus,
    executor_corpus,
    fuzz_corpus,
    generate_scenarios,
    simplifications,
)

pytestmark = pytest.mark.fuzz_smoke

CORPUS = fuzz_corpus()


class TestCorpusShape:
    """The corpus really spans the space the contract claims to cover."""

    def test_size_and_mechanism_coverage(self):
        assert len(CORPUS) >= 30
        mechanisms = {scenario.mechanism for scenario in CORPUS}
        assert set(PAIRED_MECHANISMS) <= mechanisms  # all eight paired
        assert {"none", "blockhammer"} <= mechanisms

    def test_dimension_coverage(self):
        assert any("A" in s.mix for s in CORPUS)
        assert any("D" in s.mix for s in CORPUS)
        assert any(len(s.mix) == 1 for s in CORPUS)
        assert any(len(s.mix) == 4 for s in CORPUS)
        assert {s.ranks for s in CORPUS} == {1, 2}
        assert any(s.warmup_cycles for s in CORPUS)
        assert any(s.instruction_limit for s in CORPUS)
        assert any(s.breakhammer for s in CORPUS)
        assert len({s.scheduler for s in CORPUS}) >= 2

    def test_mitigation_kwargs_coverage(self):
        """Mechanism internals are fuzzed for every mechanism with a pool."""

        from repro.testing.scenarios import MITIGATION_KWARG_POOLS

        sampled = {s.mechanism for s in CORPUS if s.mitigation_kwargs}
        assert sampled == set(MITIGATION_KWARG_POOLS)
        # Overrides stay harness-external: the executor differential only
        # replays registry-default grid points.
        assert all(not s.harness_shaped() for s in CORPUS
                   if s.mitigation_kwargs)

    def test_generation_is_deterministic(self):
        assert fuzz_corpus() == CORPUS
        assert generate_scenarios(1, 5) == generate_scenarios(1, 5)
        assert generate_scenarios(1, 5) != generate_scenarios(2, 5)

    def test_engine_rotation_coverage(self):
        """The tri-engine contract is enforced, sampled and fixed alike."""

        engines = {s.check_engines for s in CORPUS}
        # Sampler rotation: every third sampled scenario checks batch.
        assert ("batch",) in engines and ("fast",) in engines
        # The fixed batch corpus checks both engines per scenario and
        # spans scalar-fallback lanes and the multi-seed axis.
        batch = batch_corpus()
        assert all(s.check_engines == ("fast", "batch") for s in batch)
        assert any(s.scheduler != "frfcfs_cap" for s in batch)
        assert any(s.mechanism == "blockhammer" for s in batch)
        assert any(s.extra_seeds for s in batch)
        assert any(s.warmup_cycles for s in batch)
        assert any(s.instruction_limit for s in batch)


@pytest.mark.parametrize(
    "scenario", CORPUS, ids=[s.label for s in CORPUS]
)
def test_engines_bit_identical(scenario):
    report = run_differential(scenario)
    assert report.identical, report.summary()


def test_batched_vs_solo_bit_identical():
    """One heterogeneous lockstep batch must match solo runs lane for lane.

    The corpus expands its multi-seed scenarios into extra lanes, so this
    also pins the seed axis under batching — the shape the sweep layer's
    batch admission produces.
    """

    assert batch_differential(batch_corpus()) == []


def test_serial_vs_process_pool_bit_identical():
    """jobs=1 vs jobs=2 over the harness-shaped executor corpus."""

    scenarios = executor_corpus()
    assert all(s.harness_shaped() for s in scenarios)
    mismatches = executor_differential(scenarios, jobs=2)
    assert mismatches == []


def test_executor_differential_tolerates_duplicate_scenarios():
    """Campaigns can sample the same grid point twice; results must still
    pair each scenario with its own run (submit_grid deduplicates)."""

    base = executor_corpus()[:2]
    mismatches = executor_differential([*base, base[0]], jobs=2)
    assert mismatches == []


class TestShrinker:
    """The shrinker minimises against an injected failure predicate."""

    def _scenario(self) -> Scenario:
        return Scenario(
            seed=1, mix="HMDA", mechanism="prac", nrh=64, breakhammer=True,
            sim_cycles=1_600, warmup_cycles=400, instruction_limit=500,
        )

    def test_greedy_minimisation(self):
        def still_fails(candidate: Scenario) -> bool:
            return "A" in candidate.mix and candidate.sim_cycles >= 800

        minimal = shrink(self._scenario(), still_fails)
        # Local minimum: the attacker core and the cycle floor survive,
        # every other dimension is stripped.
        assert minimal.mix == "A"
        assert minimal.sim_cycles == 800
        assert minimal.warmup_cycles == 0
        assert minimal.instruction_limit is None
        assert not minimal.breakhammer
        assert still_fails(minimal)
        assert not any(
            still_fails(candidate) for candidate in simplifications(minimal)
        )

    def test_shrink_keeps_scenario_when_nothing_simpler_fails(self):
        scenario = self._scenario()
        assert shrink(scenario, lambda s: s == scenario) == scenario

    def test_repro_snippet_round_trips(self):
        scenario = replace(self._scenario(), instruction_limit=None)
        snippet = repro_snippet(scenario)
        namespace: dict = {}
        # The snippet's scenario line must evaluate back to the scenario.
        scenario_line = next(
            line for line in snippet.splitlines()
            if line.startswith("scenario = ")
        )
        exec(scenario_line, {"Scenario": Scenario}, namespace)
        assert namespace["scenario"] == scenario


def test_mechanism_rotation_guarantees_coverage():
    scenarios = generate_scenarios(seed=9, count=len(FUZZ_MECHANISMS))
    assert {s.mechanism for s in scenarios} == set(FUZZ_MECHANISMS)
