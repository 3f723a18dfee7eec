"""Unit tests for the fault model and adversarial behaviours."""

import pytest

from repro.byzantine.behaviors import (
    CrashBehavior,
    DelayBehavior,
    DropBehavior,
    EquivocationPlan,
    HonestBehavior,
    ScriptedBehavior,
)
from repro.byzantine.faults import (
    FaultKind,
    FaultModel,
    byzantine_quorum,
    max_tolerated_faults,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import SeededRng


class TestResilienceArithmetic:
    @pytest.mark.parametrize("n,f", [(1, 0), (3, 0), (4, 1), (7, 2), (10, 3), (100, 33)])
    def test_max_tolerated_faults(self, n, f):
        assert max_tolerated_faults(n) == f

    def test_quorums_intersect_in_a_correct_process(self):
        for n in range(4, 40):
            f = max_tolerated_faults(n)
            q = byzantine_quorum(n)
            assert 2 * q - n >= f + 1

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ConfigurationError):
            max_tolerated_faults(0)


class TestFaultModel:
    def test_all_correct(self):
        model = FaultModel.all_correct(5)
        assert model.fault_count == 0
        assert model.correct == (0, 1, 2, 3, 4)

    def test_random_faults_respect_protection(self):
        model = FaultModel.with_random_faults(
            10, fault_count=3, kind=FaultKind.CRASH, rng=SeededRng(1), protect=(0, 1)
        )
        assert model.fault_count == 3
        assert not (model.faulty & {0, 1})
        assert model.within_resilience()

    def test_kind_of_and_predicates(self):
        model = FaultModel(total_processes=4, faults={2: FaultKind.DOUBLE_SPEND})
        assert model.is_faulty(2) and not model.is_correct(2)
        assert model.kind_of(2) is FaultKind.DOUBLE_SPEND
        assert model.kind_of(0) is None

    def test_out_of_range_fault_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(total_processes=3, faults={7: FaultKind.CRASH})

    def test_too_many_random_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel.with_random_faults(3, 4, FaultKind.CRASH, SeededRng(1))


class TestBehaviors:
    def test_honest_is_identity(self):
        out = HonestBehavior().transform(0, 1, "m")
        assert len(out) == 1 and out[0].message == "m" and out[0].recipient == 1

    def test_crash_behavior_stops_after_limit(self):
        behavior = CrashBehavior(send_limit=2)
        sent = [behavior.transform(0, i, "m") for i in range(4)]
        assert [len(s) for s in sent] == [1, 1, 0, 0]

    def test_drop_behavior_statistics(self):
        behavior = DropBehavior(0.5, SeededRng(3))
        delivered = sum(len(behavior.transform(0, 1, "m")) for _ in range(400))
        assert 120 < delivered < 280

    def test_delay_behavior_adds_delay(self):
        out = DelayBehavior(0.25).transform(0, 1, "m")
        assert out[0].extra_delay == 0.25

    @pytest.mark.parametrize("extra_delay", [float("nan"), float("inf"), -0.004, -1.0])
    def test_delay_behavior_refuses_a_negative_or_non_finite_delay(self, extra_delay):
        """A message cannot arrive before it was sent, nor never: NaN, inf and
        negative delays are refused at construction, not deep inside a run."""
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            DelayBehavior(extra_delay)

    @pytest.mark.parametrize("extra_delay", [0.0, 0.05])
    def test_delay_behavior_accepts_a_finite_non_negative_delay(self, extra_delay):
        assert DelayBehavior(extra_delay).transform(0, 1, "m")[0].extra_delay == extra_delay

    def test_scripted_behavior_substitutes_and_silences(self):
        behavior = ScriptedBehavior(substitutions={1: "fake"}, silent_towards={2})
        assert behavior.transform(0, 1, "real")[0].message == "fake"
        assert behavior.transform(0, 2, "real") == []
        assert behavior.transform(0, 3, "real")[0].message == "real"

    def test_equivocation_plan_split(self):
        plan = EquivocationPlan.split_evenly(range(7), exclude=(6,))
        assert set(plan.partition_a) | set(plan.partition_b) == set(range(6))
        assert not set(plan.partition_a) & set(plan.partition_b)
        assert plan.audience() == tuple(range(6))

    def test_equivocation_plan_recipients_lookup(self):
        plan = EquivocationPlan(partition_a=(1,), partition_b=(2,))
        assert plan.recipients_of("a") == (1,)
        assert plan.recipients_of("b") == (2,)
        with pytest.raises(ValueError):
            plan.recipients_of("c")
