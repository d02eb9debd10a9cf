"""Closed-loop mission runs: triggers, top-up deployment, determinism."""
import math

import pytest

from d2dnet import MissionSpec, Region, ScenarioEvent, ThreatModel, run_mission


@pytest.fixture
def intelligence(section_v_bounds):
    return MissionSpec(t1=0.6, t2=0.6, tc=0.8, threat=ThreatModel(delta=0.0),
                       bounds=section_v_bounds)


@pytest.fixture
def encounter(section_v_bounds):
    return MissionSpec(t1=0.8, t2=0.8, tc=0.6, threat=ThreatModel(delta=0.0),
                       bounds=section_v_bounds)


REGION = Region(40.0, 40.0)


class TestScenarioEvent:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ScenarioEvent(time=-1, kind="device_loss")

    @pytest.mark.parametrize("time", [1.5, float("nan"), float("inf"), "3"])
    def test_rejects_non_integer_time(self, time):
        with pytest.raises(ValueError):
            ScenarioEvent(time=time, kind="device_loss")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScenarioEvent(time=0, kind="earthquake")

    def test_threat_change_needs_valid_delta(self):
        with pytest.raises(ValueError):
            ScenarioEvent(time=0, kind="threat_change")
        with pytest.raises(ValueError):
            ScenarioEvent(time=0, kind="threat_change", new_delta=1.5)


class TestRunMission:
    def test_quiet_mission_never_recomputes(self, intelligence):
        trace = run_mission(intelligence, [], horizon=200, seed=0, region=REGION)
        assert trace.recompute_count == 0
        assert len(trace.checks) == 4
        for check in trace.checks:
            assert abs(check.t1_hat - intelligence.t1) < 0.05
            assert abs(check.tc_hat - intelligence.tc) < 0.05

    def test_attrition_triggers_single_recompute(self, intelligence):
        events = [ScenarioEvent(time=50, kind="device_loss",
                                loss_fraction_type1=0.5, loss_fraction_type2=0.5)]
        trace = run_mission(intelligence, events, horizon=200, seed=1, region=REGION)
        recomputed = [c for c in trace.checks if c.recomputed]
        assert len(recomputed) == 1
        assert recomputed[0].time == 50
        assert recomputed[0].added_type1 + recomputed[0].added_type2 > 0
        # Deployment costs only accumulate; the recovery must be paid for.
        assert trace.checks[-1].cumulative_cost > trace.initial_cost

    def test_estimates_recover_after_redeployment(self, intelligence):
        events = [ScenarioEvent(time=50, kind="device_loss",
                                loss_fraction_type1=0.5, loss_fraction_type2=0.5)]
        trace = run_mission(intelligence, events, horizon=200, seed=2, region=REGION)
        after = [c for c in trace.checks if c.time > 50]
        for check in after:
            assert check.t1_hat >= intelligence.t1 - 0.05
            assert check.t2_hat >= intelligence.t2 - 0.05
            assert check.tc_hat >= intelligence.tc - 0.05

    def test_threat_change_to_same_level_is_not_a_trigger(self, intelligence):
        events = [ScenarioEvent(time=50, kind="threat_change", new_delta=0.0)]
        trace = run_mission(intelligence, events, horizon=200, seed=0, region=REGION)
        assert trace.recompute_count == 0

    def test_threat_escalation_triggers_reoptimization(self, intelligence):
        events = [ScenarioEvent(time=50, kind="threat_change", new_delta=0.3)]
        trace = run_mission(intelligence, events, horizon=200, seed=3, region=REGION)
        first = next(c for c in trace.checks if c.time == 50)
        assert first.recomputed
        assert first.delta_hat == 0.3
        assert first.params is not None

    def test_mid_mission_infeasibility_halts(self, encounter):
        events = [ScenarioEvent(time=50, kind="threat_change", new_delta=0.9)]
        trace = run_mission(encounter, events, horizon=200, seed=4, region=REGION)
        assert trace.checks[-1].status == "infeasible"
        assert trace.checks[-1].time == 50
        assert len(trace.checks) == 1

    def test_determinism(self, intelligence):
        events = [ScenarioEvent(time=100, kind="device_loss",
                                loss_fraction_type1=0.3, loss_fraction_type2=0.3)]
        a = run_mission(intelligence, events, horizon=200, seed=5, region=REGION)
        b = run_mission(intelligence, events, horizon=200, seed=5, region=REGION)
        assert [vars(c) for c in a.checks] == [vars(c) for c in b.checks]

    def test_parameter_validation(self, intelligence):
        with pytest.raises(ValueError):
            run_mission(intelligence, [], t_r=0)
        with pytest.raises(ValueError):
            run_mission(intelligence, [], epsilon=0.0)
        for horizon in (-5, 0, 49):
            with pytest.raises(ValueError, match="shorter than t_r"):
                run_mission(intelligence, [], t_r=50, horizon=horizon)

    @pytest.mark.parametrize("setting", [
        {"epsilon": math.nan}, {"epsilon": math.inf},
        {"t_r": 1.5}, {"horizon": math.nan},
    ])
    def test_rejects_non_finite_or_fractional_settings(self, intelligence, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            run_mission(intelligence, [], **setting)

    def test_rejects_event_after_horizon(self, intelligence):
        late = ScenarioEvent(time=500, kind="device_loss", loss_fraction_type1=0.5)
        with pytest.raises(ValueError, match="after the horizon"):
            run_mission(intelligence, [late], horizon=200)

    def test_accepts_horizon_equal_to_t_r_and_event_at_horizon(self, intelligence):
        at_end = ScenarioEvent(time=50, kind="device_loss", loss_fraction_type1=0.5)
        trace = run_mission(intelligence, [at_end], t_r=50, horizon=50, region=REGION)
        base = run_mission(intelligence, [], t_r=50, horizon=50, region=REGION)
        assert [c.time for c in trace.checks] == [50]
        assert trace.checks[0].lam1_hat < base.checks[0].lam1_hat
