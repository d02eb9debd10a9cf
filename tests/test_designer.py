"""Cost-minimal design: thresholds, feasibility, optimizer and sweeps."""
import importlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dnet import (
    MissionSpec,
    NetworkParams,
    ParamBounds,
    ThreatModel,
    cost,
    feasible,
    optimize,
    sweep,
    threshold_map,
)
from d2dnet import designer
from d2dnet.designer import (
    UnattainableThresholdError,
    _lambda_profile,
    _ranges,
    _reduced_cost,
    certify_infeasible,
    grid_oracle,
)


def make_mission(t1, t2, tc, delta, bounds, **weights):
    return MissionSpec(t1=t1, t2=t2, tc=tc, threat=ThreatModel(delta=delta),
                       bounds=bounds, **weights)


# (t_intra, tc) missions next to the density cap of the Section V box.
NEAR_CAP = [(0.91, 0.5), (0.91, 0.8), (0.9, 0.5), (0.9, 0.8)]


class TestMissionSpec:
    @pytest.mark.parametrize("field, value", [
        ("eta", math.nan), ("eta", math.inf), ("eta", 1.5),
        ("w1", -1.0), ("w1", math.nan),
        ("w2", -1.0), ("w2", math.inf),
        ("c", -1.0), ("c", math.nan),
    ])
    def test_rejects_invalid_weights(self, section_v_bounds, field, value):
        with pytest.raises(ValueError, match=field):
            make_mission(0.5, 0.5, 0.5, 0.0, section_v_bounds, **{field: value})


class TestThresholdMap:
    def test_reference_values(self):
        assert threshold_map(0.8, 1.0) == pytest.approx(5.0, abs=1e-12)
        assert threshold_map(0.6, 0.5) == pytest.approx(5.0, abs=1e-12)

    def test_zero_target_reduces_to_relaxed_threshold(self):
        for alpha in (0.1, 0.5, 1.0):
            assert threshold_map(0.0, alpha) == pytest.approx(1.0 / alpha, abs=1e-12)

    def test_unattainable_inputs(self):
        with pytest.raises(UnattainableThresholdError):
            threshold_map(1.0, 0.5)
        with pytest.raises(UnattainableThresholdError):
            threshold_map(0.5, 0.0)


class TestCost:
    def test_zero_density_costs_nothing(self, section_v_bounds):
        mission = make_mission(0.6, 0.6, 0.8, 0.0, section_v_bounds)
        params = NetworkParams(p=0.4, lam=0.0, r1=1.0, r2=0.5)
        assert cost(params, mission) == 0.0

    def test_reference_value(self, section_v_bounds):
        mission = make_mission(0.6, 0.6, 0.8, 0.0, section_v_bounds)
        params = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)
        # 100*6 + 50*9 + 100*(6*1 + 15*0.0625)
        assert cost(params, mission) == pytest.approx(1743.75, abs=1e-9)

    @given(
        p=st.floats(0.0, 0.4),
        lam=st.floats(1.0, 15.0),
        r1=st.floats(0.1, 2.0),
        scale=st.floats(0.05, 1.0),
        bump=st.floats(1e-3, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_each_variable(self, p, lam, r1, scale, bump):
        bounds = ParamBounds()
        mission = make_mission(0.5, 0.5, 0.5, 0.0, bounds)
        params = NetworkParams(p=p, lam=lam, r1=r1, r2=r1 * scale)
        base = cost(params, mission)
        assert cost(NetworkParams(p, lam + bump, r1, r1 * scale), mission) >= base
        assert cost(NetworkParams(p, lam, r1 + bump, r1 * scale), mission) >= base
        r2_up = min(r1, r1 * scale + bump)
        assert cost(NetworkParams(p, lam, r1, r2_up), mission) >= base
        if p + bump <= 1.0:   # w1 >= w2 makes dual-radio devices pricier
            assert cost(NetworkParams(p + bump, lam, r1, r1 * scale), mission) >= base


class TestFeasible:
    def test_intra_layer_slack(self, section_v_bounds):
        mission = make_mission(0.6, 0.6, 0.8, 0.0, section_v_bounds)
        params = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)
        slacks = feasible(params, mission)
        # E[K1] = 7.54 against a requirement of 2.5.
        assert slacks["layer1"] == pytest.approx(0.16 * 15 * math.pi - 2.5, abs=1e-9)
        assert slacks["layer1"] > 0.0

    def test_total_jamming_is_infeasible_for_any_box(self, section_v_bounds):
        mission = make_mission(0.2, 0.2, 0.2, 0.999999, section_v_bounds)
        params = NetworkParams(p=0.4, lam=15.0, r1=2.0, r2=0.8)
        slacks = feasible(params, mission)
        assert min(slacks["layer1"], slacks["layer2"], slacks["combined"]) < 0.0

    def test_combined_constraint_implied_by_additivity(self, section_v_bounds):
        # Whenever the combined requirement is below the sum of the
        # intra-layer ones, meeting both intra constraints meets it too.
        mission = make_mission(0.5, 0.5, 0.6, 0.0, section_v_bounds)
        req1, req2, reqc = mission.required_degrees()
        assert reqc <= req1 + req2
        params = NetworkParams(p=0.4, lam=4.0, r1=1.2, r2=0.5)
        slacks = feasible(params, mission)
        if slacks["layer1"] >= 0 and slacks["layer2"] >= 0:
            assert slacks["combined"] >= 0


class TestOptimize:
    def test_intelligence_mission_structure(self, section_v_bounds):
        solution = optimize(make_mission(0.6, 0.6, 0.8, 0.0, section_v_bounds))
        assert solution.status == "optimal"
        params = solution.params
        assert params.r1 >= params.r2
        # Cheaper single-radio followers outnumber dual-radio commanders.
        assert (1 - params.p) * params.lam >= params.p * params.lam
        assert solution.active_set
        assert min(solution.slacks.values()) >= -1e-6

    def test_solution_meets_thresholds_via_mean_field_bound(self, section_v_bounds):
        mission = make_mission(0.6, 0.6, 0.8, 0.2, section_v_bounds)
        solution = optimize(mission)
        params = solution.params
        alpha = 1 - 0.2
        for mean, target in (
            (params.mean_k1(), mission.t1),
            (params.mean_k2(), mission.t2),
            (params.mean_kc(), mission.tc),
        ):
            achieved = 1.0 - 1.0 / (alpha * mean)
            assert achieved >= target - 1e-6

    def test_matches_grid_oracle(self, section_v_bounds):
        mission = make_mission(0.6, 0.6, 0.8, 0.3, section_v_bounds)
        solver = optimize(mission)
        oracle = grid_oracle(mission, n=25)
        assert solver.cost <= oracle.cost * 1.01

    @pytest.mark.parametrize("eta", [2.0, 3.0])
    def test_matches_grid_oracle_at_other_path_loss_exponents(self, section_v_bounds, eta):
        # eta = 2 is the linear case of the closed-form range split.
        mission = make_mission(0.6, 0.6, 0.8, 0.3, section_v_bounds, eta=eta)
        assert optimize(mission).cost <= grid_oracle(mission, n=25).cost * 1.01

    def test_encounter_corner_certificate(self, section_v_bounds):
        # The layer-1 requirement exceeds the best corner degree for high
        # threat, so infeasibility must be certified, not just unsolved.
        mission = make_mission(0.8, 0.8, 0.6, 0.85, section_v_bounds)
        violated = certify_infeasible(mission)
        assert "layer1" in violated
        solution = optimize(mission)
        assert solution.status == "infeasible"

    def test_no_design_when_ranges_cannot_be_ordered(self):
        # The box corner meets every degree target, but r2_min > r1_max
        # leaves no design with r1 >= r2.
        bounds = ParamBounds(p_min=0.0, p_max=0.4, lambda_min=1.0, lambda_max=15.0,
                             r1_min=0.1, r1_max=0.7, r2_min=0.75, r2_max=0.8)
        mission = make_mission(0.5, 0.5, 0.5, 0.0, bounds)
        assert not certify_infeasible(mission)
        for solution in (optimize(mission), grid_oracle(mission)):
            assert solution.status == "infeasible"
            assert solution.active_set == ("range_order",)

    @pytest.mark.parametrize("t_intra, tc", NEAR_CAP)
    def test_near_cap_missions_match_grid_oracle(self, section_v_bounds, t_intra, tc):
        mission = make_mission(t_intra, t_intra, tc, 0.0, section_v_bounds)
        solution = optimize(mission)
        assert solution.status == "optimal"
        assert solution.cost <= 1.01 * grid_oracle(mission).cost

    def test_near_cap_sweep_never_worse_than_grid_oracle(self, section_v_bounds):
        grid = [round(x, 2) for x in np.arange(0.85, 0.9301, 0.01)]
        for tc in (0.5, 0.8):
            base = make_mission(0.5, 0.5, tc, 0.0, section_v_bounds)
            for row in sweep(base, "t_intra", grid):
                oracle = grid_oracle(make_mission(row.value, row.value, tc, 0.0,
                                                  section_v_bounds))
                assert row.solution.status == oracle.status, (row.value, tc)
                if oracle.status == "optimal":
                    assert row.solution.cost <= 1.01 * oracle.cost, (row.value, tc)

    def test_independent_of_blas_thread_count(self):
        script = (
            "from d2dnet import MissionSpec, ParamBounds, ThreatModel, optimize\n"
            "bounds = ParamBounds(p_min=0.0, p_max=0.4, lambda_min=1.0, "
            "lambda_max=15.0, r1_min=0.1, r1_max=2.0, r2_min=0.01, r2_max=0.8)\n"
            f"for t, tc in {NEAR_CAP!r}:\n"
            "    print(repr(optimize(MissionSpec(t1=t, t2=t, tc=tc, "
            "threat=ThreatModel(delta=0.0), bounds=bounds))))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("status='optimal'") == len(NEAR_CAP)

    def test_infeasibility_boundary_location(self, section_v_bounds):
        lo, hi = 0.8, 0.9
        for _ in range(40):
            mid = (lo + hi) / 2
            if certify_infeasible(make_mission(0.8, 0.8, 0.6, mid, section_v_bounds)):
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(0.8342, abs=5e-4)

    def test_determinism(self, section_v_bounds):
        mission = make_mission(0.6, 0.6, 0.8, 0.4, section_v_bounds)
        a = optimize(mission)
        b = optimize(mission)
        assert a.cost == b.cost
        assert a.params == b.params

    @pytest.mark.parametrize("width", [0.0, 1e-15, 1e-12])
    def test_degenerate_p_box(self, width):
        # Zooms on a p box a few ulps wide cannot shrink it further.
        bounds = ParamBounds(p_min=0.5, p_max=0.5 + width)
        solution = optimize(make_mission(0.3, 0.3, 0.5, 0.0, bounds))
        assert solution.status == "optimal"
        assert bounds.p_min <= solution.params.p <= bounds.p_max

    def test_equal_r1_bounds_stay_in_box(self):
        # sqrt(r1^2) once came back one ulp below r1_min == r1_max.
        bounds = ParamBounds(
            p_min=0.17586255838067552, p_max=0.8308308749928401,
            lambda_min=4.720767820335478, lambda_max=9.434437937166571,
            r1_min=1.240294297857894, r1_max=1.240294297857894,
            r2_min=0.07882117235170638, r2_max=0.7598661078103837)
        mission = MissionSpec(t1=0.7481311331883022, t2=0.22363705004315299,
                              tc=0.9165040623046574,
                              threat=ThreatModel(delta=0.11083854696886761),
                              bounds=bounds, eta=2.5)
        solution = optimize(mission)
        assert solution.status == "optimal"
        assert bounds.contains(solution.params, tol=0.0)
        assert solution.params.r1 == bounds.r1_max
        assert solution.slacks["r1_box"] >= 0.0

    def test_minimize_resolves_lazily(self):
        assert designer.minimize is scipy.optimize.minimize
        with pytest.raises(AttributeError):
            getattr(designer, "no_such_name")

    def test_bench_tracer_wraps_designer(self, monkeypatch, section_v_bounds):
        # The benchmark's tracer patches designer.minimize by name.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            designer.optimize(make_mission(0.6, 0.6, 0.8, 0.0, section_v_bounds))
        finally:
            tracer.uninstall()
        names = [s.name for s in tracer.spans]
        assert names[0] == "designer.optimize"
        assert "designer.minimize" not in names   # no polish left to count
        assert designer.optimize is optimize


class TestRangeSolve:
    @pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("t1, tc", [(0.3, 0.9), (0.0, 0.95)])
    def test_closed_form_matches_brute_force(self, section_v_bounds, eta, t1, tc):
        # The combined requirement binds at most of these (p, lam); for
        # t1 = 0 the range order r1 >= r2 then caps r2 at the larger p.
        mission = make_mission(t1, 0.3, tc, 0.0, section_v_bounds, eta=eta)
        req1, req2, reqc = mission.required_degrees()
        b = section_v_bounds
        q = eta / 2
        aa = np.linspace(b.r1_min ** 2, b.r1_max ** 2, 801)[:, None]
        bb = np.linspace(b.r2_min ** 2, b.r2_max ** 2, 801)[None, :]
        for p in (0.05, 0.1, 0.25, 0.4):
            for lam in (1.0, 2.0, 6.0, 15.0):
                area = lam * math.pi
                ok = ((p * p * area * aa >= req1) & (area * bb >= req2)
                      & (area * (p * p * aa + bb) >= reqc) & (aa >= bb))
                brute = np.where(ok, p * aa ** q + bb ** q, np.inf).min()
                a, r2sq = _ranges(mission, p, lam)
                if np.isnan(a):
                    assert brute == np.inf, (p, lam)
                    continue
                assert p * a ** q + r2sq ** q <= brute * (1 + 1e-12), (p, lam)
                assert a >= r2sq * (1 - 1e-12)
                assert area * (p * p * a + r2sq) >= reqc * (1 - 1e-12)
                assert p * p * area * a >= req1 * (1 - 1e-12)
                assert area * r2sq >= req2 * (1 - 1e-12)


# (bound overrides of the Section V box, mission fields).  Each mission has
# p values where one kind of lam candidate alone attains the minimum: a
# stationary point of a monomial piece, a branch switch, or the affine
# piece where the combined requirement binds with r2 = r2_max, or with
# r1 = r1_min.
PROFILE_MISSIONS = [
    ({}, dict(t1=0.6, t2=0.6, tc=0.5)),
    (dict(r1_min=1.0, r2_max=0.3), dict(t1=0.0, t2=0.0, tc=0.8)),
    (dict(r2_max=0.3), dict(t1=0.0, t2=0.0, tc=0.8)),
    (dict(r1_min=1.5, r2_max=1.5), dict(t1=0.3, t2=0.0, tc=0.95, w1=10.0, w2=5.0)),
]


class TestLambdaProfile:
    @pytest.mark.parametrize("eta", [2.0, 2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("overrides, fields", PROFILE_MISSIONS)
    def test_matches_brute_force_lambda_grid(self, section_v_bounds, eta, overrides, fields):
        bounds = replace(section_v_bounds, **overrides)
        mission = MissionSpec(threat=ThreatModel(delta=0.0), bounds=bounds, eta=eta, **fields)
        ps = np.array([0.05, 0.1, 0.2, 0.3, 0.4])
        lams = np.linspace(bounds.lambda_min, bounds.lambda_max, 100_001)
        brute = _reduced_cost(mission, ps[:, None], lams[None, :]).min(axis=1)
        lam, profile = _lambda_profile(mission, ps)
        assert np.all((bounds.lambda_min <= lam) & (lam <= bounds.lambda_max))
        assert np.array_equal(profile, _reduced_cost(mission, ps, lam))
        assert np.all(profile <= brute * (1 + 1e-12)), (profile / brute - 1)


@st.composite
def random_missions(draw):
    def interval(lo, hi):
        a = draw(st.floats(lo, hi))
        return a, draw(st.floats(a, hi))
    p_min, p_max = interval(0.0, 1.0)
    lambda_min, lambda_max = interval(0.0, 40.0)
    r1_min, r1_max = interval(0.0, 3.0)
    r2_min, r2_max = interval(0.0, 1.5)
    bounds = ParamBounds(p_min=p_min, p_max=p_max, lambda_min=lambda_min,
                         lambda_max=lambda_max, r1_min=r1_min, r1_max=r1_max,
                         r2_min=r2_min, r2_max=r2_max)
    t = st.floats(0.0, 0.95)
    weight = st.floats(0.0, 300.0)
    return MissionSpec(
        t1=draw(t), t2=draw(t), tc=draw(t),
        threat=ThreatModel(delta=draw(st.floats(0.0, 0.9))), bounds=bounds,
        w1=draw(weight), w2=draw(weight), c=draw(weight),
        eta=draw(st.sampled_from([2.0, 2.5, 3.0, 4.0, 6.0])),
    )


class TestOptimizeProperties:
    @given(mission=random_missions())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_answer_is_certified_or_feasible_and_beats_grid(self, mission):
        solution = optimize(mission)
        assert solution.status in ("optimal", "infeasible")
        b = mission.bounds
        violated = certify_infeasible(mission)
        if violated or b.r2_min > b.r1_max:
            assert solution.status == "infeasible"
            assert solution.active_set == (tuple(violated) or ("range_order",))
            return
        assert solution.status == "optimal"
        x = solution.params
        assert b.contains(x, tol=0.0)
        assert x.r1 >= x.r2
        req1, req2, reqc = mission.required_degrees()
        scale = {"combined": reqc, "layer1": req1, "layer2": req2,
                 "lambda_box": b.lambda_max, "p_box": 1.0,
                 "r1_box": b.r1_max, "r2_box": b.r2_max, "range_order": b.r1_max}
        for name, slack in solution.slacks.items():
            assert slack >= -1e-9 * scale[name], name
        assert solution.cost <= grid_oracle(mission, n=15).cost * (1 + 1e-9)


class TestSweep:
    def test_empty_grid(self, section_v_bounds):
        assert sweep(make_mission(0.5, 0.5, 0.5, 0.0, section_v_bounds),
                     "delta", []) == []

    def test_infeasible_points_recorded(self, section_v_bounds):
        rows = sweep(make_mission(0.8, 0.8, 0.6, 0.0, section_v_bounds),
                     "delta", [0.0, 0.9])
        assert rows[0].solution.status == "optimal"
        assert rows[1].solution.status == "infeasible"

    def test_network_wide_sweep_flat_until_additivity_crossover(self, section_v_bounds):
        # With both intra targets at 0.5 the combined requirement only binds
        # once it exceeds the sum of the intra requirements (at tc = 0.75).
        grid = [0.1, 0.4, 0.7, 0.75, 0.8, 0.9]
        rows = sweep(make_mission(0.5, 0.5, 0.5, 0.0, section_v_bounds), "tc", grid)
        base = rows[0].solution.params
        for row in rows:
            params = row.solution.params
            if row.value <= 0.75:
                assert params.lam == pytest.approx(base.lam, rel=1e-3)
                assert params.r1 == pytest.approx(base.r1, rel=1e-3)
                assert params.r2 == pytest.approx(base.r2, rel=1e-3)
            else:
                assert row.solution.cost > rows[0].solution.cost * 1.001

    def test_intra_sweep_grows_density_before_ranges(self, section_v_bounds):
        grid = [0.1, 0.3, 0.5, 0.7, 0.85]
        rows = sweep(make_mission(0.5, 0.5, 0.5, 0.0, section_v_bounds),
                     "t_intra", grid)
        lams = [r.solution.params.lam for r in rows]
        r1s = [r.solution.params.r1 for r in rows]
        assert all(a <= b + 1e-9 for a, b in zip(lams, lams[1:]))
        assert lams[-1] > lams[0]
        assert max(r1s) == pytest.approx(min(r1s), rel=1e-3)

    def test_unknown_variable(self, section_v_bounds):
        with pytest.raises(ValueError):
            sweep(make_mission(0.5, 0.5, 0.5, 0.0, section_v_bounds), "r1", [0.1])
