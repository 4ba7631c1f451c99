"""Experiment harnesses: sufficiency, chain reduction, value-function link."""
import warnings

import numpy as np
import pytest

from smjd import jump_diffusion, verification
from smjd.cli import build_model
from smjd.errors import (AdmissibilityFailure, InvalidParameter,
                         NonFinitePath)
from smjd.jump_diffusion import (ControlPolicy, ControlledDynamics,
                                 MarkMeasure, ObjectiveSpec, _step,
                                 build_plan, objective_paths,
                                 simulate_ensemble, step_plan)
from smjd.maximum_principle import ValueFunctionStub
from smjd.portfolio_examples import (QuadraticLossModel, RiskSensitiveModel,
                                     ql_dynamics, ql_objective, ql_phi_psi,
                                     ql_phi_psi_markov, ql_policy,
                                     rs_dynamics, rs_objective, rs_policy)
from smjd.rng import stream
from smjd.semi_markov import (ExponentialHolding, RegimeModel, RegimeState,
                              WeibullHolding, sample_regime_paths)
from smjd.verification import (PerturbationFamily, PerturbationResult,
                               SufficiencyReport, default_perturbation_family,
                               dp_connection_experiment,
                               markov_reduction_experiment, sufficiency_plan,
                               sufficiency_sweeps)


@pytest.fixture
def ql_setup(ql_nojump_model, single_regime):
    phi, psi = ql_phi_psi_markov(ql_nojump_model, single_regime,
                                 np.linspace(0.0, 1.0, 501))
    dyn = ql_dynamics(ql_nojump_model)
    pol = ql_policy(ql_nojump_model, (phi, psi))
    obj = ql_objective(ql_nojump_model)
    return ql_nojump_model, dyn, pol, obj


@pytest.fixture
def ql_nojump_model():
    return QuadraticLossModel(r=np.array([0.05]), mbar=np.array([0.4]),
                              sigma=np.array([0.2]), d=1.0, horizon=1.0)


class TestPerturbationFamily:
    def test_unknown_kind_rejected(self):
        base = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        with pytest.raises(ValueError, match="unknown perturbation kind"):
            PerturbationFamily(base, "wiggle", (0.1,))

    def test_window_requires_window(self):
        base = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        with pytest.raises(ValueError, match="window"):
            PerturbationFamily(base, "window", (0.1,))

    @pytest.mark.parametrize("field, kw", [
        ("magnitudes", dict(kind="shift", magnitudes=())),
        ("magnitudes", dict(kind="shift", magnitudes=(0.1, float("nan")))),
        ("magnitudes", dict(kind="random", magnitudes=(float("inf"),))),
        ("window", dict(kind="window", magnitudes=(0.1,), window=(0.6, 0.3))),
        ("window", dict(kind="window", magnitudes=(0.1,),
                        window=(0.3, float("nan")))),
        ("relative", dict(kind="scale", magnitudes=(0.1,), relative=True))])
    def test_degenerate_family_is_refused_by_name(self, field, kw):
        base = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        with pytest.raises(InvalidParameter, match=field) as info:
            PerturbationFamily(base, **kw)
        assert info.value.field == field

    def test_sweep_without_families_is_refused(self, ql_setup,
                                               single_regime):
        model, dyn, pol, obj = ql_setup
        plan = sufficiency_plan(dyn, single_regime, 0, 0.0, 1.0, 4, 0.05, 3)
        with pytest.raises(InvalidParameter, match="families") as info:
            sufficiency_sweeps(dyn, obj, [([], None)], plan, 0.5, 3)
        assert info.value.field == "families"

    def test_default_family_has_at_least_twenty_members(self):
        base = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        fams = default_perturbation_family(base, relative=False, horizon=1.0)
        n = sum(len(f.magnitudes) for f in fams)
        assert n >= 20
        kinds = {f.kind for f in fams}
        assert kinds == {"shift", "scale", "window", "random"}
        # the exact-zero coupling control is included
        assert any(0.0 in f.magnitudes for f in fams)

    def test_shift_and_scale_rules(self):
        base = ControlPolicy(rule=lambda t, x, i, y: 2.0 * x)
        x = np.array([1.0, 3.0])
        z = np.zeros(2)
        fam = PerturbationFamily(base, "shift", (0.25,))
        [(label, delta, pol)] = list(fam.policies(0, 2))
        assert np.allclose(pol.rule(z, x, z.astype(int), z), 2.0 * x + 0.25)
        fam = PerturbationFamily(base, "scale", (0.5,))
        [(_, _, pol)] = list(fam.policies(0, 2))
        assert np.allclose(pol.rule(z, x, z.astype(int), z), 3.0 * x)

    def test_window_rule_applies_only_inside_window(self):
        base = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        fam = PerturbationFamily(base, "window", (1.0,), window=(0.25, 0.75))
        [(_, _, pol)] = list(fam.policies(0, 3))
        t = np.array([0.1, 0.5, 0.9])
        u = pol.rule(t, np.ones(3), np.zeros(3, dtype=int), np.zeros(3))
        assert np.allclose(u, [0.0, 1.0, 0.0])

    def test_random_constants_belong_to_the_full_ensemble(self,
                                                          single_regime):
        # constant p is path p's: a one-path call has no row to take
        base = ControlPolicy(rule=lambda t, x, i, y: 0.1 * x)
        [(_, _, pol)] = list(PerturbationFamily(base, "random",
                                                (0.25,)).policies(9, 8))
        dyn = ControlledDynamics(drift=lambda t, x, u, i: 0.05 * x,
                                 vol=lambda t, x, u, i: 0.2 * x)
        regimes = sample_regime_paths(single_regime, RegimeState(0, 0.0), 1.0,
                                      8, 9)
        with pytest.raises(ValueError, match=r"random\[0\].*8 paths"):
            step_plan(dyn, pol, build_plan(dyn, regimes[3:4], 0.05, 9), 1.0)
        ens = simulate_ensemble(dyn, pol, regimes, 1.0, 0.05, 9)
        ens_base = simulate_ensemble(dyn, base, regimes, 1.0, 0.05, 9)
        consts = stream(9, "perturb", 0).uniform(-0.25, 0.25, 8)
        assert np.array_equal(ens.u[:, 0], ens_base.u[:, 0] + consts)

    def test_random_member_rule_refuses_another_path_count(self):
        # the rule holds the same guard as the bound law
        base = ControlPolicy(rule=lambda t, x, i, y: 0.1 * x)
        [(_, _, pol)] = list(PerturbationFamily(base, "random",
                                                (0.25,)).policies(9, 8))
        z = np.zeros(3)
        with pytest.raises(ValueError, match=r"random\[0\].*8 paths.*on 3"):
            pol.rule(z, np.ones(3), z.astype(int), z)
        u = pol.rule(np.zeros(8), np.ones(8), np.zeros(8, dtype=int),
                     np.zeros(8))
        consts = stream(9, "perturb", 0).uniform(-0.25, 0.25, 8)
        assert np.array_equal(u, 0.1 + consts)


def _cubic_plan(dyn, single_regime):
    """The 4-path, dt = 0.01 plan of seed 3 the failing sweeps step on."""
    return sufficiency_plan(dyn, single_regime, 0, 0.0, 1.0, 4, 0.01, 3)


class TestSufficiency:
    def _run(self, setup, families, n_paths=400, seed=11, dt=0.01, **kw):
        model, dyn, pol, obj = setup
        plan = sufficiency_plan(dyn, kw.pop("rm"), 0, 0.0, 1.0, n_paths, dt,
                                seed)
        u_fn = kw.pop("u_coefficient_fn", None)
        return sufficiency_sweeps(dyn, obj, [(families, u_fn)], plan, x0=0.5,
                                  seed=seed, **kw)[0]

    def test_zero_perturbation_couples_exactly(self, ql_setup, single_regime):
        model, dyn, pol, obj = ql_setup
        fams = [PerturbationFamily(pol, "shift", (0.0,))]
        rep = self._run(ql_setup, fams, rm=single_regime)
        assert rep.results[0].dJ == 0.0
        assert rep.results[0].se == 0.0
        assert rep.results[0].passed

    def test_candidate_beats_default_family(self, ql_setup, single_regime):
        model, dyn, pol, obj = ql_setup
        fams = default_perturbation_family(pol, relative=False, horizon=1.0)
        rep = self._run(ql_setup, fams, rm=single_regime)
        assert rep.passed
        assert len(rep.results) >= 20
        # the largest downward detuning loses value with statistical
        # significance; small perturbations sit inside the one-sided -2 SE
        # band (discretization bias at dt = 0.01 is comparable to their
        # true O(delta^2) loss and the coupled-noise SE)
        big_down = [r for r in rep.results if r.delta == -0.5]
        assert big_down and all(r.dJ > 2.0 * r.se for r in big_down)

    def test_gap_grows_with_magnitude(self, ql_setup, single_regime):
        model, dyn, pol, obj = ql_setup
        fams = [PerturbationFamily(pol, "shift", (0.05, 0.2, 0.8))]
        rep = self._run(ql_setup, fams, rm=single_regime, n_paths=2000,
                        dt=0.0025)
        gaps = [r.dJ for r in rep.results]
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[0] > -1e-4  # small shift loss is near zero, not negative

    def test_detuned_base_fails_against_candidate_direction(self, ql_setup,
                                                            single_regime):
        # negative control: scale the candidate by 1.5 and perturb back
        # toward it -- the experiment must detect the improvement
        model, dyn, pol, obj = ql_setup
        bad = ControlPolicy(rule=lambda t, x, i, y: 1.5 * pol.rule(t, x, i, y))
        fams = [PerturbationFamily(bad, "scale", (-1.0 / 3.0,))]
        plan = sufficiency_plan(dyn, single_regime, 0, 0.0, 1.0, 2000, 0.01,
                                13)
        rep = sufficiency_sweeps(dyn, obj, [(fams, None)], plan, x0=0.5,
                                 seed=13)[0]
        assert not rep.passed
        assert rep.results[0].dJ < -2.0 * rep.results[0].se

    def test_first_order_flag(self, ql_setup, single_regime):
        model, dyn, pol, obj = ql_setup
        fams = [PerturbationFamily(pol, "shift", (0.0,))]
        rep = self._run(ql_setup, fams, rm=single_regime,
                        u_coefficient_fn=lambda ens: 0.5)
        assert rep.u_coefficient_max == 0.5
        assert rep.foc_pass is False
        assert not rep.passed

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_perturbation_raises(self, single_regime):
        dyn = ControlledDynamics(drift=lambda t, x, u, i: u * x ** 3,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        obj = ObjectiveSpec(running=None, terminal=lambda x, i, y: x)
        base = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        fams = [PerturbationFamily(base, "shift", (50.0,))]
        with pytest.raises(AdmissibilityFailure, match="shift"):
            sufficiency_sweeps(dyn, obj, [(fams, None)], _cubic_plan(
                dyn, single_regime), x0=2.0, seed=3)

    def test_shared_plan_gives_the_same_report(self, ql_setup, single_regime):
        # a plan already stepped by one sweep gives the next one the report
        # of a freshly built plan
        model, dyn, pol, obj = ql_setup
        fams = default_perturbation_family(pol, relative=False, horizon=1.0)
        plan = sufficiency_plan(dyn, single_regime, 0, 0.0, 1.0, 40, 0.05, 11)
        first, again = (
            sufficiency_sweeps(dyn, obj, [(fams, None)], plan, 0.5, 11)[0]
            for _ in range(2))
        own = self._run(ql_setup, fams, n_paths=40, dt=0.05, rm=single_regime)
        assert first.to_dict() == again.to_dict() == own.to_dict()

    def test_report_serialization(self, ql_setup, single_regime):
        model, dyn, pol, obj = ql_setup
        fams = [PerturbationFamily(pol, "shift", (0.0, 0.1))]
        rep = self._run(ql_setup, fams, n_paths=50, rm=single_regime)
        d = rep.to_dict()
        assert d["pass"] == rep.passed
        assert len(d["perturbations"]) == 2
        assert "finite perturbation family" in d["scope"]
        rows = list(rep.csv_rows())
        assert rows[0][0] == 0 and rows[1][0] == 1
        assert rows[1][2] == 0.1

    def test_one_path_is_refused(self, ql_setup, single_regime):
        model, dyn, pol, obj = ql_setup
        fams = [PerturbationFamily(pol, "shift", (0.0,))]
        with pytest.raises(ValueError, match="at least 2 paths"):
            self._run(ql_setup, fams, n_paths=1, rm=single_regime)

    def test_families_of_other_bases_are_refused(self, ql_setup,
                                                 single_regime):
        model, dyn, pol, obj = ql_setup
        other = ControlPolicy(rule=lambda t, x, i, y: 0.5 * x)
        fams = [PerturbationFamily(pol, "shift", (0.0,)),
                PerturbationFamily(other, "scale", (0.1,))]
        with pytest.raises(ValueError, match="same base policy"):
            self._run(ql_setup, fams, n_paths=10, rm=single_regime)


# ---------------------------------------------------------------------------
# The stacked sweep against one step_plan run per member
# ---------------------------------------------------------------------------

def _reference_report(dyn, obj, families, plan, x0, seed):
    """The sufficiency report built the long way: the base and every
    ``policies()`` member stepped by ``step_plan`` on ``plan``, each
    reduced by ``objective_paths``."""
    n = len(plan.regime_paths)

    def J(policy):
        return objective_paths(step_plan(dyn, policy, plan, x0), obj)

    J_hat = J(families[0].base)
    results = []
    for fam in families:
        for label, delta, policy in fam.policies(seed, n):
            gap = J_hat - J(policy)
            dJ = float(np.mean(gap))
            se = float(np.std(gap, ddof=1) / np.sqrt(n))
            results.append(PerturbationResult(label, fam.kind, delta, dJ, se,
                                              bool(dJ >= -2.0 * se)))
    return SufficiencyReport(
        j_hat=float(np.mean(J_hat)),
        se_hat=float(np.std(J_hat, ddof=1) / np.sqrt(n)),
        results=results, n_paths=n, seed=seed)


def _ql_jump_model(variant):
    return build_model({"model": {
        "kind": "ql", "r": [0.05, 0.03], "mbar": [0.4, 0.3],
        "sigma": [0.2, 0.25], "d": 1.0, "horizon": 1.0,
        "lambda_variant": variant,
        "jumps": {"rate": 2.0, "atoms": [-0.05, 0.08], "weights": [0.4, 0.6],
                  "coeff_scale": [1.0, 1.5]}}})


def _ql_jump_problem(exp2_model, variant):
    model = _ql_jump_model(variant)
    if variant == "consistent":
        fns = ql_phi_psi_markov(model, exp2_model, np.linspace(0.0, 1.0, 21))
    else:  # phi enters the rule's slope: the Monte Carlo fixed point
        fns = ql_phi_psi(model, exp2_model, np.linspace(0.0, 1.0, 11),
                         np.array([0.0, 1.0]), 30, 4)[:2]
    return ql_dynamics(model), ql_objective(model), ql_policy(model, fns)


def _rs_problem():
    model = RiskSensitiveModel(r=np.array([0.05, 0.02]),
                               mu=np.array([0.13, 0.08]),
                               sigma=np.array([0.2, 0.3]), gamma=0.5,
                               horizon=1.0)
    return rs_dynamics(model), rs_objective(model), rs_policy(model)


def _all_kinds(base, relative):
    return [PerturbationFamily(base, "shift", (0.0, 0.1, -0.2),
                               relative=relative),
            PerturbationFamily(base, "scale", (0.05, -0.5)),
            PerturbationFamily(base, "window", (0.25, -0.1),
                               relative=relative, window=(0.3, 0.6)),
            PerturbationFamily(base, "random", (0.05, 0.2),
                               relative=relative)]


class TestStackedSweep:
    """``sufficiency_sweeps`` steps the members stacked; a sweep's report
    equals, bit for bit, the one built member by member."""

    def _compare(self, rm, dyn, obj, families, x0, n_paths=30, dt=0.05,
                 seed=17):
        plan = sufficiency_plan(dyn, rm, 0, 0.0, 1.0, n_paths, dt, seed)
        stacked = sufficiency_sweeps(dyn, obj, [(families, None)], plan, x0,
                                     seed)[0]
        reference = _reference_report(dyn, obj, families, plan, x0, seed)
        assert stacked.to_dict() == reference.to_dict()
        assert stacked.results[0].dJ == 0.0  # the zero shift
        return stacked

    @pytest.mark.parametrize("variant", ["literal", "consistent"])
    @pytest.mark.parametrize("relative", [False, True])
    def test_ql_with_jumps_all_kinds(self, exp2_model, variant, relative):
        dyn, obj, base = _ql_jump_problem(exp2_model, variant)
        self._compare(exp2_model, dyn, obj, _all_kinds(base, relative), 0.5)

    def test_rs_default_family(self, exp2_model):
        dyn, obj, base = _rs_problem()
        fams = default_perturbation_family(base, relative=True, horizon=1.0)
        rep = self._compare(exp2_model, dyn, obj, fams, 1.0)
        assert len(rep.results) == 20

    @pytest.mark.parametrize("rows_per_chunk", [1, 4, 100])
    def test_running_cost_across_chunk_boundaries(self, exp2_model,
                                                  monkeypatch,
                                                  rows_per_chunk):
        dyn, obj, base = _ql_jump_problem(exp2_model, "consistent")
        obj = ObjectiveSpec(
            running=lambda t, x, u, i, y: -0.2 * u ** 2 + 0.05 * (1 + i) * x,
            terminal=obj.terminal)
        n_paths, dt = 30, 0.05
        K = sufficiency_plan(dyn, exp2_model, 0, 0.0, 1.0, n_paths, dt,
                             17).t.shape[1]
        # a chunk holds x and u, (n, K) doubles each, per row
        monkeypatch.setattr(verification, "_STACK_BYTES",
                            rows_per_chunk * 16 * n_paths * K)
        self._compare(exp2_model, dyn, obj, _all_kinds(base, False), 0.5,
                      n_paths=n_paths, dt=dt)

    def test_one_base_rule_call_per_column_on_stacked_states(self,
                                                            exp2_model):
        dyn, obj, base = _ql_jump_problem(exp2_model, "consistent")
        shapes = []

        def rule(t, x, i, y):
            shapes.append((t.shape, x.shape, i.shape, y.shape))
            return base.rule(t, x, i, y)

        counted = ControlPolicy(rule=rule)
        fams = _all_kinds(counted, False)
        plan = sufficiency_plan(dyn, exp2_model, 0, 0.0, 1.0, 30, 0.05, 17)
        sufficiency_sweeps(dyn, obj, [(fams, None)], plan, 0.5, 17)
        n, K = plan.t.shape
        P = sum(len(f.magnitudes) for f in fams)
        # the base is the stack's identity row: one stacked call per column
        assert shapes == [((n,), (P + 1, n), (n,), (n,))] * K
        # a u-coefficient function reads the base ensemble, stepped first
        shapes.clear()
        sufficiency_sweeps(dyn, obj, [(fams, lambda ens: 0.0)], plan, 0.5,
                           17)
        assert shapes == [((n,),) * 4] * K + [((n,), (P, n), (n,), (n,))] * K


class TestFusedSweeps:
    """``sufficiency_sweeps`` steps several sweeps in one stacked pass; each
    sweep's report equals, bit for bit, its own one-sweep run and the
    member-by-member report."""

    def _compare(self, rm, dyn, obj, base, families_of, x0, n_paths=30,
                 dt=0.05, seed=17):
        """The candidate's sweep with a u-coefficient function and the 1.5x
        negative control's without, as the CLI runs them."""
        plan = sufficiency_plan(dyn, rm, 0, 0.0, 1.0, n_paths, dt, seed)
        scaled = next(PerturbationFamily(base, "scale", (0.5,)).policies(
            seed, n_paths))[2]
        u_fn = lambda ens: float(np.max(np.abs(ens.u)))  # noqa: E731
        sweeps = [(families_of(base), u_fn), (families_of(scaled), None)]
        fused = sufficiency_sweeps(dyn, obj, sweeps, plan, x0,
                                                seed, foc_tol=1e9)
        assert len(fused) == 2
        for (fams, fn), rep in zip(sweeps, fused):
            own = sufficiency_sweeps(dyn, obj, [(fams, fn)], plan, x0, seed,
                                     foc_tol=1e9)[0]
            assert rep.to_dict() == own.to_dict()
            reference = _reference_report(dyn, obj, fams, plan, x0, seed)
            if fn is not None:
                reference.u_coefficient_max = fn(step_plan(
                    dyn, fams[0].base, plan, x0))
                reference.foc_pass = True
            assert rep.to_dict() == reference.to_dict()
        assert fused[0].u_coefficient_max > 0 and fused[0].foc_pass
        assert fused[1].u_coefficient_max is None

    @pytest.mark.parametrize("variant", ["literal", "consistent"])
    def test_ql_with_jumps_all_kinds(self, exp2_model, variant):
        dyn, obj, base = _ql_jump_problem(exp2_model, variant)
        self._compare(exp2_model, dyn, obj, base,
                      lambda b: _all_kinds(b, False), 0.5)

    def test_rs_default_family(self, exp2_model):
        dyn, obj, base = _rs_problem()
        self._compare(exp2_model, dyn, obj, base,
                      lambda b: default_perturbation_family(b, True, 1.0),
                      1.0, dt=0.01)

    @pytest.mark.parametrize("rows_per_chunk", [1, 4, 7])
    def test_running_cost_chunk_splits_the_sweeps(self, exp2_model,
                                                  monkeypatch,
                                                  rows_per_chunk):
        # 9 candidate rows, then the identity row and 9 negative-control
        # rows: chunks of 4 and 7 rows hold rows of both sweeps
        dyn, obj, base = _ql_jump_problem(exp2_model, "consistent")
        obj = ObjectiveSpec(
            running=lambda t, x, u, i, y: -0.2 * u ** 2 + 0.05 * (1 + i) * x,
            terminal=obj.terminal)
        K = sufficiency_plan(dyn, exp2_model, 0, 0.0, 1.0, 30, 0.05,
                             17).t.shape[1]
        monkeypatch.setattr(verification, "_STACK_BYTES",
                            rows_per_chunk * 16 * 30 * K)
        self._compare(exp2_model, dyn, obj, base,
                      lambda b: _all_kinds(b, False), 0.5)

    def test_sweeps_of_one_base_share_its_law_calls(self, exp2_model):
        # two sweeps of one base, a third between them: the rows are
        # grouped by base, one law call per column and base
        dyn, obj, base = _ql_jump_problem(exp2_model, "consistent")
        calls = []

        def rule(t, x, i, y):
            calls.append(x.shape)
            return base.rule(t, x, i, y)

        counted = ControlPolicy(rule=rule)
        other = _rs_problem()[2]
        plan = sufficiency_plan(dyn, exp2_model, 0, 0.0, 1.0, 30, 0.05, 17)
        sweeps = [(_all_kinds(counted, False), None),
                  (_all_kinds(other, False), None),
                  ([PerturbationFamily(counted, "shift", (0.1, 0.2))], None)]
        fused = sufficiency_sweeps(dyn, obj, sweeps, plan, 0.5,
                                                17)
        assert calls == [(1 + 9 + 1 + 2, 30)] * plan.t.shape[1]
        for (fams, _), rep in zip(sweeps, fused):
            assert rep.to_dict() == sufficiency_sweeps(
                dyn, obj, [(fams, None)], plan, 0.5, 17)[0].to_dict()


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestBoundLaws:
    """A policy bound to a plan gives the bits of its per-column rule, on a
    plan with regime events, asset jumps, padded rows and several column
    blocks."""

    n_paths = 30

    @pytest.fixture
    def plan(self, exp2_model, monkeypatch):
        # 7 columns a block: the plan spans several blocks, the last short
        monkeypatch.setattr(jump_diffusion, "_BLOCK_FLOATS", 7 * self.n_paths)
        dyn = ql_dynamics(_ql_jump_model("consistent"))
        plan = sufficiency_plan(dyn, exp2_model, 0, 0.0, 1.0, self.n_paths,
                                0.05, 17)
        K = plan.t.shape[1]
        assert K > 14 and K % 7
        assert plan.jump_mask.any()
        assert (plan.theta[:, 1:] != plan.theta[:, :-1]).any()
        assert (np.diff(plan.t, axis=1) == 0).any()  # padded rows
        return dyn, plan

    @staticmethod
    def _cases(name, exp2_model):
        """(binder, stack, rule-only policies) of ``name``: each row of the
        binder's run must step like its rule-only policy, column by column."""
        n = TestBoundLaws.n_paths
        if name == "stacked":
            fams = _all_kinds(_ql_jump_problem(exp2_model, "literal")[2], True)
            members = [(fam, idx, term) for fam in fams
                       for idx, term in enumerate(fam.terms(17, n))]
            return [(verification._stacked_bind(members), len(members),
                     [ControlPolicy(pol.rule) for fam in fams
                      for _, _, pol in fam.policies(17, n)])]
        if name in ("multi-sweep", "signed-zeros"):
            base = _ql_jump_problem(exp2_model, "consistent")[2]
            if name == "multi-sweep":  # the CLI's two sweeps, both kinds
                scaled = next(PerturbationFamily(base, "scale", (0.5,))
                              .policies(17, n))[2]
                sweeps = [(base, _all_kinds(base, False)),
                          (scaled, _all_kinds(scaled, True))]
            else:  # a base of -0.0 above x = 0.5 and +0.0 below it
                base = ControlPolicy(rule=lambda t, x, i, y: -0.0 * (x - 0.5))
                sweeps = [(base, [f for f in _all_kinds(base, relative)
                                  if f.kind in ("scale", "window")])
                          for relative in (False, True)]
            members, rules = [], []
            for sweep_base, fams in sweeps:  # identity row, then members
                members.append((PerturbationFamily(sweep_base, "scale",
                                                   (0.0,)), 0, np.ones(1)))
                rules.append(ControlPolicy(sweep_base.rule))
                members += [(fam, idx, term) for fam in fams
                            for idx, term in enumerate(fam.terms(17, n))]
                rules += [ControlPolicy(pol.rule) for fam in fams
                          for _, _, pol in fam.policies(17, n)]
            return [(verification._stacked_bind(members), len(members),
                     rules)]
        if name == "rs":
            pairs = [(_rs_problem()[2], None)]
        elif name == "ql-no-jumps":
            model = QuadraticLossModel(r=np.array([0.05, 0.03]),
                                       mbar=np.array([0.4, 0.3]),
                                       sigma=np.array([0.2, 0.25]), d=1.0,
                                       horizon=1.0)
            pairs = [(ql_policy(model, ql_phi_psi_markov(
                model, exp2_model, np.linspace(0.0, 1.0, 21),
                np.array([0.0, 0.5, 1.0]))), None)]
        elif name.startswith("ql-"):
            pairs = [(_ql_jump_problem(exp2_model, name[3:])[2], None)]
        else:
            base = _ql_jump_problem(exp2_model, "consistent")[2]
            if name == "negative-control":  # the CLI's 1.5x candidate
                scaled = PerturbationFamily(base, "scale", (0.5,))
                pairs = [(next(scaled.policies(17, n))[2],
                          lambda t, x, i, y: 1.5 * base.rule(t, x, i, y))]
            else:
                [fam] = [f for f in _all_kinds(base, True) if f.kind == name]
                pairs = [(pol, None) for _, _, pol in fam.policies(17, n)]
        for pol, _ in pairs:
            assert pol.bind is not None
        return [(pol.law, None, [ControlPolicy(rule or pol.rule)])
                for pol, rule in pairs]

    @pytest.mark.parametrize("name", [
        "ql-consistent", "ql-literal", "ql-no-jumps", "rs", "negative-control",
        "shift", "scale", "window", "random", "stacked", "multi-sweep",
        "signed-zeros"])
    def test_bound_law_steps_like_the_rule(self, plan, exp2_model, name):
        dyn, plan = plan
        for bind, stack, rules in self._cases(name, exp2_model):
            x, u, _ = _step(dyn, bind, plan, 0.5, stack=stack)
            rows = [(x, u)] if stack is None else list(zip(x, u))
            assert len(rows) == len(rules)
            for got, rule in zip(rows, rules):
                want = _step(dyn, rule.law, plan, 0.5)[:2]
                for a, b in zip(got, want):
                    assert np.array_equal(_bits(a), _bits(b))


class TestSweepFailures:
    """The first member in family order that fails is named, with the
    message a member-by-member sweep gives."""

    @staticmethod
    def _cubic(terminal):
        dyn = ControlledDynamics(drift=lambda t, x, u, i: u * x ** 3,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        base = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        return dyn, ObjectiveSpec(running=None, terminal=terminal), base

    @staticmethod
    def _failure(dyn, policy, paths):
        """The NonFinitePath of ``policy`` stepped on its own."""
        with pytest.raises(NonFinitePath) as info:
            simulate_ensemble(dyn, policy, paths, 2.0, 0.01, 3)
        return info.value

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_earlier_member_is_named_though_a_later_one_fails_first(
            self, single_regime):
        dyn, obj, base = self._cubic(lambda x, i, y: x)
        # dx = delta x^3 dt from x0 = 2: delta 5 blows up at a later column
        # than delta 50, which comes later in family order
        fams = [PerturbationFamily(base, "shift", (0.0, 5.0)),
                PerturbationFamily(base, "shift", (50.0,))]
        paths = sample_regime_paths(single_regime, RegimeState(0, 0.0), 1.0,
                                    4, 3)
        early = self._failure(dyn, list(fams[0].policies(3, 4))[1][2], paths)
        late = self._failure(dyn, list(fams[1].policies(3, 4))[0][2], paths)
        column = lambda exc: int(str(exc).split()[4])
        assert column(late) < column(early)
        with pytest.raises(AdmissibilityFailure) as info:
            sufficiency_sweeps(dyn, obj, [(fams, None)], _cubic_plan(
                dyn, single_regime), x0=2.0, seed=3)
        assert str(info.value) == (
            f"perturbation shift[1] (delta=5.0) produced a non-finite path: "
            f"{early}")
        cause = info.value.__cause__
        assert isinstance(cause, NonFinitePath)
        assert cause.path_index == early.path_index

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_objective_outranks_a_later_blow_up(self,
                                                           single_regime):
        # delta -0.05 ends below 1.8 (log of a negative number); delta 50
        # blows up, later in family order
        dyn, obj, base = self._cubic(lambda x, i, y: np.log(x - 1.8))
        fams = [PerturbationFamily(base, "shift", (0.0, -0.05, 50.0))]
        with pytest.raises(AdmissibilityFailure) as info:
            sufficiency_sweeps(dyn, obj, [(fams, None)], _cubic_plan(
                dyn, single_regime), x0=2.0, seed=3)
        assert str(info.value) == ("perturbation shift[1] (delta=-0.05) has "
                                   "a non-finite objective")

    def test_non_finite_member_objective_is_refused_without_a_warning(
            self, single_regime):
        # delta -0.05 ends below 1.8, where the square root is NaN: the
        # member is refused by name, and evaluating it warns of nothing
        dyn, obj, base = self._cubic(lambda x, i, y: (x - 1.8) ** 0.5)
        fams = [PerturbationFamily(base, "shift", (0.0, -0.05))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdmissibilityFailure, match=r"shift\[1\] "
                               r"\(delta=-0\.05\) has a non-finite objective"):
                sufficiency_sweeps(dyn, obj, [(fams, None)], _cubic_plan(
                    dyn, single_regime), x0=2.0, seed=3)


class TestMarkovReduction:
    def _problem(self):
        dyn = ControlledDynamics(drift=lambda t, x, u, i: 0.05 * (1 + i) * x,
                                 vol=lambda t, x, u, i: 0.1 * x)
        obj = ObjectiveSpec(running=None, terminal=lambda x, i, y: x)
        pol = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        return dyn, pol, obj

    def test_exponential_model_agrees(self, exp2_model):
        dyn, pol, obj = self._problem()
        rep = markov_reduction_experiment(dyn, pol, obj, exp2_model, x0=1.0,
                                          i0=0, horizon=1.0, n_paths=2000,
                                          dt=0.01, seed=7,
                                          phi_rates=np.array([0.2, -0.1]))
        assert rep.status == "ok"
        assert rep.j_pass and rep.phi_pass and rep.passed
        # objective is genuinely regime-dependent, so this is not vacuous
        assert abs(rep.j_semi - 1.0) > 0.05

    def test_weibull_model_gated_not_applicable(self, weibull3_model):
        dyn, pol, obj = self._problem()
        rep = markov_reduction_experiment(dyn, pol, obj, weibull3_model,
                                          x0=1.0, i0=0, horizon=1.0,
                                          n_paths=10, dt=0.01, seed=7)
        assert rep.status == "not-applicable"
        assert "Weibull" in rep.reason
        assert rep.passed  # gated out, not failed
        assert rep.j_semi is None

    def test_mixed_holding_gated(self):
        rm = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         holding=(ExponentialHolding(1.0),
                                  WeibullHolding(shape=2.0, scale=1.0)))
        dyn, pol, obj = self._problem()
        rep = markov_reduction_experiment(dyn, pol, obj, rm, x0=1.0, i0=0,
                                          horizon=1.0, n_paths=10, dt=0.01,
                                          seed=7)
        assert rep.status == "not-applicable"

    def test_serialization_round_trip(self, exp2_model):
        dyn, pol, obj = self._problem()
        rep = markov_reduction_experiment(dyn, pol, obj, exp2_model, x0=1.0,
                                          i0=0, horizon=1.0, n_paths=200,
                                          dt=0.02, seed=9)
        d = rep.to_dict()
        assert d["status"] == "ok"
        assert d["pass"] == rep.passed
        assert d["phi_pass"] is None  # no phi_rates supplied


class TestDpConnection:
    def _transport(self, r, d, horizon):
        def grow(t):
            return np.exp(r * (horizon - np.asarray(t, dtype=float)))

        return ValueFunctionStub(
            v=lambda t, x, i, y: -(x * grow(t) - d) ** 2,
            dt=lambda t, x, i, y: 2.0 * (x * grow(t) - d) * x * r * grow(t),
            dx=lambda t, x, i, y: -2.0 * (x * grow(t) - d) * grow(t),
            dxx=lambda t, x, i, y: -2.0 * grow(t) ** 2 * np.ones_like(
                np.asarray(x, dtype=float)),
            dy=lambda t, x, i, y: np.zeros_like(np.asarray(x, dtype=float)))

    def _problem(self, r, d):
        dyn = ControlledDynamics(drift=lambda t, x, u, i: r * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        obj = ObjectiveSpec(running=None,
                            terminal=lambda x, i, y: -(x - d) ** 2,
                            terminal_dx=lambda x, i, y: -2.0 * (x - d))
        pol = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        return dyn, pol, obj

    def test_residual_order_and_terminal(self, single_regime):
        r, d = 0.05, 1.0
        dyn, pol, obj = self._problem(r, d)
        rep = dp_connection_experiment(self._transport(r, d, 1.0), dyn, pol,
                                       obj, single_regime, x0=0.9, i0=0,
                                       y0=0.0, horizon=1.0, n_paths=100,
                                       dts=(8e-3, 4e-3, 2e-3), seed=5)
        assert rep.order_consistent
        assert len(rep.ratios) == 2
        assert all(0.35 <= q <= 0.65 for q in rep.ratios)
        assert rep.terminal_mismatch < 1e-10

    def test_wrong_value_function_breaks_order(self, single_regime):
        # a mis-specified growth rate leaves an O(1) residual: ratios near 1
        r, d = 0.05, 1.0
        dyn, pol, obj = self._problem(r, d)
        rep = dp_connection_experiment(self._transport(r + 0.1, d, 1.0), dyn,
                                       pol, obj, single_regime, x0=0.9, i0=0,
                                       y0=0.0, horizon=1.0, n_paths=100,
                                       dts=(8e-3, 4e-3), seed=5)
        assert not rep.order_consistent
        assert rep.ratios[0] > 0.9

    def test_serialization(self, single_regime):
        r, d = 0.05, 1.0
        dyn, pol, obj = self._problem(r, d)
        rep = dp_connection_experiment(self._transport(r, d, 1.0), dyn, pol,
                                       obj, single_regime, x0=0.9, i0=0,
                                       y0=0.0, horizon=1.0, n_paths=20,
                                       dts=(8e-3, 4e-3), seed=5)
        d_ = rep.to_dict()
        assert d_["order_consistent"] == rep.order_consistent
        assert len(d_["residuals"]) == 2
