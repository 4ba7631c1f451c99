"""Experiment harnesses: sufficiency, chain reduction, value-function link."""
import numpy as np
import pytest

from smjd import verification
from smjd.cli import build_model
from smjd.errors import AdmissibilityFailure, NonFinitePath
from smjd.jump_diffusion import (ControlPolicy, ControlledDynamics,
                                 MarkMeasure, ObjectiveSpec, build_plan,
                                 objective_paths, simulate_ensemble,
                                 step_plan)
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
                               markov_reduction_experiment,
                               sufficiency_experiment, sufficiency_plan)


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
        dyn = ControlledDynamics(dim=1, drift=lambda t, x, u, i: 0.05 * x,
                                 vol=lambda t, x, u, i: 0.2 * x)
        regimes = sample_regime_paths(single_regime, RegimeState(0, 0.0), 1.0,
                                      8, 9)
        with pytest.raises(ValueError, match=r"random\[0\].*8 paths"):
            step_plan(dyn, pol, build_plan(dyn, regimes[3:4], 0.05, 9), 1.0)
        ens = simulate_ensemble(dyn, pol, regimes, 1.0, 0.05, 9)
        ens_base = simulate_ensemble(dyn, base, regimes, 1.0, 0.05, 9)
        consts = stream(9, "perturb", 0).uniform(-0.25, 0.25, 8)
        assert np.array_equal(ens.u[:, 0], ens_base.u[:, 0] + consts)


def _cubic_plan(dyn, single_regime):
    """The 4-path, dt = 0.01 plan of seed 3 the failing sweeps step on."""
    return sufficiency_plan(dyn, single_regime, 0, 0.0, 1.0, 4, 0.01, 3)


class TestSufficiency:
    def _run(self, setup, families, n_paths=400, seed=11, dt=0.01, **kw):
        model, dyn, pol, obj = setup
        plan = sufficiency_plan(dyn, kw.pop("rm"), 0, 0.0, 1.0, n_paths, dt,
                                seed)
        return sufficiency_experiment(dyn, obj, families, plan, x0=0.5,
                                      seed=seed, **kw)

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
        rep = sufficiency_experiment(dyn, obj, fams, plan, x0=0.5, seed=13)
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
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: u * x ** 3,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        obj = ObjectiveSpec(running=None, terminal=lambda x, i, y: x)
        base = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        fams = [PerturbationFamily(base, "shift", (50.0,))]
        with pytest.raises(AdmissibilityFailure, match="shift"):
            sufficiency_experiment(dyn, obj, fams, _cubic_plan(
                dyn, single_regime), x0=2.0, seed=3)

    def test_shared_plan_gives_the_same_report(self, ql_setup, single_regime):
        # a plan already stepped by one sweep gives the next one the report
        # of a freshly built plan
        model, dyn, pol, obj = ql_setup
        fams = default_perturbation_family(pol, relative=False, horizon=1.0)
        plan = sufficiency_plan(dyn, single_regime, 0, 0.0, 1.0, 40, 0.05, 11)
        first = sufficiency_experiment(dyn, obj, fams, plan, 0.5, 11)
        again = sufficiency_experiment(dyn, obj, fams, plan, 0.5, 11)
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


def _dim2_problem():
    """A dim-2 jump model whose rule, coefficients and objective index
    state coordinates as x[..., j], so they broadcast a policy axis."""
    a = np.array([0.05, -0.1])

    def vol(t, x, u, i):
        top = np.stack([0.2 * x[..., 0], 0.1 * u], axis=-1)
        bottom = np.stack([0.05 + 0.0 * u, (0.3 + 0.1 * i) * x[..., 1]],
                          axis=-1)
        return np.stack([top, bottom], axis=-2)

    dyn = ControlledDynamics(
        dim=2,
        drift=lambda t, x, u, i: a[i][..., None] * x + np.stack(
            [0.1 * u, -0.05 * u * x[..., 0]], axis=-1),
        vol=vol,
        jump=lambda t, x, u, i, gam: 0.1 * gam[..., None] * x,
        marks=MarkMeasure(rate=3.0, atoms=np.array([-0.2, 0.3]),
                          weights=np.array([0.5, 0.5])))
    obj = ObjectiveSpec(
        running=lambda t, x, u, i, y: -0.1 * u ** 2 + 0.01 * x[..., 1],
        terminal=lambda x, i, y: -(x[..., 0] - 1.0) ** 2 + 0.5 * x[..., 1])
    base = ControlPolicy(
        rule=lambda t, x, i, y: 0.3 * x[..., 0] - 0.1 * x[..., 1] + 0.05 * i)
    return dyn, obj, base


def _all_kinds(base, relative):
    return [PerturbationFamily(base, "shift", (0.0, 0.1, -0.2),
                               relative=relative),
            PerturbationFamily(base, "scale", (0.05, -0.5)),
            PerturbationFamily(base, "window", (0.25, -0.1),
                               relative=relative, window=(0.3, 0.6)),
            PerturbationFamily(base, "random", (0.05, 0.2),
                               relative=relative)]


class TestStackedSweep:
    """``sufficiency_experiment`` steps the members stacked; its report
    equals, bit for bit, the one built member by member."""

    def _compare(self, rm, dyn, obj, families, x0, n_paths=30, dt=0.05,
                 seed=17):
        plan = sufficiency_plan(dyn, rm, 0, 0.0, 1.0, n_paths, dt, seed)
        stacked = sufficiency_experiment(dyn, obj, families, plan, x0, seed)
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

    def test_dim2_with_broadcasting_callables(self, exp2_model, monkeypatch):
        dyn, obj, base = _dim2_problem()
        self._compare(exp2_model, dyn, obj, _all_kinds(base, False),
                      np.array([1.0, 0.5]))
        # chunked: the running cost keeps (n, K, 2) states per row
        monkeypatch.setattr(verification, "_STACK_BYTES", 1)
        self._compare(exp2_model, dyn, obj, _all_kinds(base, False),
                      np.array([1.0, 0.5]))

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
        sufficiency_experiment(dyn, obj, fams, plan, 0.5, 17)
        n, K = plan.t.shape
        P = sum(len(f.magnitudes) for f in fams)
        # the base ensemble, then one stacked call per column
        assert shapes == [((n,),) * 4] * K + [((n,), (P, n), (n,), (n,))] * K


class TestSweepFailures:
    """The first member in family order that fails is named, with the
    message a member-by-member sweep gives."""

    @staticmethod
    def _cubic(terminal):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: u * x ** 3,
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
            sufficiency_experiment(dyn, obj, fams, _cubic_plan(
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
            sufficiency_experiment(dyn, obj, fams, _cubic_plan(
                dyn, single_regime), x0=2.0, seed=3)
        assert str(info.value) == ("perturbation shift[1] (delta=-0.05) has "
                                   "a non-finite objective")


class TestMarkovReduction:
    def _problem(self):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: 0.05 * (1 + i) * x,
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
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: r * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x),
                                 drift_dx=lambda t, x, u, i: r
                                 * np.ones_like(x),
                                 vol_dx=lambda t, x, u, i: np.zeros_like(x))
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
        assert rep.v_approximate is False

    def test_wrong_value_function_breaks_order(self, single_regime):
        # a mis-specified growth rate leaves an O(1) residual: ratios near 1
        r, d = 0.05, 1.0
        dyn, pol, obj = self._problem(r, d)
        rep = dp_connection_experiment(self._transport(r + 0.1, d, 1.0), dyn,
                                       pol, obj, single_regime, x0=0.9, i0=0,
                                       y0=0.0, horizon=1.0, n_paths=100,
                                       dts=(8e-3, 4e-3), seed=5,
                                       v_approximate=True)
        assert not rep.order_consistent
        assert rep.ratios[0] > 0.9
        assert rep.v_approximate is True

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
