import ast
import contextlib
import importlib.util
import io
import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from stochvi.cli import main
from stochvi.constants import (
    BoundFamily,
    ConstantsInputs,
    GOLDEN_PHI_CAP,
    admissible_remainder_constant,
    c_consistency,
    compare_bound_to_run,
    k0_and_tail,
    lp_bound_constants,
    rate_and_complexity_bounds,
    rho,
)
from stochvi.errors import InvalidInputs, InvalidStepsize, MissingJ
from stochvi.sampling import AgentSchedule, SampleSchedule


def inputs(**overrides):
    # c_remainder is pinned so the plug-in tests check the formulas at the
    # values their comments state; c_remainder=None selects the default
    kwargs = dict(L=1.0, alpha=0.1, sigma=1.0,
                  schedule=SampleSchedule.uniform(1, 3, 0, 1),
                  phi=0.5, d0=1.0, c_remainder=2.0)
    kwargs.update(overrides)
    return ConstantsInputs(**kwargs)


class TestRho:
    def test_forced_arithmetic(self):
        assert rho(1.0 / (2.0 * math.sqrt(6.0)), 1.0) == pytest.approx(0.75)

    def test_near_cap(self):
        assert rho(0.4, 1.0) == pytest.approx(0.04)

    def test_small_step_limit(self):
        assert rho(1e-9, 1.0) == pytest.approx(1.0)

    def test_rejects_cap(self):
        with pytest.raises(InvalidStepsize):
            rho(0.41, 1.0)


class TestVarianceModuli:
    """The noise margins D and D_p and the martingale coefficient B_p, as
    the noise margin property and the L^p certificate's growth factor
    beta = B_p sqrt(gamma) + D_p gamma + (D_p gamma)^2 give them."""

    def test_noiseless_degenerate(self):
        inp = inputs(sigma=0.0, p=4.0, cp=1.2, cq=1.1)
        res = lp_bound_constants(inp, 1.0)
        assert inp.noise_margin == 0
        assert res.growth_factor == 0 and res.gamma_threshold == math.inf

    def test_noise_margin_plugin(self):
        # 2 * c * alpha^2 * C2^2 * sigma^2 = 2 * 2 * 0.01 * 1 * 1
        assert inputs().noise_margin == pytest.approx(0.04)

    def test_p4_martingale_coeff_positive(self):
        # D_p = 2 * 2 * 0.01 * 1.44 = 0.0576; with gtilde = C_p alpha sigma
        # = 0.12, B_p = sqrt(3) C_q gtilde ((1 + L alpha)^2 + (3 + 2 L alpha)
        # gtilde + 2 gtilde^2) for one agent
        res = lp_bound_constants(inputs(p=4.0, cp=1.2, cq=1.1), 1.0)
        dp, g = 0.0576, 0.12
        bp = math.sqrt(3.0) * 1.1 * g * (1.1 ** 2 + 3.2 * g + 2.0 * g ** 2)
        assert bp > 0
        assert res.growth_factor == pytest.approx(bp + dp + dp ** 2, rel=1e-12)


class TestCConsistency:
    def test_minimal_c_matches_direct_formula(self):
        inp = inputs()
        report = c_consistency(inp, k_max=200)
        inv = np.sum(1.0 / inp.schedule.counts(np.arange(201)), axis=1)
        h = inp.alpha * inp.sigma * np.sqrt(inv)
        direct = np.max((32.0 * (1.0 + inp.alpha + h) ** 2 + 18.0) / (1.0 + h ** 2))
        assert report.minimal_c == pytest.approx(float(direct), rel=1e-12)

    def test_noiseless_trivially_holds(self):
        report = c_consistency(inputs(sigma=0.0))
        assert report.holds_with_default and report.minimal_c == 1.0

    def test_large_default_becomes_admissible(self):
        report = c_consistency(inputs(c_remainder=80.0), k_max=500)
        assert report.holds_with_default
        assert report.threshold_k == 0

    def test_default_is_supremum_of_scanned_ratio(self):
        h = np.linspace(0.0, 20.0, 400_001)
        ratio = (32.0 * (1.25 + h) ** 2 + 18.0) / (1.0 + h ** 2)
        c = inputs(c_remainder=None, alpha=0.25).c_remainder
        assert c == pytest.approx(93.8634244, rel=1e-8)
        assert ratio.max() <= c
        assert ratio.max() == pytest.approx(c, rel=1e-9)
        cap = 1.0 / math.sqrt(6.0)
        assert admissible_remainder_constant(1.0, cap) == pytest.approx(
            108.1345256, rel=1e-8)

    def test_default_is_admissible(self):
        gen = np.random.default_rng(9)
        for _ in range(20):
            L = gen.uniform(0.2, 5.0)
            alpha = gen.uniform(0.01, 0.99) / (math.sqrt(6.0) * L)
            inp = inputs(c_remainder=None, L=L, alpha=alpha,
                         sigma=gen.uniform(0.05, 20.0),
                         schedule=SampleSchedule.uniform(
                             gen.uniform(0.5, 3.0), gen.uniform(2.2, 6.0), 0.0,
                             gen.uniform(0.5, 2.0)))
            assert inp.c_remainder == admissible_remainder_constant(L, alpha)
            assert c_consistency(inp, k_max=300).holds_with_default


class TestBurnIn:
    def test_closed_form_collapses_to_zero(self):
        # exp(0.08) - 3 + 1 < 1, so the closed form clamps at zero
        res = k0_and_tail(inputs())
        assert res.closed_form == 0
        assert res.numeric == 0

    def test_noiseless_needs_no_burn_in(self):
        res = k0_and_tail(inputs(sigma=0.0))
        assert res.numeric == 0

    def test_numeric_never_exceeds_closed_form(self, rng):
        for _ in range(10):
            inp = inputs(
                alpha=rng.uniform(0.05, 0.35),
                sigma=rng.uniform(0.3, 2.0),
                phi=rng.uniform(0.2, 0.6),
                schedule=SampleSchedule.uniform(
                    rng.uniform(0.5, 3.0), rng.uniform(2.2, 6.0), 0.0,
                    rng.uniform(0.5, 2.0)))
            res = k0_and_tail(inp)
            assert res.numeric is not None
            assert res.numeric <= res.closed_form
            assert res.tail_at_numeric <= res.threshold
        # at the default remainder constant the burn-in lies far beyond the
        # numeric horizon (about 9e50 on the acceptance-criterion-9 inputs)
        gen = np.random.default_rng(93)
        cases = [dict(alpha=0.25, sigma=math.sqrt(5.0))] + [
            dict(alpha=gen.uniform(0.05, 0.35), sigma=gen.uniform(0.3, 2.0),
                 phi=gen.uniform(0.2, 0.6),
                 schedule=SampleSchedule.uniform(
                     gen.uniform(0.5, 3.0), gen.uniform(2.2, 6.0), 0.0,
                     gen.uniform(0.5, 2.0)))
            for _ in range(10)]
        results = [k0_and_tail(inputs(c_remainder=None, **case)) for case in cases]
        assert results[0].numeric > 1e50
        found = [res for res in results if res.numeric is not None]
        assert len(found) >= 6
        for res in results:
            if res.numeric is None:  # the search gives up past 1e300
                assert res.closed_form is None or res.closed_form > 1e300
        for res in found:
            assert res.numeric <= res.closed_form
            assert res.tail_at_numeric <= res.threshold

    def test_network_closed_form(self):
        inp = inputs(m=3, shared_samples=False,
                     schedule=SampleSchedule.uniform(1, 3, 1, 1, m=3),
                     sigma=2.0, alpha=0.3)
        res = k0_and_tail(inp)
        assert res.closed_form is not None
        assert res.numeric is not None and res.numeric <= res.closed_form
        # a polynomial-exponent schedule whose burn-in lies past the numeric
        # horizon: the bound must use the exponent a and the sum over agents
        res = k0_and_tail(inputs(
            m=3, shared_samples=False, alpha=0.25, c_remainder=None,
            schedule=SampleSchedule.uniform(0.817, 5.486, 0.401, 0.947, m=3)))
        assert res.numeric == 654539
        assert res.numeric <= res.closed_form
        # counts pass the int64 range inside the numeric horizon
        res = k0_and_tail(inputs(
            m=3, shared_samples=False, alpha=0.25, c_remainder=None,
            schedule=SampleSchedule.uniform(2.761, 2.555, 1.933, 1.84, m=3)))
        assert res.numeric <= res.closed_form
        gen = np.random.default_rng(31)

        def agent():
            return AgentSchedule(gen.uniform(0.5, 3.0), gen.uniform(2.2, 6.0),
                                 gen.uniform(0.05, 2.0), gen.uniform(-1.0, 2.0))

        for j in range(30):
            agents = (agent(),) * 3 if j % 2 else tuple(agent() for _ in range(3))
            res = k0_and_tail(inputs(
                m=3, shared_samples=False, schedule=SampleSchedule(agents),
                alpha=gen.uniform(0.05, 0.35), sigma=gen.uniform(0.3, 2.0),
                phi=gen.uniform(0.2, 0.6), c_remainder=(None, 2.0)[j % 3 == 0]))
            if res.numeric is None:  # the search gives up past 1e300
                assert res.closed_form is None or res.closed_form > 1e300
                continue
            assert res.closed_form is not None
            assert res.numeric <= res.closed_form
            assert res.tail_at_numeric <= res.threshold


class TestRateAndComplexity:
    def test_noiseless_rate_constant(self):
        inp = inputs(sigma=0.0, alpha=1.0 / (2.0 * math.sqrt(6.0)), d0=1.0)
        rep = rate_and_complexity_bounds(inp, 1e-3)
        assert rep.rate_Q_inf == pytest.approx(8.0 / 3.0)

    def test_phi_boundary_rejected(self):
        with pytest.raises(InvalidInputs):
            inputs(phi=GOLDEN_PHI_CAP)
        with pytest.raises(InvalidInputs):
            inputs(phi=0.0)

    def test_missing_trajectory_bound(self):
        with pytest.raises(MissingJ):
            rate_and_complexity_bounds(inputs(), 1e-3)

    def test_monotone_in_sigma(self):
        vals = []
        for sigma in (0.5, 1.0, 2.0, 4.0):
            vals.append(rate_and_complexity_bounds(inputs(sigma=sigma, J=5.0), 1e-3))
        for a, b in zip(vals, vals[1:]):
            assert b.rate_Q_inf >= a.rate_Q_inf
            assert b.base.rate_Q >= a.base.rate_Q
            assert b.base.complexity_I >= a.base.complexity_I
            assert b.base.complexity_bound >= a.base.complexity_bound
            assert b.uniform.rate_Q >= a.uniform.rate_Q

    def test_network_single_agent_matches_scalar_recomputation(self):
        inp = inputs(schedule=SampleSchedule.uniform(1.3, 3.5, 0.7, 0.9),
                     sigma=1.1, J=4.0)
        rep = rate_and_complexity_bounds(inp, 1e-3)
        ag = inp.schedule.agents[0]
        lam = 2.0 * inp.c_remainder * inp.alpha ** 2
        coef_a = lam / (ag.theta * ag.a * (ag.mu - 1.0) ** ag.a)
        lg = math.log(ag.mu - 1.0)
        vartheta = (1.0 + 2.0 * ag.b) * (ag.mu - 1.0) ** (1.0 + 2.0 * ag.a) * lg
        coef_b = (lam / (ag.theta * lg ** ag.b)) ** 2 / vartheta
        assert rep.network.tail_coeff_A == pytest.approx(coef_a, rel=1e-12)
        assert rep.network.tail_coeff_B == pytest.approx(coef_b, rel=1e-12)
        A = inp.sigma ** 2 * coef_a + inp.sigma ** 4 * coef_b
        want_q = 2.0 / inp.rho * (1.0 + A * (1.0 + 4.0))
        assert rep.network.rate_Q == pytest.approx(want_q, rel=1e-12)

    @pytest.mark.parametrize("b", [-0.5, -0.75])
    def test_network_family_needs_b_above_minus_half(self, b):
        # the network tail coefficient integrates ln^-(2 + 2b), finite only
        # for b > -1/2: its formula divides by zero at -0.5, is negative below
        inp = inputs(L=1.0, alpha=0.1, sigma=0.7, J=2.0,
                     schedule=SampleSchedule.uniform(0.5, 2.5, 0.3, b))
        rep = rate_and_complexity_bounds(inp, 1e-3)
        assert rep.network.tail_coeff_A is None and rep.network.tail_coeff_B is None
        assert rep.network.rate_Q is None and rep.network.complexity_bound is None

    def test_network_family_unchanged_above_minus_half(self):
        inp = inputs(L=1.0, alpha=0.1, sigma=0.7, J=2.0, c_remainder=None,
                     schedule=SampleSchedule.uniform(0.5, 2.5, 0.3, -0.25))
        rep = rate_and_complexity_bounds(inp, 1e-3)
        assert rep.network.tail_coeff_A == pytest.approx(9.64179231179309, rel=1e-12)
        assert rep.network.tail_coeff_B == pytest.approx(17.519433022582753, rel=1e-12)
        assert rep.network.rate_Q == pytest.approx(59.133366605323815, rel=1e-12)
        assert rep.network.complexity_bound == pytest.approx(8033334167432.941, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-160, 1e-200, 5e-324])
    def test_complexity_bounds_overflow_to_inf_at_a_tiny_eps(self, eps):
        # below about 1e-162, eps^nu underflows to 0.0 (it raised ZeroDivisionError)
        single = rate_and_complexity_bounds(inputs(J=2.0), eps)
        network = rate_and_complexity_bounds(
            inputs(J=2.0, schedule=SampleSchedule.uniform(0.5, 2.5, 0.3, -0.25)), eps)
        assert single.base.complexity_bound == single.uniform.complexity_bound == math.inf
        assert network.network.complexity_bound == math.inf
        assert math.isfinite(single.base.rate_Q) and math.isfinite(network.network.rate_Q)

    def test_uniform_constants_shape(self):
        rep = rate_and_complexity_bounds(inputs(J=2.0), 1e-4)
        inp = inputs()
        ag = inp.schedule.agents[0]
        tail = 17.0 * inp.alpha ** 2 * inp.sigma ** 2
        want = (2.0 / inp.rho) * 1.0 + (2.0 / inp.rho) * tail / (ag.b * math.log(2.0))
        assert rep.uniform.rate_Q == pytest.approx(want, rel=1e-12)
        assert rep.uniform.complexity_bound > 0

    def test_empirical_direction_check(self):
        mean_r2 = [1.0] + [0.001 / k for k in range(1, 50)]
        inp = inputs(J=2.0)
        rep = rate_and_complexity_bounds(inp, 1e-3)
        cmp_res = compare_bound_to_run(inp, rep.base.rate_Q, mean_r2, k_min=1)
        assert cmp_res.passed
        bad = compare_bound_to_run(inp, 1e-9, mean_r2, k_min=1)
        assert not bad.passed and bad.first_violation_k == 1


    @pytest.mark.parametrize("network", [False, True], ids=["single", "three_agents"])
    def test_one_head_tabulation_per_report(self, monkeypatch, network):
        """The burn-in search and the tail sums share one tabulated head."""
        lengths = []
        series = SampleSchedule.inverse_series

        def counted(self, k):
            lengths.append(len(k))
            return series(self, k)

        kwargs = dict(m=3, schedule=SampleSchedule.uniform(1, 3, 0.5, 0.0)) if network \
            else {}
        inp = inputs(J=1.0, **kwargs)
        ref = rate_and_complexity_bounds(inp, 1e-3)
        monkeypatch.setattr(SampleSchedule, "inverse_series", counted)
        rep = rate_and_complexity_bounds(inp, 1e-3)
        assert [n for n in lengths if n > 1] == [max(lengths)]
        assert rep.burn_in == ref.burn_in == k0_and_tail(inp)
        assert (rep.tail_sum, rep.tail_sum_sq) == (ref.tail_sum, ref.tail_sum_sq)

    @pytest.mark.parametrize("network", [False, True], ids=["single", "three_agents"])
    def test_constants_command_tabulates_the_long_head_once(self, monkeypatch, network):
        """The constants command tabulates the head 1/N_k, k = 0..horizon,
        once for the burn-in search and the tail sums; ``c_consistency``
        tabulates only its own k_max + 1 = 1001 terms."""
        from stochvi.constants import _HORIZON
        from stochvi.harness import constants_cmd

        a, m = (0.5, 3) if network else (0.0, 1)
        cfg = dict(L=1.0, alpha=0.1, sigma=1.0, phi=0.5, d0=1.0, c_remainder=2.0, J=1.0,
                   schedule={"theta": 1, "mu": 3, "a": a, "b": 1}, m=m)
        ref = constants_cmd(cfg, 1e-3)
        lengths = []
        series = SampleSchedule.inverse_series

        def counted(self, k):
            lengths.append(len(k))
            return series(self, k)

        monkeypatch.setattr(SampleSchedule, "inverse_series", counted)
        assert constants_cmd(cfg, 1e-3) == ref
        assert [n for n in lengths if n > 1] == [_HORIZON + 1, 1001]


class TestLpBounds:
    def test_p2_plugin_example(self):
        res = lp_bound_constants(inputs(), 1.0)
        assert res.growth_factor == pytest.approx(0.0416, abs=1e-12)
        assert res.moment_bound_factor == pytest.approx(1.0 / (1.0 - 0.0416))

    def test_gamma_zero(self):
        res = lp_bound_constants(inputs(), 0.0)
        assert res.growth_factor == 0.0
        assert res.moment_bound_factor == 1.0

    def test_p4_noiseless(self):
        res = lp_bound_constants(inputs(p=4.0, sigma=0.0), 1.0)
        assert res.growth_factor == 0.0
        assert res.moment_bound_factor == 4.0

    def test_beta_at_least_one_is_informational(self):
        res = lp_bound_constants(inputs(sigma=10.0), 5.0)
        assert not res.beta_below_one
        assert res.moment_bound_factor is None
        assert 0 < res.gamma_threshold < 5.0
        # golden-ratio threshold for the p = 2 quadratic
        D = inputs(sigma=10.0).noise_margin
        assert res.gamma_threshold == pytest.approx(GOLDEN_PHI_CAP / D, rel=1e-9)

    def test_p4_threshold_by_bisection(self):
        inp = inputs(p=4.0, sigma=2.0)
        res = lp_bound_constants(inp, 10.0)
        thr = res.gamma_threshold
        at_thr = lp_bound_constants(inp, thr)
        assert at_thr.growth_factor == pytest.approx(1.0, abs=1e-6)


class TestInputValidation:
    def test_layout_consistency(self):
        # the error-decay coefficients follow from m and shared_samples alone
        single = inputs()
        assert (single.a_coef, single.b_coef) == (1, 1)
        assert (inputs(shared_samples=False).a_coef,
                inputs(shared_samples=False).b_coef) == (1, 1)
        shared = inputs(m=3)
        assert (shared.a_coef, shared.b_coef) == (2, 1)
        independent = inputs(m=3, shared_samples=False)
        assert (independent.a_coef, independent.b_coef) == (2, 2)
        assert len(independent.schedule.agents) == 3
        with pytest.raises(TypeError):
            inputs(a_coef=2)  # not an input any more

    def test_p_domain(self):
        with pytest.raises(InvalidInputs):
            inputs(p=3.0)

    def test_c_remainder_domain(self):
        with pytest.raises(InvalidInputs):
            inputs(c_remainder=1.0)


ROOT = Path(__file__).resolve().parent.parent
FLAT_REPORTS = ROOT / "tests" / "data" / "constants_reports_flat.json"


def load(path):
    """The module in the file ``path``."""
    spec = importlib.util.spec_from_file_location(f"constants_guard_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def constants_reports(tmp):
    """``stochvi constants`` on each of the digest tool's ``CONSTANTS_DOCS``,
    after the seed-1 rate_ensemble experiment whose summary two of them read."""
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads on import
        tool = load(ROOT / "tools" / "output_digests.py")
    workloads = load(ROOT / "perfbench" / "workloads.py")
    runs = [(Path(tool.RATE_SUMMARY).parent.name, "experiment",
             workloads.config_document("rate_ensemble", 1))]
    runs += [(name, "constants", doc) for name, doc in tool.CONSTANTS_DOCS.items()]
    for run, command, doc in runs:
        (tmp / f"{run}.json").write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            status = main([command, "--config", str(tmp / f"{run}.json"), "--out", str(tmp / run)])
        assert status == 0
    return {name: json.loads((tmp / name / "constants_report.json").read_text())
            for name in tool.CONSTANTS_DOCS}


def test_constants_command_reports_inf_bounds_at_a_tiny_eps(tmp_path):
    doc = {"L": 1, "alpha": 0.25, "sigma": 1, "J": 1, "eps": 1e-200,
           "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["constants", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path)]) == 0
    bounds = json.loads((tmp_path / "constants_report.json").read_text())["bounds"]
    assert bounds["base"]["complexity_bound"] == bounds["uniform"]["complexity_bound"] == "inf"


@pytest.mark.parametrize("a, family", [(0, "base"), (0.5, "network")])
def test_constants_command_reports_bounds_at_a_large_schedule_exponent(tmp_path, a, family):
    """At b = 200 ln(k + mu)^(2 + 2b) passes the float range in the tail
    bound of 1/N_k^2, which is then taken in log space; the family's
    complexity bound overflows to inf."""
    doc = {"L": 1, "alpha": 0.25, "sigma": 1, "J": 1, "eps": 1e-3,
           "schedule": {"theta": 1, "mu": 3, "a": a, "b": 200}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["constants", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path)]) == 0
    bounds = json.loads((tmp_path / "constants_report.json").read_text())["bounds"]
    assert 0.0 < bounds["tail_sum_sq"] < 1e-17
    assert bounds[family]["complexity_bound"] == "inf"


def nested_key(flat):
    """Where a key of a flat report's ``bounds`` lives in the nested one:
    ``rate_Q_bar`` is ``base.rate_Q``, a ``uniform_`` or ``network_`` key is
    its family's field, another family field is the base family's."""
    family, _, field = flat.partition("_")
    if family in ("uniform", "network"):
        return (family, field)
    if flat == "rate_Q_bar":
        return ("base", "rate_Q")
    return ("base", flat) if flat in BoundFamily.__dataclass_fields__ else (flat,)


def leaves(doc, path=()):
    """(path, value) of every non-object value in a JSON document."""
    if not isinstance(doc, dict):
        yield path, doc
        return
    for key, value in doc.items():
        yield from leaves(value, path + (key,))


def test_nested_reports_keep_every_number_of_the_flat_ones(tmp_path):
    """Each of the four constants reports holds, under its nested name, every
    value the flat reports in ``tests/data`` held, bit for bit (floats by
    ``repr``); the one field it adds is the uniform family's tail
    coefficients, which that family does not have."""
    flat = json.loads(FLAT_REPORTS.read_text())
    reports = constants_reports(tmp_path)
    assert reports.keys() == flat.keys()
    for name, old in flat.items():
        new = dict(leaves(reports[name]))
        moved = {("bounds", *nested_key(path[1])) if path[0] == "bounds" else path: value
                 for path, value in leaves(old)}
        assert {p: repr(v) for p, v in moved.items()} == \
            {p: repr(new.get(p, "missing")) for p in moved}, name
        assert {p: v for p, v in new.items() if p not in moved} == {
            ("bounds", "uniform", "tail_coeff_A"): None,
            ("bounds", "uniform", "tail_coeff_B"): None}, name


def family_prefixed(source):
    """Names in ``source`` (bindings, attributes, parameters, keywords and
    definitions) that start with ``uniform_`` or ``network_``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "arg", None), getattr(node, "name", None)):
            if isinstance(name, str) and name.startswith(("uniform_", "network_")):
                found.add(name)
    return sorted(found)


def test_constants_keeps_no_per_family_copy():
    """Each family's constants live in one ``BoundFamily``, so no name in
    ``constants.py`` is a prefixed copy such as ``uniform_rate_Q``."""
    source = (ROOT / "src" / "stochvi" / "constants.py").read_text()
    assert family_prefixed(source) == []


@pytest.mark.parametrize("source", [
    "class R:\n    uniform_rate_Q: float | None\n",
    "R(network_complexity_I=nI)",
    "def _network_x(network_tail): pass",
    "rep.uniform_complexity_bound > 0",
    "network_rate_Q = None",
])
def test_scan_flags_a_family_prefix(source):
    assert family_prefixed(source)
