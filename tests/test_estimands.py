"""Closed-form estimands against independent oracles.

Frozen expected values are hand-derived rationals (arithmetic noted at
each assertion); integral identities are checked against numerical
quadrature, which never touches the piecewise algebra under test.
"""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad

from sarbias import (DegenerateModelError, DurationModelParams,
                     InfeasibleTargetError, SymptomModelParams,
                     infrequent_observed_component, infrequent_observed_mu,
                     infrequent_target_mu, invert_target_to_nu,
                     sampling_fraction, symptom_prompted_actual_mu,
                     symptom_prompted_target_mu)
from sarbias.estimands import infrequent_observed_component_swapped

DEFAULT_D = DurationModelParams()  # rho0=14, rho1=8, c=7, nu_daily=0.7


def _kink_points(k, rho, c):
    return [k] if rho - c < k < rho + c else None


def quad_sampling_fraction(k, rho, c):
    """Independent oracle: E[min(N/k, 1)] by quadrature over Uniform."""
    return quad(lambda n: min(n / k, 1.0) / (2 * c), rho - c, rho + c,
                points=_kink_points(k, rho, c), limit=200)[0]


def quad_observed_component(k, rho, c, tau):
    """Independent oracle: tau * E[N * min(N/k,1)] / E[min(N/k,1)]."""
    num = quad(lambda n: n * min(n / k, 1.0) / (2 * c), rho - c, rho + c,
               points=_kink_points(k, rho, c), limit=200)[0]
    return tau * num / quad_sampling_fraction(k, rho, c)


@st.composite
def duration_params(draw):
    rho0 = draw(st.floats(4.0, 30.0))
    c = draw(st.floats(0.5, rho0 * 0.45))
    rho1 = draw(st.floats(c * 1.1, rho0))
    nu_daily = draw(st.floats(0.0, 1.0))
    tau0 = draw(st.floats(1e-4, 1.0 / (rho0 + c)))
    assume(rho1 - c > 1e-6 and rho0 - c > 1e-6)
    return DurationModelParams(rho0=rho0, rho1=rho1, c=c,
                               nu_daily=nu_daily, tau0=tau0)


class TestSymptomPromptedTarget:
    def test_delta_one_collapses_to_nu(self):
        p = SymptomModelParams(lambda_symptom=0.2, delta=1.0, nu=0.6,
                               rho_symptom=0.5)
        assert symptom_prompted_target_mu(p) == pytest.approx(0.6, abs=1e-15)

    def test_nu_zero_gives_full_ve(self):
        p = SymptomModelParams(nu=0.0)
        assert symptom_prompted_target_mu(p) == 0.0

    def test_reference_point(self):
        # mu = 0.6 * (0.2*0.5 + 0.5*(1 - 0.2*0.5)) / (0.5 + 0.5*0.5)
        #    = 0.6 * 0.55 / 0.75 = 0.44; target VE 0.56, actual VE 0.40.
        p = SymptomModelParams(lambda_symptom=0.2, delta=0.5, nu=0.6,
                               rho_symptom=0.5)
        assert symptom_prompted_target_mu(p) == pytest.approx(0.44, abs=1e-12)
        assert symptom_prompted_actual_mu(p) == 0.6

    def test_degenerate_rejected(self):
        p = SymptomModelParams(rho_symptom=0.0, delta=0.0)
        with pytest.raises(DegenerateModelError, match="no transmission"):
            symptom_prompted_target_mu(p)


class TestActualMu:
    @pytest.mark.parametrize("nu", [0.0, 0.6, 1.0])
    def test_equals_nu(self, nu):
        assert symptom_prompted_actual_mu(SymptomModelParams(nu=nu)) == nu


class TestInvertTarget:
    def test_reference_inverse(self):
        assert invert_target_to_nu(0.56, 0.2, 0.5, 0.5) == pytest.approx(0.6, abs=1e-12)

    def test_full_ve_needs_nu_zero(self):
        assert invert_target_to_nu(1.0, 0.2, 0.5, 0.5) == 0.0

    def test_zero_ve_with_delta_one(self):
        assert invert_target_to_nu(0.0, 0.2, 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTargetError, match="infeasible target VE"):
            invert_target_to_nu(0.0, 0.2, 0.5, 0.5)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            invert_target_to_nu(1.5, 0.2, 0.5, 0.5)

    def test_unidentifiable_nu_rejected(self):
        with pytest.raises(DegenerateModelError, match="not identifiable"):
            invert_target_to_nu(0.5, 0.0, 0.0, 0.5)

    @given(target=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0),
           delta=st.floats(0.0, 1.0), rho=st.floats(0.01, 1.0))
    def test_round_trip(self, target, lam, delta, rho):
        try:
            nu = invert_target_to_nu(target, lam, delta, rho)
        except (InfeasibleTargetError, DegenerateModelError):
            return
        p = SymptomModelParams(lambda_symptom=lam, delta=delta, nu=nu,
                               rho_symptom=rho, tau=0.3)
        assert 1.0 - symptom_prompted_target_mu(p) == pytest.approx(target, abs=1e-12)


class TestUnderEstimation:
    def test_symptom_grid_pointwise(self):
        # Actual VE (1 - nu) never exceeds target VE (1 - mu) on an
        # interior grid of the three ratio parameters.
        grid = np.linspace(0.025, 0.975, 20)
        for lam in grid:
            for delta in grid:
                for nu in grid:
                    p = SymptomModelParams(lambda_symptom=lam, delta=delta,
                                           nu=nu, rho_symptom=0.5)
                    assert symptom_prompted_target_mu(p) <= nu + 1e-15

    @pytest.mark.parametrize("lam,delta,nu", [
        (1.0, 0.3, 0.4), (0.3, 1.0, 0.4), (0.5, 0.5, 0.0),
    ])
    def test_equality_cases(self, lam, delta, nu):
        p = SymptomModelParams(lambda_symptom=lam, delta=delta, nu=nu,
                               rho_symptom=0.5)
        assert symptom_prompted_target_mu(p) == pytest.approx(nu, abs=1e-15)

    @given(d=duration_params(), k_scale=st.floats(1.0, 3.0))
    def test_infrequent_long_interval(self, d, k_scale):
        k = (d.rho0 + d.c) * k_scale
        mu = infrequent_target_mu(d)
        mu_obs = infrequent_observed_mu(k, d)
        assert mu_obs >= mu - 1e-12


class TestInfrequentTarget:
    def test_reference_point(self):
        assert infrequent_target_mu(DEFAULT_D) == pytest.approx((8 / 14) * 0.7,
                                                                abs=1e-15)

    def test_inert_vaccine(self):
        d = DurationModelParams(rho1=14.0, nu_daily=1.0)
        assert infrequent_target_mu(d) == 1.0

    def test_nu_zero(self):
        d = DurationModelParams(nu_daily=0.0)
        assert infrequent_target_mu(d) == 0.0


class TestSamplingFraction:
    def test_short_interval_detects_all(self):
        assert sampling_fraction(1.0, 8.0, 7.0) == 1.0

    def test_upper_boundary_value(self):
        # k = rho + c = 15: both branch expressions give rho / k = 8 / 15.
        assert sampling_fraction(15.0, 8.0, 7.0) == pytest.approx(8 / 15, abs=1e-15)

    def test_interior_value_against_quadrature(self):
        # Hand value: {2*10*15 - 1 - 100} / (4*7*10) = 199/280.
        got = sampling_fraction(10.0, 8.0, 7.0)
        assert got == pytest.approx(199 / 280, abs=1e-15)
        assert got == pytest.approx(quad_sampling_fraction(10, 8, 7), abs=1e-9)

    @given(d=duration_params(), k_frac=st.floats(0.02, 1.5))
    def test_matches_quadrature_everywhere(self, d, k_frac):
        k = k_frac * (d.rho0 + d.c)
        assume(k > 1e-3)
        got = sampling_fraction(k, d.rho0, d.c)
        assert got == pytest.approx(quad_sampling_fraction(k, d.rho0, d.c),
                                    abs=1e-9)

    def test_non_increasing_in_k(self):
        ks = np.linspace(0.25, 40.0, 320)
        vals = [sampling_fraction(k, 8.0, 7.0) for k in ks]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sampling_fraction(0.0, 8.0, 7.0)
        with pytest.raises(ValueError):
            sampling_fraction(5.0, 7.0, 7.0)


class TestObservedComponent:
    def test_all_detected_branch(self):
        # k = rho - c: sampling is still uniform, so the value is tau * rho.
        assert infrequent_observed_component(7.0, 14.0, 7.0, 0.01) == \
            pytest.approx(0.14, abs=1e-15)

    def test_continuity_at_upper_boundary(self):
        rho, c, tau = 8.0, 7.0, 0.01
        hi = rho + c
        interior = infrequent_observed_component(hi * (1 - 1e-13), rho, c, tau)
        exterior = infrequent_observed_component(hi, rho, c, tau)
        assert interior == pytest.approx(exterior, abs=1e-9)
        assert exterior == pytest.approx(tau * (rho + c * c / (3 * rho)), abs=1e-15)

    def test_continuity_at_lower_boundary(self):
        rho, c, tau = 8.0, 7.0, 0.01
        lo = rho - c
        interior = infrequent_observed_component(lo * (1 + 1e-13), rho, c, tau)
        assert interior == pytest.approx(tau * rho, abs=1e-9)
        assert sampling_fraction(lo, rho, c) == 1.0

    @given(d=duration_params())
    def test_continuous_at_both_boundaries(self, d):
        for rho in (d.rho0, d.rho1):
            tau = d.tau0
            for boundary in (rho - d.c, rho + d.c):
                left = infrequent_observed_component(boundary * (1 - 1e-13),
                                                     rho, d.c, tau)
                right = infrequent_observed_component(boundary * (1 + 1e-13),
                                                      rho, d.c, tau)
                assert abs(left - right) <= 1e-9

    @given(d=duration_params(), k_frac=st.floats(0.02, 1.5))
    def test_matches_quadrature(self, d, k_frac):
        k = k_frac * (d.rho0 + d.c)
        assume(k > 1e-3)
        got = infrequent_observed_component(k, d.rho0, d.c, d.tau0)
        want = quad_observed_component(k, d.rho0, d.c, d.tau0)
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9)

    def test_interior_value(self):
        # k=10, rho=8, c=7: numerator {3*10*225 - 1000 - 2} = 5748,
        # 12ck*S_k = 840 * 199/280 = 597, so E[N | sampled] = 5748/597.
        got = infrequent_observed_component(10.0, 8.0, 7.0, 0.04)
        assert got == pytest.approx(0.04 * 5748 / 597, abs=0.04 * 1e-12)

    @pytest.mark.parametrize("component", [
        infrequent_observed_component, infrequent_observed_component_swapped])
    @pytest.mark.parametrize("tau_v", [-1.0, -1e-300, 1.0 / 15.0 + 1e-9, 1.0])
    def test_rate_outside_the_duration_model_rejected(self, component, tau_v):
        # As the duration bundle requires of tau0, the rate times the
        # longest duration (rho_v + c = 8 + 7 days here) is a probability.
        with pytest.raises(ValueError, match=r"tau_v must be in \[0, 1 / "
                                             r"\(rho_v \+ c\)\], got "):
            component(10.0, 8.0, 7.0, tau_v)


class TestObservedMu:
    def test_daily_testing_recovers_target(self):
        assert infrequent_observed_mu(1.0, DEFAULT_D) == \
            pytest.approx(infrequent_target_mu(DEFAULT_D), abs=1e-15)
        assert infrequent_observed_mu(1.0, DEFAULT_D) == pytest.approx(0.4, abs=1e-15)

    def test_long_interval_plateau(self):
        # Exact rational for the defaults: (0.7 / (4/7)) * (64 + 49/3)
        # / (196 + 49/3) = 241/520.
        v25 = infrequent_observed_mu(25.0, DEFAULT_D)
        v30 = infrequent_observed_mu(30.0, DEFAULT_D)
        assert v25 == pytest.approx(241 / 520, abs=1e-14)
        assert v25 == v30

    def test_observed_ve_below_target_on_plateau(self):
        ve_obs = 1.0 - infrequent_observed_mu(25.0, DEFAULT_D)
        ve_target = 1.0 - infrequent_target_mu(DEFAULT_D)
        assert ve_obs == pytest.approx(279 / 520, abs=1e-14)
        assert ve_obs < ve_target

    def test_inert_vaccine(self):
        d = DurationModelParams(rho1=14.0, nu_daily=1.0)
        for k in (1.0, 5.0, 12.0, 40.0):
            assert infrequent_observed_mu(k, d) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_branch_interval(self):
        # k=10 sits interior for both arms; value from the two interior
        # components, 0.7 * (5748/597) / (11544/813).
        got = infrequent_observed_mu(10.0, DEFAULT_D)
        assert got == pytest.approx(0.7 * (5748 / 597) / (11544 / 813), abs=1e-12)


class TestSwappedBranchControl:
    def test_differs_at_interior_intervals(self):
        for k in (3.0, 7.0, 10.0, 14.0):
            a = infrequent_observed_component(k, 8.0, 7.0, 0.01)
            b = infrequent_observed_component_swapped(k, 8.0, 7.0, 0.01)
            assert abs(a - b) > 1e-4

    def test_agrees_where_branches_coincide(self):
        # Below every branch point the assignments coincide.
        assert infrequent_observed_component_swapped(3.0, 14.0, 7.0, 0.01) == \
            infrequent_observed_component(3.0, 14.0, 7.0, 0.01)

    def test_quadrature_rejects_swapped_interior(self):
        want = quad_observed_component(10.0, 8.0, 7.0, 0.01)
        assert infrequent_observed_component(10.0, 8.0, 7.0, 0.01) == \
            pytest.approx(want, abs=1e-9)
        assert abs(infrequent_observed_component_swapped(10.0, 8.0, 7.0, 0.01)
                   - want) > 1e-4
