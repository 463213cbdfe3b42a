"""The stacked Gaussian path against the per-point oracles of conftest."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (counting_moments_oracle, error_propagation_oracle,
                      evolve_oracle, gaussian_qfi_oracle, homodyne_moments_oracle,
                      random_two_mode_spec)
from phaseloss.bounds import fundamental_limits
from phaseloss.channel import ChannelPoints
from phaseloss.errors import InvalidInput, SingularInformation
from phaseloss.gaussian import (CHUNK, EnergySplit, GaussianProbeSpec,
                                GaussianState, ProbeFamily, evolve_with_derivatives,
                                evolved_qfi, gaussian_qfi, make_probe, spec_from_split)
from phaseloss.measurement import (DetectionScheme, SchemeKind, counting_moments,
                                   error_propagation, homodyne_moments)
from phaseloss.qfi import scalar_crb

RTOL = 1e-10
# A variance above this carries no information: the observable's signal is
# rounding noise, so the exact value (inf or some 1e30) depends on rounding
# alone, as in the benchmark's sweep gate.
NO_INFORMATION = 1e15


def assert_close(got, want, label, scale=None):
    """Agreement at RTOL of ``scale``, by default the reference's largest entry."""
    want = np.asarray(want)
    if scale is None:
        scale = float(np.abs(want).max())
    err = float(np.abs(np.asarray(got) - want).max())
    assert err <= RTOL * scale, f"{label}: error {err:.3e} against scale {scale:.3e}"


def assert_variance(got, want, label):
    if got > NO_INFORMATION or want > NO_INFORMATION:
        assert min(got, want) > NO_INFORMATION, f"{label}: {got} against {want}"
    else:
        assert got == pytest.approx(want, rel=RTOL), label


def random_stack(rng, n_pts):
    """Pure probes, some thermalized into mixed states, with channel points of
    which about a fifth sit at eta -> 1 (near-pure outputs)."""
    specs = [random_two_mode_spec(rng) for _ in range(n_pts)]
    pure = make_probe(specs)
    thermal = np.where(rng.random(n_pts) < 0.3, rng.uniform(0.05, 1.0, n_pts), 0.0)
    state = GaussianState(pure.sigma + 2.0 * thermal[:, None, None] * np.eye(4), pure.d)
    eta = rng.uniform(0.05, 0.95, n_pts)
    near = rng.random(n_pts) < 0.2
    eta[near] = 1.0 - 10.0 ** -rng.uniform(8.0, 15.0, near.sum())
    return state, rng.uniform(0.0, 2 * math.pi, n_pts), eta, np.array([s.tau_in for s in specs])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_pts=st.integers(1, 3 * CHUNK))
@example(seed=0, n_pts=2 * CHUNK + 1)
def test_batch_matches_point_oracles(seed, n_pts):
    rng = np.random.default_rng(seed)
    state, phi, eta, tau_in = random_stack(rng, n_pts)
    tau_out = rng.uniform(0.0, 1.0, n_pts)
    xi = rng.uniform(0.0, 2 * math.pi, n_pts)
    ev = evolve_with_derivatives(state, ChannelPoints(phi, eta), tau_in)
    rep = evolved_qfi(ev)
    counting = counting_moments(ev, DetectionScheme(SchemeKind.COUNTING, tau_out=tau_out))
    homodyne = homodyne_moments(ev, DetectionScheme(SchemeKind.HOMODYNE, tau_out=tau_out,
                                                    xi=xi))
    variances = [error_propagation(counting), error_propagation(homodyne)]
    fields = ("sigma", "d", "dsigma_phi", "dsigma_eta", "dd_phi", "dd_eta")
    for k in range(n_pts):
        ref = evolve_oracle(state.sigma[k], state.d[k], phi[k], eta[k], tau_in[k])
        # every field on the scale of the state: sigma holds the vacuum noise 1
        scale = max(float(np.abs(a).max()) for a in ref)
        for name, want in zip(fields, ref):
            assert_close(getattr(ev, name)[k], want, f"point {k} {name}", scale)
        f_ref, i_ref, pinv_ref = gaussian_qfi_oracle(ref)
        assert_close(rep.f[k], f_ref, f"point {k} F")
        assert_close(rep.i_phieta[k], i_ref, f"point {k} i_phieta",
                     float(np.abs(f_ref).max()))
        assert rep.pinv[k] == pinv_ref
        for moments, oracle in ((counting, counting_moments_oracle(ref, tau_out[k])),
                                (homodyne, homodyne_moments_oracle(ref, tau_out[k], xi[k]))):
            got = (moments.means[k], moments.dphi[k], moments.deta[k], moments.cov[k])
            scale = max(float(np.abs(a).max()) for a in oracle)
            for name, g, want in zip(("means", "dphi", "deta", "cov"), got, oracle):
                assert_close(g, want, f"point {k} {name}", scale)
            want_var = error_propagation_oracle(oracle)
            got_var = variances[0 if moments is counting else 1]
            for label, g, w in zip(("var_phi", "var_eta"), got_var, want_var):
                assert_variance(g[k], w, f"point {k} {label}")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_pts=st.integers(1, 2 * CHUNK + 7))
@example(seed=0, n_pts=2 * CHUNK + 7)
def test_each_point_keeps_its_bits_in_any_stack(seed, n_pts):
    """F and i_phieta of a point are the bits it gets solved alone, so a sweep
    may batch and deduplicate its points without moving the rounding noise
    that an ill-conditioned point reports."""
    rng = np.random.default_rng(seed)
    state, phi, eta, tau_in = random_stack(rng, n_pts)
    ev = evolve_with_derivatives(state, ChannelPoints(phi, eta), tau_in)
    rep = evolved_qfi(ev)
    for k in range(n_pts):
        alone = evolved_qfi(ev.take(k))
        np.testing.assert_array_equal(rep.f[k], alone.f, err_msg=f"point {k}")
        np.testing.assert_array_equal(rep.i_phieta[k], alone.i_phieta, err_msg=f"point {k}")


def test_single_point_is_the_stack_of_one():
    rng = np.random.default_rng(11)
    spec = random_two_mode_spec(rng)
    params = ChannelPoints(0.4, 0.35)
    one = gaussian_qfi(make_probe(spec), params, spec.tau_in,
                       w=np.array(fundamental_limits(3.0, 0.35).weights()))
    stack = gaussian_qfi(make_probe([spec]), ChannelPoints([0.4], [0.35]), [spec.tau_in],
                         w=np.array(fundamental_limits(3.0, 0.35).weights()))
    assert one.f.shape == (2, 2) and stack.f.shape == (1, 2, 2)
    np.testing.assert_array_equal(one.f, stack.f[0])
    assert one.i_phieta == stack.i_phieta[0]
    assert one.c_s == stack.c_s[0] and one.c_h_bar == stack.c_h_bar[0]
    assert isinstance(one.c_s, float)


def test_lossless_pure_state_takes_pinv_path():
    # the probe of test_lossless_pure_state_regularization
    state = make_probe(GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=1.1, mu=0.0))
    rep = gaussian_qfi(state, ChannelPoints(0.0, 1 - 1e-15), 1.0)
    assert rep.pinv
    assert rep.cond > 1e10


def test_mixed_two_mode_probe_takes_solve_path():
    rng = np.random.default_rng(12)
    spec = random_two_mode_spec(rng, families=("two",))
    pure = make_probe(spec)
    mixed = GaussianState(pure.sigma + 0.6 * np.eye(4), pure.d)
    rep = gaussian_qfi(mixed, ChannelPoints(0.3, 0.55), 0.7)
    assert not rep.pinv
    assert 1.0 <= rep.cond <= 1e10


def test_cross_squeezed_measure_probe_takes_pinv_path():
    # measure's default probe: chi = pi/2, tau_in = 1 keeps the reference mode lossless
    split = EnergySplit(100.0, p=0.5, q=0.5)
    spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=0.0, theta=math.pi / 2,
                           theta1=math.pi, theta2=math.pi, chi=math.pi / 2, tau_in=1.0)
    rep = gaussian_qfi(make_probe(spec), ChannelPoints(math.pi / 2, 0.3), 1.0)
    assert rep.pinv
    assert rep.cond > 1e10


def test_stacked_failures_name_the_first_point():
    good = GaussianProbeSpec(ProbeFamily.TWO_MODE, alpha=1.0, r=0.4, chi=math.pi / 4,
                             theta=0.0, theta1=math.pi / 2, theta2=math.pi / 2)
    bad = GaussianProbeSpec(ProbeFamily.TWO_MODE, r=0.8, chi=math.pi / 4,
                            theta=0.0, theta1=0.0, theta2=0.0)
    with pytest.raises(InvalidInput) as err:
        make_probe([good, good, good, bad, good, bad])
    assert err.value.index == 3
    with pytest.raises(InvalidInput) as err:
        make_probe(bad)
    assert err.value.index is None

    f = np.stack([np.diag([4.0, 9.0]), np.diag([2.0, 3.0]), np.diag([1.0, 0.0]),
                  np.diag([0.0, 1.0])])
    with pytest.raises(SingularInformation) as err:
        scalar_crb(f, np.eye(2))
    assert err.value.index == 2
    np.testing.assert_allclose(np.abs(err.value.direction), [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(scalar_crb(f[:2], np.eye(2)), [1 / 4 + 1 / 9, 1 / 2 + 1 / 3])


def test_counting_phase_signal_cancels_exactly():
    # a phase shift moves no photon: the counting signal of each point of a
    # stack must vanish exactly, so that its variance is the no-signal inf
    specs = [GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=a, mu=m, r=0.3, theta1=2 * m)
             for a, m in ((0.7, 0.1), (1.3, 2.0), (2.9, -1.2), (10.0, 0.5))]
    ev = evolve_with_derivatives(make_probe(specs), ChannelPoints(0.4, [0.2, 0.5, 0.7, 0.9]),
                                 1.0)
    moments = counting_moments(ev, DetectionScheme(SchemeKind.COUNTING, tau_out=1.0))
    assert np.all(moments.dphi == 0.0)
    var_phi, var_eta = error_propagation(moments)
    assert np.all(np.isinf(var_phi)) and np.all(np.isfinite(var_eta))
