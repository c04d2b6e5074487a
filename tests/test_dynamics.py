"""Split-step propagation, orbit distance, and growth-rate fits."""

import numpy as np
import pytest

from multibump.dynamics import (
    ComplexField,
    complex_energy,
    growth_rate_fit,
    orbit_distance,
    propagate,
)
from multibump.errors import FitRejectedError, IntegratorFaultError, PreconditionError
from multibump.grid import Field, GridSpec, inner_l2, potential_samples
from multibump.model import Nonlinearity
from multibump.stationary import ConstrainedCriticalPoint, limit_profile


@pytest.fixture(scope="module")
def standing(V1):
    """Stable soliton with multiplier -1 on a wide box (tails at roundoff)."""
    grid = GridSpec(24, 1536)
    f = Nonlinearity(4.0)
    u = limit_profile(grid, 4.0, vbar=2.0)
    point = ConstrainedCriticalPoint.measure(u, -1.0, inner_l2(u, u), V1, f)
    point.certify()
    return point, f


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the numpy.fft transforms called, in order."""
    calls = []
    for name in ("fft", "ifft"):
        def counted(a, *args, _original=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _wave_packet(grid):
    """Moving Gaussian: generic complex data, neither stationary nor symmetric."""
    return ComplexField(grid, 1.2 * np.exp(-(grid.x - 0.3) ** 2 + 0.8j * grid.x))


def _strang_reference(psi0, V, f, dt, n_steps, record_stride, snapshot_stride):
    """The split step written plainly: H N H with four FFTs per step.

    Records and snapshots follow propagate's rule (every stride-th step and
    the last one); returns (times, mass, energy, snapshots).
    """
    grid = psi0.grid
    vs = potential_samples(V, grid)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.M, d=grid.h)
    half_kinetic = np.exp(1j * k**2 * (0.5 * dt))
    psi = psi0.values.copy()
    times, masses, energies = [0.0], [psi0.mass], [complex_energy(psi0, V, f)]
    snaps = [psi.copy()]
    for step in range(1, n_steps + 1):
        psi = np.fft.ifft(half_kinetic * np.fft.fft(psi))
        psi = np.exp(1j * dt * (vs - f.g(np.abs(psi) ** 2))) * psi
        psi = np.fft.ifft(half_kinetic * np.fft.fft(psi))
        if step % record_stride == 0 or step == n_steps:
            current = ComplexField(grid, psi)
            times.append(step * dt)
            masses.append(current.mass)
            energies.append(complex_energy(current, V, f))
            if step % snapshot_stride == 0 or step == n_steps:
                snaps.append(psi.copy())
    return np.array(times), np.array(masses), np.array(energies), snaps


def _fused_allocating(psi0, V, f, dt, n_steps, reference, record_stride, snapshot_stride):
    """propagate's fused loop as it ran with a fresh array for every
    transform and every pointwise stage; returns (times, mass, energy,
    orbit distance, snapshots)."""
    grid = psi0.grid
    vs = potential_samples(V, grid)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.M, d=grid.h)
    half_kinetic = np.exp(1j * k**2 * (0.5 * dt))
    kinetic = half_kinetic * half_kinetic
    rotation = np.empty(grid.M, dtype=complex)
    times, masses = [0.0], [psi0.mass]
    energies = [complex_energy(psi0, V, f)]
    dists = [orbit_distance(psi0, reference)]
    snaps = [psi0.values.copy()]
    coeffs = half_kinetic * np.fft.fft(psi0.values)
    for step in range(1, n_steps + 1):
        psi = np.fft.ifft(coeffs)
        theta = dt * (vs - f.g(psi.real**2 + psi.imag**2))
        np.cos(theta, out=rotation.real)
        np.sin(theta, out=rotation.imag)
        psi *= rotation
        coeffs = np.fft.fft(psi)
        if step % record_stride == 0 or step == n_steps:
            psi = np.fft.ifft(half_kinetic * coeffs)
            current = ComplexField(grid, psi)
            times.append(step * dt)
            masses.append(float(grid.h * np.sum(psi.real**2 + psi.imag**2)))
            energies.append(complex_energy(current, V, f))
            dists.append(orbit_distance(current, reference))
            if step % snapshot_stride == 0 or step == n_steps:
                snaps.append(psi.copy())
        coeffs *= kinetic
    return (np.array(times), np.array(masses), np.array(energies), np.array(dists), snaps)


class TestFusedSplitStep:
    N_STEPS = 50

    @pytest.mark.parametrize("record_stride", [1, 7, N_STEPS])
    def test_matches_plain_strang(self, record_stride, vcos, f4):
        # 7 does not divide 50: the last record comes off the stride
        grid = GridSpec(8, 256)
        psi0 = _wave_packet(grid)
        dt = 2e-3
        times, mass, energy, snaps = _strang_reference(
            psi0, vcos, f4, dt, self.N_STEPS, record_stride, snapshot_stride=14)
        traj = propagate(psi0, vcos, f4, dt=dt, t_end=self.N_STEPS * dt,
                         record_stride=record_stride, snapshot_stride=14)
        np.testing.assert_allclose(traj.times, times, rtol=1e-12)
        np.testing.assert_allclose(traj.mass, mass, rtol=1e-12)
        np.testing.assert_allclose(traj.energy, energy, rtol=1e-12)
        assert len(traj.snapshots) == len(snaps)
        for got, want in zip(traj.snapshots, snaps):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_bit_identical_to_allocating_loop(self, p, vcos):
        # the step writes into buffers set up once: the same operations in
        # the same order, so the same bits; 7 does not divide 50
        grid = GridSpec(8, 256)
        psi0, f = _wave_packet(grid), Nonlinearity(p)
        reference = Field(grid, np.exp(-grid.x**2))
        dt = 2e-3
        times, mass, energy, dists, snaps = _fused_allocating(
            psi0, vcos, f, dt, self.N_STEPS, reference, record_stride=7, snapshot_stride=14)
        traj = propagate(psi0, vcos, f, dt=dt, t_end=self.N_STEPS * dt, reference=reference,
                         record_stride=7, snapshot_stride=14)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.mass, mass)
        assert np.array_equal(traj.energy, energy)
        assert np.array_equal(traj.orbit_dist, dists)
        assert len(traj.snapshots) == len(snaps) == 5  # t = 0, steps 14, 28, 42, 50
        assert all(np.array_equal(got, want) for got, want in zip(traj.snapshots, snaps))

    def test_two_ffts_per_step(self, fft_calls, vcos, f4):
        grid = GridSpec(8, 256)
        psi0 = _wave_packet(grid)
        reference = Field(grid, np.exp(-grid.x**2))

        def count(n_steps, record_stride):
            fft_calls.clear()
            propagate(psi0, vcos, f4, dt=1e-3, t_end=n_steps * 1e-3,
                      reference=reference, record_stride=record_stride)
            return len(fft_calls)

        per_step = (count(60, 60) - count(30, 30)) / 30  # one record in each run
        per_record = (count(60, 10) - count(60, 60)) / 5
        assert per_step <= 2
        # read the state, its energy, and the orbit distance (psi and phi)
        assert per_record <= 4

    def test_non_finite_field_is_an_integrator_fault(self, V1, f8):
        # |psi|^6 overflows in the first phase rotation
        grid = GridSpec(8, 256)
        psi0 = ComplexField(grid, 1e60 * np.exp(-grid.x**2).astype(complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegratorFaultError, match="finite"):
                propagate(psi0, V1, f8, dt=1e-3, t_end=0.01)


class TestPropagate:
    def test_standing_wave_orbit(self, standing, V1):
        point, f = standing
        psi0 = ComplexField.from_real(point.u)
        traj = propagate(psi0, V1, f, dt=2.5e-4, t_end=20.0,
                         reference=point.u, record_stride=100)
        assert traj.orbit_dist.max() < 1e-6

    def test_standing_wave_pointwise(self, standing, V1):
        point, f = standing
        psi0 = ComplexField.from_real(point.u)
        traj = propagate(psi0, V1, f, dt=2.5e-4, t_end=1.0, snapshot_stride=4000)
        expected = point.u.values * np.exp(1j * point.lam * 1.0)
        assert np.max(np.abs(traj.snapshots[-1] - expected)) < 1e-6

    def test_mass_conserved_to_roundoff(self, standing, V1):
        point, f = standing
        traj = propagate(ComplexField.from_real(point.u), V1, f,
                         dt=1e-3, t_end=5.0, record_stride=50)
        drift = np.max(np.abs(traj.mass - traj.mass[0])) / traj.mass[0]
        assert drift < 1e-12

    def test_linear_plane_wave_exact(self, zero_f, V1):
        # constant potential and no nonlinearity: both split factors commute
        grid = GridSpec(16, 1024)
        k = 2 * np.pi * 3 / (2 * grid.L)
        psi0 = ComplexField(grid, np.exp(1j * k * grid.x))
        traj = propagate(psi0, V1, zero_f, dt=1e-3, t_end=2.0, snapshot_stride=2000)
        expected = np.exp(1j * (k**2 + 1.0) * 2.0) * psi0.values
        assert np.max(np.abs(traj.snapshots[-1] - expected)) < 1e-10

    def test_energy_drift_second_order(self, V1):
        # generic (non-solitonic) data: the drift halves fourfold with dt.
        # relative equilibria hide the leading term, so use a gaussian.
        grid = GridSpec(16, 1024)
        f = Nonlinearity(4.0)
        psi0 = ComplexField(grid, 1.5 * np.exp(-grid.x**2).astype(complex))
        drifts = []
        for dt in (2e-3, 1e-3):
            traj = propagate(psi0, V1, f, dt=dt, t_end=4.0, record_stride=50)
            drifts.append(np.max(np.abs(traj.energy - traj.energy[0])))
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.3)

    def test_rejects_oversized_step(self, standing, V1):
        point, f = standing
        with pytest.raises(PreconditionError):
            propagate(ComplexField.from_real(point.u), V1, f, dt=0.5, t_end=1.0)

    @pytest.mark.parametrize("strides", [
        {"record_stride": 0}, {"record_stride": -3}, {"snapshot_stride": -2},
    ], ids=["record_zero", "record_negative", "snapshot_negative"])
    def test_rejects_invalid_strides(self, strides, vcos, f4):
        # a zero record stride divided by zero at the first step, and a
        # negative stride acted as its absolute value
        grid = GridSpec(8, 256)
        with pytest.raises(PreconditionError, match="stride"):
            propagate(_wave_packet(grid), vcos, f4, dt=1e-3, t_end=0.01, **strides)

    def test_rejects_partial_last_step(self, standing, V1):
        # 0.01 / 0.003 = 3.33 steps: the run would silently end at t = 0.009
        point, f = standing
        with pytest.raises(PreconditionError):
            propagate(ComplexField.from_real(point.u), V1, f, dt=0.003, t_end=0.01)
        traj = propagate(ComplexField.from_real(point.u), V1, f, dt=0.002, t_end=0.01)
        assert traj.times[-1] == pytest.approx(0.01, rel=1e-12)


class TestOrbitDistance:
    def test_pure_phase_is_zero(self, standing):
        point, _ = standing
        for theta in (0.0, 0.7, 2.9):
            psi = ComplexField(point.u.grid, point.u.values * np.exp(1j * theta))
            assert orbit_distance(psi, point.u) < 1e-12

    def test_first_order_in_perturbation(self, standing, smooth_field):
        point, _ = standing
        grid = point.u.grid
        bump = smooth_field(grid, seed=9)
        # remove the component along the wave so the perturbation is orthogonal
        coeff = inner_l2(bump, point.u) / inner_l2(point.u, point.u)
        bump = bump - coeff * point.u
        from multibump.grid import norm_h1

        delta = 1e-4
        psi = ComplexField(grid, point.u.values + delta * bump.values)
        dist = orbit_distance(psi, point.u)
        assert dist == pytest.approx(delta * norm_h1(bump), rel=1e-3)

    def test_gauge_invariance(self, standing, smooth_field):
        point, _ = standing
        grid = point.u.grid
        psi = ComplexField(grid, point.u.values + 0.01 * smooth_field(grid, seed=10).values)
        base = orbit_distance(psi, point.u)
        rotated = ComplexField(grid, psi.values * np.exp(1j * 1.3))
        assert orbit_distance(rotated, point.u) == pytest.approx(
            base, rel=1e-12
        )


def _three_pairing_distance(psi, phi):
    """Orbit distance from three separate H1 pairings (psi-phi, psi-psi, phi-phi)."""
    grid = psi.grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.M, d=grid.h)

    def pairing(a, b):
        return complex(grid.h * np.sum((k**2 + 1.0) * np.fft.fft(a) * np.conj(np.fft.fft(b)))
                       / grid.M)

    phi_c = phi.values.astype(complex)
    d2 = (pairing(psi.values, psi.values).real + pairing(phi_c, phi_c).real
          - 2.0 * abs(pairing(psi.values, phi_c)))
    return float(np.sqrt(max(d2, 0.0)))


class TestOrbitDistanceFormula:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_three_pairings(self, seed):
        grid = GridSpec(8, 256)
        rng = np.random.default_rng(seed)
        psi = ComplexField(grid, rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M))
        phi = Field(grid, rng.standard_normal(grid.M))
        assert orbit_distance(psi, phi) == pytest.approx(
            _three_pairing_distance(psi, phi), rel=1e-13)


class TestGrowthRate:
    def test_seeded_instability_rate(self, traj_super, inst_super):
        d = traj_super.orbit_dist
        usable = (d > 2e-3) & (d < 1e-2)
        t_sel = traj_super.times[usable]
        rate = growth_rate_fit(traj_super, (float(t_sel[0]), float(t_sel[-1])))
        assert rate == pytest.approx(inst_super.rho, rel=0.15)

    def test_subcritical_control_stays(self, traj_sub_control):
        assert traj_sub_control.orbit_dist.max() < 1e-3

    def test_amplitude_linearity(self, phi_super, inst_super, V1, f8):
        # early-window distances scale linearly with the seed amplitude
        grid = phi_super.u.grid
        early = {}
        for amp in (5e-5, 1e-4):
            seed = phi_super.u.values + amp * inst_super.v.values
            seed *= np.sqrt(phi_super.mass) / np.sqrt(grid.h * np.sum(seed**2))
            traj = propagate(ComplexField(grid, seed.astype(complex)), V1, f8,
                             dt=1e-4, t_end=0.02, reference=phi_super.u,
                             record_stride=50)
            early[amp] = traj.orbit_dist[-1]
        assert early[1e-4] / early[5e-5] == pytest.approx(2.0, rel=0.05)

    def test_window_outside_linear_band_rejected(self, traj_super):
        with pytest.raises(FitRejectedError):
            growth_rate_fit(traj_super, (0.6, 0.8))  # distance has saturated there

    def test_too_few_samples_rejected(self, traj_super):
        with pytest.raises(FitRejectedError):
            growth_rate_fit(traj_super, (0.0, 1e-4))
