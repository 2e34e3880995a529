import math

import numpy as np
import pytest

from steermap import cli, linalg, mapping, witnesses
from steermap.mapping import INV_SQRT3
from steermap.states import (
    PAULIS,
    DensityMatrix,
    bell_phi_plus,
    make_density,
    random_pure,
    random_separable,
    state_to_json,
    werner,
)


def random_density(d_a, d_b, seed):
    """Full-rank random state (Ginibre), entangled in general."""
    rng = np.random.default_rng(seed)
    n = d_a * d_b
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return make_density(m / np.trace(m).real, d_a, d_b)


def loop_correlation_matrix(rho):
    """Reference: one Kronecker product and trace per entry."""
    t = np.zeros((3, 3))
    for j in range(3):
        for k in range(3):
            t[j, k] = float(np.trace(linalg.kron(PAULIS[j], PAULIS[k]) @ rho.mat).real)
    return t


def loop_f3(rho):
    """Reference: one Kronecker product and partial trace per setting."""
    eye_a = np.eye(rho.d_a, dtype=np.complex128)
    total = 0.0
    for k in range(3):
        c_k = linalg.partial_trace(
            linalg.kron(eye_a, PAULIS[k]) @ rho.mat, rho.d_a, rho.d_b, keep="A"
        )
        total += linalg.trace_norm(c_k)
    return total


def contraction_cases():
    for d_a in (2, 3, 4):
        for seed in range(5):
            yield random_density(d_a, 2, seed)
    for p in (0.0, 0.3, 1 / math.sqrt(3), 0.9, 1.0):
        yield werner(p)


def product_state(d_a, seed, bob=None):
    rng = np.random.default_rng(seed)
    alpha = random_pure(d_a, rng)
    beta = np.eye(2, dtype=complex) / 2 if bob is None else bob
    return make_density(linalg.kron(alpha, beta), d_a, 2)


class TestNegativity:
    def test_product_vanishes(self):
        assert witnesses.negativity(product_state(3, seed=1)) <= 1e-12

    def test_bell(self):
        assert witnesses.negativity(bell_phi_plus()) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("p", np.linspace(0, 1, 11))
    def test_werner_closed_form(self, p):
        # Partially transposed spectrum is {(1-3p)/4, (1+p)/4 x3}, so the
        # negativity is max(0, (3p-1)/4).
        expected = max(0.0, (3 * p - 1) / 4)
        assert witnesses.negativity(werner(float(p))) == pytest.approx(expected, abs=1e-12)

    def test_separable_random(self):
        for seed in range(5):
            rho, _ = random_separable(2, 2, 4, seed=seed)
            assert witnesses.negativity(rho) <= 1e-12

    def test_separable_werner_points_are_exactly_zero(self):
        # Every p = i/(grid-1) that demo-werner visits below 1/sqrt3 for
        # grids 101..299.  There f3(tau) = 3p <= sqrt3, so the
        # entangled => steerable column holds only if the mapped state's
        # negativity is exactly 0 rather than eigensolver rounding.
        # All points go through one stacked call, which gives each point's
        # single-state value bit for bit (TestStackedEqualsPerState).
        ps = {i / (g - 1) for g in range(101, 300) for i in range(g)}
        p = np.array(sorted(x for x in ps if x < INV_SQRT3))
        tau = werner(p)
        sigma = mapping.map_n(tau, mapping.alice_biased_partner(tau, 0.0), INV_SQRT3)
        nonzero = p[witnesses.negativity(sigma) != 0.0]
        assert nonzero.size == 0, f"first p with nonzero negativity: {nonzero[0]!r}"


class TestChsh:
    def test_maximally_mixed(self):
        rho = make_density(np.eye(4, dtype=complex) / 4, 2, 2)
        assert witnesses.chsh_horodecki(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell(self):
        expected = 2 * math.sqrt(2)
        assert witnesses.chsh_horodecki(bell_phi_plus()) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7071, 1.0])
    def test_werner_scaling(self, p):
        # Correlation matrix is -p times the identity.
        assert witnesses.chsh_horodecki(werner(p)) == pytest.approx(
            2 * math.sqrt(2) * p, abs=1e-10
        )

    def test_correlation_matrix_werner(self):
        t = witnesses.correlation_matrix(werner(0.6))
        assert np.allclose(t, -0.6 * np.eye(3), atol=1e-12)

    def test_requires_two_qubits(self):
        rho, _ = random_separable(3, 2, 2, seed=5)
        with pytest.raises(ValueError, match="2x2"):
            witnesses.chsh_horodecki(rho)

    def test_quantum_bound(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            rho, _ = random_separable(2, 2, 3, seed=seed)
            assert witnesses.chsh_horodecki(rho) <= 2 * math.sqrt(2) + 1e-9


class TestF3Steering:
    def test_product_with_mixed_bob_vanishes(self):
        assert witnesses.f3_steering(product_state(3, seed=7)) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.4, 1 / math.sqrt(3), 0.9])
    def test_werner_linear(self, p):
        assert witnesses.f3_steering(werner(p)) == pytest.approx(3 * p, abs=1e-10)

    def test_bell_exceeds_threshold(self):
        value = witnesses.f3_steering(bell_phi_plus())
        assert value == pytest.approx(3.0, abs=1e-10)
        assert value > witnesses.F3_THRESHOLD

    def test_tolerates_state_hermiticity_defect(self):
        # A 0.9e-10 defect passes state validation; tr_B[(1 x sigma_z) m]
        # would double it past the eigensolver's 1e-10 tolerance.
        m = np.eye(4, dtype=complex) / 4
        m[0, 2] += 0.45e-10j
        m[2, 0] += 0.45e-10j
        m[1, 3] -= 0.45e-10j
        m[3, 1] -= 0.45e-10j
        assert np.max(np.abs(m - m.conj().T)) == pytest.approx(0.9e-10)
        assert witnesses.f3_steering(make_density(m, 2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_requires_qubit_bob(self):
        rho, _ = random_separable(2, 3, 2, seed=8)
        with pytest.raises(ValueError, match="qubit"):
            witnesses.f3_steering(rho)

    def test_scales_linearly_under_mixing(self):
        # Mixing toward the zero-bias partner scales every correlation
        # block by the visibility.
        for p in (0.3, 0.8, 1.0):
            tau = werner(p)
            for mu in (0.2, INV_SQRT3, 0.9):
                mixed = mapping.map_m(tau, mapping.bob_biased_partner(tau, 0.0), mu)
                assert witnesses.f3_steering(mixed) == pytest.approx(
                    mu * witnesses.f3_steering(tau), abs=1e-10
                )


class TestContractionsMatchLoops:
    def test_correlation_matrix(self):
        for rho in contraction_cases():
            if rho.d_a == 2:
                got = witnesses.correlation_matrix(rho)
                assert np.max(np.abs(got - loop_correlation_matrix(rho))) <= 1e-12

    def test_f3(self):
        for rho in contraction_cases():
            assert abs(witnesses.f3_steering(rho) - loop_f3(rho)) <= 1e-12


def eigh_trace_norm(m):
    """Reference: sum of absolute eigenvalues from the full eigendecomposition."""
    return float(np.sum(np.abs(np.linalg.eigh(m)[0])))


def eigh_witnesses(rho):
    """Reference negativity, CHSH and F3 of one state: loops, and ``eigh`` for spectra."""
    d_a, d_b = rho.d_a, rho.d_b
    n = d_a * d_b
    pt = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(n, n)
    neg = (eigh_trace_norm(pt) - 1.0) / 2.0
    values = {"negativity": neg if neg > witnesses.NEGATIVITY_ZERO_TOL else 0.0}
    if d_b == 2:
        eye_a = np.eye(d_a, dtype=np.complex128)
        values["f3"] = sum(
            eigh_trace_norm(linalg.partial_trace(np.kron(eye_a, s) @ rho.mat, d_a, 2, keep="A"))
            for s in PAULIS
        )
    if (d_a, d_b) == (2, 2):
        t = loop_correlation_matrix(rho)
        w = np.linalg.eigh(t.T @ t)[0]
        values["chsh"] = 2.0 * math.sqrt(max(0.0, w[-1] + w[-2]))
    return values


class TestEigenvaluesMatchEighReference:
    """The detectors, from eigenvalues alone, agree with an ``eigh``-based reference."""

    @staticmethod
    def assert_matches(rho):
        values = {"negativity": witnesses.negativity(rho)}
        if rho.d_b == 2:
            values["f3"] = witnesses.f3_steering(rho)
        if (rho.d_a, rho.d_b) == (2, 2):
            values["chsh"] = witnesses.chsh_horodecki(rho)
        for t, mat in enumerate(rho.mat):
            ref = eigh_witnesses(DensityMatrix(rho.d_a, rho.d_b, mat))
            assert ref.keys() == values.keys()
            for name, value in ref.items():
                assert abs(values[name][t] - value) <= 1e-13, (name, t)

    def test_random_states(self):
        dims = [(d_a, d_b) for d_a in (2, 3, 4) for d_b in (2, 3, 4)]
        for i, (d_a, d_b) in enumerate(dims):
            seeds = range(i, 200, len(dims))
            mats = np.stack([random_density(d_a, d_b, 7000 + s).mat for s in seeds])
            self.assert_matches(make_density(mats, d_a, d_b))

    def test_werner_grid(self):
        self.assert_matches(werner(np.linspace(0.0, 1.0, 1001)))


def assert_same_bits(stacked, singles):
    """``stacked`` holds exactly the bits of the per-member results ``singles``."""
    expected = np.array(singles)
    assert stacked.shape == expected.shape and stacked.dtype == expected.dtype
    assert stacked.tobytes() == expected.tobytes()


STACK_DIMS = [(2, 2), (2, 3), (3, 2), (4, 2)]


class TestStackedEqualsPerState:
    """A stacked call gives, bit for bit, what one call per state gives."""

    @staticmethod
    def stack(d_a, d_b, size):
        mats = [random_density(d_a, d_b, 100 * d_a + 10 * d_b + t).mat for t in range(size)]
        return make_density(np.stack(mats), d_a, d_b)

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("d_a, d_b", STACK_DIMS)
    def test_partial_transpose_and_trace_norm(self, d_a, d_b, size):
        mats = self.stack(d_a, d_b, size).mat
        pt = linalg.partial_transpose(mats, d_a, d_b)
        assert_same_bits(pt, [linalg.partial_transpose(m, d_a, d_b) for m in mats])
        assert_same_bits(linalg.trace_norm(pt), [linalg.trace_norm(m) for m in pt])
        # A deeper stack, as f3_steering's (T, 3, d_a, d_a) blocks are.
        deep = np.stack([pt, pt[::-1]], axis=1)
        singles = [[linalg.trace_norm(m) for m in pair] for pair in deep]
        assert_same_bits(linalg.trace_norm(deep), singles)

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("d_a, d_b", STACK_DIMS)
    def test_detectors(self, d_a, d_b, size):
        rho = self.stack(d_a, d_b, size)
        members = [DensityMatrix(d_a, d_b, m) for m in rho.mat]
        detectors = [witnesses.negativity]
        if d_b == 2:
            detectors.append(witnesses.f3_steering)
        if (d_a, d_b) == (2, 2):
            detectors += [witnesses.chsh_horodecki, witnesses.correlation_matrix]
        for detector in detectors:
            assert_same_bits(detector(rho), [detector(m) for m in members])

    @pytest.mark.parametrize("size", [1, 7])
    def test_werner_family(self, size):
        p = np.random.default_rng(size).uniform(size=size)
        p[: min(size, 5)] = [0.0, 1.0, 0.5, INV_SQRT3, 0.3][:size]
        tau, members = werner(p), [werner(float(x)) for x in p]
        assert_same_bits(tau.mat, [t.mat for t in members])

        def mapped(t):
            return mapping.map_n(t, mapping.alice_biased_partner(t, 0.0), INV_SQRT3)

        singles = [witnesses.negativity(mapped(t)) for t in members]
        assert_same_bits(witnesses.negativity(mapped(tau)), singles)
        for detector in (witnesses.f3_steering, witnesses.chsh_horodecki):
            assert_same_bits(detector(tau), [detector(t) for t in members])
        v = p * INV_SQRT3
        oracle = witnesses.werner_steerable_oracle(v)
        assert_same_bits(oracle, [witnesses.werner_steerable_oracle(float(x)) for x in v])
        assert witnesses.werner_steerable_oracle(p).tolist() == [x > 0.5 for x in p]

    def test_single_state_gives_python_scalars(self):
        for d_a, d_b in STACK_DIMS:
            rho = random_density(d_a, d_b, seed=3)
            values = [witnesses.negativity(rho), linalg.trace_norm(rho.mat)]
            if d_b == 2:
                values.append(witnesses.f3_steering(rho))
            if (d_a, d_b) == (2, 2):
                values.append(witnesses.chsh_horodecki(rho))
            assert all(type(v) is float for v in values)
        assert type(witnesses.negativity(werner(0.2))) is float  # the exact-zero branch
        for v in (0.4, 0.6, np.float64(0.6), 1):
            assert type(witnesses.werner_steerable_oracle(v)) is bool
        assert werner(0.3).mat.shape == (4, 4)
        assert werner(np.array(0.3)).mat.shape == (4, 4)


class TestWernerOracle:
    def test_thresholds(self):
        assert not witnesses.werner_steerable_oracle(0.4)
        assert witnesses.werner_steerable_oracle(0.6)
        assert not witnesses.werner_steerable_oracle(0.5)  # boundary excluded

    def test_range(self):
        with pytest.raises(ValueError):
            witnesses.werner_steerable_oracle(1.3)


class TestReport:
    def test_two_qubit_report(self):
        report = witnesses.witness_report(werner(1.0))
        assert report.negativity == pytest.approx(0.5, abs=1e-10)
        assert report.chsh == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert report.f3 == pytest.approx(3.0, abs=1e-10)

    def test_qudit_qubit_report_drops_chsh(self):
        report = witnesses.witness_report(product_state(3, seed=9))
        assert report.chsh is None
        assert report.f3 is not None

    def test_qubit_qudit_report_drops_f3(self):
        rho, _ = random_separable(2, 3, 2, seed=10)
        report = witnesses.witness_report(rho)
        assert report.chsh is None and report.f3 is None


class TestReportJson:
    def test_non_finite_value_is_not_serialized(self, tmp_path, monkeypatch, capsys):
        # analyze writes the report's fields in order, leaves out the
        # detectors that do not apply, and refuses non-finite values.
        path = tmp_path / "state.json"
        path.write_text(state_to_json(werner(0.5)))
        argv = ["analyze", "--state", str(path)]
        cases = [
            (witnesses.WitnessReport(0.5, None, None), 0, '{"negativity": 0.5}\n'),
            (witnesses.WitnessReport(float("nan"), None, 2.0), 2, ""),
        ]
        for report, code, out in cases:
            monkeypatch.setattr(witnesses, "witness_report", lambda rho, r=report: r)
            assert cli.main(argv) == code
            captured = capsys.readouterr()
            assert captured.out == out
        assert "JSON compliant" in captured.err
