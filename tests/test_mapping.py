import math
import re

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from steermap import constructions, linalg, mapping, states, witnesses
from steermap.mapping import FEAS_TOL, INV_SQRT3
from steermap.states import StateValidationError, make_density, random_separable, werner


def reference_worst_norm_sq(mu, c):
    """The 8-vertex loop that feasible() ran before the closed form."""
    zc = c - mu * c - mu
    worst = 0.0
    for px in (0.0, 1.0):
        for py in (0.0, 1.0):
            for pz in (0.0, 1.0):
                rx = 2.0 * mu * px - mu
                ry = 2.0 * mu * py - mu
                rz = 2.0 * mu * pz + zc
                norm_sq = rx * rx + ry * ry + rz * rz
                if norm_sq > worst:
                    worst = norm_sq
    return worst


def reference_c_max(mu, tol):
    """Scalar bisection over the vertex loop, one mu at a time."""

    def ok(c):
        return reference_worst_norm_sq(mu, c) <= 1.0 + FEAS_TOL

    if not ok(0.0):
        return 0.0
    if ok(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def reference_analytic_c_max(mu):
    """The scalar closed form that analytic_c_max evaluated before it took arrays."""
    return max(0.0, (math.sqrt(max(0.0, 1.0 - 2.0 * mu * mu)) - mu) / (1.0 - mu))


def reference_region_csv(points):
    """The per-row renderer that region_to_csv ran before its one-pass format."""
    lines = ["mu,c_max_numeric,c_max_analytic,abs_err"]
    for pt in points:
        lines.append(
            f"{pt.mu:.12g},{pt.c_numeric:.12g},{pt.c_analytic:.12g},{pt.abs_err:.12g}"
        )
    return "\n".join(lines) + "\n"


EDGE_VALUES = [0.0, 5e-324, 1e-300, 2.0**-53, 0.5, INV_SQRT3, 1.0 - 2.0**-53, 1.0]


def random_density(d_a, d_b, seed):
    """Full-rank random state (Ginibre), entangled in general."""
    rng = np.random.default_rng(seed)
    n = d_a * d_b
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return make_density(m / np.trace(m).real, d_a, d_b)


class TestMaps:
    def test_mu_endpoints(self):
        tau, _ = random_separable(2, 2, 3, seed=1)
        prime = mapping.bob_biased_partner(tau, 0.3)
        assert np.array_equal(mapping.map_m(tau, prime, 1.0).mat, tau.mat)
        assert np.array_equal(mapping.map_m(tau, prime, 0.0).mat, prime.mat)
        assert np.array_equal(mapping.map_n(tau, prime, 1.0).mat, tau.mat)

    @pytest.mark.parametrize("p,mu", [(0.9, 0.5), (1.0, INV_SQRT3), (0.4, 0.2)])
    def test_werner_closure(self, p, mu):
        # Mixing toward the maximally mixed partner rescales visibility.
        mixed = mapping.map_m(werner(p), mapping.bob_biased_partner(werner(p), 0.0), mu)
        assert np.max(np.abs(mixed.mat - werner(mu * p).mat)) < 1e-14

    def test_map_n_werner(self):
        mixed = mapping.map_n(werner(0.9), mapping.alice_biased_partner(werner(0.9), 0.0), INV_SQRT3)
        assert np.max(np.abs(mixed.mat - werner(0.9 * INV_SQRT3).mat)) < 1e-14
        assert abs(np.trace(mixed.mat).real - 1.0) < 1e-12

    def test_dim_mismatch(self):
        a, _ = random_separable(2, 2, 2, seed=2)
        b, _ = random_separable(3, 2, 2, seed=3)
        with pytest.raises(ValueError, match="mismatch"):
            mapping.map_m(a, b, 0.5)

    def test_mu_out_of_range(self):
        tau, _ = random_separable(2, 2, 2, seed=4)
        with pytest.raises(ValueError, match="mu"):
            mapping.map_m(tau, tau, 1.5)

    def test_outputs_validate(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            tau, _ = random_separable(3, 2, 4, seed=seed)
            prime = mapping.bob_biased_partner(tau, rng.uniform(0, 1))
            mixed = mapping.map_m(tau, prime, rng.uniform(0, 1))
            make_density(mixed.mat, 3, 2)


class TestPartners:
    def test_bob_side_unbiased(self):
        tau, _ = random_separable(3, 2, 4, seed=8)
        prime = mapping.bob_biased_partner(tau, 0.0)
        expected = linalg.kron(tau.reduced_a(), np.eye(2) / 2)
        assert np.max(np.abs(prime.mat - expected)) < 1e-14

    def test_bob_side_full_bias(self):
        tau, _ = random_separable(3, 2, 4, seed=9)
        prime = mapping.bob_biased_partner(tau, 1.0)
        expected = linalg.kron(tau.reduced_a(), np.diag([1.0, 0.0]))
        assert np.max(np.abs(prime.mat - expected)) < 1e-14

    def test_partner_is_unentangled(self):
        for c in (0.0, 0.5, 1.0):
            tau, _ = random_separable(2, 2, 4, seed=11)
            assert witnesses.negativity(mapping.bob_biased_partner(tau, c)) <= 1e-12

    def test_alice_side(self):
        rho, _ = random_separable(2, 3, 4, seed=12)
        prime = mapping.alice_biased_partner(rho, 0.0)
        expected = linalg.kron(np.eye(2) / 2, rho.reduced_b())
        assert np.max(np.abs(prime.mat - expected)) < 1e-14
        full = mapping.alice_biased_partner(rho, 1.0)
        expected = linalg.kron(np.diag([1.0, 0.0]), rho.reduced_b())
        assert np.max(np.abs(full.mat - expected)) < 1e-14

    def test_wrong_side_rejected(self):
        rho, _ = random_separable(3, 2, 2, seed=13)
        with pytest.raises(ValueError, match="Alice"):
            mapping.alice_biased_partner(rho, 0.5)
        rho, _ = random_separable(2, 3, 2, seed=14)
        with pytest.raises(ValueError, match="Bob"):
            mapping.bob_biased_partner(rho, 0.5)

    def test_named_sides_are_biased_partner(self):
        tau, _ = random_separable(3, 2, 3, seed=15)
        rho, _ = random_separable(2, 3, 3, seed=16)
        bob = mapping.bob_biased_partner(tau, 0.4)
        alice = mapping.alice_biased_partner(rho, 0.4)
        assert np.array_equal(bob.mat, mapping.biased_partner(tau, 0.4, "B").mat)
        assert np.array_equal(alice.mat, mapping.biased_partner(rho, 0.4, "A").mat)
        assert mapping.map_m is mapping.mix and mapping.map_n is mapping.mix
        with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
            mapping.biased_partner(tau, 0.4, "C")


class TestStackedPartnerAndMix:
    """A (T, n, n) state stack with per-state mu and c, in one pass each."""

    @pytest.mark.parametrize("d, side", [(3, "B"), (4, "B"), (3, "A"), (4, "A")])
    def test_stack_equals_each_state(self, d, side):
        d_a, d_b = (d, 2) if side == "B" else (2, d)
        mats = np.stack([random_density(d_a, d_b, seed).mat for seed in range(5)])
        stack = make_density(mats, d_a, d_b)
        mu = np.linspace(0.0, 1.0, 5)
        c = np.linspace(1.0, 0.0, 5)
        partners = mapping.biased_partner(stack, c, side)
        mixed = mapping.mix(stack, partners, mu)
        assert mixed.mat.shape == (5, d_a * d_b, d_a * d_b)
        assert not partners.mat.flags.writeable and not mixed.mat.flags.writeable
        for t in range(5):
            state = make_density(mats[t], d_a, d_b)
            partner = mapping.biased_partner(state, float(c[t]), side)
            assert np.array_equal(partners.mat[t], partner.mat)
            assert np.array_equal(mixed.mat[t], mapping.mix(state, partner, float(mu[t])).mat)

    def test_stack_rejects_one_bad_parameter(self):
        stack = make_density(np.stack([np.eye(4) / 4] * 3), 2, 2)
        with pytest.raises(ValueError, match=r"^c must be in \[0, 1\], got 1.5$"):
            mapping.biased_partner(stack, np.array([0.1, 1.5, 0.2]), "B")
        with pytest.raises(ValueError, match=r"^mu must be in \[0, 1\], got nan$"):
            mapping.mix(stack, stack, np.array([0.1, 0.2, np.nan]))


# Loaded within the 1e-10 tolerance, but tracing out Bob's qubit doubles
# the negative levels: tr_B = diag(-1.8e-10, 1 + 1.8e-10).
EDGE_STATE = np.diag([-0.9e-10, -0.9e-10, 0.5 + 0.9e-10, 0.5 + 0.9e-10]).astype(complex)


class TestPartnerEigenvalueCheck:
    def test_scaled_reduced_eigenvalue_is_checked(self):
        rho = make_density(EDGE_STATE, 2, 2)
        with pytest.raises(StateValidationError, match="partner min eigenvalue") as info:
            mapping.biased_partner(rho, 1.0, "B")
        assert info.value.deviation == pytest.approx(1.8e-10, rel=1e-6)
        assert info.value.state is None
        # (1 + c)/2 scales the reduced state's -1.8e-10 to -0.9e-10 at c = 0.
        partner = mapping.biased_partner(rho, 0.0, "B")
        assert np.linalg.eigvalsh(partner.mat)[0] >= -1e-10
        # tr_A of the same state is diag(0.5, 0.5): map N is unaffected.
        mapping.biased_partner(rho, 1.0, "A")

    def test_stack_names_the_first_bad_state(self):
        stack = make_density(np.stack([np.eye(4) / 4, EDGE_STATE, EDGE_STATE]), 2, 2)
        with pytest.raises(StateValidationError, match="in state 1 ") as info:
            mapping.biased_partner(stack, np.array([1.0, 1.0, 1.0]), "B")
        assert info.value.state == 1

    @pytest.mark.parametrize("entry, invariant", [((0, 0, np.nan), "finite entries")])
    def test_unvalidated_state_is_refused(self, entry, invariant):
        # A DensityMatrix built directly skips validation and stores its
        # Hermitian part, which keeps a NaN; the reduced state's eigenvalue
        # solve still refuses it.
        i, j, value = entry
        mat = np.eye(4, dtype=complex) / 4
        mat[i, j] = value
        with pytest.raises(StateValidationError) as info:
            mapping.biased_partner(states.DensityMatrix(2, 2, mat), 0.5, "B")
        assert info.value.invariant == invariant


def assert_stored_form(rho):
    """A state's matrix is read-only and its own conjugate transpose, bit for bit."""
    assert not rho.mat.flags.writeable
    assert np.array_equal(rho.mat, rho.mat.conj().swapaxes(-1, -2))


class TestClosedOperations:
    """Results built without re-validation still pass make_density and are stored alike."""

    def test_constructor_stores_the_read_only_hermitian_part(self):
        a = np.arange(16.0).reshape(4, 4) + 1j * np.arange(16.0).reshape(4, 4).T
        before = a.copy()
        rho = states.DensityMatrix(2, 2, a)
        assert not rho.mat.flags.writeable
        assert np.array_equal(rho.mat, (a + a.conj().T) / 2.0)
        assert np.array_equal(a, before) and a.flags.writeable

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 4),
        side=st.sampled_from("AB"),
        mu=st.floats(0.0, 1.0),
        c=st.floats(0.0, 1.0),
    )
    def test_partner_and_mix(self, seed, d, side, mu, c):
        # (mu, c) ranges over the whole unit square, infeasible pairs
        # (the ones `map --force` accepts) included.
        d_a, d_b = (d, 2) if side == "B" else (2, d)
        state = random_density(d_a, d_b, seed)
        partner = mapping.biased_partner(state, c, side)
        separables = states.random_separables(d_a, d_b, 3, [seed])[0]
        for out in (state, partner, mapping.mix(state, partner, mu), separables):
            assert (out.d_a, out.d_b) == (d_a, d_b)
            assert_stored_form(out)
            assert np.array_equal(make_density(out.mat, d_a, d_b).mat, out.mat)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(p=st.floats(0.0, 1.0))
    def test_werner(self, p):
        rho = werner(p)
        assert_stored_form(rho)
        assert np.array_equal(make_density(rho.mat, 2, 2).mat, rho.mat)


class TestAnalyticBound:
    def test_endpoints(self):
        assert mapping.analytic_c_max(0.0) == pytest.approx(1.0, abs=1e-15)
        assert mapping.analytic_c_max(INV_SQRT3) == pytest.approx(0.0, abs=1e-12)

    def test_half(self):
        # (sqrt(1 - 0.5) - 0.5) / 0.5 = sqrt(2) - 1, by substitution.
        assert mapping.analytic_c_max(0.5) == pytest.approx(math.sqrt(2) - 1, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mapping.analytic_c_max(INV_SQRT3 + 1e-6)
        with pytest.raises(ValueError):
            mapping.analytic_c_max(-0.1)
        with pytest.raises(ValueError, match=r"^mu must be in \[0, 1/sqrt\(3\)\], got 0.6$"):
            mapping.analytic_c_max(np.array([0.1, 0.2, 0.6, -0.1]))
        with pytest.raises(ValueError, match=r"got nan$"):
            mapping.analytic_c_max(np.array([[0.1, np.nan]]))

    def test_array_equals_scalar(self):
        rng = np.random.default_rng(23)
        edges = [mu for mu in EDGE_VALUES if mu <= INV_SQRT3] + [INV_SQRT3 + 1e-12]
        mus = np.concatenate([edges, rng.uniform(0.0, INV_SQRT3, 5000)])
        for n_grid in (2, 7, 200, 1001):
            mus = np.concatenate([mus, INV_SQRT3 * np.arange(n_grid) / (n_grid - 1)])
        batch = mapping.analytic_c_max(mus)
        assert isinstance(batch, np.ndarray) and batch.shape == mus.shape
        for mu, got in zip(mus.tolist(), batch.tolist()):
            scalar = mapping.analytic_c_max(mu)
            assert isinstance(scalar, float)
            assert got == scalar == reference_analytic_c_max(mu), mu
        assert mapping.analytic_c_max(np.float64(0.5)) == reference_analytic_c_max(0.5)
        grid = mapping.analytic_c_max(mus[:10].reshape(2, 5))
        assert np.array_equal(grid, batch[:10].reshape(2, 5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^mu must be in \[0, 1/sqrt\(3\)\], got {bad}$"):
            mapping.analytic_c_max(bad)

    @pytest.mark.parametrize(
        "bad", ["0.5", b"0.5", ["0.1", 0.2], np.complex128(0.3), 0.3 + 0j],
        ids=["str", "bytes", "list-with-str", "np-complex", "complex"],
    )
    def test_non_real_rejected(self, bad):
        # numpy would parse a string, and drop an imaginary part with a warning.
        message = rf"^mu must be a real number or array, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            mapping.analytic_c_max(bad)

    def test_bools_are_real(self):
        assert mapping.analytic_c_max(False) == 1.0
        assert mapping.analytic_c_max(np.array([False])).tolist() == [1.0]


class TestHiddenBloch:
    def test_unbiased_responses(self):
        r = mapping.hidden_bloch_vector(0.5, 0.5, 0.5, 0.4, 0.0)
        assert (r.rx, r.ry, r.rz) == (0.0, 0.0, 0.0)

    def test_top_vertex(self):
        mu, c = 0.3, 0.2
        r = mapping.hidden_bloch_vector(1.0, 1.0, 1.0, mu, c)
        assert (r.rx, r.ry, r.rz) == pytest.approx((mu, mu, mu + c * (1 - mu)))

    def test_saturation_point(self):
        r = mapping.hidden_bloch_vector(0.0, 0.0, 0.0, INV_SQRT3, 0.0)
        assert (r.rx, r.ry, r.rz) == pytest.approx((-INV_SQRT3,) * 3)
        assert r.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError, match="px"):
            mapping.hidden_bloch_vector(1.2, 0.5, 0.5, 0.3, 0.0)


class TestFeasible:
    def test_known_points(self):
        assert mapping.feasible(INV_SQRT3, 0.0)
        assert not mapping.feasible(INV_SQRT3 + 1e-6, 0.0)
        assert mapping.feasible(0.5, 0.414)
        assert not mapping.feasible(0.5, 0.415)
        assert not mapping.feasible(0.7, 0.0)  # 3 mu^2 = 1.47 at the top vertex

    def test_vertex_values_match_hidden_bloch(self):
        # The inlined vertex loop must agree with the public formula.
        mu, c = 0.41, 0.23
        worst = max(
            mapping.hidden_bloch_vector(px, py, pz, mu, c).norm_sq()
            for px in (0.0, 1.0)
            for py in (0.0, 1.0)
            for pz in (0.0, 1.0)
        )
        assert mapping.feasible(mu, c) == (worst <= 1.0 + 1e-12)

    def test_monotone_in_c(self):
        for mu in np.linspace(0, 1, 50):
            allowed = [mapping.feasible(float(mu), float(c)) for c in np.linspace(0, 1, 50)]
            # Once infeasible, stays infeasible as c grows.
            assert all(a or not b for a, b in zip(allowed, allowed[1:]))

    def test_monotone_in_mu_at_zero_bias(self):
        allowed = [mapping.feasible(float(mu), 0.0) for mu in np.linspace(0, 1, 50)]
        assert all(a or not b for a, b in zip(allowed, allowed[1:]))

    def test_matches_analytic_bound(self):
        for mu in np.linspace(0.0, INV_SQRT3, 60):
            bound = mapping.analytic_c_max(float(mu))
            for c in np.linspace(0.0, 1.0, 60):
                expected = c <= bound + 1e-9
                assert mapping.feasible(float(mu), float(c)) == expected, (mu, c)


class TestClosedFormVertexMax:
    def test_equals_vertex_loop_bit_for_bit(self):
        rng = np.random.default_rng(17)
        edge_mu, edge_c = np.meshgrid(EDGE_VALUES, EDGE_VALUES)
        mus = np.concatenate(
            [[0.0, 1.0, INV_SQRT3, 0.5], rng.uniform(0, 1, 20000), edge_mu.ravel()]
        )
        cs = np.concatenate([[0.0, 1.0, 0.0, 1.0], rng.uniform(0, 1, 20000), edge_c.ravel()])
        batch = mapping._worst_norm_sq(mus, cs)
        for i, (mu, c) in enumerate(zip(mus.tolist(), cs.tolist())):
            ref = reference_worst_norm_sq(mu, c)
            assert mapping._worst_norm_sq(mu, c) == ref
            assert batch[i] == ref
            assert mapping.feasible(mu, c) == (ref <= 1.0 + FEAS_TOL)


class TestArrayBisection:
    MUS = [0.0, INV_SQRT3, 0.5, 0.6, 1.0, 0.1, 0.3, 0.577, 1e-300]

    # 2**-50 .. 5e-324 sit on both sides of the width below which each
    # entry stops by the full rule.
    @pytest.mark.parametrize(
        "tol", [1e-15, 1e-10, 1e-6, 1e-3, 0.7, 2.0, 1e-300, 2.0**-50, 2.0**-52, 2.0**-53, 5e-324]
    )
    def test_array_equals_scalar(self, tol):
        rng = np.random.default_rng(3)
        mus = np.concatenate([self.MUS, rng.uniform(0, 1, 40)])
        batch = mapping.c_max_numeric(mus, tol)
        assert batch.shape == mus.shape
        for mu, got in zip(mus.tolist(), batch.tolist()):
            scalar = mapping.c_max_numeric(mu, tol)
            assert isinstance(scalar, float)
            assert got == scalar == reference_c_max(mu, tol), mu

    def test_endpoint_cases(self):
        batch = mapping.c_max_numeric(np.array([0.0, 0.6, 1.0]))
        assert batch.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("mu", [-0.1, 1.5, float("nan"), -np.inf])
    def test_rejects_mu_outside_unit_interval(self, mu):
        with pytest.raises(ValueError, match=r"mu must be in \[0, 1\]"):
            mapping.c_max_numeric(mu)
        with pytest.raises(ValueError, match=r"mu must be in \[0, 1\], got " + str(mu)):
            mapping.c_max_numeric(np.array([0.2, mu, 0.3]))

    def test_array_bisection_terminates(self, monkeypatch):
        # One array bisection for the grid: at most ~1075 halvings of
        # [0, 1] plus the two endpoint evaluations, however many points.
        calls = []
        worst = mapping._worst_norm_sq
        monkeypatch.setattr(
            mapping, "_worst_norm_sq", lambda mu, c: calls.append(c) or worst(mu, c)
        )
        points = mapping.region_scan(50, 1e-300)
        assert max(pt.abs_err for pt in points) <= 2e-10
        assert len(calls) <= 1100

    @pytest.mark.parametrize("grid", [None, 200, 100_000])
    def test_search_takes_a_constant_number_of_steps(self, monkeypatch, grid):
        # Two endpoint evaluations and one check each way from the seed;
        # halving would take 34 more at tol = 1e-10.
        calls = []
        worst = mapping._worst_norm_sq
        monkeypatch.setattr(
            mapping, "_worst_norm_sq", lambda mu, c: calls.append(c) or worst(mu, c)
        )
        if grid is None:
            assert mapping.c_max_numeric(0.3) == reference_c_max(0.3, 1e-10)
        else:
            mapping.region_scan(grid, 1e-10)
        assert len(calls) <= 6

    # Tolerances at every power of two down to 2**-53, their float neighbours and odd values.
    TOLS = sorted(
        {t for k in range(1, 54) for t in (2.0**-k, *(math.nextafter(2.0**-k, x) for x in (0, 1)))}
        | {1e-10, 1e-300, 5e-324, 0.7, 2.0}
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        mu=st.floats(0.0, 1.0)
        | st.sampled_from([math.nextafter(INV_SQRT3, 0), INV_SQRT3, math.nextafter(INV_SQRT3, 1)]),
        tol=st.sampled_from(TOLS),
    )
    def test_search_equals_bisection_bit_for_bit(self, mu, tol):
        expected = reference_c_max(mu, tol).hex()
        assert mapping.c_max_numeric(mu, tol).hex() == expected
        assert mapping.c_max_numeric(np.array([mu]), tol)[0].hex() == expected

    def test_dense_grid_equals_bisection(self):
        mus = np.linspace(0.0, INV_SQRT3, 10_007)
        got = [c.hex() for c in mapping.c_max_numeric(mus).tolist()]
        assert got == [reference_c_max(mu, 1e-10).hex() for mu in mus.tolist()]

    @pytest.mark.parametrize("n_grid", [2, 3, 7, 50, 201])
    @pytest.mark.parametrize(
        "tol", [1e-15, 1e-10, 1e-3, 2.0, 1e-300, 2.0**-50, 2.0**-52, 2.0**-53, 5e-324]
    )
    def test_region_matches_per_point_reference(self, n_grid, tol):
        for pt in mapping.region_scan(n_grid, tol):
            assert pt.c_numeric == reference_c_max(pt.mu, tol)


class TestRegionProperties:
    """Derandomized properties of the feasible region and the maps."""

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mu=st.floats(0.0, INV_SQRT3), c=st.floats(0.0, 1.0))
    def test_feasible_iff_below_analytic_bound(self, mu, c):
        bound = mapping.analytic_c_max(mu)
        hypothesis.assume(abs(c - bound) > 1e-9)
        assert mapping.feasible(mu, c) == (c <= bound)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mu=st.floats(INV_SQRT3 + 1e-9, 1.0), c=st.floats(0.0, 1.0))
    def test_never_feasible_beyond_inv_sqrt3(self, mu, c):
        assert not mapping.feasible(mu, c)

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        dim=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
        mu=st.floats(0.0, INV_SQRT3),
        c_frac=st.floats(0.0, 1.0),
        mode=st.sampled_from("MN"),
    )
    def test_map_outputs_are_states(self, dim, seed, mu, c_frac, mode):
        c = c_frac * mapping.analytic_c_max(mu)
        assert mapping.feasible(mu, c)
        if mode == "M":
            state = random_density(dim, 2, seed)
            mapped = mapping.map_m(state, mapping.bob_biased_partner(state, c), mu)
        else:
            state = random_density(2, dim, seed)
            mapped = mapping.map_n(state, mapping.alice_biased_partner(state, c), mu)
        again = make_density(mapped.mat, mapped.d_a, mapped.d_b)
        assert np.array_equal(again.mat, mapped.mat)


class TestRegionScan:
    def test_grid_and_endpoints(self):
        points = mapping.region_scan(50, 1e-10)
        assert len(points) == 50
        assert points[0].mu == 0.0
        assert points[-1].mu == pytest.approx(INV_SQRT3, abs=1e-15)
        assert points[0].c_analytic == pytest.approx(1.0, abs=1e-12)
        assert points[0].c_numeric == pytest.approx(1.0, abs=1e-9)
        assert points[-1].c_analytic == pytest.approx(0.0, abs=1e-12)
        assert points[-1].c_numeric == pytest.approx(0.0, abs=1e-9)

    def test_bisection_tracks_analytic(self):
        tol = 1e-10
        points = mapping.region_scan(50, tol)
        worst = max(pt.abs_err for pt in points)
        assert worst <= 2 * tol

    def test_deterministic(self):
        a = mapping.region_scan(20, 1e-8)
        b = mapping.region_scan(20, 1e-8)
        assert a == b

    def test_csv_format(self):
        text = mapping.region_to_csv(mapping.region_scan(5, 1e-8))
        lines = text.strip().split("\n")
        assert lines[0] == "mu,c_max_numeric,c_max_analytic,abs_err"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == 1.0

    @pytest.mark.parametrize("tol", [1e-300, 1e-15, 1e-10, 1e-3, 0.7, 2.0])
    def test_csv_matches_per_row_renderer(self, tol):
        for n_grid in [*range(2, 61), 199, 200, 201, 1001]:
            points = mapping.region_scan(n_grid, tol)
            assert mapping.region_to_csv(points) == reference_region_csv(points), n_grid

    def test_validates_args(self):
        with pytest.raises(ValueError):
            mapping.region_scan(1, 1e-8)
        with pytest.raises(ValueError):
            mapping.c_max_numeric(0.3, tol=0.0)

    # Read as an int, True would be one point, which the range check would name.
    @pytest.mark.parametrize("n_grid", [2.5, 200.0, "200", True, np.True_])
    def test_rejects_a_non_integer_grid(self, n_grid):
        message = f"^number of grid points must be an integer, got {re.escape(repr(n_grid))}$"
        with pytest.raises(ValueError, match=message):
            mapping.region_scan(n_grid, 1e-8)

    def test_numpy_integer_grid(self):
        assert mapping.region_scan(np.int64(3), 1e-8) == mapping.region_scan(3, 1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
    def test_rejects_non_finite_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            mapping.c_max_numeric(0.3, tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            mapping.region_scan(5, tol)

    @pytest.mark.parametrize("tol", ["1e-10", b"1e-8", np.array("1e-8"), None])
    def test_non_real_tolerance_is_refused_by_name(self, tol):
        # math.isfinite raised TypeError on these; numpy would parse the strings.
        message = f"^tolerance must be a real number or array, got {re.escape(repr(tol))}$"
        with pytest.raises(ValueError, match=message):
            mapping.c_max_numeric(0.3, tol)
        with pytest.raises(ValueError, match=message):
            mapping.region_scan(5, tol)

    @pytest.mark.parametrize("tol, got", [(0.0, "0.0"), (float("nan"), "nan"), (-1e-10, "-1e-10"),
                                          (np.float64(0.0), "0.0"), (np.array([1e-8]), "[1.e-08]")])
    def test_tolerance_range_message(self, tol, got):
        with pytest.raises(ValueError) as info:
            mapping.c_max_numeric(0.3, tol)
        assert str(info.value) == f"tolerance must be finite and positive, got {got}"

    def test_tolerance_below_float_spacing_terminates(self, monkeypatch):
        # The bracket cannot shrink below float spacing; bisection must stop
        # there (at most ~1075 halvings of [0, 1]) instead of spinning.
        calls = []
        worst = mapping._worst_norm_sq
        monkeypatch.setattr(
            mapping, "_worst_norm_sq", lambda mu, c: calls.append(c) or worst(mu, c)
        )
        for mu in (0.1, 0.3, 0.5):
            c = mapping.c_max_numeric(mu, tol=1e-300)
            assert abs(c - mapping.analytic_c_max(mu)) <= 2e-10
        assert len(calls) <= 3 * 1100

    def test_default_tolerance_output_unchanged(self):
        # Reference: the plain bisection loop, which never reaches float
        # spacing at tol = 1e-10, so the early stop must not alter a point.
        def reference(mu, tol=1e-10):
            if not mapping.feasible(mu, 0.0):
                return 0.0
            if mapping.feasible(mu, 1.0):
                return 1.0
            lo, hi = 0.0, 1.0
            while hi - lo > tol:
                mid = (lo + hi) / 2.0
                if mapping.feasible(mu, mid):
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2.0

        for pt in mapping.region_scan(200, 1e-10):
            assert pt.c_numeric == reference(pt.mu)


class TestUnitIntervalCheck:
    """Every mu/c entry point rejects values outside [0, 1], NaN included."""

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_entry_points(self, bad):
        tau, _ = random_separable(2, 2, 2, seed=4)
        cases = [
            ("mu", lambda: mapping.map_m(tau, tau, bad)),
            ("mu", lambda: mapping.map_n(tau, tau, bad)),
            ("c", lambda: mapping.bob_biased_partner(tau, bad)),
            ("c", lambda: mapping.alice_biased_partner(tau, bad)),
            ("mu", lambda: mapping.hidden_bloch_vector(0.5, 0.5, 0.5, bad, 0.0)),
            ("pz", lambda: mapping.hidden_bloch_vector(0.5, 0.5, bad, 0.3, 0.0)),
            ("mu", lambda: mapping.feasible(bad, 0.0)),
            ("c", lambda: mapping.feasible(0.3, bad)),
        ]
        for name, call in cases:
            with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got {bad}$"):
                call()

    def test_accepts_endpoints(self):
        for value in (0.0, 1.0, 0, 1, np.float64(0.5), np.array([0.0, 1.0])):
            mapping.check_unit_interval("mu", value)

    @pytest.mark.parametrize(
        "bad", ["0.5", b"0.5", [0.2, "0.3"], np.complex128(0.5), 0.5 + 0j],
        ids=["str", "bytes", "list-with-str", "np-complex", "complex"],
    )
    def test_refuses_non_real_values(self, bad):
        message = rf"^mu must be a real number or array, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            mapping.check_unit_interval("mu", bad)

    def test_mix_and_werner_refuse_strings(self):
        tau, _ = random_separable(2, 2, 2, seed=4)
        with pytest.raises(ValueError, match="^mu must be a real number or array, got '0.5'$"):
            mapping.mix(tau, tau, "0.5")
        with pytest.raises(ValueError, match="^visibility must be a real number or array"):
            states.werner("0.9")

    def test_one_check_in_states(self):
        assert mapping.check_unit_interval is states.check_unit_interval
        assert constructions.check_unit_interval is states.check_unit_interval

    def test_one_number_rule_each_in_states(self):
        assert states._integer is linalg._integer  # linalg, the bottom module, holds both
        assert states._real_array is linalg._real_array
        assert mapping._real_array is linalg._real_array
        assert mapping._integer is states._integer
        assert constructions._integer is states._integer

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), np.float64(2.0), 3])
    def test_visibility_entry_points(self, bad):
        for call in (states.werner, witnesses.werner_steerable_oracle):
            with pytest.raises(ValueError, match=rf"^visibility must be in \[0, 1\], got {bad}$"):
                call(bad)
