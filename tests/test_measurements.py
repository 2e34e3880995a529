import re

import numpy as np
import pytest

from steermap import measurements as meas
from steermap.models import born_joints
from steermap.states import PAULIS, hidden_qubits, random_separable


def check_measurement_invariants(m, tol=1e-10):
    """Invariants of one (k, d, d) projector array, one projector at a time."""
    dim = m.shape[-1]
    total = np.zeros((dim, dim), dtype=complex)
    for p in m:
        assert np.max(np.abs(p - p.conj().T)) <= tol
        assert np.max(np.abs(p @ p - p)) <= tol
        total += p
    assert np.max(np.abs(total - np.eye(dim))) <= tol
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            assert np.max(np.abs(m[i] @ m[j])) <= tol


class TestQubitMeasurement:
    def test_z_direction(self):
        m = meas.qubit_projectors(np.array([[0.0, 0, 1]]))[0]
        assert np.allclose(m[0], np.diag([1, 0]), atol=1e-15)
        assert np.allclose(m[1], np.diag([0, 1]), atol=1e-15)

    def test_x_direction_outcome0(self):
        m = meas.qubit_projectors(np.array([[1.0, 0, 0]]))[0]
        assert np.allclose(m[0], np.full((2, 2), 0.5), atol=1e-15)

    def test_expectation_along_bloch(self):
        # Outcome 0 along n on a state with Bloch vector r has
        # probability (1 + n.r)/2; aligned pure state gives 1.
        m = meas.qubit_projectors(np.array([[0.0, 0, 1]]))[0]
        rho_up = np.diag([1, 0]).astype(complex)
        assert np.trace(m[0] @ rho_up).real == pytest.approx(1.0)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            meas.qubit_projectors(np.array([[0, 0, 0.9]]))


class TestPauliSettings:
    def test_order_and_values(self):
        x, y, z = meas.pauli_projectors()
        assert np.allclose(z[0], np.diag([1, 0]), atol=1e-15)
        assert np.allclose(y[0], np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-15)
        assert np.allclose(y[1], np.array([[0.5, 0.5j], [-0.5j, 0.5]]), atol=1e-15)
        for m in (x, y, z):
            assert np.allclose(sum(m), np.eye(2), atol=1e-15)
            check_measurement_invariants(m)

    def test_labels(self):
        # Rows are the x, y, z settings in that order: row k's outcome-0
        # projector is (1 + sigma_k)/2.
        for k, sigma in enumerate(PAULIS):
            assert np.allclose(meas.pauli_projectors()[k, 0], (np.eye(2) + sigma) / 2, atol=1e-15)

    def test_projector_stack_is_shared_and_read_only(self):
        stack = meas.pauli_projectors()
        assert stack is meas.pauli_projectors()
        assert stack.shape == (3, 2, 2, 2) and not stack.flags.writeable
        assert np.array_equal(stack, meas.qubit_projectors(np.eye(3)))


class TestQuditMeasurement:
    def test_computational_basis(self):
        m = meas.qudit_measurement(np.eye(3))
        for i in range(3):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            assert np.allclose(m[i], expected, atol=1e-15)

    def test_random_unitary_columns(self):
        # Oracle: Gram-Schmidt produces an orthonormal set; the derived
        # measurement must satisfy every invariant.
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        basis = []
        for col in g.T:
            v = col.copy()
            for u in basis:
                v -= (u.conj() @ v) * u
            basis.append(v / np.linalg.norm(v))
        check_measurement_invariants(meas.qudit_measurement(basis))

    def test_qubit_special_case(self):
        m = meas.qudit_measurement(np.eye(2))
        z = meas.qubit_projectors(np.array([[0.0, 0, 1]]))[0]
        for a, b in zip(m, z):
            assert np.allclose(a, b, atol=1e-15)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            meas.qudit_measurement([np.array([1, 0]), np.array([1, 1]) / np.sqrt(2)])

    def test_rejects_a_vector_of_another_length(self):
        with pytest.raises(ValueError) as info:
            meas.qudit_measurement([[1, 0], [0, 1, 0]])
        assert str(info.value) == "basis vector 1 has length 3, expected 2"


class TestRandomSampling:
    def test_directions_and_bases_valid(self):
        rng = np.random.default_rng(55)
        dirs = rng.standard_normal((100, 3))
        for m in meas.qubit_projectors(dirs / np.linalg.norm(dirs, axis=1, keepdims=True)):
            check_measurement_invariants(m)
        for dim in (2, 3, 4):
            for _ in range(30):
                check_measurement_invariants(meas.qudit_measurement(meas.random_basis(dim, rng)))

    def test_born_probabilities_sum_to_one(self):
        rng = np.random.default_rng(56)
        rho, _ = random_separable(3, 2, 4, seed=77)
        for _ in range(20):
            m_a = meas.qudit_measurement(meas.random_basis(3, rng))
            v = rng.standard_normal(3)
            m_b = meas.qubit_projectors((v / np.linalg.norm(v))[None])[0]
            total = born_joints(rho, m_a[None], m_b[None]).sum()
            assert total == pytest.approx(1.0, abs=1e-12)


def _valid_stack(n, dim, seed):
    return meas.qudit_projectors(meas.random_bases(n, dim, np.random.default_rng(seed)))


class TestValidateProjectors:
    def test_accepts_valid_stack_read_only(self):
        stack = meas.validate_projectors(_valid_stack(5, 3, seed=1))
        assert stack.shape == (5, 3, 3, 3)
        assert not stack.flags.writeable

    @pytest.mark.parametrize(
        "defect", ["is not Hermitian", "is not idempotent", "do not sum to identity"]
    )
    def test_rejects_bad_projector_in_last_slot(self, defect):
        # Every measurement but the last is valid, and inside the last one
        # only the last projector is broken: the error must name it.
        stack = np.array(_valid_stack(4, 3, seed=2))
        last = stack[3, 2]
        if defect == "is not Hermitian":
            last[0, 1] += 1e-6
        elif defect == "is not idempotent":
            last *= 0.5
        else:
            last[...] = 0.0
        with pytest.raises(ValueError, match=f"measurement 3: .*{defect}"):
            meas.validate_projectors(stack)
        if defect != "do not sum to identity":
            with pytest.raises(ValueError, match="projector 2 "):
                meas.validate_projectors(stack)

    def test_rejects_non_finite(self):
        stack = np.array(_valid_stack(2, 2, seed=4))
        stack[1, 1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            meas.validate_projectors(stack)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            meas.validate_projectors(np.eye(2)[None])


class TestBatchedBuilders:
    def test_qubit_batch_matches_single(self):
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((7, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        stack = meas.qubit_projectors(dirs)
        assert stack.shape == (7, 2, 2, 2) and not stack.flags.writeable
        for p, v in zip(stack, dirs):
            assert np.array_equal(p, meas.qubit_projectors(v[None])[0])

    def test_qudit_batch_matches_single(self):
        bases = meas.random_bases(6, 4, np.random.default_rng(6))
        stack = meas.qudit_projectors(bases)
        for m, b in zip(stack, bases):
            assert np.array_equal(m, meas.qudit_measurement(b))
            assert not meas.qudit_measurement(b).flags.writeable
            check_measurement_invariants(m)

    def test_rejects_non_unit_direction_in_last_row(self):
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0.9]])
        with pytest.raises(ValueError, match="unit vector .*0.9"):
            meas.qubit_projectors(dirs)

    def test_rejects_non_orthonormal_basis_in_last_slot(self):
        bases = meas.random_bases(3, 2, np.random.default_rng(7))
        bases[2, 1] = bases[2, 0]
        with pytest.raises(ValueError, match="basis 2 is not orthonormal"):
            meas.qudit_projectors(bases)

    def test_projector_stack_rejects_mixed_shapes(self):
        # A sequence of measurements of different dimensions is no stack.
        with pytest.raises(ValueError, match="shape"):
            meas.validate_projectors([meas.qudit_measurement(np.eye(2)),
                                      meas.qudit_measurement(np.eye(3))])

    def test_batched_sampling_draws_the_same_numbers(self):
        # Reference: one draw and one QR per call, as a per-sample loop
        # would do.  The batched sampler must give the same bases and
        # leave the generator at the same point.
        def basis(dim, rng):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, r = np.linalg.qr(g)
            return (q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T

        for dim in (2, 3, 4):
            ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
            ref_bases = [basis(dim, ref_rng) for _ in range(10)]
            bases = meas.random_bases(10, dim, rng)
            assert np.max(np.abs(bases - ref_bases)) <= 1e-14
            assert ref_rng.random() == rng.random()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_basis_is_the_inline_reference_bit_for_bit(self, dim):
        for seed in range(50):
            z = np.random.default_rng(seed).standard_normal((2, dim, dim))
            q, r = np.linalg.qr(z[0] + 1j * z[1])
            phases = np.diagonal(r) / np.abs(np.diagonal(r))
            basis = meas.random_basis(dim, np.random.default_rng(seed))
            assert np.array_equal(basis, (q * phases).T)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_bases_are_n_random_basis_calls_bit_for_bit(self, dim):
        ref_rng, rng = np.random.default_rng(10 + dim), np.random.default_rng(10 + dim)
        ref = [meas.random_basis(dim, ref_rng) for _ in range(25)]
        bases = meas.random_bases(25, dim, rng)
        assert bases.shape == (25, dim, dim)
        assert np.array_equal(bases, ref)
        assert ref_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("n, dim, name", [(2.5, 2, "n"), (2, 2.0, "dim"), (True, 2, "n")])
    def test_non_integer_counts_are_refused_by_name(self, n, dim, name):
        bad = n if name == "n" else dim
        message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            meas.random_bases(n, dim, np.random.default_rng(0))
        if name == "dim":
            with pytest.raises(ValueError, match=message):
                meas.random_basis(dim, np.random.default_rng(0))

    @pytest.mark.parametrize("n, dim, name", [(-1, 2, "n"), (0, 2, "n"), (2, 0, "dim"), (1, -3, "dim")])
    def test_sizes_below_one_are_refused_by_name_before_any_draw(self, n, dim, name):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        bad = n if name == "n" else dim
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {bad}$"):
            meas.random_bases(n, dim, rng)
        if name == "dim":
            with pytest.raises(ValueError, match=f"^dim must be >= 1, got {bad}$"):
                meas.random_basis(dim, rng)
        assert rng.bit_generator.state == before


class TestStackedBuilders:
    @pytest.mark.parametrize(
        "shape", [(3, 3), (2, 3, 3, 3, 3), (2, 3, 2), (1, 0, 0), (2, 1, 0, 0), (2, 3, 3, 3)]
    )
    def test_qudit_rejects_bad_shape(self, shape):
        message = rf"^bases must have shape \(n, d, d\), got {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            meas.qudit_projectors(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3,), (4, 5, 3)])
    def test_qubit_rejects_bad_shape(self, shape):
        message = rf"^directions must have shape \(n, 3\), got {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            meas.qubit_projectors(np.ones(shape))

    def test_empty_stacks(self):
        # Zero measurements build as zero Werner visibilities do; a
        # settings stack handed to validate_projectors may not be empty.
        for stack, shape in (
            (meas.qudit_projectors(np.zeros((0, 3, 3))), (0, 3, 3, 3)),
            (meas.qubit_projectors(np.zeros((0, 3))), (0, 2, 2, 2)),
        ):
            assert stack.shape == shape and stack.dtype == np.complex128
            assert not stack.flags.writeable
        with pytest.raises(ValueError, match=r"must have shape \(n, k, d, d\)"):
            meas.validate_projectors(np.zeros((0, 3, 3, 3)))


class TestCheck:
    def test_nan_defect_is_named(self):
        defects = np.array([[0.0, 1e-12], [np.nan, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"^entry 1, 0 \(defect nan\)$"):
            meas._check(defects, "entry {0}, {1} (defect {defect})")

    def test_nan_is_named_after_maximizing(self):
        defects = np.zeros((3, 2, 2))
        defects[1, 1, 0] = np.nan
        defects[2, 0, 0] = 1.0
        with pytest.raises(ValueError, match=r"^slot 1 \(defect nan\)$"):
            meas._check(defects, "slot {0} (defect {defect})", axes=(-2, -1))

    def test_tolerance_itself_passes(self):
        meas._check(np.full((2, 3), meas.PROJ_TOL), "unreachable {0}")


class TestBuilderInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_qudit_basis_entry_non_finite(self, bad):
        bases = meas.random_bases(3, 3, np.random.default_rng(20))
        bases[2, 1, 0] = bad
        with pytest.raises(ValueError, match="^projectors have non-finite entries$"):
            meas.qudit_projectors(bases)

    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf")])
    def test_qubit_direction_non_finite(self, bad, shown):
        dirs = np.eye(3)
        dirs[2, 1] = bad
        message = re.escape(f"direction must be a unit vector (norm {shown})")
        with pytest.raises(ValueError, match=f"^{message}$"):
            meas.qubit_projectors(dirs)


def gaussians(n, dim, rng):
    """n complex Gaussian (dim, dim) matrices: per matrix the real parts, then the imaginary."""
    z = rng.standard_normal((n, 2, dim, dim))
    return z[:, 0] + 1j * z[:, 1]


def reference_qudit_projectors(bases):
    """Build first, then validate: the Gram check, then validate_projectors on the stack."""
    b = np.asarray(bases, dtype=np.complex128)
    gram = b.conj() @ b.swapaxes(-1, -2)
    meas._check(
        np.abs(gram - np.eye(b.shape[-1])),
        "basis {0} is not orthonormal (Gram defect {defect:.3e})",
        axes=(-2, -1),
    )
    return meas.validate_projectors(np.einsum("...ix,...iy->...ixy", b, b.conj()))


def outcome(build, arg):
    try:
        return "ok", build(arg)
    except ValueError as exc:
        return "raised", str(exc)


class TestBuilderParity:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_qudit_raises_exactly_when_reference_does(self, dim):
        rng = np.random.default_rng(30 + dim)
        kinds = set()
        for eps in np.geomspace(1e-12, 1e-8, 17):
            scale = eps * rng.uniform(0.0, 1.0, (6, 1, 1))
            bases = meas.random_bases(6, dim, rng)
            bases = bases + scale * gaussians(6, dim, rng)
            ref_kind, ref = outcome(reference_qudit_projectors, bases)
            kind, got = outcome(meas.qudit_projectors, bases)
            assert kind == ref_kind
            assert got == ref if kind == "raised" else np.array_equal(got, ref)
            kinds.add(kind)
        assert kinds == {"ok", "raised"}

    def test_razor_edge_reaches_the_product_checks(self):
        # Basis 2 passes the Gram check (|G_01| <= PROJ_TOL), but with
        # |b_i| entries just above 1 the overlap of P_0 and P_1 is
        # PROJ_TOL (1 + 1e-10): only the product check catches it.
        s = np.sqrt(1.0 + 1e-10 - 4.4e-16)
        x = 1e-10 / s
        bases = meas.random_bases(3, 2, np.random.default_rng(60))
        bases[2] = [[s, 0.0], [x, s]]
        expected = "measurement 2: projectors 0 and 1 are not orthogonal (overlap 1.000e-10)"
        assert outcome(reference_qudit_projectors, bases) == ("raised", expected)
        assert outcome(meas.qudit_projectors, bases) == ("raised", expected)

    def test_every_accepted_qubit_stack_passes_validation(self):
        rng = np.random.default_rng(50)
        u = rng.standard_normal((40, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        edge = 0.0
        for delta in np.linspace(-1.2e-10, 1.2e-10, 25):
            for row in u[:, None] * (1.0 + delta):
                off = abs(np.linalg.norm(row, axis=-1)[0] - 1.0)
                kind, stack = outcome(meas.qubit_projectors, row)
                assert kind == ("ok" if off <= meas.PROJ_TOL else "raised")
                if kind == "ok":
                    assert np.array_equal(meas.validate_projectors(stack), stack)
                    edge = max(edge, off)
        assert edge >= 0.99e-10


def per_block_reference(p):
    """The (n, k, k) product defects of a stack, one outcome at a time.

    Step i forms P_i [P_0 ... P_{k-1}], an (n, d, k d) array whose block j
    is P_i P_j, subtracts P_i from block i and keeps each block's max-abs
    entry.
    """
    n, k, d = p.shape[:3]
    row = p.swapaxes(1, 2).reshape(n, d, k * d)
    products = np.empty((n, d, k, d), dtype=np.complex128)
    per_block = np.zeros((n, k, k))
    for i in range(k):
        np.matmul(p[:, i], row, out=products.reshape(n, d, k * d))
        products[:, :, i] -= p[:, i]
        per_block[:, i] = np.abs(products).max(axis=(1, 3))
    return per_block


def handed_defects(monkeypatch, stack):
    """The product defects validate_projectors hands to _check, and its outcome.

    Returns the idempotency defects (the per-block diagonal) and the
    orthogonality defects (its strict upper triangle), the latter None
    when the stack was refused before that check.
    """
    seen = {}
    check = meas._check

    def spy(defects, message, axes=()):
        for key in ("idempotent", "orthogonal"):
            if key in message:
                seen[key] = defects
        return check(defects, message, axes)

    monkeypatch.setattr(meas, "_check", spy)
    kind, _ = outcome(meas.validate_projectors, stack)
    return kind, seen["idempotent"], seen.get("orthogonal")


def assert_reference_defects(idempotent, orthogonal, p):
    reference = per_block_reference(p)
    assert np.array_equal(idempotent, np.diagonal(reference, axis1=1, axis2=2))
    if orthogonal is not None:
        assert np.array_equal(orthogonal, np.triu(reference, 1))


class TestBatchedProducts:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_defects_equal_the_per_outcome_loop_bit_for_bit(self, monkeypatch, dim):
        rng = np.random.default_rng(70 + dim)
        kinds = set()
        for eps in np.geomspace(1e-12, 1e-6, 13):
            b = meas.random_bases(6, dim, rng)
            b = b + eps * gaussians(6, dim, rng)
            p = np.einsum("...ix,...iy->...ixy", b, b.conj())
            p = (p + p.conj().swapaxes(-1, -2)) / 2
            kind, idempotent, orthogonal = handed_defects(monkeypatch, p)
            assert_reference_defects(idempotent, orthogonal, p)
            kinds.add(kind)
        assert kinds == {"ok", "raised"}

    def test_razor_edge_defects_bit_for_bit(self, monkeypatch):
        s = np.sqrt(1.0 + 1e-10 - 4.4e-16)
        bases = meas.random_bases(3, 2, np.random.default_rng(60))
        bases[2] = [[s, 0.0], [1e-10 / s, s]]
        p = np.einsum("...ix,...iy->...ixy", bases, bases.conj())
        kind, idempotent, orthogonal = handed_defects(monkeypatch, p)
        assert kind == "raised" and orthogonal is not None
        assert_reference_defects(idempotent, orthogonal, p)

    @pytest.mark.parametrize(
        "build, arg",
        [
            (meas.qubit_projectors, np.eye(3)),
            (meas.qudit_projectors, np.eye(3)[None]),
        ],
        ids=["qubit", "qudit"],
    )
    def test_each_builder_call_checks_its_stack_once(self, monkeypatch, build, arg):
        seen = []
        checked = meas._checked

        def spy(*args):
            seen.append(args[0].shape)
            return checked(*args)

        monkeypatch.setattr(meas, "_checked", spy)
        stack = build(arg)
        assert seen == [stack.shape]
        assert not stack.flags.writeable

    def test_qubit_projectors_equal_two_hidden_qubit_stacks(self):
        v = np.random.default_rng(80).standard_normal((20, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        expected = np.stack((hidden_qubits(v), hidden_qubits(-v)), axis=1)
        assert np.array_equal(meas.qubit_projectors(v), expected)
