"""Block-stacked ``verify`` against a per-trial loop.

``reference_lhs`` and ``reference_spm`` check one trial at a time
through the public single-trial functions: the certificate from
``lhs_certificate`` or ``spm_certificate``, checked by its exact
operator identity.  The request RNG draws (mu, c) in trial order, and
each trial's state comes from its own seed.  The stacked CLI must print
byte-identical reports, name the reference's worst trial when it fails,
and keep its eigendecomposition count and memory per block rather than
per trial.
"""

import contextlib
import io
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from steermap import cli, constructions, mapping, models, states
from steermap.measurements import pauli_projectors, qudit_measurement


def exact_residual(rho, cert):
    return float(constructions.verify_model_identities(rho, cert))


def draw_one(rng):
    """One trial's (mu, c) as floats: a block draw of one trial."""
    mu, c = cli._sample_params(rng, 1)
    return float(mu[0]), float(c[0])


def scalar_params(rng):
    """One trial's (mu, c) from two scalar draws: mu, then c's fraction of c_max(mu)."""
    mu = float(rng.uniform(0.0, mapping.INV_SQRT3))
    c = float(rng.uniform(0.0, 1.0)) * mapping.analytic_c_max(mu)
    return mu, c


def reference_lhs(dims, trials, seed, fixed):
    """Per-trial exact residuals and (mu, c) of the hidden-state verification loop."""
    d_a, _ = dims
    rng = np.random.default_rng(seed)
    # lhs_certificate's signature takes Alice's settings; the certificate
    # does not depend on them.
    settings = [qudit_measurement(np.eye(d_a))]
    out = []
    for trial in range(trials):
        tau, ensemble = states.random_separable(d_a, 2, cli.ENSEMBLE_SIZE, seed + 1000 + trial)
        model_tau = models.model_from_separable(ensemble)
        mu, c = fixed if fixed else draw_one(rng)
        model_prime = constructions.bob_biased_prime_model(model_tau, c)
        cert = constructions.lhs_certificate(model_tau, model_prime, mu, settings)
        rho = mapping.mix(tau, mapping.biased_partner(tau, c, "B"), mu)
        out.append((exact_residual(rho, cert), mu, c))
    return out


def reference_spm(dims, trials, seed, fixed):
    """Per-trial exact residuals and (mu, c) of the separable verification loop."""
    _, d_b = dims
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        rho, ensemble = states.random_separable(2, d_b, cli.ENSEMBLE_SIZE, seed + 2000 + trial)
        model_rho = models.model_from_separable(ensemble)
        mu, c = fixed if fixed else draw_one(rng)
        model_prime = constructions.alice_biased_prime_model(model_rho, c)
        cert = constructions.spm_certificate(model_rho, model_prime, mu)
        sigma = mapping.mix(rho, mapping.biased_partner(rho, c, "A"), mu)
        out.append((exact_residual(sigma, cert), mu, c))
    return out


REFERENCE = {"lhs": reference_lhs, "spm": reference_spm}
TARGET_DIMS = [("lhs", (2, 2)), ("lhs", (3, 2)), ("lhs", (4, 2)),
               ("spm", (2, 2)), ("spm", (2, 3)), ("spm", (2, 4))]
DIMS_IDS = [f"{target}-{d_a}x{d_b}" for target, (d_a, d_b) in TARGET_DIMS]


def run_verify(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", *argv])
    return code, out.getvalue(), err.getvalue()


def reference_stdout(target, dims, trials, seed, tol, fixed, ref=None):
    """The report of the per-trial loop; ``ref`` is a longer run of it to
    take the first ``trials`` trials from instead of running it again."""
    ref = REFERENCE[target](dims, trials, seed, fixed) if ref is None else ref[:trials]
    worst = max(r for r, _, _ in ref)
    report = {
        "target": target,
        "dims": list(dims),
        "trials": trials,
        "seed": seed,
        "tol": float(f"{tol:.12g}"),
        "max_residual": float(f"{worst:.12g}"),
        "pass": bool(worst <= tol),
    }
    return json.dumps(report, allow_nan=False) + "\n"


def verify_argv(target, dims, trials, seed, fixed=None):
    argv = [target, "--dims", f"{dims[0]}x{dims[1]}", "--trials", str(trials),
            "--seed", str(seed)]
    if fixed:
        argv += ["--mu", repr(fixed[0]), "--c", repr(fixed[1])]
    return argv


class TestStdoutMatchesTrialLoop:
    @pytest.mark.parametrize("target, dims", TARGET_DIMS, ids=DIMS_IDS)
    def test_seed_grid(self, target, dims):
        # --trials 1, 5 and one more than a block, so the last run spans two.
        # Each trial draws its state from its own seed and the request RNG
        # in trial order, so runs of 1 and 5 trials are prefixes of the
        # longest one: one reference run per seed serves all three.
        runs = [(trials, None) for trials in (1, 5, cli.VERIFY_BLOCK + 1)]
        runs.append((3, (0.3, 0.5)))
        for seed in range(21):
            longest = REFERENCE[target](dims, cli.VERIFY_BLOCK + 1, seed, None)
            for trials, fixed in runs:
                code, out, err = run_verify(verify_argv(target, dims, trials, seed, fixed))
                assert (code, err) == (0, "")
                ref = None if fixed else longest
                assert out == reference_stdout(target, dims, trials, seed, 1e-10, fixed, ref)

    @pytest.mark.parametrize("target, dims", TARGET_DIMS, ids=DIMS_IDS)
    def test_infeasible_parameters_exit_4(self, target, dims):
        code, out, err = run_verify(verify_argv(target, dims, 2, 3, (0.5, 0.465)))
        assert (code, out) == (4, "")
        assert err.startswith("infeasible parameters: hidden state unphysical at xi=0")


class TestFailingTrialReport:
    @pytest.mark.parametrize("target, dims", TARGET_DIMS, ids=DIMS_IDS)
    def test_zero_tol_names_the_worst_trial(self, target, dims):
        trials, seed = cli.VERIFY_BLOCK + 3, 11
        ref = REFERENCE[target](dims, trials, seed, None)
        residuals = [r for r, _, _ in ref]
        worst = int(np.argmax(residuals))
        assert residuals[worst] > 0.0
        code, out, err = run_verify(verify_argv(target, dims, trials, seed) + ["--tol", "0"])
        assert code == 4
        assert out == reference_stdout(target, dims, trials, seed, 0.0, None)
        offset = 1000 if target == "lhs" else 2000
        _, mu, c = ref[worst]
        assert err == (
            f"worst trial {worst} (state seed {seed + offset + worst}): "
            f"mu={mu!r}, c={c!r}, residual={residuals[worst]!r}\n"
        )


WORST_LINE = re.compile(
    r"worst trial (\d+) \(state seed (\d+)\): mu=(\S+), c=(\S+), residual=(\S+)\n"
)


def worst_line(argv):
    code, _, err = run_verify(argv)
    assert code == 4
    match = WORST_LINE.fullmatch(err)
    assert match, err
    trial, state_seed, mu, c, residual = match.groups()
    return int(trial), int(state_seed), float(mu), float(c), residual


class TestReproduceFromReport:
    """A failing trial is re-run alone from its stderr line."""

    @pytest.mark.parametrize("target, dims", [("lhs", "3x2"), ("spm", "2x3")])
    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_worst_trial_reruns_alone(self, target, dims, seed):
        base = [target, "--dims", dims, "--tol", "0"]
        trial, state_seed, mu, c, residual = worst_line(
            base + ["--trials", str(2 * cli.VERIFY_BLOCK + 1), "--seed", str(seed)]
        )
        again = worst_line(base + ["--trials", "1", "--seed", str(seed + trial),
                                   "--mu", repr(mu), "--c", repr(c)])
        assert again == (0, state_seed, mu, c, residual)

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_both_targets_draw_the_same_params(self, monkeypatch, seed):
        # The request RNG draws (mu, c) once per block and nothing else:
        # nine trials are a block of eight and a block of one.
        trials = cli.VERIFY_BLOCK + 1
        rng = np.random.default_rng(seed)
        params = [draw_one(rng) for _ in range(trials)]
        sample = cli._sample_params

        def recorded(rng, n):
            mu, c = sample(rng, n)
            sizes.append(n)
            drawn.extend(zip(mu.tolist(), c.tolist()))
            return mu, c

        monkeypatch.setattr(cli, "_sample_params", recorded)
        for target, dims in (("lhs", "2x2"), ("spm", "2x2")):
            sizes, drawn = [], []
            trial, _, mu, c, _ = worst_line(
                [target, "--dims", dims, "--trials", str(trials), "--seed", str(seed),
                 "--tol", "0"]
            )
            assert sizes == [cli.VERIFY_BLOCK, 1]
            assert drawn == params
            assert (mu, c) == params[trial]


class TestBlockDraw:
    def test_one_block_draw_is_n_scalar_draws(self):
        # Same values bit for bit, and the generator left in the same state,
        # so a block's trials draw what a trial-by-trial loop would.
        for seed in range(200):
            for n in range(1, cli.VERIFY_BLOCK + 1):
                block_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                mu, c = cli._sample_params(block_rng, n)
                assert mu.shape == c.shape == (n,)
                want = np.array([scalar_params(scalar_rng) for _ in range(n)]).T
                assert np.array_equal(np.array([mu, c]), want), (seed, n)
                assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


SAMPLED_CHECK = ("verify_spm_identity", "verify_lhs_identity", "random_bases", "qudit_projectors")


class TestExactCheckOnly:
    @pytest.mark.parametrize("target, dims", [("lhs", "4x2"), ("spm", "2x4")])
    def test_no_sampled_check_and_one_identity_per_block(self, monkeypatch, target, dims):
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append((name, args[0]))
                return real(*args, **kwargs)
            return wrapper

        names = (*SAMPLED_CHECK, "born_probs", "verify_model_identities")
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("steermap"):
                for name in names:
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for trials, blocks in ((1, 1), (cli.VERIFY_BLOCK, 1), (2 * cli.VERIFY_BLOCK + 1, 3)):
            calls.clear()
            code, out, _ = run_verify([target, "--dims", dims, "--trials", str(trials)])
            assert code == 0 and json.loads(out)["pass"] is True
            called = [name for name, _ in calls]
            assert not set(called) & set(SAMPLED_CHECK)
            assert called.count("verify_model_identities") == blocks
            # The one Born table per block is the certificate builder's read
            # of the mixed party's Pauli probabilities, not a sampled check.
            assert called.count("born_probs") == blocks
            assert all(arg is pauli_projectors() for name, arg in calls if name == "born_probs")


class TestBlockGuards:
    def test_peak_memory_does_not_grow_with_trials(self):
        def peak(trials):
            tracemalloc.start()
            try:
                assert run_verify(["lhs", "--dims", "4x2", "--trials", str(trials)])[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_verify(["lhs", "--dims", "4x2", "--trials", "1"])  # one-time caches
        one_block = peak(cli.VERIFY_BLOCK)
        assert peak(200) <= 1.5 * one_block
