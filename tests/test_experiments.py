"""Generator catalogue and Monte Carlo experiment tests.

Matrix generators are checked entry-by-entry against hand-built numpy
constructions.  The sampling machinery is checked three ways: frozen
deterministic draws, large-sample agreement with the population, and, for
p = 1, the exact Gaussian tail probability erfc(sqrt(t)).

The replications of the Monte Carlo experiments run on a thread pool when
they are large; the serial loops they used to run are kept here as the
reference their statistics must equal bit for bit, at every thread count.
"""

import concurrent.futures
import math
import os
import sys
import threading

import numpy as np
import pytest

from lasso_audit import (
    GENERATOR_KINDS,
    GeneratorSpec,
    GramMatrix,
    InvalidParameter,
    MonteCarloResult,
    NoisyProblem,
    concentration_experiment,
    d_infinity,
    derived_rng,
    generate,
    lambda0_bound,
    lambda_tilde,
    noise_bound_experiment,
    sample_gaussian_design,
)
from lasso_audit import core, experiments
from lasso_audit.experiments import (
    _box_muller,
    _psd_sqrt,
    _replicate,
    block_equicorrelation_entries,
    coupled_pair_entries,
    equicorrelation_entries,
    rank_one_cross_entries,
    random_psd_entries,
    toeplitz_geometric_entries,
)


class TestGeneratorEntries:
    def test_equicorrelation_matches_hand_construction(self):
        p, rho = 5, 0.3
        want = np.full((p, p), rho)
        np.fill_diagonal(want, 1.0)
        np.testing.assert_allclose(equicorrelation_entries(p, rho), want, atol=0)

    def test_toeplitz_geometric_powers(self):
        got = toeplitz_geometric_entries(4, 0.5)
        want = np.array([[0.5 ** abs(j - k) for k in range(4)] for j in range(4)])
        np.testing.assert_allclose(got, want, atol=0)

    def test_rank_one_cross_default_vectors(self):
        # default b1 = ones/sqrt(s) on the head, b2 = e1 on the tail
        p, s, rho = 6, 2, 0.4
        got = rank_one_cross_entries(p, s, rho)
        want = np.eye(p)
        b1 = np.full(s, 1.0 / math.sqrt(s))
        b2 = np.zeros(p - s)
        b2[0] = 1.0
        want[s:, :s] = rho * np.outer(b2, b1)
        want[:s, s:] = want[s:, :s].T
        np.testing.assert_allclose(got, want, atol=0)
        GramMatrix(got)  # PSD for rho < 1

    def test_rank_one_cross_custom_vectors(self):
        b1 = np.array([0.6, 0.8])
        b2 = np.array([1.0, 0.0, 0.0])
        got = rank_one_cross_entries(5, 2, 0.5, b1=b1, b2=b2)
        assert got[2, 0] == pytest.approx(0.5 * 0.6)
        assert got[2, 1] == pytest.approx(0.5 * 0.8)

    def test_rank_one_cross_validation(self):
        with pytest.raises(InvalidParameter):
            rank_one_cross_entries(4, 4, 0.5)  # s must be < p
        with pytest.raises(InvalidParameter):
            rank_one_cross_entries(4, 0, 0.5)
        with pytest.raises(InvalidParameter):
            # b1 not unit norm
            rank_one_cross_entries(5, 2, 0.5, b1=np.array([1.0, 1.0]))
        with pytest.raises(InvalidParameter):
            # b2 wrong length
            rank_one_cross_entries(5, 2, 0.5, b2=np.array([1.0, 0.0]))

    def test_coupled_pair_single_off_diagonal(self):
        got = coupled_pair_entries(6, 3, 0.7)
        want = np.eye(6)
        want[0, 1] = want[1, 0] = 0.7
        np.testing.assert_allclose(got, want, atol=0)

    def test_coupled_pair_needs_s_above_two(self):
        with pytest.raises(InvalidParameter):
            coupled_pair_entries(6, 2, 0.5)

    def test_block_equicorrelation(self):
        got = block_equicorrelation_entries(6, 3, 0.4)
        block = equicorrelation_entries(3, 0.4)
        want = np.zeros((6, 6))
        want[:3, :3] = block
        want[3:, 3:] = block
        np.testing.assert_allclose(got, want, atol=0)

    def test_block_size_must_divide_p(self):
        with pytest.raises(InvalidParameter):
            block_equicorrelation_entries(7, 3, 0.4)

    def test_random_psd_is_deterministic_and_valid(self):
        a = random_psd_entries(6, 11)
        b = random_psd_entries(6, 11)
        np.testing.assert_array_equal(a, b)
        gram = GramMatrix(a)
        np.testing.assert_allclose(np.diag(gram.entries), 1.0, atol=1e-12)
        assert not np.array_equal(a, random_psd_entries(6, 12))


class TestGeneratorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameter, match="unknown generator kind"):
            GeneratorSpec("wishart", {"p": 4})

    def test_from_dict_nested_and_flat_agree(self):
        nested = GeneratorSpec.from_dict(
            {"kind": "equicorrelation", "parameters": {"p": 5, "rho": 0.3}})
        flat = GeneratorSpec.from_dict({"kind": "equicorrelation", "p": 5, "rho": 0.3})
        assert nested == flat
        assert nested.parameters == {"p": 5, "rho": 0.3}

    def test_from_dict_requires_kind(self):
        with pytest.raises(InvalidParameter):
            GeneratorSpec.from_dict({"p": 4})
        with pytest.raises(InvalidParameter):
            GeneratorSpec.from_dict({"kind": "identity", "parameters": [4]})

    def test_to_json_dict_round_trips(self):
        spec = GeneratorSpec("toeplitz_geometric", {"p": 4, "rho": 0.5})
        again = GeneratorSpec.from_dict(spec.to_json_dict())
        assert again == spec

    def test_missing_parameter_message_names_the_key(self):
        with pytest.raises(InvalidParameter, match="missing generator parameter 'p'"):
            generate(GeneratorSpec("equicorrelation", {"rho": 0.5}))

    def test_bool_is_not_an_integer_parameter(self):
        with pytest.raises(InvalidParameter):
            generate(GeneratorSpec("identity", {"p": True}))

    def test_rho_range_enforced(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(InvalidParameter, match="rho"):
                generate(GeneratorSpec("equicorrelation", {"p": 4, "rho": bad}))

    @pytest.mark.parametrize("kind, params, unread", [
        ("identity", {"p": 2, "rho": 0.5}, "rho"),
        ("equicorrelation", {"p": 4, "rho": 0.5, "s": 2}, "s"),
        ("toeplitz_geometric", {"p": 4, "rho": 0.5, "block_size": 2}, "block_size"),
        ("coupled_pair", {"p": 6, "s": 3, "rho": 0.4, "seed": 1}, "seed"),
        ("random_psd", {"p": 4, "seed": 1, "n": 10}, "n"),
        ("gaussian_design", {"n": 10, "p": 3, "jitter": 0.1}, "jitter"),
    ])
    def test_parameter_the_kind_never_reads_is_refused(self, kind, params, unread):
        message = f"generator kind '{kind}' takes no parameter '{unread}'"
        with pytest.raises(InvalidParameter, match=message):
            generate(GeneratorSpec(kind, params))
        with pytest.raises(InvalidParameter, match=message):
            generate(GeneratorSpec.from_dict({"kind": kind, **params}))

    def test_every_parameter_a_kind_reads_is_accepted(self):
        # the parameter sets the benchmark passes, and every optional one
        eye = GramMatrix(np.eye(3))
        specs = [
            ("random_psd", {"p": 4, "seed": 2, "jitter": 0.1, "normalize": False}),
            ("gaussian_design", {"n": 6, "p": 3, "seed": 1, "beta0": [1.0, 0.0, 0.0],
                                 "population": eye, "noise_sd": 0.5}),
            ("rank_one_cross", {"p": 4, "s": 2, "rho": 0.5, "b1": [0.6, 0.8],
                                "b2": [1.0, 0.0]}),
            ("block_equicorrelation", {"p": 4, "block_size": 2, "rho": 0.3}),
        ]
        for kind, params in specs:
            generate(GeneratorSpec(kind, params))


    def test_gaussian_design_draws_x_without_forming_a_gram(self, monkeypatch):
        # X and Y as before, from the row sampler sample_gaussian_design
        # shares, but no X'X / n is formed or validated
        population = GramMatrix(np.eye(3) + 0.2)
        beta0 = [1.0, 0.0, -1.0]
        x_want, _ = sample_gaussian_design(12, 3, population, 4)
        grams = []
        real = core.GramMatrix.__post_init__

        def counted(self):
            grams.append(self)
            real(self)

        monkeypatch.setattr(core.GramMatrix, "__post_init__", counted)
        problem = generate(GeneratorSpec("gaussian_design", {
            "n": 12, "p": 3, "seed": 4, "beta0": beta0, "population": population}))
        assert grams == []
        assert problem.X.tobytes() == x_want.tobytes()
        eps = _box_muller(derived_rng(4, "generate", "gaussian_design", "noise"), 12)
        assert problem.Y.tobytes() == (x_want @ np.array(beta0) + eps).tobytes()


class TestGenerateDispatcher:
    def test_every_matrix_kind_constructs_a_valid_gram(self):
        specs = {
            "identity": {"p": 4},
            "equicorrelation": {"p": 4, "rho": 0.5},
            "toeplitz_geometric": {"p": 4, "rho": 0.6},
            "block_equicorrelation": {"p": 6, "block_size": 2, "rho": 0.3},
            "rank_one_cross": {"p": 6, "s": 2, "rho": 0.5},
            "coupled_pair": {"p": 6, "s": 3, "rho": 0.4},
            "random_psd": {"p": 5, "seed": 3},
        }
        assert set(specs) | {"gaussian_design"} == set(GENERATOR_KINDS)
        for kind, params in specs.items():
            out = generate(GeneratorSpec(kind, params))
            assert isinstance(out, GramMatrix)
            assert out.p == params["p"]

    def test_identity_kind_is_the_identity(self):
        out = generate(GeneratorSpec("identity", {"p": 3}))
        np.testing.assert_array_equal(out.entries, np.eye(3))

    def test_generate_is_deterministic(self):
        spec = GeneratorSpec("random_psd", {"p": 5, "seed": 7})
        np.testing.assert_array_equal(generate(spec).entries, generate(spec).entries)

    def test_gaussian_design_returns_noisy_problem(self):
        spec = GeneratorSpec("gaussian_design", {"n": 30, "p": 4, "seed": 2})
        prob = generate(spec)
        assert isinstance(prob, NoisyProblem)
        assert prob.X.shape == (30, 4)
        assert prob.epsilon.shape == (30,)
        # beta0 defaults to zeros, lambda0 filled from the realized noise
        np.testing.assert_array_equal(prob.beta0, np.zeros(4))
        assert prob.lambda0 == pytest.approx(
            2.0 * np.max(np.abs(prob.X.T @ prob.epsilon)) / 30)

    def test_gaussian_design_accepts_nested_population(self):
        spec = GeneratorSpec("gaussian_design", {
            "n": 25, "p": 3, "seed": 0,
            "population": {"kind": "equicorrelation", "p": 3, "rho": 0.5},
            "beta0": [1.0, 0.0, 0.0], "noise_sd": 0.5,
        })
        prob = generate(spec)
        np.testing.assert_array_equal(prob.beta0, [1.0, 0.0, 0.0])

    def test_gaussian_design_rejects_negative_noise(self):
        with pytest.raises(InvalidParameter):
            generate(GeneratorSpec("gaussian_design",
                                   {"n": 10, "p": 2, "seed": 0, "noise_sd": -1.0}))


class TestSampling:
    def test_box_muller_moments(self):
        z = _box_muller(derived_rng(0, "bm-test"), 100_000)
        assert abs(float(z.mean())) < 0.02
        assert abs(float(z.var()) - 1.0) < 0.02

    @pytest.mark.parametrize("shape", [1, 7, np.int64(64), (3, 5), (40, 1), (0, 4)])
    def test_box_muller_in_place_matches_two_draws(self, shape):
        # the formula on two separate draws, as the generators computed it
        # before the draws became one block
        ref_rng, rng = derived_rng(3, "bm-ref"), derived_rng(3, "bm-ref")
        u1, u2 = ref_rng.random(shape), ref_rng.random(shape)
        want = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        got = _box_muller(rng, shape)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()

    def test_sample_gaussian_design_shapes_and_symmetry(self):
        x, sighat = sample_gaussian_design(40, 3, GramMatrix(np.eye(3)), 5)
        assert x.shape == (40, 3)
        np.testing.assert_array_equal(sighat.entries, sighat.entries.T)
        np.testing.assert_allclose(sighat.entries, x.T @ x / 40, atol=1e-12)

    def test_sample_gaussian_design_deterministic_in_seed(self):
        pop = GramMatrix(equicorrelation_entries(3, 0.4))
        x1, _ = sample_gaussian_design(20, 3, pop, 9)
        x2, _ = sample_gaussian_design(20, 3, pop, 9)
        x3, _ = sample_gaussian_design(20, 3, pop, 10)
        np.testing.assert_array_equal(x1, x2)
        assert not np.array_equal(x1, x3)

    def test_empirical_gram_converges_to_population(self):
        # law of large numbers at n = 1e5: entrywise se is about 4e-3
        pop = GramMatrix(equicorrelation_entries(3, 0.5))
        _, sighat = sample_gaussian_design(100_000, 3, pop, 0)
        assert d_infinity(sighat, pop) < 0.05

    def test_sample_validation(self):
        pop = GramMatrix(np.eye(3))
        with pytest.raises(InvalidParameter):
            sample_gaussian_design(0, 3, pop, 0)
        with pytest.raises(InvalidParameter):
            sample_gaussian_design(10, 4, pop, 0)


class TestLambdaTilde:
    def test_frozen_value(self):
        assert lambda_tilde(4, 200, 50) == pytest.approx(0.7227739596667213, abs=1e-15)

    def test_formula(self):
        t, n, p = 2.0, 100, 10
        ratio = (4 * t + 8 * math.log(p)) / n
        assert lambda_tilde(t, n, p) == pytest.approx(math.sqrt(ratio) + ratio)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            lambda_tilde(-1.0, 100, 10)
        with pytest.raises(InvalidParameter):
            lambda_tilde(1.0, 0, 10)
        with pytest.raises(InvalidParameter):
            lambda_tilde(1.0, 100, 0)


class TestMonteCarloResult:
    def test_tail_frequency_invariant(self):
        with pytest.raises(InvalidParameter):
            MonteCarloResult("x", 100, (1.0,), (0.5,), (1.5,), (0.7,), (True,))

    def test_json_dict_uses_pass_key(self):
        res = MonteCarloResult("x", 100, (1.0,), (0.5,), (0.1,), (0.7,), (True,))
        d = res.to_json_dict()
        assert d["pass"] == [True]
        assert d["empirical_tail"] == [0.1]


class TestConcentrationExperiment:
    def test_reps_floor(self):
        with pytest.raises(InvalidParameter):
            concentration_experiment(50, 3, GramMatrix(np.eye(3)), 99, [1.0])

    def test_t_list_nonempty(self):
        with pytest.raises(InvalidParameter):
            concentration_experiment(50, 3, GramMatrix(np.eye(3)), 100, [])

    def test_population_dimension_must_match(self):
        with pytest.raises(InvalidParameter):
            concentration_experiment(50, 4, GramMatrix(np.eye(3)), 100, [1.0])

    def test_huge_t_gives_zero_tail(self):
        res = concentration_experiment(100, 4, GramMatrix(np.eye(4)), 300, [50.0],
                                       seed=0)
        assert res.empirical_tail == (0.0,)
        assert res.passed == (True,)

    def test_moderate_t_passes_bound(self):
        res = concentration_experiment(200, 5, GramMatrix(np.eye(5)), 300,
                                       [1.0, 2.0], seed=3)
        assert res.kind == "concentration"
        assert res.thresholds == tuple(lambda_tilde(t, 200, 5) for t in (1.0, 2.0))
        assert res.bound == tuple(2.0 * math.exp(-t) for t in (1.0, 2.0))
        assert all(res.passed)

    def test_deterministic_in_seed(self):
        a = concentration_experiment(100, 3, GramMatrix(np.eye(3)), 150, [1.0], seed=4)
        b = concentration_experiment(100, 3, GramMatrix(np.eye(3)), 150, [1.0], seed=4)
        assert a.empirical_tail == b.empirical_tail


class TestNoiseBoundExperiment:
    def test_p_equal_one_matches_analytic_tail(self):
        # with p = 1 and a unit-norm column the statistic is |N(0,1)| scaled
        # so that the bad event has probability exactly erfc(sqrt(t))
        res = noise_bound_experiment(100, 1, 2000, [1.0], seed=0)
        analytic = math.erfc(1.0)  # 0.15729920705028513
        band = 3.0 * math.sqrt(analytic * (1.0 - analytic) / 2000)
        assert abs(res.empirical_tail[0] - analytic) < band
        assert res.passed == (True,)

    def test_columns_are_unit_mean_square(self):
        # the fixed design is rescaled so mean(x_j^2) = 1 for every column;
        # reconstruct it from the experiment's own stream to verify
        n, p = 50, 4
        rng = derived_rng(7, "noise-bound", "design", n, p)
        x = _box_muller(rng, (n, p))
        scale = np.sqrt(np.mean(x * x, axis=0))
        x = x / np.where(scale > 0, scale, 1.0)
        np.testing.assert_allclose(np.mean(x * x, axis=0), 1.0, atol=1e-12)

    def test_moderate_t_passes_bound(self):
        res = noise_bound_experiment(80, 6, 400, [1.0, 2.0], seed=1)
        assert res.kind == "noise"
        assert res.reps == 400
        assert all(res.passed)

    def test_reps_floor(self):
        with pytest.raises(InvalidParameter):
            noise_bound_experiment(80, 6, 99, [1.0])


def serial_concentration_distances(n, p, population, reps, seed):
    """The replication loop concentration_experiment ran before its
    replications went to a thread pool."""
    pop = population.entries
    root = _psd_sqrt(pop)
    distances = np.empty(reps)
    for r in range(reps):
        z = _box_muller(derived_rng(seed, "concentration", r), (n, p))
        x = z @ root
        sighat = x.T @ x / n
        distances[r] = float(np.max(np.abs(sighat - pop)))
    return distances


def set_cpus(monkeypatch, cpus):
    """Make the process see cpus CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def record_pools(monkeypatch):
    """Record the max_workers of every thread pool the experiments start."""
    started = []
    real = concurrent.futures.ThreadPoolExecutor

    def pool(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    return started


def capture_statistics(monkeypatch):
    """Record the statistics each experiment passes to _tail_verdicts."""
    seen = []
    real = experiments._tail_verdicts

    def verdicts(kind, reps, t_values, thresholds, statistics):
        seen.append(np.array(statistics))
        return real(kind, reps, t_values, thresholds, statistics)

    monkeypatch.setattr(experiments, "_tail_verdicts", verdicts)
    return seen


class TestReplicationPool:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("round_size", [10, 256])
    def test_concentration_equals_the_serial_loop(self, cpus, round_size, monkeypatch):
        # 101 replications of 128 x 32 = 4096 draws, the smallest size the
        # pool takes; with rounds of 10 the last round has one replication
        n, p, reps, seed = 128, 32, 101, 5
        population = GramMatrix(toeplitz_geometric_entries(p, 0.5))
        t_values = [0.5, 1.0, 2.0]
        want = serial_concentration_distances(n, p, population, reps, seed)
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(experiments, "_POOL_ROUND", round_size)
        started = record_pools(monkeypatch)
        verdicts = experiments._tail_verdicts
        seen = capture_statistics(monkeypatch)
        got = concentration_experiment(n, p, population, reps, t_values, seed=seed)
        # one pool of cpus - 1 threads per round of more than one replication
        # (the caller is a lane); the one-replication last round of 10 runs in
        # the caller
        rounds = {10: 10, 256: 1}[round_size]
        assert started == ([] if cpus == 1 else [cpus - 1] * rounds)
        assert seen[0].tobytes() == want.tobytes()
        thresholds = [lambda_tilde(t, n, p) for t in t_values]
        assert got == verdicts("concentration", reps, t_values, thresholds, want)

    def test_noise_equals_the_serial_loop_on_the_pool(self, monkeypatch):
        # n = 4096 draws per replication sends the noise experiment to the pool
        n, p, reps, seed = 4096, 3, 100, 6
        x = _box_muller(derived_rng(seed, "noise-bound", "design", n, p), (n, p))
        x = x / np.sqrt(np.mean(x * x, axis=0))
        want = np.empty(reps)
        for r in range(reps):
            eps = _box_muller(derived_rng(seed, "noise-bound", r), n)
            want[r] = 2.0 * float(np.max(np.abs(x.T @ eps))) / n
        set_cpus(monkeypatch, 2)
        started = record_pools(monkeypatch)
        verdicts = experiments._tail_verdicts
        seen = capture_statistics(monkeypatch)
        got = noise_bound_experiment(n, p, reps, [1.0], seed=seed)
        assert started == [1]
        assert seen[0].tobytes() == want.tobytes()
        assert got == verdicts("noise", reps, [1.0], [lambda0_bound(1.0, n, p)], want)

    def test_an_exception_in_one_replication_reaches_the_caller(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        started = record_pools(monkeypatch)

        def statistic(r):
            if r == 37:
                raise FloatingPointError("replication 37")
            return float(r)

        with pytest.raises(FloatingPointError, match="replication 37"):
            _replicate(statistic, lambda r: r, 101, experiments._POOL_MIN_DRAWS)
        assert started == [1]

    def test_streams_are_derived_in_the_calling_thread(self, monkeypatch):
        # a wrapper around derived_rng, such as a tracer, then sees no
        # call from a pool thread; the caller is a lane and may run statistics
        set_cpus(monkeypatch, 2)
        stream_threads = set()

        def stream(r):
            stream_threads.add(threading.get_ident())
            return r

        out = _replicate(float, stream, 600, experiments._POOL_MIN_DRAWS)
        assert out.tobytes() == np.arange(600, dtype=float).tobytes()
        assert stream_threads == {threading.get_ident()}

    def test_more_workers_than_cores_lose_no_slot(self, monkeypatch):
        set_cpus(monkeypatch, 64)
        started = record_pools(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = _replicate(lambda r: float(np.sqrt(np.float64(r))), lambda r: r, 3000,
                             experiments._POOL_MIN_DRAWS)
        finally:
            sys.setswitchinterval(interval)
        # 3000 replications: 12 rounds of up to 256, each on 8 lanes
        assert started == [core._POOL_MAX_WORKERS - 1] * 12
        assert out.tobytes() == np.sqrt(np.arange(3000, dtype=float)).tobytes()

    def test_worker_count_is_bounded_by_cpus_tasks_and_ceiling(self, monkeypatch):
        set_cpus(monkeypatch, 64)
        assert core._pool_workers(1000) == core._POOL_MAX_WORKERS
        assert core._pool_workers(3) == 3
        set_cpus(monkeypatch, 2)
        assert core._pool_workers(1000) == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert core._pool_workers(1000) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert core._pool_workers(1000) == 1

    @pytest.mark.parametrize("run", [
        # 400 draws per replication: the noise experiment stays serial
        lambda: noise_bound_experiment(400, 10, 100, [1.0], seed=2),
        # 63 x 65 = 4095 draws, one below the pool's floor
        lambda: concentration_experiment(63, 65, GramMatrix(np.eye(65)), 100, [1.0], seed=2),
    ], ids=["noise", "concentration-4095"])
    def test_no_pool_below_the_draw_threshold(self, run, monkeypatch):
        set_cpus(monkeypatch, 4)

        def refuse(max_workers):
            raise AssertionError("a thread pool started below the draw threshold")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        assert run().reps == 100


@pytest.mark.parametrize("run", [
    lambda: concentration_experiment(0, 3, GramMatrix(np.eye(3)), 150, [1.0]),
    lambda: concentration_experiment(50, 3, GramMatrix(np.eye(3)), 150, [1.0, -1.0]),
    lambda: noise_bound_experiment(0, 3, 150, [1.0]),
    lambda: noise_bound_experiment(50, 3, 150, [1.0, 0.0]),
], ids=["concentration-n0", "concentration-t-1", "noise-n0", "noise-t0"])
def test_thresholds_checked_before_any_rep(run, monkeypatch):
    import lasso_audit.experiments as experiments

    def refuse(*args, **kwargs):
        raise AssertionError("a rep was drawn before the thresholds were checked")

    monkeypatch.setattr(experiments, "_box_muller", refuse)
    with pytest.raises(InvalidParameter):
        run()
