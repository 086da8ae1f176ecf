"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s to see them inline).

The headline numbers from the original forge data (growth rates, gamma in
[1.23, 1.35], rho_all = 3.88, median collaborative p0 = 0.6128) need that
dataset, which is not bundled; the pipeline accepts a compatible event file.
Everything here is property- and oracle-based at desk scale, with every
tolerance pinned from the criteria.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from forgesim import (
    SimParams,
    SizeDistribution,
    bootstrap_pvalue,
    em_fit,
    fit_exponential_growth,
    fit_interarrival_waits,
    iterate_master,
    mle_rho,
    p0_series,
    pmf,
    replicate,
    run,
    sample,
)
from forgesim.cli import main as cli_main

DATA = Path(__file__).parent / "data"


def report(criterion, label, ok, detail=""):
    print(f"[criterion {criterion}] {label}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def p0_grid_runs():
    return {
        p0: run(SimParams(p0=p0, n_steps=100_000, seed=101)).final
        for p0 in (0.16, 0.5, 2.0 / 3.0)
    }


class TestCriterion1SimulatorVsTheory:
    def test_replicate_tv_and_runtime(self):
        start = time.monotonic()
        result = replicate(SimParams(p0=2.0 / 3.0, n_steps=200_000, seed=7), 20)
        elapsed = time.monotonic() - start
        mean = result.mean_distribution
        f_bar = np.array([mean.count(x) for x in range(1, 51)]) / mean.total_projects
        tv = 0.5 * np.abs(f_bar - pmf(np.arange(1, 51), 3.0)).sum()
        ok = tv < 0.01 and elapsed < 60.0
        assert report(1, "20-replica mean f(x) vs Yule(rho=3), x<=50", ok,
                      f"(TV={tv:.5f}, {elapsed:.1f}s)")


class TestCriterion2ProjectCount:
    def test_total_projects_near_N_p0(self, p0_grid_runs):
        ratios = {
            p0: cp.n_projects / (100_000 * p0) for p0, cp in p0_grid_runs.items()
        }
        ok = all(0.98 <= r <= 1.02 for r in ratios.values())
        detail = ", ".join(f"p0={p0:.2f}: {r:.4f}" for p0, r in ratios.items())
        assert report(2, "N_p/(N*p0) in [0.98, 1.02] at N=1e5", ok, f"({detail})")


class TestCriterion3SingletonDensity:
    def test_singleton_density_matches_stationary(self, p0_grid_runs):
        errs = {}
        for p0, cp in p0_grid_runs.items():
            rho = 1.0 / (1.0 - p0)
            target = p0 * rho / (rho + 1.0)
            errs[p0] = abs(cp.distribution.count(1) / 100_000 - target) / target
        ok = all(e < 0.05 for e in errs.values())
        detail = ", ".join(f"p0={p0:.2f}: {e:.3%}" for p0, e in errs.items())
        assert report(3, "n(1,N)/N within 5% of p0*rho/(rho+1)", ok, f"({detail})")


class TestCriterion4MasterEquation:
    def test_iterated_master_vs_closed_form(self):
        p0 = 2.0 / 3.0
        record = [2, 10, 100, 1000, 10_000, 100_000, 500_000, 1_000_000]
        states = iterate_master(p0, 1_000_000, record_at=record)
        mass_ok = all(abs(st.total_mass - st.N) / st.N < 1e-9 for st in states)
        final = states[-1]
        x = np.arange(1, 31)
        target = 3.0 * pmf(x, 3.0) / 3.0 * 1_000_000 * p0  # rho*B(x,rho+1)*N*p0
        rel = np.abs(final.counts[:30] / target - 1.0).max()
        ok = mass_ok and rel < 0.01
        worst_mass = max(abs(st.total_mass - st.N) / st.N for st in states)
        assert report(4, "master equation at N=1e6 vs closed form", ok,
                      f"(max rel err x<=30: {rel:.2e}, worst mass leak: {worst_mass:.1e})")


class TestCriterion5DistributionCorrectness:
    def test_recurrence_and_normalisation(self):
        from scipy.special import gammaln

        x = np.arange(2, 10_001)
        rec_ok = True
        for rho in (1.2, 2.0, 3.0, 5.0):
            lhs = pmf(x, rho) / pmf(x - 1, rho)
            rec_ok &= bool(np.allclose(lhs, (x - 1.0) / (x + rho), rtol=1e-12))
        # head summed directly; tail closed with S(x) = x*B(x, rho+1)
        # evaluated through plain gammaln, independent of the package's
        # Stirling-ratio code path
        xs = np.arange(1, 1_000_001)
        top = 1_000_000.0
        norm_err = 0.0
        for rho in (1.2, 2.0, 3.0, 5.0):
            tail = np.exp(
                np.log(top) + gammaln(rho + 1.0) + gammaln(top) - gammaln(top + rho + 1.0)
            )
            norm_err = max(norm_err, abs(pmf(xs, rho).sum() + tail - 1.0))
        ok = rec_ok and norm_err < 1e-8
        assert report(5, "pmf recurrence + normalisation", ok,
                      f"(norm err {norm_err:.1e})")

    def test_tail_power_law_with_correct_constant(self):
        # the attainable form of the tail clause: exponent -(rho+1) at x=200
        # and the ratio against rho*Gamma(rho+1)*x**-(rho+1) at larger x
        slope = (np.log(pmf(400, 3.0)) - np.log(pmf(200, 3.0))) / np.log(2.0)
        ratio = pmf(1000, 3.0) / (18.0 * 1000.0**-4)  # rho*Gamma(rho+1) = 18
        ok = abs(slope + 4.0) < 0.08 and abs(ratio - 1.0) < 0.02
        assert report(5, "tail power law (corrected constant)", ok,
                      f"(slope={slope:.4f}, ratio={ratio:.4f})")

    @pytest.mark.xfail(
        strict=True,
        reason="spec defect: the asymptotic constant omits Gamma(rho+1); "
        "pmf(200,3)/(3*200**-4) converges to Gamma(4)=6, and even with the "
        "corrected constant the deviation at x=200 is ~3%. See decisions ledger.",
    )
    def test_tail_ratio_as_literally_stated(self):
        ratio = pmf(200, 3.0) / (3.0 * 200.0**-4)
        ok = abs(ratio - 1.0) < 0.02
        report(5, "tail ratio pmf(x,3)/(3x^-4) at x=200 (literal)", ok,
               f"(ratio={ratio:.4f})")
        assert ok


def _mle_trials(rho, n_trials=100, n=10_000, seed0=9000):
    fits = []
    for t in range(n_trials):
        draws = sample(rho, n, np.random.default_rng(seed0 + t))
        fits.append(mle_rho(SizeDistribution.from_sizes(draws)).rho_hat)
    return np.array(fits)


class TestCriterion6MleRecovery:
    def test_rho_three(self):
        fits = _mle_trials(3.0)
        median = float(np.median(fits))
        n_in = int(((fits >= 2.85) & (fits <= 3.15)).sum())
        ok = 2.95 <= median <= 3.05 and n_in >= 90
        assert report(6, "MLE recovery at rho=3", ok,
                      f"(median={median:.4f}, in-band {n_in}/100)")

    def test_rho_one_point_two(self):
        fits = _mle_trials(1.2, seed0=9500)
        median = float(np.median(fits))
        lo_m, hi_m = 1.2 * 2.95 / 3.0, 1.2 * 3.05 / 3.0
        lo_i, hi_i = 1.2 * 2.85 / 3.0, 1.2 * 3.15 / 3.0
        n_in = int(((fits >= lo_i) & (fits <= hi_i)).sum())
        ok = lo_m <= median <= hi_m and n_in >= 90
        assert report(6, "MLE recovery at rho=1.2 (scaled bands)", ok,
                      f"(median={median:.4f}, in-band {n_in}/100)")


def _null_pvalue(trial, b):
    draws = sample(3.0, 5000, np.random.default_rng(90_000 + trial))
    dist = SizeDistribution.from_sizes(draws)
    return bootstrap_pvalue(dist, n_bootstrap=b, seed=trial).p_value


def _calibration_trial(trial):
    return _null_pvalue(trial, 500)


def _uniformity_trial(trial):
    return _null_pvalue(trial, 200)


class TestCriterion7GofCalibrationAndPower:
    def test_calibration_under_null(self):
        from multiprocessing import Pool

        with Pool(2) as pool:
            pvals = np.array(pool.map(_calibration_trial, range(100)))
        frac = float((pvals < 0.1).mean())
        ok = 0.05 <= frac <= 0.2
        assert report(7, "null calibration (rho=3, n=5000, B=500, 100 trials)", ok,
                      f"(frac p<0.1 = {frac:.3f})")

    def test_power_against_geometric(self):
        draws = np.random.default_rng(4242).geometric(0.5, 5000)
        res = bootstrap_pvalue(SizeDistribution.from_sizes(draws), n_bootstrap=500, seed=17)
        ok = res.p_value < 0.01
        assert report(7, "rejection of geometric data", ok, f"(p={res.p_value})")

    def test_pvalue_uniformity_under_null(self):
        # coarse uniformity property: deciles within +-50% of uniform. The
        # true decile shape (measured at 600 trials) deviates by at most
        # ~27%, so 600 trials keep the sampling noise clear of the band;
        # at 100-200 trials the check is noise-dominated.
        from multiprocessing import Pool

        with Pool(2) as pool:
            pvals = np.array(pool.map(_uniformity_trial, range(600)))
        deciles = np.histogram(pvals, bins=10, range=(0.0, 1.0))[0]
        expected = len(pvals) / 10.0
        ok = bool(np.all((deciles >= 0.5 * expected) & (deciles <= 1.5 * expected)))
        assert report(7, "p-value uniformity under the null (600 trials)", ok,
                      f"(deciles {deciles.tolist()})")


class TestCriterion8EmRecovery:
    def test_inflated_singleton_recovery(self):
        draws = sample(3.0, 10_000, np.random.default_rng(321))
        values, counts = np.unique(draws, return_counts=True)
        truth = float(counts[values == 1][0])
        counts = counts.astype(float)
        counts[values == 1] += 3 * truth
        res = em_fit(SizeDistribution(values, counts))
        ok = (
            2.8 <= res.rho_col <= 3.2
            and abs(res.latent_singletons - truth) / truth < 0.10
            and res.converged
            and res.iterations <= 50
        )
        assert report(8, "EM recovery on 3x singleton-inflated sample", ok,
                      f"(rho_col={res.rho_col:.3f}, latent err "
                      f"{abs(res.latent_singletons - truth) / truth:.1%}, "
                      f"{res.iterations} iterations)")


class TestCriterion9EstimatorRoundTrips:
    def test_growth_rate(self):
        rng = np.random.default_rng(55)
        t = np.arange(89)
        x = np.exp(0.013 * t) * (1.0 + 0.02 * rng.standard_normal(89))
        fit = fit_exponential_growth(t, x)
        ok = abs(fit.omega - 0.013) <= 0.001 and fit.r_squared > 0.99
        assert report(9, "omega recovery on noisy exponential", ok,
                      f"(omega={fit.omega:.5f}, r2={fit.r_squared:.4f})")

    def test_gamma_on_simulation(self):
        from forgesim import MembershipEventLog, size_dependent_growth
        from forgesim.simulate import _arrival_projects

        # the project of every arrival, as the stepping loop places it
        # (tests/test_simulate.py pins the two equal for these parameters)
        params = SimParams(p0=0.3, n_steps=100_000, seed=21)
        proj_of_dev = _arrival_projects(params).tolist()
        log = MembershipEventLog.from_rows(
            (f"d{k}", f"p{p}", k // 5000, None) for k, p in enumerate(proj_of_dev)
        )
        fits = size_dependent_growth(log, window_months=12)
        fit = fits[min(fits)]
        ok = abs(fit.gamma - 1.0) <= 2 * fit.stderr
        assert report(9, "gamma=1 on alpha=1 simulation", ok,
                      f"(gamma={fit.gamma:.4f} +- {fit.stderr:.4f})")

    def test_p0_series_median(self):
        p0 = 2.0 / 3.0
        checkpoints = tuple(range(5000, 100_001, 5000))
        trace = run(SimParams(p0=p0, n_steps=100_000, seed=33, checkpoints=checkpoints))
        steps = np.array([c.step for c in trace.checkpoints])
        projects = np.array([c.n_projects for c in trace.checkpoints])
        series = p0_series(np.arange(1, steps.size), np.diff(projects), np.diff(steps))
        ok = abs(series.median - p0) < 0.03
        assert report(9, "p0-series median vs simulator p0", ok,
                      f"(median={series.median:.4f} vs {p0:.4f})")

    def test_interarrival_censoring(self):
        waits = np.random.default_rng(777).exponential(450.0, 3000)
        fit = fit_interarrival_waits(waits)
        ok = (
            abs(fit.prob_before_mean - 0.632) <= 0.02
            and 1.5 <= fit.censor_factor <= 1.7
        )
        assert report(9, "interarrival censor factor", ok,
                      f"(P(t<mean)={fit.prob_before_mean:.4f}, factor={fit.censor_factor:.3f})")


class TestCriterion10CliDeterminism:
    def test_every_command_reproduces_numeric_outputs(self, tmp_path):
        dist_file = tmp_path / "dist.csv"
        draws = sample(3.0, 3000, np.random.default_rng(12))
        values, counts = np.unique(draws, return_counts=True)
        dist_file.write_text(
            "\n".join(["size,count"] + [f"{v},{c}" for v, c in zip(values, counts)]) + "\n"
        )
        fixture = str(DATA / "events_200.csv")
        commands = {
            "simulate": ["simulate", "--p0", "0.6667", "--steps", "3000",
                         "--replicas", "2", "--seed", "7"],
            "analyze": ["analyze", fixture],
            "fit": ["fit", str(dist_file)],
            "gof": ["gof", str(dist_file), "--bootstrap", "100", "--seed", "1"],
            "em": ["em", str(dist_file)],
            "p0": ["p0", fixture, "--variant", "collaborative"],
            "rateeq": ["rateeq", "--p0", "0.5", "--steps", "500"],
        }
        all_ok = True
        for name, args in commands.items():
            a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
            assert cli_main(args + ["--output-dir", str(a)]) == 0
            assert cli_main(args + ["--output-dir", str(b)]) == 0
            for table in sorted(a.glob("*.csv")):
                same = table.read_bytes() == (b / table.name).read_bytes()
                all_ok &= same
        assert report(10, "CLI re-runs byte-identical numeric outputs", all_ok)
