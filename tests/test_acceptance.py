"""Acceptance gate: nine desk-scale checks, one pass/fail line each.

Run with -s (or read captured output) to see the per-criterion lines.
Every tolerance is stated inline next to the quantity it bounds.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from bridgelab import rng as _rng
from bridgelab.cli import main as cli_main
from bridgelab.denoiser import (
    AnalyticDenoiser,
    GmmCoupling,
    JointGaussian,
    MlpHyper,
    Preconditioner,
    denoise,
    mlp_init,
    mlp_loss_and_grads,
    precondition,
    sample_condition,
    score_from_denoiser,
    train_mlp_denoiser,
)
from bridgelab.denoiser import _layers
from bridgelab.denoiser import test_mse_vs_analytic as mse_vs_analytic
from bridgelab.dynamics import estimate_marginal_moments, simulate_ensemble
from bridgelab.metrics import (
    afd,
    convergence_slope,
    energy_test,
)
from bridgelab.sampler import (
    SamplerConfig,
    apply_step,
    sample,
    step_coefficients,
    step_dbim,
    step_markovian,
)
from bridgelab.schedule import (
    EpsilonPolicy,
    Schedule,
    epsilon,
    eval_schedule,
    make_time_grid,
    verify_reformulation,
)

LINEAR = Schedule(kind="linear", gamma_max=0.125)

TASK_2D = JointGaussian(
    mean0=[0.85, -0.4],
    meanT=[0.5, -0.5],
    cov00=[[0.754, 0.165], [0.165, 0.474]],
    covTT=[[1.0, 0.3], [0.3, 0.8]],
    cov0T=[[0.84, 0.11], [0.31, 0.59]],
)

TASK_1D = JointGaussian(
    mean0=[0.35], meanT=[0.5], cov00=[[0.29]], covTT=[[1.0]], cov0T=[[0.5]]
)

GMM_BIMODAL = GmmCoupling(
    weights=(0.5, 0.5),
    components=(
        JointGaussian([-1.5], [-0.2], [[0.05]], [[0.4]], [[0.05]]),
        JointGaussian([1.5], [0.2], [[0.05]], [[0.4]], [[0.05]]),
    ),
)


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


class TestAcceptance:
    def test_criterion_1_forward_euler_matches_kernel(self):
        """Forward EM marginals hit the closed-form kernel moments."""
        start = time.perf_counter()
        worst_mean_se, worst_var_rel = 0.0, 0.0
        for t_target in (0.25, 0.5, 0.75):
            n_steps = round(t_target / 1e-3)
            times = np.linspace(0.0, t_target, n_steps + 1)
            ens = simulate_ensemble(
                LINEAR, np.array([0.0]), np.array([1.0]), times,
                100_000, 0, threads=2, record=False,
            )
            mom = estimate_marginal_moments(ens, -1)
            ev = eval_schedule(LINEAR, t_target)
            worst_mean_se = max(worst_mean_se, abs(mom.mean[0] - ev.beta) / mom.se_mean[0])
            worst_var_rel = max(worst_var_rel, abs(mom.cov[0, 0] - ev.gamma**2) / ev.gamma**2)
        elapsed = time.perf_counter() - start
        passed = worst_mean_se <= 4.0 and worst_var_rel <= 0.03 and elapsed <= 60.0
        _report(
            "criterion 1 (forward kernel moments)",
            passed,
            f"dt=1e-3, 1e5 paths, t in {{0.25,0.5,0.75}}: mean dev {worst_mean_se:.2f} "
            f"se-units (<= 4), var rel dev {worst_var_rel:.4f} (<= 0.03), "
            f"{elapsed:.1f}s (<= 60)",
        )

    def test_criterion_2_family_members_share_marginals(self):
        """eta = 0, 0.3, 1.0 samplers agree pairwise on the output law."""
        den = AnalyticDenoiser(TASK_2D, LINEAR)
        grid = make_time_grid(40)
        conds = sample_condition(TASK_2D, 10_000, _rng.stream(0, _rng.TAG_TASK))
        outs = {}
        for eta in (0.0, 0.3, 1.0):
            cfg = SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="eta_scaled", eta=eta),
                grid=grid,
                variant="gamma_simplified",
                seed=7,
            )
            outs[eta] = sample(cfg, den, conds, threads=2).x0_batch
        sub_rng = np.random.default_rng(0)
        worst_mean, worst_cov, worst_ed_ratio = 0.0, 0.0, 0.0
        for a, b in ((0.0, 0.3), (0.0, 1.0), (0.3, 1.0)):
            pa, pb = outs[a], outs[b]
            pooled = np.sqrt(pa.var(axis=0) / len(pa) + pb.var(axis=0) / len(pb))
            worst_mean = max(
                worst_mean, float(np.max(np.abs(pa.mean(0) - pb.mean(0)) / pooled))
            )
            ca, cb = np.cov(pa.T), np.cov(pb.T)
            worst_cov = max(worst_cov, float(np.max(np.abs(ca - cb) / np.abs(cb))))
            ia = sub_rng.choice(len(pa), 1500, replace=False)
            ib = sub_rng.choice(len(pb), 1500, replace=False)
            ed, q95 = energy_test(pa[ia], pb[ib], n_permutations=200, seed=0)
            worst_ed_ratio = max(worst_ed_ratio, ed / q95)
        passed = worst_mean <= 4.0 and worst_cov <= 0.05 and worst_ed_ratio <= 3.0
        _report(
            "criterion 2 (marginal preservation across eta)",
            passed,
            f"N=40, 1e4 paths, eta in {{0,0.3,1}} pairwise: mean dev {worst_mean:.2f} "
            f"pooled-se units (<= 4), cov rel dev {worst_cov:.4f} (<= 0.05), "
            f"energy distance {worst_ed_ratio:.2f}x permutation-95th (<= 3)",
        )

    def test_criterion_3_score_identity(self):
        """Denoiser-form score equals the marginal Gaussian score."""
        gain, cov_c = TASK_2D.conditional()
        gen = np.random.default_rng(7)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            t = float(gen.uniform(0.05, 0.95))
            ev = eval_schedule(LINEAR, t)
            xT = sample_condition(TASK_2D, 1, gen)[0]
            mu_c = TASK_2D.mean0 + gain @ (xT - TASK_2D.meanT)
            x_t = ev.alpha * mu_c + ev.beta * xT + 0.3 * gen.standard_normal(2)
            x_hat0 = denoise(AnalyticDenoiser(TASK_2D, LINEAR), x_t, xT, t)
            got = score_from_denoiser(LINEAR, x_hat0, x_t, xT, t)
            cov_t = ev.alpha**2 * cov_c + ev.gamma**2 * np.eye(2)
            want = np.linalg.solve(cov_t, ev.alpha * mu_c + ev.beta * xT - x_t)
            worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.perf_counter() - start
        passed = worst <= 1e-8 and elapsed <= 1.0
        _report(
            "criterion 3 (score identity)",
            passed,
            f"1e3 probes: max |score dev| {worst:.2e} (<= 1e-8), {elapsed:.2f}s (<= 1)",
        )

    def test_criterion_4_variant_consistency_slopes(self):
        """Pairwise variant differences shrink at second order in dt."""
        t, eta, n_probes, d = 0.5, 0.3, 32, 2
        dts = [0.04, 0.02, 0.01, 0.005]
        gen = _rng.stream(0, _rng.TAG_PROBE)
        x_hat0 = gen.standard_normal((n_probes, d))
        anchor = gen.standard_normal((n_probes, d))
        zh = gen.standard_normal((n_probes, d))
        ev = eval_schedule(LINEAR, t)
        x_t = ev.alpha * x_hat0 + ev.beta * anchor + ev.gamma * zh
        policy = EpsilonPolicy(kind="eta_scaled", eta=eta, tail_zero_steps=0)

        def variant_step(name, dt, eps):
            return apply_step(step_coefficients(name, LINEAR, t, dt, eps), x_hat0, anchor, x_t)

        slopes = {}
        for pair in (("euler_z", "gamma_simplified"), ("gamma_simplified", "dbim")):
            diffs = []
            for dt in dts:
                eps = epsilon(policy, LINEAR, t, dt)
                out_a = variant_step(pair[0], dt, eps)
                out_b = variant_step(pair[1], dt, eps)
                diffs.append(float(np.mean(np.linalg.norm(out_a - out_b, axis=1))))
            slopes["|".join(pair)] = convergence_slope(dts, diffs)
        passed = all(1.8 <= s <= 2.2 for s in slopes.values())
        detail = ", ".join(f"{k} slope {v:.3f}" for k, v in slopes.items())
        _report(
            "criterion 4 (discretization consistency)",
            passed,
            f"dt in {{0.04,0.02,0.01,0.005}}: {detail} (each in [1.8, 2.2])",
        )

    def test_criterion_5_reformulations_and_markovian_match(self):
        """Named-family drift rewrites and the matched-eps equivalence hold."""
        t_grid = np.linspace(0.1, 0.9, 25)
        devs = {fam: verify_reformulation(Schedule(kind=kind), t_grid)
                for fam, kind in (("ve", "ddbm_ve"), ("vp", "ddbm_vp"), ("edm", "edm"))}
        worst_family = max(devs.values())

        worst_step = 0.0
        policy = EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=0)
        for sched in (
            LINEAR,
            Schedule(kind="i2sb", i2sb_breakpoints=(0.0, 0.4, 1.0), i2sb_values=(0.5, 2.0)),
        ):
            rng = np.random.default_rng(0)
            for _ in range(500):
                t = float(rng.uniform(0.15, 0.9))
                dt = float(rng.uniform(0.01, min(0.1, t - 0.05)))
                x_hat0 = rng.standard_normal(2)
                xT = rng.standard_normal(2)
                zh = rng.standard_normal(2)
                ev = eval_schedule(sched, t)
                x_t = ev.alpha * x_hat0 + ev.beta * xT + ev.gamma * zh
                eps = epsilon(policy, sched, t, dt)
                a = apply_step(step_dbim(sched, t, dt, eps), x_hat0, xT, x_t, np.zeros(2))
                b = apply_step(step_markovian(sched, t, dt, eps), x_hat0, xT, x_t, np.zeros(2))
                worst_step = max(worst_step, float(np.max(np.abs(a - b))))
        passed = worst_family <= 1e-8 and worst_step <= 1e-12
        detail = ", ".join(f"{k} {v:.2e}" for k, v in devs.items())
        _report(
            "criterion 5 (reformulation checks)",
            passed,
            f"drift deviations {detail} (each <= 1e-8); matched-eps dbim vs markovian "
            f"max dev {worst_step:.2e} on 1e3 states (<= 1e-12)",
        )

    def test_criterion_6_unit_input_variance(self):
        """c_in normalizes the network input variance to exactly 1."""
        prec = Preconditioner()
        worst = 0.0
        for t in np.linspace(0.01, 1.0, 100):
            ev = eval_schedule(LINEAR, float(t))
            c_in = precondition(prec, LINEAR, float(t))[0]
            var_in = (
                ev.alpha**2 * prec.sigma0**2
                + ev.beta**2 * prec.sigmaT**2
                + 2 * ev.alpha * ev.beta * prec.sigma0T
                + ev.gamma**2
            )
            worst = max(worst, abs(c_in**2 * var_in - 1.0))
        passed = worst <= 1e-12
        _report(
            "criterion 6 (unit input variance)",
            passed,
            f"100 grid points: max |c_in^2 Var(x_t) - 1| = {worst:.2e} (<= 1e-12)",
        )

    def test_criterion_7_trained_denoiser_and_gradients(self):
        """A small trained network approaches the analytic posterior mean."""
        start = time.perf_counter()
        hyper = MlpHyper(layers=2, width=32, lr=0.03, batch=128, iters=2000, seed=0)
        den, _ = train_mlp_denoiser(TASK_1D, LINEAR, Preconditioner(), hyper)
        test_mse = mse_vs_analytic(den, TASK_1D, n_probes=2048, seed=0)
        elapsed = time.perf_counter() - start

        sizes = [3, 5, 2]
        params = mlp_init(sizes, seed=0)
        grads, spare = np.empty_like(params), np.empty_like(params)
        net, spare_net = _layers(params, sizes), _layers(spare, sizes)
        gen = np.random.default_rng(12)
        x = gen.standard_normal((4, 3))
        target = gen.standard_normal((4, 2))
        mlp_loss_and_grads(*net, x, target, *_layers(grads, sizes))
        h = 1e-5
        worst_rel = 0.0
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + h
            up = mlp_loss_and_grads(*net, x, target, *spare_net)
            params[i] = orig - h
            dn = mlp_loss_and_grads(*net, x, target, *spare_net)
            params[i] = orig
            num = (up - dn) / (2 * h)
            rel = abs(num - grads[i]) / max(abs(num) + abs(grads[i]), 1e-8)
            worst_rel = max(worst_rel, rel)
        passed = test_mse <= 5e-3 and hyper.iters <= 20_000 and elapsed <= 300.0 and worst_rel <= 1e-4
        _report(
            "criterion 7 (trained denoiser)",
            passed,
            f"{hyper.iters} iters (<= 20000), test MSE {test_mse:.2e} (<= 5e-3), "
            f"{elapsed:.0f}s (<= 300); gradient check max rel dev {worst_rel:.2e} (<= 1e-4)",
        )

    def test_criterion_8_afd_examples_and_monotonicity(self):
        """AFD hand values are exact and diversity grows with the boot level."""
        two_points = afd([np.array([[0.0, 0.0], [3.0, 4.0]])]).afd
        collapsed = afd([np.ones((4, 2))]).afd
        exact_ok = two_points == 5.0 and collapsed == 0.0

        den = AnalyticDenoiser(GMM_BIMODAL, LINEAR)
        grid = make_time_grid(12)
        conds = sample_condition(GMM_BIMODAL, 6, _rng.stream(1, _rng.TAG_TASK))
        xT_batch = np.repeat(conds, 8, axis=0)
        values = []
        for b in (0.0, 0.25, 0.5):
            cfg = SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="zero"),
                grid=grid,
                variant="gamma_simplified",
                boot_b=b,
                seed=1,
            )
            result = sample(cfg, den, xT_batch, threads=2)
            groups = [result.x0_batch[i * 8 : (i + 1) * 8] for i in range(6)]
            values.append(afd(groups).afd)
        monotone = values[0] < values[1] < values[2]
        passed = exact_ok and monotone
        _report(
            "criterion 8 (feature diversity)",
            passed,
            f"hand values exact ({two_points} == 5, {collapsed} == 0); afd over "
            f"b in {{0,0.25,0.5}} = {values[0]:.3f} < {values[1]:.3f} < {values[2]:.3f}",
        )

    def test_criterion_9_artifacts_are_reproducible(self, tmp_path):
        """Every command writes byte-identical artifacts across runs and threads."""
        schedule = {"kind": "linear", "gamma_max": 0.125}
        task = {
            "kind": "joint_gaussian",
            "mean0": [0.35], "meanT": [0.5],
            "cov00": [[0.29]], "covTT": [[1.0]], "cov0T": [[0.5]],
        }
        configs = {
            "verify-schedule": {"schedule": schedule, "grid": {"n_steps": 16}},
            "simulate-forward": {
                "schedule": schedule,
                "grid": {"n_steps": 40, "t_min": 0.02, "t_max": 0.5, "rho": 1.0},
                "forward": {"x0": [0.0], "xT": [1.0], "n_paths": 5000, "record": True},
            },
            "sample": {
                "schedule": schedule,
                "grid": {"n_steps": 12},
                "eps_policy": {"kind": "eta_scaled", "eta": 0.3},
                "task": task,
                "denoiser": {"kind": "analytic"},
                "sampler": {"variant": "euler_z", "boot_b": 0.25},
                "sample": {"n_conditions": 200, "n_replicates": 2},
            },
            "train-denoiser": {
                "schedule": schedule,
                "task": task,
                "train": {"layers": 1, "width": 8, "lr": 0.03, "batch": 32, "iters": 50},
            },
            "afd-study": {
                "schedule": schedule,
                "grid": {"n_steps": 8},
                "eps_policy": {"kind": "zero"},
                "task": task,
                "denoiser": {"kind": "analytic"},
                "sampler": {},
                "afd": {"boot_values": [0.0, 0.5], "n_conditions": 4, "n_replicates": 4},
            },
            "convergence-study": {
                "schedule": schedule,
                "convergence": {"dts": [0.04, 0.02, 0.01, 0.005]},
            },
            "reformulation-check": {"reformulation": {"family": "ve"}},
        }
        mismatches = []
        for command, cfg in configs.items():
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg))
            dirs = {}
            for label, threads in (("a", 1), ("b", 1), ("c", 4)):
                out = tmp_path / f"{command}-{label}"
                code = cli_main([
                    command, "--config", str(cfg_path), "--out", str(out),
                    "--seed", "7", "--threads", str(threads),
                ])
                if code != 0:
                    mismatches.append(f"{command}: exit {code}")
                dirs[label] = out
            names = sorted(os.listdir(dirs["a"]))
            for label in ("b", "c"):
                if sorted(os.listdir(dirs[label])) != names:
                    mismatches.append(f"{command}: artifact sets differ for run {label}")
            for name in names:
                if name == "manifest.json":
                    continue
                ref = (dirs["a"] / name).read_bytes()
                for label in ("b", "c"):
                    if (dirs[label] / name).read_bytes() != ref:
                        mismatches.append(f"{command}/{name}: run {label} differs")
        passed = not mismatches
        _report(
            "criterion 9 (bit-reproducible artifacts)",
            passed,
            "all 7 commands byte-identical across repeat runs and threads in {1,4} "
            "(manifest wall time excluded)" if passed else "; ".join(mismatches),
        )
