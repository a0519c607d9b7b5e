"""Acceptance suite: every release criterion at its stated tolerance.

Runs at test grid sizes (n=4, N=16) by default, targeting well under a minute;
set CONTACT_FLOW_ACCEPTANCE_FULL=1 to run the standard suite at production
sizes (n=16, N=64, drag radius 10), targeting under 15 minutes.

Each criterion prints one `ACCEPTANCE k [PASS|FAIL]` line (visible with
`pytest -s` or on failure).
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from contact_flow.contact import ContactSet, farthest_point_sample
from contact_flow.decoder import DecoderParams, decode
from contact_flow.evaluation import _chamfer, _f_score, _nearest_distances, evaluate_run
from contact_flow.guidance import (
    GuidanceConfig,
    ReferenceShape,
    _integrate,
    drag_loss,
    energy_gradient,
    guided_sample,
    make_reference,
    unguided_sample,
)
from contact_flow.harness import generate_run, load_manifest, rerun_manifest, evaluate_run_dir
from contact_flow.scenarios import build_scenario, standard_suite, suite_scenario
from contact_flow.toyflow import (
    MixtureFlowModel,
    predict_x0,
    sample_base,
)
from contact_flow.voxelcore import LatentGrid, OccupancyGrid, binarize

FULL_SCALE = os.environ.get("CONTACT_FLOW_ACCEPTANCE_FULL", "") == "1"
SUITE_N = 16 if FULL_SCALE else 4
SUITE_RUNTIME_BUDGET_S = 900.0 if FULL_SCALE else 60.0


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{status}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared suite runs (criteria 4, 5, 6 and the runtime budget)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_runs():
    """All standard-suite runs at default guidance config: per scenario and
    paired seed, a reference, guided m=3, guided m=1, and unguided run."""
    t0 = time.perf_counter()
    results = {}
    for scenario in standard_suite(n=SUITE_N):
        cfg3 = scenario.guidance_config()
        cfg1 = dataclasses.replace(cfg3, recurrence=1)
        rows = []
        for i in range(scenario.runs):
            built = build_scenario(scenario, run_index=i)
            seeds = built.scenario.seeds
            ref = make_reference(built.model, built.decoder, cfg3, seed=seeds.reference)
            occ3, traj3 = guided_sample(
                built.model, built.decoder, built.contacts, ref, cfg3, seed=seeds.guided
            )
            occ1, traj1 = guided_sample(
                built.model, built.decoder, built.contacts, ref, cfg1, seed=seeds.guided
            )
            occ_u = unguided_sample(built.model, built.decoder, cfg3, seed=seeds.guided)
            rows.append(
                {
                    "trajectories": (traj3, traj1),
                    "final_J": (traj3.final_J, traj1.final_J),
                    "guided3": evaluate_run(occ3, built.ground_truth, built.contacts),
                    "guided1": evaluate_run(occ1, built.ground_truth, built.contacts),
                    "unguided": evaluate_run(occ_u, built.ground_truth, built.contacts),
                }
            )
        results[scenario.name] = rows
    results["_elapsed_s"] = time.perf_counter() - t0
    return results


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    rng = np.random.Generator(np.random.PCG64(1))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n, channels, k = 2, 2, 2
        dim = n**3 * channels
        params = DecoderParams.default(channels, beta=2.0)
        model = MixtureFlowModel(
            n=n,
            channels=channels,
            means=rng.standard_normal((k, dim)),
            weights=[0.5, 0.5],
            sigma=float(rng.uniform(0.2, 0.6)),
        )
        N = 4 * n
        ref_occ = OccupancyGrid(rng.random((N, N, N)))
        ref = ReferenceShape(ref_occ, binarize(ref_occ, 0.5), seed=0, timesteps=6)
        contacts = ContactSet(rng.random((3, 3)))
        cfg = GuidanceConfig(timesteps=6, stage_bounds=(2, 4), radius=1)
        t = float(rng.uniform(0.1, 1.0))
        x_flat = rng.standard_normal(dim)

        def J_of(xf):
            xg = LatentGrid(xf.reshape(model.latent_shape()))
            s = decode(predict_x0(model, xg, t), params)
            return drag_loss(s, contacts, ref, cfg)[0]

        x = LatentGrid(x_flat.reshape(model.latent_shape()))
        _, g_xt, _ = energy_gradient(model, x, t, contacts, ref, params, cfg)
        h = 1e-5
        fd = np.zeros(dim)
        for i in range(dim):
            xp, xm = x_flat.copy(), x_flat.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (J_of(xp) - J_of(xm)) / (2 * h)
        rel = np.linalg.norm(g_xt.reshape(-1) - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "chained energy gradient matches finite differences",
        worst < 1e-5 and elapsed < 60.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. posterior-mean identity
# ---------------------------------------------------------------------------


def test_criterion_2_posterior_mean_identity():
    rng = np.random.Generator(np.random.PCG64(2))
    n, channels, k = 2, 2, 3
    dim = n**3 * channels
    model = MixtureFlowModel(
        n=n,
        channels=channels,
        means=rng.standard_normal((k, dim)) * 2,
        weights=[0.3, 0.45, 0.25],
        sigma=0.35,
    )
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.01, 1.0))
        x = rng.standard_normal(dim)
        got = predict_x0(model, LatentGrid(x.reshape(model.latent_shape())), t).data.reshape(-1)
        # posterior mean computed from scratch
        s2 = (1 - t) ** 2 * model.sigma**2 + t**2
        m = (1 - t) * model.means
        log_r = np.log(model.weights) - np.sum((x - m) ** 2, axis=1) / (2 * s2)
        log_r -= log_r.max()
        r = np.exp(log_r)
        r /= r.sum()
        shrink = (1 - t) * model.sigma**2 / s2
        want = r @ (model.means + shrink * (x - m))
        worst = max(worst, float(np.abs(got - want).max()))

    # Monte-Carlo agreement in one dimension at 1e5 path samples
    mu, sigma, w = np.array([[-1.0], [1.0]]), 0.3, np.array([0.55, 0.45])
    scalar = MixtureFlowModel(n=1, channels=1, means=mu, weights=w, sigma=sigma)
    t = 0.5
    mc_rng = np.random.Generator(np.random.PCG64(7))
    comp = mc_rng.random(100_000) < w[0]
    x0 = np.where(comp, mc_rng.normal(-1, sigma, 100_000), mc_rng.normal(1, sigma, 100_000))
    x1 = mc_rng.standard_normal(100_000)
    xt = (1 - t) * x0 + t * x1
    s_t = math.sqrt((1 - t) ** 2 * sigma**2 + t**2)
    x_star = 0.2
    ball = np.abs(xt - x_star) < 0.05 * s_t
    mc = x0[ball].mean()
    se = x0[ball].std(ddof=1) / math.sqrt(ball.sum())
    closed = predict_x0(scalar, LatentGrid(np.full((1, 1, 1, 1), x_star)), t).data.ravel()[0]
    mc_ok = abs(mc - closed) < 3 * se
    _report(
        2,
        "one-step prediction equals the closed-form posterior mean",
        worst < 1e-10 and mc_ok,
        f"max abs dev {worst:.2e}; MC |dev|/SE = {abs(mc - closed) / se:.2f} on {ball.sum()} samples",
    )


# ---------------------------------------------------------------------------
# 3. unguided sampling fidelity
# ---------------------------------------------------------------------------


def test_criterion_3_unguided_sampling_fidelity():
    built = build_scenario(suite_scenario("bracket_orientation", n=4))
    model = built.model
    # 1000 draws through the Euler integrator that unguided_sample runs
    x = np.random.Generator(np.random.PCG64(42)).standard_normal((1000, model.means.shape[1]))
    finals = _integrate(model, x, steps=200)
    d = np.linalg.norm(finals[:, None, :] - model.means[None], axis=2)
    nearest = np.argmin(d, axis=1)
    within = d[np.arange(1000), nearest].max() <= 3 * model.sigma * math.sqrt(model.means.shape[1])
    freqs = np.bincount(nearest, minlength=len(model.weights)) / 1000
    dev = float(np.abs(freqs - model.weights).max())
    _report(
        3,
        "unguided landing frequencies match conditioned weights",
        within and dev < 0.05,
        f"max |freq-w| = {dev:.3f}, all samples within 3 sigma sqrt(dim)",
    )


# ---------------------------------------------------------------------------
# 4. attenuation identity + no aborts
# ---------------------------------------------------------------------------


def test_criterion_4_attenuation_identity_and_stability(suite_runs):
    checked = 0
    worst = 0.0
    for name, rows in suite_runs.items():
        if name.startswith("_"):
            continue
        for row in rows:
            for traj in row["trajectories"]:
                for rec in traj.records:
                    if rec.suppressed:
                        continue
                    err = abs(rec.lam_att * rec.grad_xt_norm - rec.grad_x0_norm)
                    worst = max(worst, err / max(1.0, rec.grad_x0_norm))
                    checked += 1
                assert math.isfinite(traj.final_J)
    # reaching this point means no run raised GenerationAborted
    _report(
        4,
        "attenuation norm identity on every recorded step; no aborts",
        worst <= 1e-9 and checked > 0,
        f"{checked} steps checked, worst rel dev {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. guidance efficacy
# ---------------------------------------------------------------------------


def test_criterion_5_guidance_efficacy(suite_runs):
    rows = suite_runs["depth_boxes"]
    guided = np.array([r["guided3"].chamfer for r in rows])
    unguided = np.array([r["unguided"].chamfer for r in rows])
    med_ok = np.median(guided) < np.median(unguided)
    diffs = unguided - guided
    wins = int((diffs > 0).sum())
    trials = int((diffs != 0).sum())
    p = stats.binomtest(wins, trials, alternative="greater").pvalue
    res_g = np.median([r["guided3"].contact_residual_median for r in rows])
    res_u = np.median([r["unguided"].contact_residual_median for r in rows])
    _report(
        5,
        "guided beats unguided on the ambiguous scenario",
        med_ok and p < 0.05 and res_g < res_u,
        f"chamfer med {np.median(guided):.4f} vs {np.median(unguided):.4f}, "
        f"sign test p={p:.2e} ({wins}/{trials} wins), "
        f"residual med {res_g:.4f} vs {res_u:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. recurrence ablation
# ---------------------------------------------------------------------------


def test_criterion_6_recurrence_ablation(suite_runs):
    J3, J1, C3, C1 = [], [], [], []
    for name, rows in suite_runs.items():
        if name.startswith("_"):
            continue
        for row in rows:
            J3.append(row["final_J"][0])
            J1.append(row["final_J"][1])
            C3.append(row["guided3"].chamfer)
            C1.append(row["guided1"].chamfer)
    j_ok = np.median(J3) <= np.median(J1)
    c_ok = np.median(C3) <= np.median(C1)
    _report(
        6,
        "recurrent guidance attains lower median energy and chamfer",
        j_ok and c_ok,
        f"final J med {np.median(J3):.3f} (m=3) vs {np.median(J1):.3f} (m=1); "
        f"chamfer med {np.median(C3):.4f} vs {np.median(C1):.4f}",
    )


# ---------------------------------------------------------------------------
# 7. zero-guidance equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_zero_guidance_equivalence():
    scenario = suite_scenario("depth_boxes", n=SUITE_N)
    built = build_scenario(scenario)
    cfg = scenario.guidance_config()
    zero = dataclasses.replace(cfg, lambda_stage=(0.0, 0.0, 0.0))
    ref = make_reference(built.model, built.decoder, cfg, seed=scenario.seeds.reference)
    identical = 0
    for seed in range(10):
        g, _ = guided_sample(built.model, built.decoder, built.contacts, ref, zero, seed)
        u = unguided_sample(built.model, built.decoder, cfg, seed)
        if np.array_equal(g.data, u.data):
            identical += 1
    _report(
        7,
        "zero-weight guided runs are bit-identical to unguided runs",
        identical == 10,
        f"{identical}/10 seeds identical",
    )


# ---------------------------------------------------------------------------
# 8. metric oracles
# ---------------------------------------------------------------------------


def test_criterion_8_metric_oracles():
    rng = np.random.Generator(np.random.PCG64(8))
    chamfer_exact = True
    f_exact = True
    for _ in range(100):
        na, nb = rng.integers(1, 501), rng.integers(1, 501)
        a = rng.random((na, 3))
        b = rng.random((nb, 3))
        # some points of a are points of b: their distances are 0.0 without a
        # query, as evaluate_run takes them for voxels on both surfaces
        k = int(rng.integers(0, min(na, nb) + 1))
        a[:k] = b[rng.choice(nb, size=k, replace=False)]
        shared = (a[:, None, :] == b[None, :, :]).all(axis=2)
        d_ab = _nearest_distances(a, b, shared.any(axis=1))
        d_ba = _nearest_distances(b, a, shared.any(axis=0))
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        want_ch = 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
        if not math.isclose(_chamfer(d_ab, d_ba), want_ch, rel_tol=0, abs_tol=0):
            chamfer_exact = False
        tau = float(rng.uniform(0.01, 0.1))
        p = (d.min(axis=1) <= tau).mean()
        r = (d.min(axis=0) <= tau).mean()
        want_f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        if _f_score(d_ab, d_ba, tau) != want_f:
            f_exact = False

    fps_exact = True
    for trial in range(25):
        m = int(rng.integers(2, 65))
        k = int(rng.integers(1, m + 1))
        pts = rng.random((m, 3))
        got = farthest_point_sample(pts, k, seed=trial)
        start = int(np.where((pts == got[0]).all(axis=1))[0][0])
        chosen = [start]
        while len(chosen) < k:
            best_i, best_d = -1, -1.0
            for i in range(m):
                dmin = min(float(np.sum((pts[i] - pts[j]) ** 2)) for j in chosen)
                if dmin > best_d:
                    best_d, best_i = dmin, i
            chosen.append(best_i)
        if not np.array_equal(got, pts[chosen]):
            fps_exact = False
    _report(
        8,
        "chamfer/f-score/FPS equal their brute-force oracles exactly",
        chamfer_exact and f_exact and fps_exact,
    )


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    scenario = suite_scenario("depth_boxes", n=SUITE_N)
    manifest = generate_run(scenario, tmp_path / "orig", mode="guided")
    report = evaluate_run_dir(tmp_path / "orig")
    again = rerun_manifest(load_manifest(tmp_path / "orig"), tmp_path / "again")
    report_again = evaluate_run_dir(tmp_path / "again")
    hashes_equal = {k: v["sha256"] for k, v in manifest["artifacts"].items()} == {
        k: v["sha256"] for k, v in again["artifacts"].items()
    }
    rows_equal = report.to_row() == report_again.to_row()
    _report(
        9,
        "re-running a manifest reproduces artifact hashes and metric rows",
        hashes_equal and rows_equal,
    )


# ---------------------------------------------------------------------------
# runtime budget
# ---------------------------------------------------------------------------


def test_suite_runtime_budget(suite_runs):
    elapsed = suite_runs["_elapsed_s"]
    print(
        f"standard suite ({SUITE_N=}) ran in {elapsed:.1f}s "
        f"(budget {SUITE_RUNTIME_BUDGET_S:.0f}s)"
    )
    assert elapsed < SUITE_RUNTIME_BUDGET_S
