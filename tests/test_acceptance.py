"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a PASS/FAIL line through the conftest hook so a plain
pytest run shows one line per criterion.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oneshot import (
    BoundParams,
    EnsembleSpec,
    InfoVector,
    Joint,
    RateTriple,
    SchemeSizes,
    conditional_covering_bound,
    exact_conditional_miss_prob,
    exact_miss_prob,
    exact_miss_prob_bruteforce,
    exact_packing_prob,
    fme_project,
    cond_info_density,
    info_density,
    marginal,
    mc_miss_prob,
    mc_resolvability_excess,
    merge_axes,
    mutual_covering_bound,
    region_contains,
    resolvability_covering_bound,
    resolvability_excess_bound,
    resolvability_excess_exact,
    simple_covering_bound,
    simulate,
)
from oneshot.broadcast import BroadcastSystem, event_probabilities, mc_event_union
from oneshot.regions import info_vector, projection_contains

from conftest import random_event, random_joint

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

GAMMAS = (0.5, 1.0, 2.0)


def _covering_instances(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        joint = random_joint(rng, shape, allow_zero=True)
        event = random_event(rng, shape)
        M = int(rng.integers(1, 5))
        L = int(rng.integers(1, 5))
        yield joint, event, M, L


def test_c01_bound_validity_covering():
    """Exact miss probability never exceeds any clamped covering bound
    (splitting form with both delta choices, simplified form, and the
    resolvability-derived form) on 200 random instances."""
    start = time.monotonic()
    violations = 0
    checked = 0
    for joint, event, M, L in _covering_instances(200, seed=101):
        exact = exact_miss_prob(EnsembleSpec(joint, event, M, L))
        for gamma in GAMMAS:
            deltas = ("auto", M * L * (math.exp(-gamma) - math.exp(-2 * gamma)))
            reports = [
                mutual_covering_bound(joint, event, BoundParams(M, L, gamma, d))
                for d in deltas
            ]
            reports.append(
                mutual_covering_bound(joint, event,
                                      BoundParams(M, L, gamma, "auto", union_form=True))
            )
            reports.append(simple_covering_bound(joint, event, M, L, gamma))
            reports.append(simple_covering_bound(joint, event, M, L, gamma, union_form=True))
            reports.append(resolvability_covering_bound(joint, event, M, L, gamma))
            for rep in reports:
                checked += 1
                if exact > rep.clamped_value + 1e-12:
                    violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0, f"{violations} of {checked} bound evaluations violated"
    assert elapsed < 60.0, f"validity suite took {elapsed:.1f}s"


def test_c02_conditional_bound_validity():
    """Exact conditional miss probability never exceeds the clamped
    conditional covering bound on 50 random three-alphabet instances."""
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(50):
        joint = random_joint(rng, (2, 2, 2), allow_zero=True)
        event = random_event(rng, (2, 2, 2))
        M = int(rng.integers(1, 5))
        L = int(rng.integers(1, 5))
        exact = exact_conditional_miss_prob(joint, event, M, L)
        for gamma in GAMMAS:
            rep = conditional_covering_bound(joint, event, M, L, gamma)
            if exact > rep.clamped_value + 1e-12:
                violations += 1
    assert violations == 0


def test_c03_algebraic_identities():
    """The simplified bound equals the splitting bound at the substituted
    delta termwise; a unit codebook kills the ratio term exactly; the
    density chain rule holds at every support point."""
    rng = np.random.default_rng(303)
    for _ in range(30):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        joint = random_joint(rng, shape, allow_zero=True)
        event = random_event(rng, shape)
        M, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.2, 2.5))
        delta = M * L * (math.exp(-gamma) - math.exp(-2 * gamma))
        a = mutual_covering_bound(joint, event, BoundParams(M, L, gamma, delta))
        b = simple_covering_bound(joint, event, M, L, gamma)
        for (_, va), (_, vb) in zip(a.terms, b.terms):
            assert abs(va - vb) <= 1e-12

    for _ in range(10):
        joint = random_joint(rng, (3, 2))
        event = random_event(rng, (3, 2))
        L = int(rng.integers(1, 6))
        gamma = float(rng.uniform(0.2, 2.5))
        rep = mutual_covering_bound(joint, event, BoundParams(1, L, gamma, "auto"))
        assert rep.term("ratio") == 0.0
        rep = mutual_covering_bound(joint, event, BoundParams(L, 1, gamma, "auto"))
        assert rep.term("ratio") == 0.0

    for _ in range(20):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        j3 = random_joint(rng, shape, allow_zero=True)
        merged = merge_axes(j3, ((0, 1), (2,)))
        j_uy = marginal(j3, (0, 2))
        arr = j3.probs
        ks = shape[1]
        for u in range(shape[0]):
            for s in range(shape[1]):
                for y in range(shape[2]):
                    if arr[u, s, y] == 0:
                        continue
                    lhs = info_density(merged, u * ks + s, y)
                    rhs = info_density(j_uy, u, y) + cond_info_density(j3, s, y, u)
                    assert abs(lhs - rhs) <= 1e-12


def test_c04_splitting_inequality_fuzz():
    """(1 - p a / M)^M <= 1 - p + e^{-a} whenever p a / M <= 1, over 10^4
    random parameter draws."""
    rng = np.random.default_rng(404)
    count = 0
    while count < 10_000:
        p = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(1e-9, 20.0))
        M = int(rng.integers(1, 51))
        if p * alpha / M > 1.0:
            continue
        count += 1
        lhs = (1.0 - p * alpha / M) ** M
        rhs = 1.0 - p + math.exp(-alpha)
        assert lhs <= rhs + 1e-12, f"violated at p={p}, alpha={alpha}, M={M}"


def test_c05_packing_validity():
    """The exact packing tail never exceeds exp(-gamma); the noiseless
    two-symbol hand case returns exactly one half."""
    noiseless = Joint([[0.5, 0.0], [0.0, 0.5]])
    assert exact_packing_prob(noiseless, 1, 1, 0.1) == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(505)
    for _ in range(100):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        joint = random_joint(rng, shape, allow_zero=True)
        M, N = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.1, 3.0))
        assert exact_packing_prob(joint, M, N, gamma) <= math.exp(-gamma) + 1e-12


def test_c06_resolvability_validity_and_mc():
    """The exact excess-information probability never exceeds its bound for
    thresholds above two, and the Monte Carlo estimator lands within four
    standard errors of the exact value on ten spot instances."""
    rng = np.random.default_rng(606)
    instances = []
    for _ in range(100):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        joint = random_joint(rng, shape, allow_zero=True)
        M = int(rng.integers(1, 6))
        instances.append((joint, M))
        for lam in (2.1, 3.0, 10.0):
            exact = resolvability_excess_exact(joint, M, lam)
            assert exact <= resolvability_excess_bound(joint, M, lam).raw_value + 1e-12
    for i, (joint, M) in enumerate(instances[:10]):
        lam = float(rng.uniform(1.05, 2.5))
        exact = resolvability_excess_exact(joint, M, lam)
        est = mc_resolvability_excess(joint, M, lam, trials=100_000, seed=6000 + i)
        assert abs(est.mean - exact) <= 4 * max(est.stderr, 1e-12)


def test_c07_oracle_crosschecks():
    """Multiset enumeration equals raw codebook enumeration wherever both
    are feasible; Monte Carlo lands within four standard errors of exact on
    at least 95 of 100 instances."""
    rng = np.random.default_rng(707)
    for _ in range(40):
        k = int(rng.integers(2, 4))
        shape = (k, int(rng.integers(2, 4)))
        joint = random_joint(rng, shape, allow_zero=True)
        event = random_event(rng, shape)
        M = int(rng.integers(1, 7))
        L = int(rng.integers(1, 5))
        assert k**M <= 10**5
        spec = EnsembleSpec(joint, event, M, L)
        assert exact_miss_prob(spec) == pytest.approx(
            exact_miss_prob_bruteforce(spec), abs=1e-12
        )

    within = 0
    for i, (joint, event, M, L) in enumerate(_covering_instances(100, seed=708)):
        spec = EnsembleSpec(joint, event, M, L)
        exact = exact_miss_prob(spec)
        est = mc_miss_prob(spec, trials=4096, seed=7000 + i)
        if abs(est.mean - exact) <= 4 * max(est.stderr, 1e-12):
            within += 1
    assert within >= 95, f"only {within} of 100 MC estimates within four standard errors"


@pytest.mark.parametrize("sizes_text", ["1,1,1,1,1,2,2", "2,2,2,2,2,2,2"])
def test_c08_broadcast_end_to_end(sizes_text):
    """For the shipped binary system, the worse of the two simulated error
    rates stays within the clamped bound plus four standard errors, and the
    exact five-event union matches direct Monte Carlo of the union."""
    start = time.monotonic()
    with open(CONFIGS / "broadcast_binary.json") as fh:
        system = BroadcastSystem.from_json(json.load(fh))
    sizes = SchemeSizes.from_string(sizes_text)
    gamma = 1.0
    out = simulate(system, sizes, gamma, trials=10_000, seed=808)
    worst = max(out.eps1_hat.mean, out.eps2_hat.mean)
    stderr = max(out.eps1_hat.stderr, out.eps2_hat.stderr)
    assert worst <= out.bound.clamped_value + 4 * stderr + 1e-12

    union = event_probabilities(system, sizes, gamma)
    est = mc_event_union(system, sizes, gamma, trials=10_000, seed=809)
    assert abs(est.mean - union) <= 4 * est.stderr + 1e-12
    assert time.monotonic() - start < 300.0


def test_c09_region_checks():
    """Degenerate-auxiliary membership reduces to the sum-rate closed form;
    the projection agrees with direct feasibility on a thousand random
    triples per design; membership is convex and monotone."""
    rng = np.random.default_rng(909)
    # closed form under degenerate auxiliaries
    for _ in range(5):
        i1, i2 = rng.uniform(0.1, 1.0, 2)
        iv = InfoVector(i1, i2, 0.0, 0.0, 0.0)
        for _ in range(50):
            r = RateTriple(*rng.uniform(0, 0.8, 3))
            assert region_contains(iv, r) == (r.R0 + r.R1 + r.R2 <= min(i1, i2) + 1e-9)

    # projection vs direct feasibility, on the shipped design and random ones
    with open(CONFIGS / "region_binary.json") as fh:
        system = BroadcastSystem.from_json(json.load(fh))
    shipped_iv = info_vector(system.joint_ust, system.x_map, system.channel)
    vectors = [shipped_iv]
    for _ in range(2):
        i1, i2 = rng.uniform(0.3, 1.2, 2)
        j1, j2 = rng.uniform(0.0, i1), rng.uniform(0.0, i2)
        vectors.append(InfoVector(i1, i2, j1, j2, rng.uniform(0.0, j1 + j2)))
    for iv in vectors:
        proj = fme_project(iv)
        for _ in range(1000):
            r = RateTriple(*rng.uniform(0, 1.2, 3))
            assert projection_contains(proj, r) == region_contains(iv, r)

    # convexity and monotonicity probes
    for _ in range(10):
        i1, i2 = rng.uniform(0.2, 1.2, 2)
        j1, j2 = rng.uniform(0.0, i1), rng.uniform(0.0, i2)
        iv = InfoVector(i1, i2, j1, j2, rng.uniform(0.0, 0.6))
        members = []
        for _ in range(60):
            r = RateTriple(*rng.uniform(0, 0.9, 3))
            if region_contains(iv, r):
                members.append(r)
        for r in members[:10]:
            shrink = RateTriple(0.6 * r.R0, 0.8 * r.R1, 0.3 * r.R2)
            assert region_contains(iv, shrink)
        for a, b in zip(members[:5], members[5:10]):
            mid = RateTriple(0.5 * (a.R0 + b.R0), 0.5 * (a.R1 + b.R1), 0.5 * (a.R2 + b.R2))
            assert region_contains(iv, mid)


def _run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "oneshot", *args],
        capture_output=True, text=True, cwd=ROOT,
    )


def test_c10_reproducibility():
    """Any verification or simulation command rerun with the same seed gives
    byte-identical output with one worker thread and with eight."""
    verify_args = (
        "verify", "covering",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--event", str(CONFIGS / "event_diag.json"),
        "--M", "3", "--L", "2", "--gamma", "1", "--trials", "20000", "--seed", "31337",
    )
    sim_args = (
        "simulate", "--config", str(CONFIGS / "broadcast_binary.json"),
        "--sizes", "2,2,2,2,2,2,2", "--gamma", "1", "--trials", "5000", "--seed", "424242",
    )
    for args in (verify_args, sim_args):
        runs = [
            _run_cli(*args, "--threads", "1"),
            _run_cli(*args, "--threads", "1"),
            _run_cli(*args, "--threads", "8"),
        ]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout
        assert runs[0].stdout.strip()


def test_c11_bounds_below_one_at_large_sizes():
    """Checks with teeth: at M, L, N in 100..1000 the clamped covering4 and
    covering7 bounds and the packing bound are below 1, and the exact
    values (covered-set DP) stay under them.  Smallest slack seen: 0.0155
    over 480 covering checks, 0.135 over 180 packing checks; the packing
    instances carry a rare pair of mass 1e-7..1e-5 whose density can reach
    ln(MN) + gamma, so 122 of their exact values are positive."""
    rng = np.random.default_rng(1111)
    covering = []
    for _ in range(60):
        ku, kv = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = rng.dirichlet(np.full(ku * kv, 0.3)).reshape(ku, kv)
        joint = Joint(p)
        with np.errstate(divide="ignore"):
            dens = np.log(p) - np.log(np.outer(p.sum(axis=1), p.sum(axis=0)))
        event = dens > np.quantile(dens[p > 0], rng.uniform(0.2, 0.6))
        M, L = int(rng.integers(100, 1001)), int(rng.integers(100, 1001))
        exact = exact_miss_prob(EnsembleSpec(joint, event, M, L))
        for gamma in (1.5, 2.5, 3.5, 4.5):
            for rep in (simple_covering_bound(joint, event, M, L, gamma),
                        resolvability_covering_bound(joint, event, M, L, gamma)):
                if rep.clamped_value < 1.0:
                    covering.append(rep.clamped_value - exact)
    assert len(covering) >= 400
    assert min(covering) >= 0.0
    packing = []
    for _ in range(60):
        k, eps = int(rng.integers(2, 4)), 10 ** rng.uniform(-7, -5)
        p = np.zeros((k + 1, k + 1))
        p[:k, :k] = rng.dirichlet(np.ones(k * k)).reshape(k, k) * (1.0 - eps)
        p[k, k] = eps
        M, N = int(rng.integers(100, 1001)), int(rng.integers(100, 1001))
        for gamma in (0.5, 1.0, 2.0):
            exact = exact_packing_prob(Joint(p), M, N, gamma)
            packing.append((math.exp(-gamma) - exact, exact))
    assert sum(exact > 0.0 for _, exact in packing) >= 100
    assert min(slack for slack, _ in packing) >= 0.0
