"""Shared fixtures: random instance generators and reference systems."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oneshot import BroadcastSystem, Joint, Kernel
from oneshot.broadcast import product_extend_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
        print(f"\n[acceptance] {name}: {outcome}", flush=True)


def random_joint(rng: np.random.Generator, shape, allow_zero: bool = False) -> Joint:
    p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    if allow_zero and rng.random() < 0.3:
        idx = tuple(rng.integers(s) for s in shape)
        p[idx] = 0.0
        p /= p.sum()
    return Joint(p)


def sparse_law(rng: np.random.Generator, shape) -> np.ndarray:
    """A random law over ``shape`` with zero cells, and sometimes a zero row or column."""
    p = rng.dirichlet(np.full(int(np.prod(shape)), rng.uniform(0.2, 2.0))).reshape(shape)
    p[rng.random(shape) < 0.25] = 0.0
    if rng.random() < 0.4 and shape[0] > 1:
        p[rng.integers(shape[0])] = 0.0
    if rng.random() < 0.4 and shape[1] > 1:
        p[:, rng.integers(shape[1])] = 0.0
    if p.sum() == 0.0:
        p.flat[-1] = 1.0
    return p / p.sum()


def random_design(rng: np.random.Generator) -> BroadcastSystem:
    """A random broadcast design over alphabets of 1 to 3 symbols, with a
    sparse auxiliary law and zero entries in the channel rows."""
    ku, ks, kt, kx, ky1, ky2 = rng.integers(1, 4, 6)
    rows = rng.dirichlet(np.ones(ky1 * ky2), size=kx)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    return BroadcastSystem(Joint(sparse_law(rng, (ku, ks, kt))),
                           rng.integers(0, kx, size=(ku, ks, kt)),
                           Kernel(rows.reshape(kx, ky1, ky2)))


def random_event(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.random(shape) < rng.uniform(0.2, 0.8)


def dense_minimum(evaluate, breakpoints, lo: float, hi: float) -> float:
    """Least raw value of ``evaluate`` over a dense set of gammas in ``[lo, hi]``:
    every breakpoint, the double below it, both ends and a 4096-point grid."""
    inside = [b for b in breakpoints if lo < b <= hi]
    gammas = {lo, hi, *np.geomspace(lo, hi, 4096).tolist(), *inside,
              *(math.nextafter(b, 0.0) for b in inside)}
    return min(evaluate(g).raw_value for g in gammas if lo <= g <= hi)


def binary_broadcast_system() -> BroadcastSystem:
    """Binary system: x = u xor s xor t through a BSC(0.1) x BSC(0.2) pair."""
    p_ust = [[[0.15, 0.05], [0.05, 0.20]], [[0.10, 0.08], [0.07, 0.30]]]
    x_map = np.zeros((2, 2, 2), dtype=int)
    for u in range(2):
        for s in range(2):
            for t in range(2):
                x_map[u, s, t] = u ^ s ^ t
    rows = np.zeros((2, 2, 2))
    for x in range(2):
        for y1 in range(2):
            for y2 in range(2):
                rows[x, y1, y2] = (0.9 if y1 == x else 0.1) * (0.8 if y2 == x else 0.2)
    return BroadcastSystem(Joint(p_ust), x_map, Kernel(rows))


def asym_broadcast_system() -> BroadcastSystem:
    """S and T drive separate components with symbol-dependent noise, so the
    encoder's objective varies across codeword triples."""
    p_ust = [[[0.28, 0.07], [0.05, 0.20]], [[0.12, 0.08], [0.06, 0.14]]]
    x_map = np.zeros((2, 2, 2), dtype=int)
    for u in range(2):
        for s in range(2):
            for t in range(2):
                x_map[u, s, t] = 2 * s + t
    rows = np.zeros((4, 2, 2))
    for x in range(4):
        s, t = x // 2, x % 2
        f1 = 0.05 if s == 0 else 0.25
        f2 = 0.10 if t == 0 else 0.30
        for y1 in range(2):
            for y2 in range(2):
                rows[x, y1, y2] = ((1 - f1) if y1 == s else f1) * ((1 - f2) if y2 == t else f2)
    return BroadcastSystem(Joint(p_ust), x_map, Kernel(rows))


def noiseless_broadcast_system() -> BroadcastSystem:
    """``configs/broadcast_inside.json``: x = 4u + 2s + t, and receiver 1 sees
    (u, s), receiver 2 sees (u, t) exactly.  The design lies inside its own
    region."""
    return BroadcastSystem.from_json(json.loads((CONFIGS / "broadcast_inside.json").read_text()))


def blackwell_broadcast_system() -> BroadcastSystem:
    """``configs/broadcast_blackwell.json``: the Blackwell channel, x in {0, 1,
    2} with y1 = [x = 2] and y2 = [x >= 1], a constant cloud, s = y1 and
    t = y2, uniform on the pairs 00, 01 and 11 (x is the pair's index; the
    massless pair 10 sends x = 0)."""
    return BroadcastSystem.from_json(json.loads((CONFIGS / "broadcast_blackwell.json").read_text()))


@pytest.fixture(scope="session")
def binary_system():
    return binary_broadcast_system()


@pytest.fixture(scope="session")
def asym_ext_system():
    return product_extend_system(asym_broadcast_system(), 3)


@pytest.fixture(scope="session")
def noiseless_system():
    return noiseless_broadcast_system()
