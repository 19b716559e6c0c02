"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The sweep criterion
generates configurations up to N ~ 1.2e5; the module takes about 20 s on a
2-core machine, 12 s of it in the sweep.
"""

import numpy as np
import pytest

from spheregrid import (
    area_coords,
    base_polyhedron,
    evaluate,
    expected_cardinality,
    generate,
    mesh_ratio,
    point_from_area_coords,
    separation,
    spherical_triangle_area,
)
from spheregrid.cli import run_sweep
from oracle import brute_separation, sampled_covering
from util import BASES, random_config, random_interior_coords, random_sequence, random_triangle

# Figure-caption reference values: sequence text, pairs, N, mesh ratio.
PAPER_CASES = [
    ("5,0", [(5, 0)], 252, 0.653),
    ("27,0", [(27, 0)], 7292, 0.664),
    ("1,1;16,0", [(1, 1), (16, 0)], 7682, 0.644),
    ("1,1;(2,0)^4", [(1, 1)] + [(2, 0)] * 4, 7682, 0.639),
    ("1,1;(4,0)^2", [(1, 1)] + [(4, 0)] * 2, 7682, 0.630),
    ("1,1;15,2", [(1, 1), (15, 2)], 7772, 0.643),
]

GAMMA_TOL = 0.002
GAMMA_FLOOR = 0.618
FLOOR_MIN_N = 100

# Probe-resolution constant for the covering sandwich: the worst calibrated
# gap on the analytic polyhedra is 0.377/sqrt(probes) (tetrahedron); frozen
# here with a 2x margin.
SANDWICH_C = 0.8
SANDWICH_PROBES = 250_000


def report(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def paper_reports():
    out = {}
    for seq, pairs, _, _ in PAPER_CASES:
        cfg = generate("icosahedron", pairs)
        out[seq] = (cfg, evaluate(cfg, seq=seq))
    return out


def test_criterion_1_cardinalities(paper_reports):
    for seq, _, n_expected, _ in PAPER_CASES:
        cfg, _ = paper_reports[seq]
        report(
            cfg.n == n_expected,
            f"criterion 1: N({seq}) = {cfg.n} == {n_expected}",
        )


def test_criterion_2_mesh_ratios(paper_reports):
    for seq, _, _, gamma_expected in PAPER_CASES:
        _, rep = paper_reports[seq]
        report(
            abs(rep.mesh_ratio - gamma_expected) <= GAMMA_TOL,
            f"criterion 2: gamma({seq}) = {rep.mesh_ratio:.6f} "
            f"within {GAMMA_TOL} of {gamma_expected}",
        )


def test_criterion_3_known_caption_inconsistency():
    cfg = generate("icosahedron", [(1, 1), (3, 0)])
    rep = evaluate(cfg, seq="1,1;3,0")
    # The figure reports N=252 for this sequence, which the closed form
    # contradicts; 272 is the count the formula (and this artifact) produces.
    report(cfg.n == 272, f"criterion 3: N(1,1;3,0) = {cfg.n} == 272 (not 252)")
    agrees = abs(rep.mesh_ratio - 0.631) <= 0.01
    print(
        f"[INFO] criterion 3: gamma(1,1;3,0) = {rep.mesh_ratio:.6f} "
        f"{'agrees with' if agrees else 'differs from'} the reported 0.631 "
        "(informational, not gating)"
    )


@pytest.fixture(scope="module")
def sweep_tables():
    fam1 = run_sweep("icosa", "l,0", 1, 105, n_cap=10**5)
    fam2 = run_sweep("icosa", "1,1;l,0", 1, 60, n_cap=10**5)
    fam3 = run_sweep("icosa", "1,1;(4,0)^l", 1, 6, n_cap=10**6)
    return fam1, fam2, fam3


def test_criterion_4_sweep_trends(sweep_tables):
    fam1, fam2, fam3 = sweep_tables
    assert [int(r["N"]) for r in fam1] == [10 * l * l + 2 for l in range(1, 100)]
    assert [int(r["N"]) for r in fam2] == [30 * l * l + 2 for l in range(1, 58)]
    assert [int(r["N"]) for r in fam3] == [482, 7682, 122882]

    # (a) the asymptotic floor holds for every row of at least 100 points
    floor_ok = True
    for rows in (fam1, fam2, fam3):
        for r in rows:
            if int(r["N"]) >= FLOOR_MIN_N and float(r["mesh_ratio"]) <= GAMMA_FLOOR:
                floor_ok = False
    small = [
        f"N={r['N']} gamma={float(r['mesh_ratio']):.4f}"
        for rows in (fam1, fam2, fam3)
        for r in rows
        if int(r["N"]) < FLOOR_MIN_N
    ]
    print(f"[INFO] criterion 4a: rows below N={FLOOR_MIN_N} (not gated): {small}")
    report(
        floor_ok,
        f"criterion 4a: every sweep row with N >= {FLOOR_MIN_N} "
        f"has mesh ratio > {GAMMA_FLOOR}",
    )

    # (b) the recursive (4,0) family stays bounded
    worst = max(float(r["mesh_ratio"]) for r in fam3)
    report(
        worst <= 0.631,
        f"criterion 4b: family 1,1;(4,0)^l bounded: max gamma = {worst:.6f} <= 0.631",
    )

    # (c) 1,1;l,0 beats l,0 at matched N (fam1 mesh ratio interpolated in N)
    n1 = np.array([int(r["N"]) for r in fam1], dtype=float)
    g1 = np.array([float(r["mesh_ratio"]) for r in fam1])
    beats = True
    for r in fam2:
        n = int(r["N"])
        if not n1[0] <= n <= n1[-1]:
            continue
        interp = float(np.interp(n, n1, g1))
        if float(r["mesh_ratio"]) >= interp:
            beats = False
    report(
        beats,
        "criterion 4c: 1,1;l,0 has lower mesh ratio than l,0 at every matched N",
    )


def test_criterion_5_separation_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(50):
        cfg = random_config(rng, n_max=2000)
        assert separation(cfg) == brute_separation(cfg.points), cfg.pairs
    report(True, "criterion 5: separation == brute force on 50 random configs")


def test_criterion_5_covering_sandwich():
    rng = np.random.default_rng(102)
    bound = SANDWICH_C / np.sqrt(SANDWICH_PROBES)
    for _ in range(20):
        cfg = random_config(rng, n_max=1000)
        exact = evaluate(cfg).covering
        sampled = sampled_covering(cfg.points, probes=SANDWICH_PROBES)
        assert sampled <= exact + 1e-12, cfg.pairs
        assert exact - sampled <= bound, (cfg.pairs, exact - sampled)
    report(
        True,
        "criterion 5: sampled <= covering <= sampled "
        f"+ {SANDWICH_C}/sqrt(probes) on 20 random configs",
    )


def test_criterion_5_solver_round_trip_residuals():
    rng = np.random.default_rng(103)
    m = 10_000
    v0 = np.empty((m, 3))
    va = np.empty((m, 3))
    vb = np.empty((m, 3))
    la = np.empty(m)
    lb = np.empty(m)
    for k in range(m):
        v0[k], va[k], vb[k] = random_triangle(rng)
        la[k], lb[k] = random_interior_coords(rng)
    p = point_from_area_coords(v0, va, vb, la, lb)
    ga, gb = area_coords(v0, va, vb, p)
    worst = max(np.abs(ga - la).max(), np.abs(gb - lb).max())
    report(
        worst < 1e-12,
        f"criterion 5: round-trip residual {worst:.3e} < 1e-12 on {m} instances",
    )


def test_criterion_5_cardinality_law():
    rng = np.random.default_rng(104)
    checked = 0
    per_base = dict.fromkeys(BASES, 0)
    while checked < 200:
        base = BASES[rng.integers(0, 3)]
        pairs = random_sequence(rng, max_k=3, max_m=6)
        expected = expected_cardinality(base, pairs)
        if expected > 20_000:
            continue
        assert generate(base, pairs).n == expected, (base, pairs)
        checked += 1
        per_base[base] += 1
    assert all(v > 0 for v in per_base.values())
    report(True, "criterion 5: cardinality law exact on 200 random sequences")


def test_criterion_6_analytic_fixed_points():
    tetra = base_polyhedron("tetrahedron")
    gamma = mesh_ratio(tetra.vertices)
    report(
        abs(gamma - 1 / np.sqrt(2)) <= 1e-9,
        f"criterion 6: tetrahedron mesh ratio {gamma:.12f} == 1/sqrt(2) +- 1e-9",
    )

    octant = (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
    p = point_from_area_coords(*octant, 1 / 3, 1 / 3)
    err = np.linalg.norm(p - np.ones(3) / np.sqrt(3))
    report(
        err <= 1e-9,
        f"criterion 6: octant equal-areas point off axis by {err:.2e} <= 1e-9",
    )

    mesh = base_polyhedron("icosahedron")
    v, f = mesh.vertices, mesh.faces
    total = spherical_triangle_area(v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]).sum()
    report(
        abs(total - 4 * np.pi) <= 1e-10,
        f"criterion 6: icosahedron face areas sum to 4*pi within {abs(total - 4 * np.pi):.2e}",
    )
