"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These are the binding end-to-end checks for the package: exhaustive theorem
scans, conjecture consistency runs, equality reproductions, oracle
equivalences, certificate verification, the peeling chain, spectral
numerics, and the randomized assignment regime.
"""

import json
import math
from pathlib import Path

import lapsum as L
from lapsum.decomposition import build_assignment_aux
from lapsum.graphs import GraphSource
from lapsum.harness import KRange, scan

from conftest import sampled_graphs, small_graphs
import oracles as O

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"

THEOREM_BOUNDS = [
    "bai",
    "cover",
    "star-arb",
    "half-component",
    "matching-thm",
    "matching-sq",
    "weak-brouwer",
]


def report(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def dump_witnesses(name: str, rep):
    if rep.violations:
        ARTIFACTS.mkdir(exist_ok=True)
        path = ARTIFACTS / f"{name}.json"
        path.write_text(json.dumps(rep.to_json_dict(), indent=2))
        return str(path)
    return None


def test_criterion_1_exhaustive_theorem_suite():
    rep = scan(GraphSource("all-labeled", n=6), THEOREM_BOUNDS, KRange("all"))
    dump_witnesses("theorem_violations_n6", rep)
    ok = rep.violation_count == 0 and rep.graphs == 2**15 and not rep.skipped
    report(
        1,
        ok,
        f"{rep.graphs} graphs x {len(THEOREM_BOUNDS)} theorem bounds, "
        f"k=1..6: {rep.violation_count} violations "
        f"({rep.runtime_ms / 1000:.0f}s)",
    )


def test_criterion_2_brouwer_scan():
    total_viol = 0
    total_graphs = 0
    for n in range(1, 8):
        rep = scan(GraphSource("all-labeled", n=n), ["brouwer"], KRange("all"))
        dump_witnesses(f"brouwer_violations_n{n}", rep)
        total_viol += rep.violation_count
        total_graphs += rep.graphs
    for p, count, seed in ((0.1, 334, 101), (0.5, 333, 102), (0.9, 333, 103)):
        rep = scan(
            GraphSource("gnp", n=40, p=p, count=count, seed=seed),
            ["brouwer"],
            KRange("all"),
        )
        dump_witnesses(f"brouwer_violations_gnp_{p}", rep)
        total_viol += rep.violation_count
        total_graphs += rep.graphs
    ok = total_viol == 0 and total_graphs == sum(2 ** (n * (n - 1) // 2) for n in range(1, 8)) + 1000
    report(2, ok, f"Brouwer over {total_graphs} graphs: {total_viol} violations")


def test_criterion_3_equality_reproduction():
    failures = []
    # (a) matching bound: odd complete graphs at k = n-1, stars at k = 1
    for n in (3, 5, 7, 9):
        g = L.make_family(f"complete:{n}")
        aux = {"nu": L.matching_number(g)}
        res = L.evaluate_bound("matching-thm", g, n - 1, aux)
        if abs(res.slack) > 1e-6:
            failures.append(f"K_{n} k={n - 1} slack {res.slack}")
    for n in range(2, 11):
        g = L.make_family(f"star:{n}")
        aux = {"nu": L.matching_number(g)}
        res = L.evaluate_bound("matching-thm", g, 1, aux)
        if abs(res.slack) > 1e-6:
            failures.append(f"star_{n} k=1 slack {res.slack}")
    # (b) cover conjecture equality family
    for n in range(2, 10):
        for r in range(1, n + 1):
            g = L.make_family(f"split-s:{n},{r}")
            aux = {"tau": len(L.min_vertex_cover(g))}
            for k in range(r, n):
                res = L.evaluate_bound("conj-cover", g, k, aux)
                if not res.applicable or abs(res.slack) > 1e-6:
                    failures.append(f"S_({n},{r}) k={k} slack {res.slack}")
    report(
        3,
        not failures,
        "equalities on odd complete graphs, stars, and the split family"
        + ("" if not failures else f"; failures: {failures[:5]}"),
    )


def test_criterion_4_complete_bipartite_tightness():
    failures = []
    for k, n in ((3, 5), (2, 2), (4, 10)):
        g = L.make_family(f"complete-bipartite:{k},{n}")
        if L.partition_density(g).value >= k:
            failures.append(f"parden(K_{{{k},{n}}}) >= {k}")
        if g.m <= 30:  # exact star arboricity within its size cap
            sa, sfd = L.star_arboricity_exact(g)
            sfd.validate(g)
            if sa != k:
                failures.append(f"sa(K_{{{k},{n}}}) = {sa} != {k}")
    report(
        4,
        not failures,
        "sa(K_{k,n}) = k and parden(K_{k,n}) < k for (3,5), (2,2), (4,10)"
        + ("" if not failures else f"; failures: {failures}"),
    )


def test_criterion_5_oracle_equivalences():
    def check(g):
        assert L.density(g).value == O.oracle_density(g)
        assert L.partition_density(g).value == O.oracle_partition_density(g)
        assert L.matching_number(g) == O.oracle_nu(g)
        assert len(L.min_vertex_cover(g)) == O.oracle_tau(g)
        assert L.arboricity_value(g)[0] == O.oracle_arboricity(g)
        assert L.odd_set_cover(g).weight == O.oracle_odd_cover_weight(g)
        for ell in (1, 2, 3):
            assert L.nu_ell_value(g, ell) == O.oracle_nu_ell(g, ell)

    count = 0
    for g in small_graphs(5):
        check(g)
        count += 1
    for g in sampled_graphs(500, 7, seed=77):
        check(g)
        count += 1
    report(5, True, f"7 quantities match brute-force oracles on {count} graphs")


def test_criterion_6_certificates_always_verify():
    checks = 0
    for g in small_graphs(5):
        fd = L.forest_decomposition(g)
        fd.validate(g)
        assert len(fd.classes) == L.arboricity_value(g)[0]
        sa, sfd = L.star_arboricity_exact(g)
        sfd.validate(g)
        cov = L.odd_set_cover(g)
        assert cov.covers(g) and cov.is_disjoint()
        assert cov.weight == L.matching_number(g)
        for k in (1, 2):
            ori = L.k_orientation(g, k)
            if isinstance(ori, L.Orientation):
                assert ori.max_indegree() <= k
            else:
                assert ori.edges_inside > k * len(ori.subset)
        for k in (1, 2, 3):
            if L.partition_density(g).value < k:
                sd = L.structure_decomposition(g, k)
                sd.validate(g)  # raises unless |U|, |C|, I, N(I) all conform
        checks += 1
    report(6, True, f"all constructive certificates verified on {checks} graphs")


def test_criterion_7_peeling_chain():
    bad = 0
    count = 0
    for g in L.all_labeled_graphs(6):
        prof = L.eps_profile(g)
        for k in (1, 2, 3):
            h, _ = L.peel_to_low_partition_density(g, k)
            if L.partition_density(h).value >= k:
                bad += 1
                continue
            if L.eps_profile(h).value(k) < prof.value(k) - 1e-6:
                bad += 1
                continue
            for ell in (1, 2, 3):
                if L.nu_ell_value(h, ell) >= (1 + 1 / ell) * k:
                    bad += 1
                    break
            count += 1
    report(
        7,
        bad == 0,
        f"peeling keeps parden < k, cannot lower eps_k, and bounds nu_ell "
        f"({count} graph/k pairs)",
    )


def test_criterion_8_spectral_numerics():
    import random

    rng = random.Random(808)
    bad = 0
    graphs = list(sampled_graphs(500, 40, seed=88))
    from lapsum.graphs import components_info

    for g in graphs:
        vals = L.spectrum(g).values
        _, n_prime = components_info(g)
        if abs(sum(vals) - 2 * g.m) > 1e-7:
            bad += 1
        if g.n and vals[0] > n_prime + 1e-7:
            bad += 1
    for _ in range(100):
        a, b = rng.sample(graphs, 2)
        union = L.spectrum(L.disjoint_union(a, b)).values
        merged = sorted(L.spectrum(a).values + L.spectrum(b).values, reverse=True)
        if max(abs(x - y) for x, y in zip(union, merged)) > 1e-7:
            bad += 1
    report(
        8,
        bad == 0,
        "eigenvalue sum, largest-eigenvalue, and disjoint-union identities "
        "hold within 1e-7 on 500 random graphs",
    )


def test_criterion_9_assignment_regime():
    results = {}
    for k in (101, 128):
        c = math.ceil(5 * math.log(k) + 20)
        g = L.make_family(f"complete-bipartite:{k},{k + 50}")
        sd = L.structure_decomposition(g, k, parden_mode="assume")
        aux, _, _ = build_assignment_aux(g, sd, k)
        assert max(aux.degrees()) <= 5 * k * k
        successes = 0
        for seed in range(20):
            ori = L.random_k_orientation(aux, k, seed=seed)
            res, tries = L.random_kc_assignment(ori, k, c, seed=seed, max_tries=50)
            if isinstance(res, L.KCAssignment):
                res.validate(ori)
                successes += 1
        results[k] = successes
    ok = all(s >= 19 for s in results.values())
    report(
        9,
        ok,
        f"(k,c)-assignment successes out of 20 seeded orientations: {results}",
    )
