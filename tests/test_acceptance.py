"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its elapsed time against the stated budget.  Run with -s to see
the lines as they complete."""

import time
from contextlib import contextmanager

from pentaseven.catalog import catalog_entry, pattern
from pentaseven.core import build_graph
from pentaseven.color import color_in_class
from pentaseven.core import verify_coloring
from pentaseven.cwd import eval_to_graph, expr_for_class_graph, width
from pentaseven.decompose import expand_thickening
from pentaseven.generate import GenParams, gen_saucer, gen_special, gen_tent, mutate
from pentaseven.oracle import (
    chromatic_number_bf,
    class_verdict,
    clique_cutset_bf,
    find_induced,
)
from pentaseven.recognize import (
    IN_CLASS_C7,
    T0_LABELS,
    BuildFailure,
    build_saucer_from_hole,
    build_tent_from_T0,
    classify_vs_C7,
    classify_vs_T0,
    recognize,
)
from pentaseven.structure import (
    SaucerPartition,
    TentPartition,
    Violation,
    verify_saucer_partition,
    verify_special_partition,
    verify_tent_partition,
    yz_outcome,
)

from conftest import expr_complete, is_clique, is_free_of, simplicial_vertices


@contextmanager
def criterion(number: int, summary: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL: {summary}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {number:2d} PASS: {summary} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_c7_attachment_exhaustive():
    with criterion(1, "7-hole attachment: exactly 23 of 128 masks admissible", 1.0):
        c7 = pattern("C7").graph
        hole = list(range(7))
        oracle_ok = []
        classifier_ok = []
        failures = 0
        for mask in range(128):
            edges = list(c7.edges()) + [(7, i) for i in range(7) if mask >> i & 1]
            g = build_graph(8, edges)
            if is_free_of(g, "P7", "C4", "C6"):
                oracle_ok.append(mask)
            got = classify_vs_C7(g, hole, 7)
            built = build_saucer_from_hole(g, hole)
            if isinstance(got, Violation):
                assert built == BuildFailure("hole-attachment", (got,))
                failures += 1
            else:
                assert isinstance(built, SaucerPartition)
                classifier_ok.append(mask)
        assert len(oracle_ok) == 23  # 1 + 7 + 7 + 7 + 1
        assert classifier_ok == oracle_ok
        assert failures == 105


def test_criterion_02_t0_attachment_exhaustive():
    with criterion(2, "T0 attachment: exactly 14 of 512 masks admissible", 10.0):
        t0 = pattern("T0")
        lab = t0.by_label
        host = {name: lab[name] for name in T0_LABELS}
        oracle_ok = []
        classifier_ok = []
        failures = 0
        for mask in range(512):
            edges = list(t0.graph.edges()) + [
                (9, lab[T0_LABELS[k]]) for k in range(9) if mask >> k & 1
            ]
            g = build_graph(10, edges)
            if is_free_of(g, "2P3", "C4", "C6"):
                oracle_ok.append(mask)
            got = classify_vs_T0(g, host, 9)
            built = build_tent_from_T0(g, host)
            if isinstance(got, Violation):
                assert built == BuildFailure("t0-attachment", (got,))
                failures += 1
            else:
                assert isinstance(built, TentPartition)
                classifier_ok.append(mask)
        assert len(oracle_ok) == 14  # 9 clones + 2 + 1 + 1 + 1
        assert classifier_ok == oracle_ok
        assert failures == 498


def _desk_params(seed: int) -> GenParams:
    return GenParams(
        seed=seed,
        max_class_size=1 + seed % 2,
        p_nonempty=0.6,
        universal_count=(0, 1),
        a_components=(0, 2),
        z_components=(0, 2),
        max_component_size=2,
    )


def _collect(gen, count: int, max_n: int, params_of=_desk_params):
    out = []
    seed = 0
    while len(out) < count:
        g, part = gen(params_of(seed))
        if g.n <= max_n:
            out.append((seed, g, part))
        seed += 1
    return out


def test_criterion_03_generators_in_class_by_oracle():
    with criterion(3, "500 saucers and 500 tents pass the oracle verdict", 300.0):
        for seed, g, _ in _collect(gen_saucer, 500, 20):
            v = class_verdict(g)
            assert v.is_2p3_free and v.is_c4_free and v.is_c6_free and v.has_c7, seed
        for seed, g, _ in _collect(gen_tent, 500, 20):
            v = class_verdict(g)
            assert (
                v.is_2p3_free and v.is_c4_free and v.is_c6_free
                and v.is_c7_free and v.has_t0
            ), seed


def _big_params(seed: int) -> GenParams:
    return GenParams(
        seed=seed,
        max_class_size=(seed % 15) + 1,
        p_nonempty=0.5,
        universal_count=(0, 3),
        a_components=(0, 3),
        z_components=(0, 3),
        max_component_size=4,
    )


def test_criterion_04_recognition_roundtrip_1000():
    with criterion(4, "1000 generated graphs accepted with clean partitions", 120.0):
        count = 0
        seed = 0
        while count < 1000:
            which = count % 3
            gen = (gen_special, gen_saucer, gen_tent)[which]
            g, _ = gen(_big_params(seed))
            seed += 1
            if g.n > 200:
                continue
            rep = recognize(g)
            assert rep.in_class, (seed, rep.reason)
            if rep.saucer is not None:
                assert verify_saucer_partition(g, rep.saucer) == []
            else:
                assert verify_tent_partition(g, rep.tent) == []
            count += 1


def test_criterion_05_differential_recognition_500():
    with criterion(5, "500 single-flip mutations: recognizer agrees with oracle", 300.0):
        checked = 0
        seed = 0
        while checked < 500:
            gen = (gen_saucer, gen_tent)[seed % 2]
            g, _ = gen(_desk_params(seed))
            seed += 1
            if g.n > 14:
                continue
            gm = mutate(g, seed * 7919)
            rep = recognize(gm)
            verdict = class_verdict(gm)
            assert rep.in_class == verdict.in_class, (seed, rep.reason)
            checked += 1


def test_criterion_06_coloring_optimality_200():
    with criterion(6, "200 in-class graphs colored optimally", 300.0):
        checked = 0
        seed = 0
        while checked < 200:
            gen = (gen_saucer, gen_tent)[seed % 2]
            g, _ = gen(_desk_params(seed))
            seed += 1
            if g.n > 16:
                continue
            coloring = color_in_class(g)
            assert verify_coloring(g, coloring)
            chi, _ = chromatic_number_bf(g)
            assert coloring.num_colors == chi, (seed, coloring.num_colors, chi)
            checked += 1


def test_criterion_07_cwd_bound_200():
    with criterion(7, "200 simplicial-free graphs: width <= 12, eval == input", 60.0):
        checked = 0
        seed = 0
        while checked < 200:
            if seed % 2 == 0:
                g, _ = gen_special(_big_params(seed))
            else:
                g, part = gen_tent(_big_params(seed))
                if part.y or part.z:
                    seed += 1
                    continue
            seed += 1
            if g.n > 200:
                continue
            expr = expr_for_class_graph(g)
            assert width(expr) <= 12
            assert eval_to_graph(expr) == g
            checked += 1


def test_criterion_08_complete_graph_widths():
    with criterion(8, "K_k expressions: width 1 for k=1, width 2 for k in 2..50", 1.0):
        e1 = expr_complete(1)
        assert width(e1) == 1 and eval_to_graph(e1).n == 1
        for k in range(2, 51):
            e = expr_complete(k)
            assert width(e) == 2
            g = eval_to_graph(e)
            assert g.n == k and g.num_edges == k * (k - 1) // 2


def _special_18(count):
    out = []
    seed = 0
    while len(out) < count:
        g, part = gen_special(_desk_params(seed))
        if g.n <= 18:
            out.append((seed, g, part))
        seed += 1
    return out


def test_criterion_09_special_partition_consistency_200():
    with criterion(
        9, "200 special graphs: no simplicial, no clique-cutset, 4K1-free, C7",
        600.0,
    ):
        for seed, g, part in _special_18(200):
            assert verify_special_partition(g, part) == []
            assert not simplicial_vertices(g), seed
            assert clique_cutset_bf(g) is None, seed
            assert find_induced(g, pattern("4K1")) is None, seed
            assert find_induced(g, pattern("C7")) is not None, seed


def test_criterion_10_yz_dichotomy():
    with criterion(10, "Y/Z layout dichotomy on the criterion-9 partitions", 60.0):
        for seed, g, part in _special_18(200):
            kind, i = yz_outcome(part)  # raises unless exactly one outcome holds
            y_all = frozenset().union(*part.y)
            z_all = frozenset().union(*part.z)
            assert is_clique(g, y_all) and is_clique(g, z_all)
            assert is_clique(g, y_all | z_all) == (kind == "a")


def test_criterion_11_scaling_smoke_advisory():
    # advisory, non-blocking: growth per doubling should stay inside 10x,
    # but only the report is required
    def at_size(target: int) -> tuple[float, float]:
        """Seconds for recognize and for evaluating the cwd expression."""
        base = catalog_entry("M0").graph
        per = max(1, target // base.n)
        sizes = [per] * base.n
        for i in range(target - per * base.n):
            sizes[i % base.n] += 1
        g, _ = expand_thickening(base, sizes)
        t0 = time.perf_counter()
        rep = recognize(g)
        dt = time.perf_counter() - t0
        assert rep.kind == IN_CLASS_C7
        expr = expr_for_class_graph(g)
        t0 = time.perf_counter()
        back = eval_to_graph(expr)
        dt_eval = time.perf_counter() - t0
        assert back == g
        return dt, dt_eval

    at_size(50)  # fills the catalog caches before timing
    (t100, e100), (t200, e200), (t400, e400) = at_size(100), at_size(200), at_size(400)

    def ratios(a, b, c):
        return b / max(a, 1e-9), c / max(b, 1e-9)

    r1, r2 = ratios(t100, t200, t400)
    q1, q2 = ratios(e100, e200, e400)
    inside = max(r1, r2, q1, q2) < 10
    print(
        f"criterion 11 {'PASS' if inside else 'NOTE'} (advisory): "
        f"recognize at n=100/200/400 took {t100 * 1e3:.1f}/{t200 * 1e3:.1f}/"
        f"{t400 * 1e3:.1f} ms (ratios {r1:.2f}x, {r2:.2f}x per doubling); "
        f"eval_to_graph on expr_for_class_graph(g) took {e100 * 1e3:.1f}/"
        f"{e200 * 1e3:.1f}/{e400 * 1e3:.1f} ms (ratios {q1:.2f}x, {q2:.2f}x)"
    )
