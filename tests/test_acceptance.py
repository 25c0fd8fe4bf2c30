"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import itertools
import random
import time
from fractions import Fraction

from superpenner.catalog import (five_punctured_sphere, four_punctured_sphere,
                                 genus1_two_punctures, genus2_one_puncture,
                                 punctured_torus, theta_graph)
from superpenner.checks import (check_involution, check_pentagon, check_ptolemy,
                                generic_edges, pentagon_pairs, random_decorated_state)
from superpenner.decorated import check_puncture_relation
from superpenner.fatgraph import topology
from superpenner.grassmann import (FLOAT, RATIONAL, GrassmannAlgebra, ginv,
                                   glog, gmul, gsqrt)
from superpenner.spin import (OrientationState, brute_force_spin_classes,
                              classify_punctures, enumerate_spin_classes,
                              flip_orientation, reflect, spin_class_count)

from helpers import boundary_correspondence

SMALL_GRAPHS = [
    ("(0,3)", theta_graph(), 4),
    ("(1,1)", punctured_torus(), 4),
    ("(0,4)", four_punctured_sphere(), 8),
    ("(1,2)", genus1_two_punctures(), 8),
    ("(2,1)", genus2_one_puncture(), 16),
]

FLIP_GRAPHS = [four_punctured_sphere(), genus1_two_punctures(),
               genus2_one_puncture()]


def report(criterion, text):
    print("ACCEPTANCE %s: PASS  %s" % (criterion, text))


def test_criterion_1_spin_structure_counts():
    start = time.monotonic()
    counts = []
    for label, graph, expected in SMALL_GRAPHS:
        genus, s, _, _ = topology(graph)
        brute = brute_force_spin_classes(graph)
        fast = enumerate_spin_classes(graph)
        formula = spin_class_count(graph)
        closed_form = 1 << (2 * genus + s - 1)
        assert len(brute) == len(fast) == formula == closed_form == expected
        assert [st.signs for st in brute] == [st.signs for st in fast]
        counts.append("%s:%d" % (label, expected))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("1 spin-structure counts",
           "brute force == 2^(E-V+1) == 2^(2g+s-1) [%s] in %.2fs"
           % (" ".join(counts), elapsed))


def test_criterion_2_coordinate_dimensions():
    for label, graph, _ in SMALL_GRAPHS:
        genus, s, e, v = topology(graph)
        assert e == 6 * genus - 6 + 3 * s
        assert v == 4 * genus - 4 + 2 * s
    report("2 coordinate dimensions", "E=6g-6+3s and V=4g-4+2s on all test graphs")


def test_criterion_3_classical_ptolemy():
    total_rational = 0
    total_float = 0
    for graph in FLIP_GRAPHS:
        res = check_ptolemy(graph, seed=101, mode=RATIONAL, cases=340)
        assert res.passed, res.report()
        total_rational += res.cases
        res = check_ptolemy(graph, seed=102, mode=FLOAT, tol=1e-12, cases=340)
        assert res.passed, res.report()
        total_float += res.cases
    assert total_rational >= 1000 and total_float >= 1000
    report("3 classical Ptolemy",
           "e*f = ac+bd on %d rational (exact) and %d float (rel<=1e-12) flips"
           % (total_rational, total_float))


def test_criterion_4_flip_involution():
    start = time.monotonic()
    total_rational = 0
    total_float = 0
    for graph in FLIP_GRAPHS:
        res = check_involution(graph, seed=103, mode=RATIONAL, cases=170)
        assert res.passed, res.report()
        total_rational += res.cases
        res = check_involution(graph, seed=104, mode=FLOAT, tol=1e-9, cases=170)
        assert res.passed, res.report()
        total_float += res.cases
    elapsed = time.monotonic() - start
    assert total_rational >= 500 and total_float >= 500
    assert elapsed < 30.0
    report("4 flip involution",
           "%d rational (exact) + %d float (<=1e-9) double flips in %.2fs"
           % (total_rational, total_float, elapsed))


def test_criterion_5_pentagon_closure():
    total = 0
    for graph in (genus2_one_puncture(), five_punctured_sphere()):
        assert pentagon_pairs(graph), "graph must contain an embedded pentagon"
        res = check_pentagon(graph, seed=105, mode=FLOAT, tol=1e-9, cases=60)
        assert res.passed, res.report()
        total += res.cases
    assert total >= 100
    report("5 pentagon closure",
           "%d five-flip sequences return the state (<=1e-9, mod relabeling"
           " + reflections + global sign)" % total)


def test_criterion_6_rns_reflection_invariance():
    checked = 0
    for graph in (theta_graph(), punctured_torus(), four_punctured_sphere()):
        for signs in itertools.product((1, -1), repeat=graph.num_edges):
            state = OrientationState(graph, signs)
            tags = classify_punctures(state)
            for v in range(graph.num_vertices):
                assert classify_punctures(reflect(state, v)) == tags
                checked += 1
    report("6 R/NS reflection invariance",
           "exact over %d (orientation, vertex) pairs on (0,3), (1,1), (0,4)"
           % checked)


def test_criterion_7_flip_equivariance_of_spin_data():
    rng = random.Random(106)
    cases = 0
    for graph in (four_punctured_sphere(), genus1_two_punctures()):
        edges = generic_edges(graph)
        for _ in range(60):
            signs = tuple(rng.choice((1, -1)) for _ in range(graph.num_edges))
            e = rng.choice(edges)
            state = OrientationState(graph, signs)
            before = classify_punctures(state)
            new_state, _ = flip_orientation(state, e)
            after = classify_punctures(new_state)
            corr = boundary_correspondence(graph, new_state.graph, graph.edges[e])
            assert corr is not None
            for i, j in corr.items():
                assert before[i] == after[j]
            cases += 1
    assert cases >= 100
    report("7 flip equivariance of spin data",
           "R/NS preserved per puncture on %d random (orientation, edge) pairs"
           % cases)


def _random_sparse(algebra, rng, max_terms=5, parity=None):
    n = algebra.num_generators
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << n)
        if parity is not None and mask.bit_count() % 2 != parity:
            continue
        if algebra.mode == RATIONAL:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = rng.uniform(-3.0, 3.0)
        if c:
            terms[mask] = c
    return algebra.element(terms)


def test_criterion_8_grassmann_axioms():
    for mode, tol in ((RATIONAL, None), (FLOAT, 1e-12)):
        rng = random.Random(107)
        cases = 0

        def agree(x, y):
            return x == y if tol is None else x.isclose(y, tol)

        while cases < 1000:
            n = rng.randint(1, 10)
            alg = GrassmannAlgebra(n, mode)
            x = _random_sparse(alg, rng)
            y = _random_sparse(alg, rng)
            z = _random_sparse(alg, rng)
            assert agree(gmul(gmul(x, y), z), gmul(x, gmul(y, z)))
            xo = _random_sparse(alg, rng, parity=1)
            yo = _random_sparse(alg, rng, parity=1)
            assert agree(gmul(xo, yo), -gmul(yo, xo))
            even = _random_sparse(alg, rng, parity=0) + alg.scalar(
                rng.randint(1, 9) if mode == RATIONAL else rng.uniform(0.5, 3.0))
            if even.body > 0:
                assert agree(gmul(even, ginv(even)), alg.one())
                square = gmul(even, even)
                assert agree(gsqrt(square), even)
                if mode == FLOAT:
                    scaled = even * (1.0 / even.body)
                else:
                    scaled = even * (Fraction(1) / even.body)
                log = glog(scaled)
                # exponentiate back with the series oracle
                result = alg.one()
                term = alg.one()
                k = 0
                while not term.is_zero():
                    k += 1
                    factor = Fraction(1, k) if mode == RATIONAL else 1.0 / k
                    term = term * log * factor
                    result = result + term
                assert agree(result, scaled)
            cases += 1
        report("8 Grassmann axioms (%s)" % mode,
               "%d cases: associativity, anticommutation, inv/sqrt/log round trips"
               % cases)


def test_criterion_9_puncture_relation_classical():
    rng = random.Random(108)
    cases = 0
    graphs = [punctured_torus(), theta_graph(), four_punctured_sphere(),
              genus1_two_punctures(), genus2_one_puncture()]
    while cases < 200:
        graph = graphs[cases % len(graphs)]
        state = random_decorated_state(graph, rng, mode=FLOAT, odd=False)
        for residual in check_puncture_relation(state):
            assert abs(residual.body) <= 1e-12
            assert all(abs(c) <= 1e-12 for c in residual.soul.terms.values())
        cases += 1
    report("9 puncture relation (classical)",
           "boundary shear sums vanish (<=1e-12) on %d random mu=0 states" % cases)
