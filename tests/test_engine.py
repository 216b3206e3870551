from fractions import Fraction

import pytest

import oracles
from signcrystal.engine import (
    DEFAULT_WORD_CEILING,
    SupportDescriptor,
    build_graph,
    depth,
    string_decomposition,
    support,
    verify,
)
from signcrystal.errors import ResourceCeilingError, ValidationError
from signcrystal.params import IRRATIONAL, Params, ZClass
from signcrystal.realizations import boundaries, boundary, crystal_remove
from signcrystal.signstrings import statistics, weight
from signcrystal.young import Multipartition, multipartitions_up_to

HALF = Fraction(1, 2)
P_HALF = Params(1, HALF, (0,))
P_IRR = Params(1, IRRATIONAL, (0,))


class TestDepth:
    def test_empty(self):
        assert depth(P_HALF, Multipartition(((),))) == 0

    def test_irrational_staircase(self):
        assert depth(P_IRR, Multipartition(((2, 1),))) == 3

    def test_cancelled_column(self):
        assert depth(P_HALF, Multipartition(((1, 1),))) == 0

    def test_two_component_irrational(self):
        p = Params(2, IRRATIONAL, (0, 1))
        assert depth(p, Multipartition(((1,), ()))) == 1

    def test_bounded_by_size_and_zero_criterion(self):
        for p in (P_HALF, Params(2, Fraction(1, 3), (0, 1))):
            for m in multipartitions_up_to(p.ell, 6):
                d = depth(p, m)
                assert 0 <= d <= m.size
                stuck = all(
                    crystal_remove(p, m, z) is None for z in sorted(boundaries(p, m))
                )
                assert (d == 0) == stuck

    def test_matches_oracle_small(self):
        for ell, kappa in ((1, HALF), (2, Fraction(1, 3)), (2, IRRATIONAL)):
            p = Params(ell, kappa, tuple(range(ell)))
            raw_kappa = kappa if p.is_rational else None
            memo = {}
            oracle_memo = {}
            for m in multipartitions_up_to(ell, 5):
                assert depth(p, m, memo) == oracles.oracle_depth(
                    raw_kappa, ell, p.charges, m.components, oracle_memo
                )

    def test_memo_shared(self):
        memo = {}
        a = depth(P_IRR, Multipartition(((3, 2),)), memo)
        b = depth(P_IRR, Multipartition(((3, 2),)), memo)
        assert a == b == 5
        assert memo


class TestSupport:
    def test_irrational_single_box(self):
        p = Params(2, IRRATIONAL, (0, 1))
        s = support(p, Multipartition(((1,), ())))
        assert s == SupportDescriptor(n=1, e=None, depth=1, j=0, j_max=0)

    def test_depth_zero_finite_e(self):
        s = support(P_HALF, Multipartition(((1, 1),)))
        assert s.n == 2 and s.e == 2 and s.depth == 0
        assert s.j is None and s.j_max == 1

    def test_depth_zero_infinite_e(self):
        s = support(P_IRR, Multipartition(((),)))
        assert s.depth == 0 and s.j == 0 and s.e is None

    def test_j_bound_invariant(self):
        for m in multipartitions_up_to(1, 6):
            s = support(P_HALF, m)
            assert s.depth + s.j_max * s.e <= s.n


class TestGraph:
    def test_empty_graph(self):
        g = build_graph(P_HALF, 0)
        assert [n.to_lists() for n in g.nodes] == [[[]]]
        assert g.edges == ()

    def test_two_box_example(self):
        g = build_graph(P_HALF, 2)
        simple = [
            (e.source.to_lists(), e.target.to_lists(), e.z, tuple(e.box)) for e in g.edges
        ]
        assert simple == [
            ([[]], [[1]], ZClass("residue", 0), (0, 1, 1)),
            ([[1]], [[2]], ZClass("residue", 1), (0, 1, 2)),
        ]

    def test_per_class_degrees(self):
        g = build_graph(P_HALF, 6)
        for z in (ZClass("residue", 0), ZClass("residue", 1)):
            out_seen, in_seen = set(), set()
            for e in g.edges:
                if e.z != z:
                    continue
                assert e.source not in out_seen
                assert e.target not in in_seen
                out_seen.add(e.source)
                in_seen.add(e.target)

    def test_edges_invert(self):
        g = build_graph(Params(2, Fraction(1, 3), (0, 1)), 4)
        for e in g.edges:
            assert e.target == e.source.add_box(e.box)
            assert crystal_remove(g.params, e.target, e.z) == (e.source, e.box)

    def test_explicit_class_list(self):
        g = build_graph(P_HALF, 4, classes=[ZClass("residue", 0)])
        assert g.classes == (ZClass("residue", 0),)
        assert all(e.z == ZClass("residue", 0) for e in g.edges)
        with pytest.raises(ValidationError):
            string_decomposition(g, ZClass("residue", 1))

    def test_node_ceiling(self):
        with pytest.raises(ResourceCeilingError):
            build_graph(P_HALF, 6, node_ceiling=3)

    def test_rejects_bad_max_boxes(self):
        with pytest.raises(ValidationError):
            build_graph(P_HALF, -1)


class TestStringDecomposition:
    def test_partitions_nodes(self):
        g = build_graph(P_HALF, 6)
        for z in (ZClass("residue", 0), ZClass("residue", 1)):
            chains = string_decomposition(g, z)
            seen = [node for chain in chains for node in chain]
            assert sorted(seen, key=lambda m: m.sort_key()) == list(g.nodes)
            assert len(seen) == len(set(seen))

    def test_weights_step_by_two(self):
        g = build_graph(P_HALF, 6)
        for z in (ZClass("residue", 0), ZClass("residue", 1)):
            for chain in string_decomposition(g, z):
                wts = [weight(boundary(g.params, node, z).sign) for node in chain]
                assert all(b == a + 2 for a, b in zip(wts, wts[1:]))

    def test_contained_chain_length(self):
        g = build_graph(P_HALF, 6)
        for z in (ZClass("residue", 0), ZClass("residue", 1)):
            for chain in string_decomposition(g, z):
                hp, hm = statistics(boundary(g.params, chain[0], z).sign)
                if chain[0].size + hp + hm <= g.max_boxes:
                    assert len(chain) == hp + hm + 1
                # the lowest node sits h_minus steps below each member
                for offset, node in enumerate(chain):
                    node_hp, node_hm = statistics(boundary(g.params, node, z).sign)
                    if chain[0].size + hp + hm <= g.max_boxes:
                        assert offset == node_hm


class TestVerify:
    def test_axioms(self):
        report = verify("axioms", n=9)
        assert report.passed and report.checked == 2**10 - 1

    def test_confluence(self):
        report = verify("confluence", n=6, trials=10, seed=3)
        assert report.passed

    def test_comb_lemma(self):
        assert verify("comb_lemma", n=8).passed

    def test_boundary_invariance(self):
        p = Params(2, Fraction(1, 3), (0, 1))
        assert verify("boundary_invariance", params=p, max_boxes=4).passed

    def test_realization_consistency(self):
        p = Params(2, IRRATIONAL, (0, 1))
        assert verify("realization_consistency", params=p, max_boxes=4).passed

    def test_gl_realization(self):
        assert verify("gl_realization", n=3, p=3, entry_bound=5).passed
        assert verify("gl_realization", n=2, p=0, entry_bound=4).passed

    def test_depth_irrational(self):
        assert verify("depth_irrational", max_boxes=6).passed

    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            verify("nonsense")

    def test_missing_params(self):
        with pytest.raises(ValidationError):
            verify("boundary_invariance")

    def test_word_ceiling(self):
        with pytest.raises(ResourceCeilingError):
            verify("axioms", n=15)
        assert 2**15 > DEFAULT_WORD_CEILING
