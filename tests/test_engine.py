import hashlib
import inspect
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

import oracles
from signcrystal import engine, naive, realizations
from signcrystal.engine import (
    DEFAULT_WORD_CEILING,
    SUITES,
    SupportDescriptor,
    build_graph,
    depth,
    string_decomposition,
    support,
    verify,
)
from signcrystal.errors import ResourceCeilingError, ValidationError
from signcrystal.params import IRRATIONAL, Params, ZClass, cyclotomic_c
from signcrystal.realizations import (
    boundaries,
    boundary,
    crystal_remove,
    kgroup_induction,
    kgroup_restriction,
)
from signcrystal.serialize import graph_to_dot, graph_to_json
from signcrystal.signstrings import minus_flips, plus_flips, statistics, weight
from signcrystal.young import Multipartition, multipartitions_up_to
from test_realizations import count_gl_reads, wide_labels, wide_param_sets

HALF = Fraction(1, 2)
P_HALF = Params(1, HALF, (0,))
P_IRR = Params(1, IRRATIONAL, (0,))

WALK_KAPPAS = [
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(2, 5),
    Fraction(3, 4),
    Fraction(-1, 2),
    Fraction(5, 3),
    Fraction(-2, 3),
    IRRATIONAL,
]
# (charges, max_boxes): two charge vectors per ell, one nonzero and unsorted
WALK_CHARGES = [
    ((0,), 10),
    ((3,), 10),
    ((0, 0), 7),
    ((1, 0), 7),
    ((0, 1, 3), 5),
    ((1, 0, 2), 5),
    ((0, 0, 0, 0), 4),
    ((1, 0, 2, 0), 4),
]


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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(wide_labels(max_ell=3, max_boxes=6))
    def test_wide_parameters_match_oracle(self, drawn):
        p, m = drawn
        kappa = p.kappa if p.is_rational else None
        assert depth(p, m) == oracles.oracle_depth(kappa, p.ell, p.charges, m.components)

    def test_memo_shared(self):
        memo = {}
        a = depth(P_IRR, Multipartition(((3, 2),)), memo)
        b = depth(P_IRR, Multipartition(((3, 2),)), memo)
        assert a == b == 5
        assert memo

    def test_wide_one_row_label_walks_its_size(self, monkeypatch):
        # irrational kappa, zero charges: 50 one-row components of length 50
        # walk all 2500 boxes away; the 2501 labels on the walk share one
        # corner table, so 50 components plus one changed one per step, and
        # the table holds only the current label's 50 components
        calls = []
        table_sizes = []
        corners, merge = realizations._corners, engine._merge

        def counting(*args):
            calls.append(args[1:])
            return corners(*args)

        def measuring(params, mp, corner_table, only):
            merged = merge(params, mp, corner_table, only)
            table_sizes.append(len(corner_table))
            return merged

        monkeypatch.setattr(realizations, "_corners", counting)
        monkeypatch.setattr(engine, "_merge", measuring)
        m = Multipartition(((50,),) * 50)
        assert depth(Params(50, IRRATIONAL, (0,) * 50), m) == m.size == 2500
        assert len(calls) == len(set(calls)) == 50 + 2500
        assert len(table_sizes) == 2501
        assert set(table_sizes) == {50}

    def test_reads_merged_words_not_boundary_objects(self, monkeypatch):
        # the walk reads _merge's words itself: no class boundary record;
        # the depths are the ones the boundary-table walk gave
        forbid_boundary_objects(monkeypatch)
        p = Params(3, Fraction(1, 3), (0, 1, 2))
        assert depth(p, Multipartition(((3, 1), (2,), (1, 1)))) == 8
        assert depth(Params(20, IRRATIONAL, (0,) * 20), Multipartition(((20,),) * 20)) == 400
        memo: dict = {}
        found = [depth(P_HALF, m, memo) for m in multipartitions_up_to(1, 6)]
        assert found == [
            0, 1, 2, 0, 3, 3, 1, 4, 4, 0, 2, 0, 5, 5, 5, 3, 1, 3, 1, 6, 6, 6, 4, 0, 6, 4, 2, 0, 2, 0
        ]

    def test_ceiling_counts_corners(self, monkeypatch):
        # the walk from (2,1) builds four tables, with 5 + 3 + 3 + 1 corners
        monkeypatch.setattr(engine, "DEFAULT_NODE_CEILING", 12)
        assert depth(P_IRR, Multipartition(((2, 1),))) == 3
        monkeypatch.setattr(engine, "DEFAULT_NODE_CEILING", 11)
        with pytest.raises(ResourceCeilingError, match="corners"):
            depth(P_IRR, Multipartition(((2, 1),)))

    def test_size_past_the_digit_limit_hits_the_ceiling(self):
        # the message prints the size in full, longer than Python lets an
        # int become a str, and the limit is back in place afterwards
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        with pytest.raises(ResourceCeilingError) as raised:
            depth(P_HALF, Multipartition(((10**4300, 10**4300),)))
        assert raised.value.message == (
            f"depth walks up to 2{'0' * 4300} steps, above the ceiling 2000000"
        )
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.parametrize("kappa", WALK_KAPPAS, ids=str)
    @pytest.mark.parametrize("charges, max_boxes", WALK_CHARGES, ids=str)
    def test_walk_matches_exhaustive_search(self, kappa, charges, max_boxes):
        """One walk gives the depth that the exhaustive max-search gives,
        from a fresh memo and from one memo shared in size order."""
        ell = len(charges)
        p = Params(ell, kappa, charges)
        raw_kappa = kappa if p.is_rational else None
        shared = {}
        oracle_memo = {}
        for m in multipartitions_up_to(ell, max_boxes):
            expected = oracles.oracle_depth(raw_kappa, ell, p.charges, m.components, oracle_memo)
            cold = {}
            assert depth(p, m, cold) == expected
            assert len(cold) <= m.size + 1
            for label, d in cold.items():
                assert d == oracles.oracle_depth(raw_kappa, ell, p.charges, label.components, oracle_memo)
            assert depth(p, m, shared) == expected


def forbid_boundary_objects(monkeypatch):
    """Make the class-boundary records raise: the graph and the walk take
    the flip of _merge's words themselves."""

    def forbidden(*args, **kwargs):
        raise AssertionError("build_graph and depth read _merge's words")

    monkeypatch.setattr(realizations, "ZBoundary", forbidden)


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
            (g.nodes[e.source].to_lists(), g.nodes[e.target].to_lists(), e.z, tuple(e.box))
            for e in g.edges
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
            source, target = g.nodes[e.source], g.nodes[e.target]
            assert target == source.add_box(e.box)
            assert crystal_remove(g.params, target, e.z) == (source, e.box)

    def test_explicit_class_list(self):
        g = build_graph(P_HALF, 4, classes=[ZClass("residue", 0)])
        assert g.classes == (ZClass("residue", 0),)
        assert all(e.z == ZClass("residue", 0) for e in g.edges)
        with pytest.raises(ValidationError):
            string_decomposition(g, ZClass("residue", 1))

    @pytest.mark.parametrize("kappa", [Fraction(1, 3), Fraction(-2, 5), IRRATIONAL])
    @pytest.mark.parametrize("charges", [(0,), (1, 0), (0, 2, 1)])
    def test_edges_in_source_then_class_order(self, kappa, charges):
        # graph_to_json writes edges in this order and nothing sorts them
        g = build_graph(Params(len(charges), kappa, charges), 4)
        sources = [g.nodes[e.source] for e in g.edges]
        keys = [((m.size, m.components), e.z) for m, e in zip(sources, g.edges)]
        assert g.edges and keys == sorted(keys)

    @pytest.mark.parametrize("kappa", [Fraction(1, 3), Fraction(-2, 5), IRRATIONAL])
    @pytest.mark.parametrize("charges", [(0,), (0, 1), (0, 2, 1)])
    def test_edges_index_nodes_one_class_object(self, kappa, charges):
        g = build_graph(Params(len(charges), kappa, charges), 7 - len(charges))
        for e in g.edges:
            assert g.nodes[e.target] == g.nodes[e.source].add_box(e.box)
        assert len({id(e.z) for e in g.edges}) == len({e.z for e in g.edges}) > 0

    # sha256 of json.dumps(graph_to_json(g)) and of graph_to_dot(g), taken
    # from the label-keyed build that preceded node-index edges
    @pytest.mark.parametrize(
        "params, max_boxes, classes, json_digest, dot_digest",
        [
            (
                P_HALF, 6, None,
                "b49ba89e71589b0b668c48fadb1ff6e9296935d49d3989cb50063eb9409b13eb",
                "bdfdf14c67a72704c59eb4c834fea1e5d4664bf838fb0cd372375208eb1b42fb",
            ),
            (
                Params(2, Fraction(1, 3), (0, 1)), 5, None,
                "4ad7465ab408e02dcfd07541be6a8839a928954e998d65b34ce4c87cc297814c",
                "2df25ee092b831a64b2331c4f6d06d7ba08edee63b942440f5fbd95d3b743149",
            ),
            (
                Params(3, Fraction(1, 3), (0, 2, 1)), 4, None,
                "93b988fb30637d66bc65a473878dfc419d6f4f9604c484f9ca5311d5dc363fe3",
                "f8b5d4ef4f50a67ff5187bcbddf61f42d1078016c19f4db380dd93ae88f9fc12",
            ),
            (
                Params(3, IRRATIONAL, (0, 1, 2)), 4, None,
                "3cdca55074693d29f8a3787ad6e88d34613921612e11a03b4f2d832cf70a53c3",
                "1e78b0ace868d4c2d25dc834fcb3b533eed3a78932d003813cad868589461fa5",
            ),
            (
                Params(2, Fraction(-2, 5), (1, 0)), 5, None,
                "fca7a610d3fa044373b2229d2bc318be74048917f4739bfb424c2e529ddeefbc",
                "07c9a077fc2a03e4e19050d3a0b65d8c50f9b756af98653519dc2916a26f8d7c",
            ),
            (
                P_HALF, 6, [ZClass("residue", 0)],
                "83f943846ec5e067737cdb8f5ccf392049a1a1a7b08d044d387d3111ee976207",
                "be8cdb86f2a8204791f10abdc42d980d4372390c67c27064e269413621914865",
            ),
            (
                Params(3, IRRATIONAL, (0, 1, 2)), 4, [ZClass("content", 1), ZClass("content", -1)],
                "edba718711c8af7e70282a49d1a4ab033530778e4c4ef8c24b520034dc8da413",
                "c7edcb8e30fa4181e6601d8ef4d5c9705b57e698680789204af245d9bcdeee5e",
            ),
        ],
    )
    def test_output_bytes_pinned(self, params, max_boxes, classes, json_digest, dot_digest):
        g = build_graph(params, max_boxes, classes=classes)
        assert hashlib.sha256(json.dumps(graph_to_json(g)).encode()).hexdigest() == json_digest
        assert hashlib.sha256(graph_to_dot(g).encode()).hexdigest() == dot_digest

    def test_one_class_graph_is_the_full_graph_of_that_class(self):
        for p in wide_param_sets():
            full = build_graph(p, 4)
            for z in sorted({e.z for e in full.edges}):
                g = build_graph(p, 4, classes=[z])
                assert g.nodes == full.nodes
                assert g.edges == tuple(e for e in full.edges if e.z == z)

    def test_matches_oracle_graph(self):
        # the graph edge by edge from the oracle's classes and its raising
        # flip, on every wide parameter set; then each class alone
        for p in wide_param_sets():
            kappa = p.kappa if p.is_rational else None
            nodes = sorted(
                (m.components for m in multipartitions_up_to(p.ell, 4)),
                key=lambda comps: (sum(map(sum, comps)), comps),
            )
            index = {comps: k for k, comps in enumerate(nodes)}
            expected = []
            for k, comps in enumerate(nodes):
                if sum(map(sum, comps)) == 4:
                    continue
                for z in oracles.oracle_classes(kappa, p.charges, comps):
                    step = oracles.oracle_add(kappa, p.ell, p.charges, comps, z)
                    if step is not None:
                        expected.append((k, index[step[0]], z, step[1]))

            def simple(g):
                assert [m.components for m in g.nodes] == nodes
                return [(e.source, e.target, (e.z.kind, e.z.value), tuple(e.box)) for e in g.edges]

            assert expected and simple(build_graph(p, 4)) == expected
            for z in sorted({edge[2] for edge in expected}):
                g = build_graph(p, 4, classes=[ZClass(*z)])
                assert simple(g) == [edge for edge in expected if edge[2] == z]

    def test_reads_merged_words_not_boundary_objects(self, monkeypatch):
        # build_graph reads _merge's words itself: no class boundary record;
        # the bytes are the pinned ones of the boundary build
        forbid_boundary_objects(monkeypatch)
        g = build_graph(Params(2, Fraction(1, 3), (0, 1)), 5)
        assert hashlib.sha256(json.dumps(graph_to_json(g)).encode()).hexdigest() == (
            "4ad7465ab408e02dcfd07541be6a8839a928954e998d65b34ce4c87cc297814c"
        )
        g = build_graph(P_HALF, 6, classes=[ZClass("residue", 0)])
        assert hashlib.sha256(json.dumps(graph_to_json(g)).encode()).hexdigest() == (
            "83f943846ec5e067737cdb8f5ccf392049a1a1a7b08d044d387d3111ee976207"
        )

    def test_builds_each_component_corners_once(self, monkeypatch):
        # 195 partitions of at most 11 boxes in each of 3 components
        calls = []
        kernel = realizations._corners

        def counting(*args):
            calls.append(args[1:])
            return kernel(*args)

        monkeypatch.setattr(realizations, "_corners", counting)
        build_graph(Params(3, Fraction(1, 3), (0, 1, 2)), 12)
        assert len(calls) == len(set(calls)) == 585

    @pytest.mark.parametrize(
        "charges, max_boxes, kappas, edge_count",
        [
            ((0, 1), 8, ((1, 3), (2, 3), (4, 3), (7, 3), (100, 3)), 512),
            ((0, 1), 8, ((-1, 3), (-2, 3), (-5, 3)), 512),
            ((0, 1, 3), 6, ((1, 5), (2, 5), (3, 5), (12, 5)), 598),
            ((0, 4, -2), 6, ((-1, 2), (-3, 2), (-9, 2)), 330),
        ],
        ids=["1/3", "-1/3", "1/5", "-1/2"],
    )
    def test_kappa_magnitude_does_not_matter(self, charges, max_boxes, kappas, edge_count):
        # the class order reads e and the sign of kappa, never |kappa|
        ell = len(charges)
        graphs = [build_graph(Params(ell, Fraction(*k), charges), max_boxes) for k in kappas]
        first = graphs[0]
        assert len(first.edges) == edge_count
        for g in graphs[1:]:
            assert g.nodes == first.nodes and g.edges == first.edges

    def test_kappa_sign_matters(self):
        plus, minus = (build_graph(Params(2, Fraction(a, 3), (0, 1)), 8) for a in (1, -1))
        assert plus.nodes == minus.nodes and plus.edges != minus.edges

    def test_node_ceiling(self):
        with pytest.raises(ResourceCeilingError):
            build_graph(P_HALF, 6, node_ceiling=3)
        # the one integer rule: neither a negative, a float, a string nor None
        for bad in (-1, 1.5, "3", None):
            with pytest.raises(ValidationError, match="node_ceiling must be a nonnegative integer"):
                build_graph(P_HALF, 2, node_ceiling=bad)
        # the ceiling counts components, nodes x ell: 8 nodes of 2 at 2 boxes
        p = Params(2, IRRATIONAL, (0, 1))
        assert len(build_graph(p, 2, node_ceiling=16).nodes) == 8
        with pytest.raises(ResourceCeilingError, match=r"more than 15 components \(nodes x ell\)"):
            build_graph(p, 2, node_ceiling=15)
        # 45,751 nodes of 300 components each would pass the default
        with pytest.raises(ResourceCeilingError):
            build_graph(Params(300, IRRATIONAL, (0,) * 300), 2)

    def test_rejects_bad_max_boxes(self):
        with pytest.raises(ValidationError):
            build_graph(P_HALF, -1)


def reference_strings(g, z):
    """Chains walked through dicts keyed by the edges' labels."""
    succ, pred = {}, {}
    for e in g.edges:
        if e.z == z:
            source, target = g.nodes[e.source], g.nodes[e.target]
            succ[source] = target
            pred[target] = source
    chains = []
    for node in g.nodes:
        if node in pred:
            continue
        chain = [node]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(chain)
    return chains


class TestStringDecomposition:
    @pytest.mark.parametrize("kappa", [Fraction(1, 3), Fraction(-2, 5), IRRATIONAL])
    @pytest.mark.parametrize("charges", [(0,), (0, 1), (0, 2, 1)])
    def test_matches_label_keyed_reference(self, kappa, charges):
        g = build_graph(Params(len(charges), kappa, charges), 7 - len(charges))
        classes = sorted({e.z for e in g.edges})
        assert classes
        for z in classes:
            assert string_decomposition(g, z) == reference_strings(g, z)

    def test_partitions_nodes(self):
        g = build_graph(P_HALF, 6)
        for z in (ZClass("residue", 0), ZClass("residue", 1)):
            chains = string_decomposition(g, z)
            seen = [node for chain in chains for node in chain]
            assert sorted(seen, key=lambda m: (m.size, m.components)) == list(g.nodes)
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


REPORT_BOUNDS = [
    ("axioms", {"n": 3}, {"n"}),
    ("confluence", {"n": 3, "trials": 2}, {"n", "trials", "seed"}),
    ("comb_lemma", {"n": 3}, {"n"}),
    ("boundary_invariance", {"params": P_HALF, "max_boxes": 3}, {"params", "max_boxes"}),
    ("realization_consistency", {"params": P_IRR, "max_boxes": 3}, {"params", "max_boxes"}),
    ("gl_realization", {"n": 2, "entry_bound": 4}, {"n", "p", "entry_bound"}),
    ("depth_irrational", {"max_boxes": 3}, {"max_boxes"}),
]


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

    def test_realization_consistency_ceiling(self):
        # a check costs the label's corners plus its class's box count
        # squared: the empty label at ell 1 has one corner in one class
        p = Params(1, Fraction(1, 2), (0,))
        assert verify("realization_consistency", params=p, max_boxes=0, ceiling=2).checked == 1
        with pytest.raises(ResourceCeilingError):
            verify("realization_consistency", params=p, max_boxes=0, ceiling=1)

    def test_realization_consistency_wide_labels_hit_the_ceiling(self):
        # 301 labels, each with a class of about 300 boxes that the naive
        # reference sorts and reduces in quadratic time
        p = Params(300, IRRATIONAL, (0,) * 300)
        start = time.perf_counter()
        with pytest.raises(ResourceCeilingError):
            verify("realization_consistency", params=p, max_boxes=1)
        assert time.perf_counter() - start < 1.0

    def test_gl_realization(self):
        assert verify("gl_realization", n=3, p=3, entry_bound=5).passed
        assert verify("gl_realization", n=2, p=0, entry_bound=4).passed

    def test_gl_realization_reads_each_word_once(self, monkeypatch):
        # one read per case, plus one per inverse check on a stepped weight
        reads = count_gl_reads(monkeypatch, engine)
        report = verify("gl_realization", n=4, p=3, entry_bound=8)
        assert report.passed and report.checked == 378
        assert len(reads) <= 3 * report.checked

    @pytest.mark.parametrize("p, tests", [(3, 1), (0, 0)])
    def test_gl_realization_decides_p_once(self, monkeypatch, p, tests):
        calls, is_prime = [], realizations._is_prime
        monkeypatch.setattr(realizations, "_is_prime", lambda n: calls.append(n) or is_prime(n))
        assert verify("gl_realization", n=4, p=p, entry_bound=8).passed
        assert len(calls) == tests

    @pytest.mark.parametrize(
        "bounds",
        [
            {"p": 0, "entry_bound": 10**20, "n": 1},
            {"entry_bound": 10**9, "n": 300_000},
            {"entry_bound": 10**18, "n": 5 * 10**17},
        ],
        ids=["huge p=0 class count", "huge binomial", "huger binomial"],
    )
    def test_gl_realization_budget_before_any_work(self, bounds):
        # neither the class count nor the weight count is formed in full
        start = time.perf_counter()
        with pytest.raises(ResourceCeilingError) as raised:
            verify("gl_realization", **bounds)
        assert time.perf_counter() - start < 1.0
        assert raised.value.message == (
            "gl_realization would run more than 2000000 checks; raise the ceiling to proceed"
        )

    def test_depth_irrational(self):
        assert verify("depth_irrational", max_boxes=6).passed

    def test_depth_irrational_keeps_one_size_of_depths(self, monkeypatch):
        # a label's walk ends one size down, so the shared memo never holds
        # a label two sizes below the one asked about
        gaps, real = [], engine.depth

        def spy(params, m, memo):
            gaps.append(m.size - min((label.size for label in memo), default=m.size))
            return real(params, m, memo)

        monkeypatch.setattr(engine, "depth", spy)
        report = verify("depth_irrational", max_boxes=8)
        assert (report.passed, report.checked) == (True, 67)
        assert max(gaps) == 1

    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            verify("nonsense")

    def test_missing_params(self):
        with pytest.raises(ValidationError):
            verify("boundary_invariance")

    @pytest.mark.parametrize(
        "suite, bounds",
        [
            ("axioms", {"trials": 3}),
            ("axioms", {"foo": 1}),
            ("axioms", {"word_ceiling": 10}),
            ("axioms", {"n": "x"}),
            ("axioms", {"n": True}),
            ("gl_realization", {"ceiling": 2.5}),
            ("boundary_invariance", {"params": None}),
            ("axioms", {"ceiling": -1}),
        ],
    )
    def test_bad_bound(self, suite, bounds):
        with pytest.raises(ValidationError, match=suite):
            verify(suite, **bounds)

    @pytest.mark.parametrize("suite, bounds, keys", REPORT_BOUNDS)
    def test_report_bounds(self, suite, bounds, keys):
        # the report keeps every bound but the ceiling, defaults included
        report = verify(suite, **bounds, ceiling=10**6)
        assert report.passed and set(report.bounds) == keys

    def test_report_bounds_cover_every_suite(self):
        assert [suite for suite, _, _ in REPORT_BOUNDS] == list(SUITES)
        for runner in SUITES.values():
            assert "ceiling" in inspect.signature(runner).parameters
            assert inspect.isgeneratorfunction(runner)

    def test_confluence_ceiling_counts_rewrites(self):
        # 2^4 - 1 = 15 words of length 0..3, each rewritten 5 times
        with pytest.raises(ResourceCeilingError):
            verify("confluence", n=3, trials=5, ceiling=74)
        assert verify("confluence", n=3, trials=5, ceiling=75).checked == 75

    def test_boundary_invariance_ceiling_counts_corners(self):
        # the empty label has 3 corners, one per class, and each is a check: 3 x 3
        p = Params(3, IRRATIONAL, (0, 1, 2))
        with pytest.raises(ResourceCeilingError):
            verify("boundary_invariance", params=p, max_boxes=0, ceiling=8)
        assert verify("boundary_invariance", params=p, max_boxes=0, ceiling=9).checked == 3

    def test_confluence_huge_n_rejected_at_once(self):
        with pytest.raises(ResourceCeilingError):
            verify("confluence", n=10**18, trials=0)
        # past Python's 4,300-digit limit the message still prints n
        with pytest.raises(ResourceCeilingError, match="up to length 1000"):
            verify("confluence", n=10**5000, trials=0)

    def test_word_ceiling(self):
        with pytest.raises(ResourceCeilingError):
            verify("axioms", n=15)
        assert 2**15 > DEFAULT_WORD_CEILING
        with pytest.raises(ResourceCeilingError):
            verify("axioms", n=10**18)
        # past Python's 4,300-digit limit the message still prints n
        for suite in ("axioms", "comb_lemma"):
            with pytest.raises(ResourceCeilingError, match=r"^2\^1000"):
                verify(suite, n=10**5000)


def _words(alphabet, longest):
    for length in range(longest + 1):
        yield from map("".join, itertools.product(alphabet, repeat=length))


class _Drawn(random.Random):
    """A Random that records what `choice` returns."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def choice(self, seq):
        self.drawn.append(super().choice(seq))
        return self.drawn[-1]


class TestNaiveReference:
    """The naive reference against the test oracles, on every small input."""

    def test_rewrite_sites(self):
        for t in _words("+-0", 7):
            assert naive.rewrite_sites(t) == oracles.applicable_pairs(list(t))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rewriting_draws_the_same_sites(self, seed):
        # one stream per side across all words, as the confluence suite
        # draws; every word reduces to one form, so the drawn sites are
        # compared too
        ours, theirs = _Drawn(seed), _Drawn(seed)
        for t in itertools.chain(_words("+-0", 7), _words("+-", 10)):
            assert naive.reduce_by_rewriting(t, ours) == oracles.reduce_random(t, theirs)
        assert ours.drawn == theirs.drawn

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_reductions_draw_as_one_shot_calls(self, seed, k):
        # k reductions from one generator per word against k one-shot calls
        # on a twin stream: the same results, the same drawn sites and the
        # same stream state afterwards
        ours, twin = _Drawn(seed), _Drawn(seed)
        for t in itertools.chain(_words("+-0", 7), _words("+-", 10)):
            got = [word for _, word in zip(range(k), naive.reductions(t, ours))]
            assert got == [naive.reduce_by_rewriting(t, twin) for _ in range(k)]
        assert [tuple(site[:2]) for site in ours.drawn] == twin.drawn
        assert ours.random() == twin.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_confluence_suite_draws_trial_by_trial(self, monkeypatch, seed):
        # the suite's one stream draws each word's trials in turn and nothing
        # past a word's last trial
        made = []

        def recorded(s):
            made.append(_Drawn(s))
            return made[-1]

        monkeypatch.setattr(engine.random, "Random", recorded)
        report = verify("confluence", n=6, trials=3, seed=seed)
        assert (report.passed, report.checked) == (True, 127 * 3)
        theirs = _Drawn(seed)
        for t in _words("+-", 6):
            for _ in range(3):
                oracles.reduce_random(t, theirs)
        ours, = made
        assert [tuple(site[:2]) for site in ours.drawn] == theirs.drawn
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "ell, kappa, charges, max_boxes",
        [(2, Fraction(1, 3), (0, 1), 5), (3, None, (0, 1, 2), 4)],
    )
    def test_crystal_steps(self, ell, kappa, charges, max_boxes):
        for m in multipartitions_up_to(ell, max_boxes):
            comps = m.components
            steps = naive.crystal_steps(ell, kappa, charges, comps)
            assert sorted(steps) == oracles.oracle_classes(kappa, charges, comps)
            for z, got in steps.items():
                assert got == (
                    oracles.oracle_add(kappa, ell, charges, comps, z),
                    oracles.oracle_remove(kappa, ell, charges, comps, z),
                )
                assert got == (
                    naive.crystal_add(ell, kappa, charges, comps, z),
                    naive.crystal_remove(ell, kappa, charges, comps, z),
                )


def _stale_memo(real):
    # right on its first call for a word, and one too high in the index on
    # every repeat, as a memo that stored the index wrongly would be
    seen = set()

    def planted(t):
        step = real(t)
        if t in seen and step is not None:
            return step[0], step[1] + 1
        seen.add(t)
        return step

    return planted


def _undercounts_other_suffixes(real):
    # one too low on a suffix that differs from the same suffix of the word
    # last read from position 1, the case word: claim 3's flipped words
    case = [""]

    def planted(t, k):
        if k == 1:
            case[0] = t
        return real(t, k) - (t[k - 1 :] != case[0][k - 1 :])

    return planted


P_THIRD2 = Params(2, Fraction(1, 3), (0, 1))
GL = {"n": 2, "p": 3, "entry_bound": 4}


def _fault(suite, bounds, module, name, make, checked, counterexample, id):
    """One planted fault: module.name becomes make(the original)."""
    return pytest.param(suite, bounds, module, name, make, checked, counterexample, id=id)


# one planted fault per counterexample site of every suite, with the
# exact report it gives
PLANTED_FAULTS = [
    _fault("axioms", {"n": 4}, engine, "weight", lambda real: lambda t: real(t) + (len(t) == 3),
           8, {"word": "+++", "violated": "weight"}, "axioms weight"),
    _fault("axioms", {"n": 4}, engine, "e_tilde", lambda real: lambda t: None,
           2, {"word": "+", "violated": "definedness"}, "axioms definedness"),
    _fault("axioms", {"n": 4}, engine, "f_tilde", lambda real: lambda t: None,
           2, {"word": "+", "violated": "raise/lower inverse"}, "axioms raise/lower inverse"),
    _fault("axioms", {"n": 4}, engine, "statistics",
           lambda real: lambda t: (real(t)[0], real(t)[1] + t.startswith("-")),
           2, {"word": "+", "violated": "statistics shift"}, "axioms statistics shift"),
    _fault("axioms", {"n": 4}, engine, "weight", lambda real: lambda t: real(t) + t.startswith("-"),
           2, {"word": "+", "violated": "weight shift"}, "axioms weight shift"),
    _fault("axioms", {"n": 4}, engine, "e_tilde", _stale_memo,
           3, {"word": "-", "violated": "lower/raise inverse"}, "axioms lower/raise inverse"),
    _fault("confluence", {"n": 4, "trials": 2}, naive, "reductions",
           lambda real: lambda t, rng: itertools.repeat(t) if len(t) >= 3 else real(t, rng),
           19, {"word": "+-+", "expected": "+00", "got": "+-+"}, "confluence"),
    _fault("comb_lemma", {"n": 4}, engine, "suffix_h_minus",
           lambda real: lambda t, k: real(t, k) + (k == 2 and len(t) == 3),
           7, {"word": "+++", "l": None, "violated": "suffix monotonicity"}, "comb_lemma monotonicity"),
    _fault("comb_lemma", {"n": 4}, engine, "succ_compare", lambda real: lambda a, b: 0,
           4, {"word": "+-", "l": 2, "violated": "flip order"}, "comb_lemma flip order"),
    _fault("comb_lemma", {"n": 4}, engine, "plus_flips",
           lambda real: lambda t: [(i, t) for i, _ in real(t)] if t.count("+") == 1 else real(t),
           2, {"word": "-", "l": 1, "violated": "flip identification"}, "comb_lemma flip identification"),
    _fault("comb_lemma", {"n": 4}, engine, "suffix_h_minus",
           lambda real: lambda t, k: real(t, k) + (k == 1 and t.startswith("-")),
           2, {"word": "-", "l": 1, "violated": "claim 1"}, "comb_lemma claim 1"),
    _fault("comb_lemma", {"n": 4}, engine, "suffix_h_minus",
           lambda real: lambda t, k: real(t, k) + (k == len(t) + 1 and t.startswith("-")),
           4, {"word": "+-", "l": 2, "violated": "claim 2"}, "comb_lemma claim 2"),
    _fault("comb_lemma", {"n": 4}, engine, "suffix_h_minus", _undercounts_other_suffixes,
           13, {"word": "--+", "l": 1, "violated": "claim 3"}, "comb_lemma claim 3"),
    _fault("boundary_invariance", {"params": P_THIRD2, "max_boxes": 3}, engine, "MINUS",
           lambda real: "+",
           1, {"multipartition": [[], []], "box": [0, 1, 1], "class": ["residue", 0]},
           "boundary_invariance"),
    _fault("realization_consistency", {"params": P_THIRD2, "max_boxes": 3}, engine, "_step",
           lambda real: lambda m, boxes, sign, raising: (
               None if m.size == 2 else real(m, boxes, sign, raising)
           ),
           9, {"multipartition": [[], [2]], "class": ["residue", 0]}, "realization_consistency"),
    _fault("realization_consistency", {"params": P_THIRD2, "max_boxes": 3}, naive, "crystal_steps",
           lambda real: lambda ell, kappa, charges, comps: {
               z: steps for z, steps in real(ell, kappa, charges, comps).items()
               if z != ("residue", 0) or sum(map(sum, comps)) != 2
           },
           9, {"multipartition": [[], [2]], "classes": [["residue", 0]]},
           "realization_consistency class set"),
    _fault("gl_realization", GL, naive, "gl_sign",
           lambda real: lambda w, i, p: ([], "") if i == 2 else real(w, i, p),
           3, {"weight": [4, 3], "i": 2, "violated": "sign word"}, "gl_realization sign word"),
    _fault("gl_realization", GL, naive, "gl_add", lambda real: lambda w, i, p: None,
           2, {"weight": [4, 3], "i": 1, "violated": "raise"}, "gl_realization raise"),
    _fault("gl_realization", GL, naive, "gl_remove", lambda real: lambda w, i, p: None,
           3, {"weight": [4, 3], "i": 2, "violated": "lower"}, "gl_realization lower"),
    # the inverse checks step from a stepped weight: one above the entry
    # bound after a raise, or below 0 after a lower, where no case weight lies
    _fault("gl_realization", GL, engine, "_gl_step",
           lambda real: lambda w, positions, sign, raising: (
               None if not raising and max(w) > 4 else real(w, positions, sign, raising)
           ),
           2, {"weight": [4, 3], "i": 1, "violated": "raise/lower inverse"},
           "gl_realization raise/lower inverse"),
    _fault("gl_realization", GL, engine, "_gl_step",
           lambda real: lambda w, positions, sign, raising: (
               None if raising and min(w) < 0 else real(w, positions, sign, raising)
           ),
           12, {"weight": [4, 0], "i": 2, "violated": "lower/raise inverse"},
           "gl_realization lower/raise inverse"),
    _fault("depth_irrational", {"max_boxes": 4}, engine, "depth",
           lambda real: lambda params, m, memo: real(params, m, memo) - (m.size == 3),
           5, {"multipartition": [[3]]}, "depth_irrational"),
]


@pytest.mark.parametrize("suite, bounds, module, name, make, checked, counterexample", PLANTED_FAULTS)
def test_planted_fault_is_caught(monkeypatch, suite, bounds, module, name, make, checked, counterexample):
    """Each suite fails on a planted fault, counting the cases it started up
    to and including the first counterexample."""
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    report = verify(suite, **bounds)
    assert report.passed is False
    assert (report.checked, report.counterexample) == (checked, counterexample)


def _depth_at_ceiling(monkeypatch, ceiling):
    # the walk from (2,1) builds four tables, with 5 + 3 + 3 + 1 corners
    monkeypatch.setattr(engine, "DEFAULT_NODE_CEILING", ceiling)
    return depth(P_IRR, Multipartition(((2, 1),)))


def _depth_of_one_row(monkeypatch, size):
    # a memo that holds the label leaves nothing to walk after the size check
    m = Multipartition(((size,),))
    return depth(P_IRR, m, {m: size})


def _wide_kgroup(fn, ell, rows):
    # every component meets content 0 once: ell results of ell components each
    params = Params(ell, IRRATIONAL, (0,) * ell)
    return fn(params, Multipartition((rows,) * ell), ZClass("content", 0))


def _suite(suite, **bounds):
    return lambda monkeypatch, ceiling: verify(suite, **bounds, ceiling=ceiling)


# site: (run(monkeypatch, x), largest x that passes, x that raises, its message)
CEILING_EDGES = {
    "depth size": (
        _depth_of_one_row,
        2_000_000,
        2_000_001,
        "depth walks up to 2000001 steps, above the ceiling 2000000",
    ),
    "depth corners": (
        _depth_at_ceiling, 12, 11, "depth would rebuild more than 11 boundary corners"
    ),
    "build_graph": (
        lambda monkeypatch, c: build_graph(Params(2, IRRATIONAL, (0, 1)), 2, node_ceiling=c),
        16,
        15,
        "graph would hold more than 15 components (nodes x ell); raise the ceiling to proceed",
    ),
    "axioms": (
        _suite("axioms", n=3),
        8,
        7,
        "2^3 words exceed the ceiling 7; raise it explicitly to proceed",
    ),
    "comb_lemma": (
        _suite("comb_lemma", n=3),
        8,
        7,
        "2^3 words exceed the ceiling 7; raise it explicitly to proceed",
    ),
    "confluence": (
        _suite("confluence", n=2, trials=3),
        21,
        20,
        "confluence would rewrite every word up to length 2 x 3 trials, above the ceiling 20; "
        "raise it explicitly to proceed",
    ),
    "boundary_invariance": (
        _suite("boundary_invariance", params=Params(3, IRRATIONAL, (0, 1, 2)), max_boxes=0),
        9,
        8,
        "boundary_invariance would rebuild more than 8 boundary corners; "
        "raise the ceiling to proceed",
    ),
    "realization_consistency": (
        _suite("realization_consistency", params=P_HALF, max_boxes=0),
        2,
        1,
        "realization_consistency would compare more than 1 boundary entries; "
        "raise the ceiling to proceed",
    ),
    "gl_realization": (
        _suite("gl_realization", n=2, p=3, entry_bound=3),
        18,
        17,
        "gl_realization would run more than 17 checks; raise the ceiling to proceed",
    ),
    "kgroup_induction": (
        lambda monkeypatch, ell: _wide_kgroup(kgroup_induction, ell, ()),
        1414,
        1415,
        "kgroup induction would build 2002225 components (results x ell), "
        "above the ceiling 2000000",
    ),
    "kgroup_restriction": (
        lambda monkeypatch, ell: _wide_kgroup(kgroup_restriction, ell, (1,)),
        1414,
        1415,
        "kgroup restriction would build 2002225 components (results x ell), "
        "above the ceiling 2000000",
    ),
    "depth_irrational": (
        _suite("depth_irrational", max_boxes=3),
        7,
        6,
        "depth_irrational would visit more than 6 labels; raise the ceiling to proceed",
    ),
    "plus_flips": (
        lambda monkeypatch, k: plus_flips("+" * k),
        1414,
        1415,
        "flips of a word of length 1415 would write 2002225 symbols, above the ceiling 2000000",
    ),
    "minus_flips": (
        lambda monkeypatch, k: minus_flips("-" * k),
        1414,
        1415,
        "flips of a word of length 1415 would write 2002225 symbols, above the ceiling 2000000",
    ),
    "cyclotomic_c": (
        lambda monkeypatch, ell: cyclotomic_c(Params(ell, HALF, (0,) * ell)),
        1415,
        1416,
        "cyclotomic_c at ell=1416 sums 2002225 terms, above the ceiling 2000000",
    ),
}


@pytest.mark.parametrize("site", CEILING_EDGES)
def test_ceiling_message_at_its_edge(monkeypatch, site):
    """Every ceiling lets its largest allowed work through, and one unit
    more raises ResourceCeilingError with exactly this message."""
    run, allowed, over, message = CEILING_EDGES[site]
    run(monkeypatch, allowed)
    with pytest.raises(ResourceCeilingError) as raised:
        run(monkeypatch, over)
    assert type(raised.value) is ResourceCeilingError
    assert raised.value.message == message
