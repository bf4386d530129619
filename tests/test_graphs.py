import dataclasses
import os
import subprocess
import sys
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapsum
from lapsum.graphs import (
    ALL_LABELED_CAP,
    FamilyId,
    Graph,
    Graph6Error,
    GraphError,
    GraphSource,
    all_labeled_graph6,
    all_labeled_graphs,
    bits_graph,
    check_graph6,
    components_info,
    conjugate_rows,
    degree_rows,
    disjoint_union,
    encode_graph6,
    gnp_graphs,
    graph6_bits,
    graph6_order,
    graph6_pairs,
    graph6_stream,
    graph6_strings,
    graph_bits,
    graph_from_edges,
    graph_stream,
    induced_subgraph,
    is_bipartite,
    is_forest,
    labeled_classes,
    make_family,
    mask_bits,
    mask_rows,
    non_isolated_count,
    parse_edge_list,
    parse_family,
    parse_graph6,
    read_graph6_lines,
)

from conftest import search_graphs
from oracles import (
    loop_graph6,
    oracle_adjacency,
    oracle_bipartition,
    oracle_conjugate_degrees,
    oracle_components,
    oracle_is_forest,
    oracle_relabeling,
)


#: graph6 strings on 5 vertices and their edges, checked both ways: McKay's
#: example DQc, then what networkx 3.6.1 writes for the 28 graphs
#: ``islice(all_labeled_graphs(5), 0, 1024, 37)``
GRAPH6_TABLE = (
    ("DQc", ((0, 2), (0, 4), (1, 3), (3, 4))),
    ("D??", ()),
    ("De?", ((0, 1), (0, 3), (1, 3))),
    ("DOo", ((0, 2), (0, 4), (1, 4))),
    ("Duo", ((0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4))),
    ("DL?", ((0, 3), (1, 2), (2, 3))),
    ("Dj_", ((0, 1), (0, 4), (1, 2), (1, 3), (2, 3))),
    ("D\\o", ((0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3))),
    ("DoG", ((0, 1), (0, 2), (2, 4))),
    ("DAg", ((0, 4), (1, 3), (2, 4))),
    ("Dcw", ((0, 1), (0, 3), (0, 4), (1, 4), (2, 4))),
    ("DYW", ((0, 2), (1, 2), (1, 3), (1, 4), (2, 4))),
    ("D|G", ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (2, 4))),
    ("DNg", ((0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4))),
    ("DbW", ((0, 1), (1, 3), (1, 4), (2, 3), (2, 4))),
    ("DSC", ((0, 2), (0, 3), (3, 4))),
    ("Dqc", ((0, 1), (0, 2), (0, 4), (1, 3), (3, 4))),
    ("DGS", ((1, 2), (1, 4), (3, 4))),
    ("DmS", ((0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (3, 4))),
    ("DXc", ((0, 2), (0, 4), (1, 2), (2, 3), (3, 4))),
    ("D~c", ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4))),
    ("DFS", ((0, 3), (1, 3), (1, 4), (2, 3), (3, 4))),
    ("D_k", ((0, 1), (0, 4), (2, 4), (3, 4))),
    ("DUk", ((0, 2), (0, 3), (0, 4), (1, 3), (2, 4), (3, 4))),
    ("Dw[", ((0, 1), (0, 2), (1, 2), (1, 4), (2, 4), (3, 4))),
    ("DI{", ((0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4))),
    ("Dlk", ((0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4))),
    ("DP[", ((0, 2), (1, 4), (2, 3), (2, 4), (3, 4))),
    ("Dv[", ((0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
)


def depth_parity_sides(g):
    """The 2-colouring by the parity of ``g.search.depth``."""
    depth = g.search.depth
    return [v for v in range(g.n) if depth[v] % 2 == 0], [v for v in range(g.n) if depth[v] % 2]


def random_graph_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return graph_from_edges(n, (e for e, b in zip(pairs, mask) if b))

    return build()


class TestGraphBasics:
    def test_validation_rejects_bad_edges(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 0),))
        with pytest.raises(GraphError):
            Graph(3, ((1, 0),))  # endpoints must be ordered
        with pytest.raises(GraphError):
            Graph(2, ((0, 2),))
        with pytest.raises(GraphError, match=r"repeated edge \(0,1\)"):
            Graph(3, ((0, 1), (0, 1)))
        with pytest.raises(GraphError, match=r"unsorted edge \(0,1\)"):
            Graph(3, ((1, 2), (0, 1)))

    def test_graph_from_edges_rejects_a_repeated_pair(self):
        with pytest.raises(GraphError, match=r"repeated edge \(0,1\)"):
            graph_from_edges(3, [(0, 1), (1, 0)])
        assert graph_from_edges(3, [(1, 2), (1, 0)]) == Graph(3, ((0, 1), (1, 2)))

    def test_bad_edges_raise_under_optimize(self):
        code = (
            "from lapsum.graphs import Graph, GraphError, graph_from_edges\n"
            "for build in (lambda: Graph(3, ((1, 2), (0, 1))), lambda: Graph(3, ((0, 1), (0, 1))),\n"
            "              lambda: graph_from_edges(3, [(0, 1), (1, 0)])):\n"
            "    try:\n"
            "        build()\n"
            "    except GraphError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.splitlines() == [
            "unsorted edge (0,1)", "repeated edge (0,1)", "repeated edge (0,1)"
        ]

    @pytest.mark.parametrize("n", range(7))
    def test_canonical_from_bits_and_from_pairs(self, n):
        # mask bits name the lexicographic pairs; the pairs go in reversed
        # and flipped, so graph_from_edges has to normalize and sort them
        pairs = list(combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            given = [(v, u) for i, (u, v) in reversed(list(enumerate(pairs))) if mask >> i & 1]
            g = bits_graph(n, mask_bits(n, mask, mask + 1)[0])
            assert g == graph_from_edges(n, given), mask
            assert g.adjacency == oracle_adjacency(g), mask

    def test_adjacency_and_degrees(self):
        g = graph_from_edges(4, [(2, 0), (0, 1)])
        assert g.edges == ((0, 1), (0, 2))
        assert g.neighbors(0) == (1, 2)
        assert g.degrees() == [2, 1, 1, 0]
        assert g.has_edge(2, 0) and not g.has_edge(1, 2)


class TestGraph6:
    def test_single_edge_decodes(self):
        g = parse_graph6("A_")
        assert (g.n, g.edges) == (2, ((0, 1),))

    def test_triangle_decodes(self):
        g = parse_graph6("Bw")
        assert (g.n, g.edges) == (3, ((0, 1), (0, 2), (1, 2)))

    def test_malformed_inputs_carry_offsets(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")
        with pytest.raises(Graph6Error):
            parse_graph6("B")  # wrong byte count
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("B\x01")
        assert exc.value.offset == 1
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("Bé")  # non-ASCII, not read as '?'
        assert exc.value.offset == 1
        with pytest.raises(Graph6Error):
            parse_graph6("~???")  # extended form unsupported
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("Bx")  # C(3,2) = 3 bits, then nonzero padding
        assert exc.value.offset == 1

    @pytest.mark.parametrize(
        "bad, at, shown",
        [(" ", 100, "' '"), ("\x7f", 57, "'\\x7f'"), ("é", 90, "'é'"), (">", 1, "'>'")],
    )
    def test_first_bad_byte_deep_in_a_long_line(self, bad, at, shown):
        line = encode_graph6(next(gnp_graphs(40, 0.5, 1, seed=5)))
        text = line[:at] + bad + line[at + 1 : 120] + "\x01" + line[121:]
        with pytest.raises(Graph6Error) as exc:
            check_graph6(text)
        assert exc.value.offset == at
        assert str(exc.value) == (
            f"character {shown} outside graph6 range 63..126 (byte offset {at})"
        )

    def test_order_reads_the_first_byte(self):
        for g6 in ("?", "@", "A_", "Bw", "E?zw"):
            assert graph6_order(g6) == parse_graph6(g6).n
        assert graph6_order(encode_graph6(make_family("empty:62"))) == 62
        with pytest.raises(Graph6Error, match="extended-length"):
            graph6_order("~???")

    def test_bits_decode_a_group_at_once(self):
        graphs = list(gnp_graphs(9, 0.5, 20, seed=2)) + [make_family("empty:9")]
        bits = graph6_bits([encode_graph6(g) for g in graphs])
        pairs = graph6_pairs(9)
        assert bits.shape == (len(graphs), 36)
        for g, row in zip(graphs, bits):
            assert sorted(map(tuple, pairs[row == 1].tolist())) == list(g.edges)

    def test_encoder_matches_bit_loop(self):
        graphs = [g for n in range(7) for g in all_labeled_graphs(n)]
        graphs += [g for seed, p in enumerate((0.1, 0.5, 0.9)) for g in gnp_graphs(40, p, 1, seed)]
        graphs.append(make_family("complete:62"))
        for g in graphs:
            assert encode_graph6(g) == loop_graph6(g), g
        with pytest.raises(GraphError, match="n <= 62, got n=63"):
            encode_graph6(make_family("empty:63"))
        for n in (63, 70, 200):  # past one data byte for n: no decode or overflow error
            with pytest.raises(GraphError, match=f"n <= 62, got n={n}"):
                graph6_strings(n, np.zeros((2, n * (n - 1) // 2), dtype=np.uint8))

    def test_graph_bits_inverts_bits_graph(self):
        for n in range(6):
            for row in mask_bits(n, 0, 2 ** (n * (n - 1) // 2)):
                g = bits_graph(n, row)
                bits = graph_bits(g)
                assert bits.dtype == np.uint8 and (bits == row).all(), g
        g = make_family("complete-bipartite:30,40")  # n > 62: bits, no graph6
        assert bits_graph(g.n, graph_bits(g)) == g

    @given(random_graph_strategy())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, g):
        assert parse_graph6(encode_graph6(g)) == g

    def test_roundtrip_against_fixed_table(self):
        for text, edges in GRAPH6_TABLE:
            g = Graph(5, edges)
            assert parse_graph6(text) == g, text
            assert encode_graph6(g) == text, text
        sample = list(islice(all_labeled_graphs(5), 0, 1024, 37))
        assert [Graph(5, edges) for _, edges in GRAPH6_TABLE[1:]] == sample


class TestStructuralHelpers:
    def test_components_and_n_prime(self):
        g = disjoint_union(make_family("complete:3"), make_family("path:2"))
        comps, n_prime = components_info(g)
        assert sorted(len(c) for c in comps) == [2, 3]
        assert n_prime == 3

    def test_induced_subgraph_labels(self):
        g = make_family("cycle:5")
        sub, labels = induced_subgraph(g, [4, 0, 1])
        assert labels == [0, 1, 4]
        assert sub.edges == ((0, 1), (0, 2))

    def test_conjugate_degrees_star(self):
        # star on 4 vertices: degrees (3,1,1,1)
        g = make_family("star:4")
        conj = conjugate_rows(degree_rows(g.n, graph_bits(g)[None]))[0].tolist()
        assert conj == oracle_conjugate_degrees(g) == [4, 1, 1, 0]

    @given(random_graph_strategy())
    @settings(max_examples=100, deadline=None)
    def test_conjugate_degrees_sum(self, g):
        conj = conjugate_rows(degree_rows(g.n, graph_bits(g)[None]))[0].tolist()
        assert conj == oracle_conjugate_degrees(g)
        assert sum(conj) == 2 * g.m

    def test_bipartite_detection(self):
        assert is_bipartite(make_family("cycle:6"))
        assert not is_bipartite(make_family("cycle:5"))
        assert depth_parity_sides(make_family("complete-bipartite:2,3")) == ([0, 1], [2, 3, 4])

    def test_forest_and_isolation(self):
        assert is_forest(make_family("path:5"))
        assert not is_forest(make_family("cycle:4"))
        g = graph_from_edges(4, [(0, 1)])
        assert non_isolated_count(g) == 2


class TestSearchReaders:
    """Every reader of ``Graph.search`` against the union-find oracles."""

    def test_readers_match_oracles(self):
        for g in search_graphs():
            comps, n_prime = components_info(g)
            want = oracle_components(g)
            assert comps == want, g
            assert n_prime == max(map(len, want), default=0)
            sides = oracle_bipartition(g)
            assert is_bipartite(g) == (sides is not None), g
            assert sides in (None, depth_parity_sides(g)), g
            assert is_forest(g) == oracle_is_forest(g), g


#: every function memoized with ``per_graph``
MEMOIZED = (lapsum.maximum_matching, lapsum.partition_density, lapsum.eps_profile)


class TestPerGraphMemo:
    @pytest.mark.parametrize("fn", MEMOIZED)
    def test_equal_graphs_share_no_entry(self, fn):
        a, b = make_family("cycle:5"), make_family("cycle:5")
        assert a == b and a is not b
        first = fn(a)
        assert fn(b) == first and fn(b) is not first

    @pytest.mark.parametrize("fn", MEMOIZED)
    def test_second_call_returns_the_same_object(self, fn):
        g = make_family("complete-bipartite:2,3")
        assert fn(g) is fn(g)

    @pytest.mark.parametrize("fn", MEMOIZED)
    def test_results_are_frozen(self, fn):
        # a frozen dataclass hashes its fields, so a mutable field fails the hash
        result = fn(make_family("split-s:5,2"))
        assert dataclasses.is_dataclass(result)
        assert type(result).__dataclass_params__.frozen
        hash(result)


class TestFamilies:
    def test_parse_family_forms(self):
        assert parse_family("star:6") == FamilyId("star", (6,))
        assert parse_family("kbip:3,5") == FamilyId("complete-bipartite", (3, 5))
        assert parse_family("split:7,2") == FamilyId("split-s", (7, 2))
        for bad in ("star", "star:x", "star:1,2", "nosuch:3"):
            with pytest.raises(GraphError):
                parse_family(bad)

    def test_family_shapes(self):
        assert make_family("complete:5").m == 10
        assert make_family("star:6").degrees()[0] == 5
        assert make_family("path:4").m == 3
        assert make_family("cycle:5").m == 5
        assert make_family("complete-bipartite:3,5").m == 15
        assert make_family("empty:4").m == 0

    def test_split_family_structure(self):
        # r dominating vertices forming a clique joined to everything
        g = make_family("split-s:6,2")
        # edges {i,j} with i < j and i among the r=2 dominating vertices
        assert g.m == sum(6 - i - 1 for i in range(2))
        assert g.degrees()[0] == 5 and g.degrees()[1] == 5
        assert g.degrees()[5] == 2


class TestSources:
    def test_all_labeled_count_and_cap(self):
        assert sum(1 for _ in all_labeled_graphs(4)) == 2**6
        with pytest.raises(GraphError):
            next(all_labeled_graphs(ALL_LABELED_CAP + 1))

    @pytest.mark.parametrize("n", range(0, 7))
    def test_all_labeled_graphs_are_the_mask_rows(self, monkeypatch, n):
        def no_codec(*args):
            raise AssertionError("all_labeled_graphs went through graph6")

        monkeypatch.setattr("lapsum.graphs.parse_graph6", no_codec)
        monkeypatch.setattr("lapsum.graphs.check_graph6", no_codec)
        bits = mask_bits(n, 0, 2 ** (n * (n - 1) // 2))
        assert list(all_labeled_graphs(n)) == [bits_graph(n, row) for row in bits]

    @pytest.mark.parametrize("n", range(0, 6))
    def test_all_labeled_graph6_follows_all_labeled_graphs(self, n):
        assert list(all_labeled_graph6(n)) == [
            loop_graph6(g) for g in all_labeled_graphs(n)
        ]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_mask_bits_name_each_masks_graph(self, n):
        # bit i of a mask is the i-th pair in lexicographic order
        pairs = list(combinations(range(n), 2))
        total = 2 ** len(pairs)
        bits = mask_bits(n, 0, total)
        names = graph6_strings(n, bits)
        assert names == [
            loop_graph6(Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1)))
            for mask in range(total)
        ]
        assert (graph6_bits(names) == bits).all()
        assert (mask_bits(n, total // 3, total // 2) == bits[total // 3 : total // 2]).all()
        masks = np.array([total - 1, 0, total // 3, total - 1], dtype=np.int64)
        assert (mask_rows(n, masks) == bits[masks]).all()

    def test_labeled_class_counts(self):
        # OEIS A000088: graphs on n unlabeled vertices
        counts = [len(labeled_classes(n)[0]) for n in range(ALL_LABELED_CAP + 1)]
        assert counts == [1, 1, 2, 4, 11, 34, 156, 1044]
        with pytest.raises(GraphError):
            labeled_classes(ALL_LABELED_CAP + 1)

    @pytest.mark.parametrize("n", range(ALL_LABELED_CAP + 1))
    def test_each_class_is_named_by_its_least_mask(self, n):
        reps, class_of = labeled_classes(n)
        assert reps.dtype == np.int64 and class_of.dtype == np.int16
        assert len(class_of) == 2 ** (n * (n - 1) // 2)
        assert (np.diff(reps) > 0).all() and (class_of[reps] == np.arange(len(reps))).all()
        assert (reps[class_of] <= np.arange(len(class_of))).all()

    @pytest.mark.parametrize("n", range(7))
    def test_each_mask_relabels_onto_its_representative(self, n):
        # with the class counts above, the classes are the isomorphism classes
        reps, class_of = labeled_classes(n)
        pairs = list(combinations(range(n), 2))

        def graph(mask):
            return Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))

        targets = [graph(r) for r in reps.tolist()]
        for mask, c in enumerate(class_of.tolist()):
            g, h = graph(mask), targets[c]
            p = oracle_relabeling(g, h)
            assert p is not None, mask
            assert sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges) == list(h.edges)

    def test_all_labeled_graph6_cap(self):
        with pytest.raises(GraphError):
            next(all_labeled_graph6(ALL_LABELED_CAP + 1))

    def test_graph6_file_lines_pass_through(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\n# comment\n  Bw \n\nD~{\n")
        assert list(read_graph6_lines(str(path))) == ["A_", "Bw", "D~{"]
        src = GraphSource("graph6-file", path=str(path))
        assert list(graph6_stream(src)) == [encode_graph6(g) for g in graph_stream(src)]

    def test_gnp_is_seeded(self):
        a = [g.edges for g in gnp_graphs(10, 0.4, 5, seed=3)]
        b = [g.edges for g in gnp_graphs(10, 0.4, 5, seed=3)]
        c = [g.edges for g in gnp_graphs(10, 0.4, 5, seed=4)]
        assert a == b and a != c

    def test_edge_list_format(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))
        with pytest.raises(GraphError):
            parse_edge_list("3 2\n0 1\n")
        for text in ("3 3\n0 1\n1 0\n1 2\n", "3 3\n0 1\n1 2\n0 1\n"):
            with pytest.raises(GraphError, match=r"repeated edge \(0,1\)"):
                parse_edge_list(text)

    def test_graph6_file_stream(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\n# comment\nBw\n")
        src = GraphSource("graph6-file", path=str(path))
        gs = list(graph_stream(src))
        assert [g.n for g in gs] == [2, 3]

    def test_graph6_file_strict_vs_lenient(self, tmp_path, capsys):
        # there is no lenient mode: a malformed line raises, naming its line,
        # from both streams, and nothing is printed
        path = tmp_path / "bad.g6"
        path.write_text("A_\nB\n")
        src = GraphSource("graph6-file", path=str(path))
        for stream in (graph_stream, graph6_stream):
            with pytest.raises(Graph6Error, match=f"{path}:2: expected 1 data bytes"):
                list(stream(src))
        assert capsys.readouterr() == ("", "")

    def test_graph6_file_rejects_non_ascii(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"A_\nB\xe9\nBw\n")  # one non-ASCII byte
        src = GraphSource("graph6-file", path=str(path))
        for stream in (graph_stream, graph6_stream):
            with pytest.raises(Graph6Error, match=f"{path}:2: .*byte offset 1") as exc:
                list(stream(src))
            assert str(exc.value).count("byte offset") == 1
            assert exc.value.offset == 1
        assert capsys.readouterr() == ("", "")

    def test_describe(self):
        assert GraphSource("all-labeled", n=5).describe() == "all-labeled:5"
        assert "seed=9" in GraphSource("gnp", n=8, p=0.5, count=3, seed=9).describe()

    def test_describe_single_without_graph(self):
        with pytest.raises(GraphError, match="single source without a graph"):
            GraphSource("single").describe()
