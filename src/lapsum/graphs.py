"""Simple undirected graphs: representation, named families, graph6 codec, sources.

Vertices are dense integers 0..n-1. Graphs are immutable after construction;
every module reads adjacency through the same accessors (``Graph.edges`` for
edge iteration, ``Graph.neighbors`` for per-vertex sorted neighbor lists),
components, bipartiteness and forest depths through one cached ``Graph.search``,
and a graph6 string's n through one header reader, ``graph6_order``."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property, wraps
from itertools import combinations, compress, permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or vertex out of range."""


class AlgorithmError(RuntimeError):
    """A verified certificate failed its own invariants."""


class SizeCapError(ValueError):
    """Input exceeds the documented exact-mode size cap."""


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem.

    ``reason`` is the message without the offset, for re-raising with context.
    """

    def __init__(self, reason: str, offset: int = 0):
        super().__init__(f"{reason} (byte offset {offset})")
        self.reason = reason
        self.offset = offset


class Search(NamedTuple):
    """``Graph.search``: the components in the order of their smallest
    vertices, each vertex's distance from its component's smallest vertex,
    and bipartiteness (an edge inside one distance layer closes an odd cycle)."""

    components: tuple[frozenset[int], ...]
    depth: tuple[int, ...]
    bipartite: bool


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1. ``edges`` holds each edge
    once, as (u, v) with u < v, in strictly increasing lexicographic order,
    so one labeled graph has one ``Graph``."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError(f"negative vertex count {self.n}")
        prev = ()  # below every edge
        for e in self.edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if e <= prev:
                raise GraphError(f"{'repeated' if e == prev else 'unsorted'} edge ({u},{v})")
            prev = e

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:  # sorted edges give v its smaller neighbours, then its larger
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_set

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def search(self) -> Search:
        """Breadth-first search from the smallest vertex of each component."""
        adj = self.adjacency
        depth = [-1] * self.n
        comps = []
        bipartite = True
        for root in range(self.n):
            if depth[root] >= 0:
                continue
            depth[root] = 0
            comp = [root]
            for u in comp:  # comp is the queue: it grows while it is read
                d = depth[u]
                for w in adj[u]:
                    if depth[w] < 0:
                        depth[w] = d + 1
                        comp.append(w)
                    elif depth[w] == d:
                        bipartite = False
            comps.append(frozenset(comp))
        return Search(tuple(comps), tuple(depth), bipartite)


def per_graph(fn):
    """Memoize the one-argument ``fn(g)`` on the ``Graph`` instance g, in its
    ``__dict__`` as ``cached_property`` keeps ``adjacency``. Equal but distinct
    graphs share no entry; every later call on g returns the same object, so
    ``fn`` must be a pure function of g whose result is immutable."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memo(g: Graph):
        memos = g.__dict__
        if key not in memos:
            memos[key] = fn(g)
        return memos[key]

    return memo


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from pairs in any order and orientation; a pair given
    twice, in either orientation, raises ``GraphError``."""
    return Graph(n, tuple(sorted((u, v) if u < v else (v, u) for u, v in edges)))


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62)

#: the largest n of graph6's short form, whose first byte is n + 63
GRAPH6_MAX_N = 62
_G6_MIN, _G6_MAX = 63, 126
_G6_BYTES = bytes(range(_G6_MIN, _G6_MAX + 1))
#: place values of the six bits in one graph6 data byte
_G6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def graph6_order(text: str) -> int:
    """The n that the first byte of a graph6 string gives; the extended-length
    form, which starts with ``~``, raises ``Graph6Error``."""
    n = ord(text[0]) - 63
    if n > GRAPH6_MAX_N:
        raise Graph6Error("extended-length graph6 forms are not supported", 0)
    return n


def check_graph6(text: str) -> str:
    """Validate a one-line graph6 string (header-free short form); return it stripped.

    Checks the byte range, the length the first byte implies, and zero padding.
    """
    text = text.strip()
    if not text:
        raise Graph6Error("empty graph6 string", 0)
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(
            f"character {text[exc.start]!r} outside graph6 range 63..126", exc.start
        ) from None
    if data.translate(None, _G6_BYTES):  # some byte is out of range: find the first
        for i, b in enumerate(data):
            if not (_G6_MIN <= b <= _G6_MAX):
                raise Graph6Error(f"character {chr(b)!r} outside graph6 range 63..126", i)
    n = graph6_order(text)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 != nbytes:
        raise Graph6Error(
            f"expected {nbytes} data bytes for n={n}, got {len(data) - 1}", 0
        )
    pad = 6 * nbytes - nbits
    if pad and (data[-1] - 63) & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", nbytes)
    return text


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string (header-free short form)."""
    text = check_graph6(text)
    return bits_graph(graph6_order(text), graph6_bits([text])[0])


def bits_graph(n: int, bits: np.ndarray) -> Graph:
    """The graph on n vertices whose edge bits, in graph6 order, are ``bits``."""
    return Graph(n, tuple(compress(_pairs(n), bits[_lex_positions(n)].tolist())))


@cache
def graph6_pairs(n: int) -> np.ndarray:
    """The (u, v) pair of each graph6 bit position on n vertices, as a
    read-only (C(n,2), 2) array."""
    pairs = np.array([(u, v) for v in range(1, n) for u in range(v)], dtype=np.intp)
    pairs = pairs.reshape(-1, 2)
    pairs.setflags(write=False)
    return pairs


def graph6_bits(strings: Sequence[str]) -> np.ndarray:
    """Edge bits of validated graph6 strings that share one n, decoded together.

    Row i holds string i's C(n,2) bits in graph6 order, the pairs of
    ``graph6_pairs(n)``.
    """
    n = graph6_order(strings[0])
    nbits = n * (n - 1) // 2
    raw = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8)
    data = raw.reshape(len(strings), -1)[:, 1:] - 63
    bits = np.unpackbits(data[:, :, None], axis=2)[:, :, 2:]
    return bits.reshape(len(strings), -1)[:, :nbits]


def graph6_strings(n: int, bits: np.ndarray) -> list[str]:
    """graph6 strings of graphs on n <= 62 vertices from their edge bit rows
    in graph6 order (the inverse of ``graph6_bits``), encoded together."""
    if n > GRAPH6_MAX_N:
        raise GraphError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got n={n}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    padded = np.zeros((len(bits), 6 * nbytes), dtype=np.uint8)
    padded[:, :nbits] = bits
    data = np.empty((len(bits), 1 + nbytes), dtype=np.uint8)
    data[:, 0] = n + 63
    data[:, 1:] = (padded.reshape(len(bits), nbytes, 6) * _G6_WEIGHTS).sum(axis=2) + 63
    text = data.tobytes().decode("ascii")
    width = 1 + nbytes
    return [text[i : i + width] for i in range(0, len(text), width)]


def graph_bits(g: Graph) -> np.ndarray:
    """The edge bits of g as one row in graph6 order (the inverse of ``bits_graph``)."""
    bits = np.zeros(g.n * (g.n - 1) // 2, dtype=np.uint8)
    bits[[v * (v - 1) // 2 + u for u, v in g.edges]] = 1
    return bits


def encode_graph6(g: Graph) -> str:
    """Encode a graph in canonical graph6 short form (requires n <= 62)."""
    return graph6_strings(g.n, graph_bits(g)[None])[0]


# ---------------------------------------------------------------------------
# Structural helpers

def components_info(g: Graph) -> tuple[list[frozenset[int]], int]:
    """Connected components as vertex sets, in the order of their smallest
    vertices, plus the size of the largest one."""
    comps = g.search.components
    return list(comps), max(map(len, comps), default=0)


def induced_subgraph(g: Graph, u: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``u``, relabeled to 0..|u|-1.

    Returns the subgraph and the relabeling map (new index -> old vertex).
    """
    verts = sorted(set(u))
    for v in verts:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range for n={g.n}")
    pos = {v: i for i, v in enumerate(verts)}
    # a monotone relabelling keeps g.edges' lexicographic order
    edges = tuple((pos[a], pos[b]) for a, b in g.edges if a in pos and b in pos)
    return Graph(len(verts), edges), verts


def conjugate_rows(degs: np.ndarray) -> np.ndarray:
    """Conjugate degree sequences of the rows of an (R, n) degree block."""
    n = degs.shape[1]
    return (degs[:, None, :] >= np.arange(1, n + 1)[:, None]).sum(axis=2, dtype=np.int64)


@cache
def _vertex_bits(n: int) -> np.ndarray:
    """The graph6 bit positions of the n - 1 pairs at each vertex, as an (n, n - 1) array."""
    w, x = np.nonzero(~np.eye(n, dtype=bool))  # row w: w's pairs {w, x} in order of x
    lo, hi = np.minimum(w, x), np.maximum(w, x)
    return (hi * (hi - 1) // 2 + lo).reshape(n, max(n - 1, 0))


def degree_rows(n: int, bits: np.ndarray) -> np.ndarray:
    """(R, n) vertex degrees of graphs on n vertices from their edge bit rows, by a
    gather: a BLAS product would start threads that slow the next ``eigvalsh``."""
    return bits[:, _vertex_bits(n)].sum(axis=2, dtype=np.int64)


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union by vertex offsets; the offset edge runs follow one another in order."""
    n = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, tuple(edges))


def is_bipartite(g: Graph) -> bool:
    return g.search.bipartite


def non_isolated_count(g: Graph) -> int:
    return g.n - g.degrees().count(0)


def is_forest(g: Graph) -> bool:
    return g.m == g.n - len(g.search.components)


# ---------------------------------------------------------------------------
# Named families

@dataclass(frozen=True)
class FamilyId:
    tag: str
    args: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.tag}:{','.join(map(str, self.args))}"


_FAMILY_ARITY = {
    "complete": 1,
    "star": 1,
    "path": 1,
    "cycle": 1,
    "complete-bipartite": 2,
    "split-s": 2,
    "empty": 1,
}

_FAMILY_ALIASES = {"kbip": "complete-bipartite", "split": "split-s"}


def parse_family(text: str) -> FamilyId:
    """Parse a family descriptor like ``star:6`` or ``complete-bipartite:3,5``."""
    if ":" not in text:
        raise GraphError(f"bad family descriptor {text!r}; expected NAME:ARGS")
    name, argtext = text.split(":", 1)
    name = _FAMILY_ALIASES.get(name.lower(), name.lower())
    if name not in _FAMILY_ARITY:
        raise GraphError(f"unknown family {name!r}")
    try:
        args = tuple(int(a) for a in argtext.split(","))
    except ValueError:
        raise GraphError(f"non-integer family arguments in {text!r}") from None
    if len(args) != _FAMILY_ARITY[name]:
        raise GraphError(
            f"family {name!r} expects {_FAMILY_ARITY[name]} arguments, got {len(args)}"
        )
    return FamilyId(name, args)


def make_family(fam: FamilyId | str) -> Graph:
    """Construct a named family graph with its canonical vertex labeling."""
    if isinstance(fam, str):
        fam = parse_family(fam)
    tag, args = fam.tag, fam.args
    if tag == "complete":
        (n,) = args
        _check_positive(n)
        return graph_from_edges(n, combinations(range(n), 2))
    if tag == "star":
        (n,) = args
        _check_positive(n)
        return graph_from_edges(n, ((0, v) for v in range(1, n)))
    if tag == "path":
        (n,) = args
        _check_positive(n)
        return graph_from_edges(n, ((v, v + 1) for v in range(n - 1)))
    if tag == "cycle":
        (n,) = args
        if n < 3:
            raise GraphError(f"cycle needs n >= 3, got {n}")
        return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    if tag == "complete-bipartite":
        a, b = args
        _check_positive(a)
        _check_positive(b)
        return graph_from_edges(a + b, ((u, a + v) for u in range(a) for v in range(b)))
    if tag == "split-s":
        n, r = args
        _check_positive(n)
        if not 1 <= r <= n:
            raise GraphError(f"split-S requires 1 <= r <= n, got r={r}, n={n}")
        # vertices 1..n shifted to 0-based: edges {i,j} with i <= r, i < j <= n
        return graph_from_edges(
            n, ((i, j) for i in range(r) for j in range(i + 1, n))
        )
    if tag == "empty":
        (n,) = args
        _check_positive(n)
        return Graph(n, ())
    raise GraphError(f"unknown family tag {tag!r}")


def _check_positive(n: int):
    if n < 1:
        raise GraphError(f"family parameter must be >= 1, got {n}")


# ---------------------------------------------------------------------------
# Graph sources

ALL_LABELED_CAP = 7

@cache
def _pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pairs of n vertices in lexicographic order: edge-mask bits."""
    return list(combinations(range(n), 2))


@cache
def _lex_positions(n: int) -> np.ndarray:
    """The graph6 bit position of each pair of ``_pairs(n)`` (read-only)."""
    pos = np.array([v * (v - 1) // 2 + u for u, v in _pairs(n)], dtype=np.intp)
    pos.setflags(write=False)
    return pos


def all_labeled_count(n: int) -> int:
    """The number 2^C(n,2) of labeled graphs on n vertices, the edge masks
    0..2^C(n,2)-1; raises ``GraphError`` beyond ``ALL_LABELED_CAP``."""
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    if n > ALL_LABELED_CAP:
        raise GraphError(
            f"all-labeled enumeration capped at n={ALL_LABELED_CAP}; "
            "use a graph6 file for larger exhaustive runs"
        )
    return 1 << len(_pairs(n))


def mask_bits(n: int, lo: int, hi: int) -> np.ndarray:
    """Edge bits of the labeled graphs with edge masks lo..hi-1 on n vertices:
    the ``mask_rows`` of that range."""
    return mask_rows(n, np.arange(lo, hi, dtype=np.int64))


def mask_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """Edge bits of the labeled graphs with the int64 edge ``masks`` on n vertices.

    Bit i of a mask is the pair ``_pairs(n)[i]``; row r holds ``masks[r]``'s
    bits in graph6 order, as ``graph6_bits`` returns them.
    """
    g6_pos = _lex_positions(n)
    bits = np.empty((len(masks), len(g6_pos)), dtype=np.uint8)
    bits[:, g6_pos] = masks[:, None] >> np.arange(len(g6_pos), dtype=np.int64) & 1
    return bits


def labeled_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The isomorphism classes of the labeled graphs on n <= 7 vertices, by
    orbit marking (brute-force canonical labelling; McKay and Piperno,
    "Practical graph isomorphism, II", 2014).

    The edge masks are scanned in increasing order, and each one not yet
    marked is the least mask of a new class: all n! relabelings of its graph
    are marked with that class at once. Returns ``(reps, class_of)``: the
    int64 least masks of the classes in increasing order, and the int16 class
    index of every mask 0..2^C(n,2)-1, so ``reps[class_of[mask]]`` is the
    least mask of mask's class.
    """
    total = all_labeled_count(n)
    pairs = np.array(_pairs(n), dtype=np.intp).reshape(-1, 2)
    at = np.zeros((n, n), dtype=np.intp)
    at[pairs[:, 0], pairs[:, 1]] = at[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
    perms = list(permutations(range(n)))
    perms = np.array(perms, dtype=np.intp).reshape(len(perms), n)
    # weight[p, i]: the mask bit of pair i's image under relabeling p
    weight = np.int64(1) << at[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]
    class_of = np.full(total, -1, dtype=np.int16)
    reps: list[int] = []
    lo = 0
    while lo < total:
        unmarked = np.flatnonzero(class_of[lo : lo + _MASK_BLOCK] < 0)
        if not unmarked.size:
            lo += _MASK_BLOCK
            continue
        mask = lo + int(unmarked[0])
        on = [i for i in range(len(pairs)) if mask >> i & 1]
        class_of[weight[:, on].sum(axis=1)] = len(reps)
        reps.append(mask)
        lo = mask + 1
    return np.array(reps, dtype=np.int64), class_of


#: edge masks per numpy block: turned into bit rows, or searched for an
#: unmarked mask by ``labeled_classes``
_MASK_BLOCK = 4096


def _mask_blocks(n: int) -> Iterator[np.ndarray]:
    """The ``mask_bits`` of all edge masks on n vertices, a block at a time."""
    total = all_labeled_count(n)
    for start in range(0, total, _MASK_BLOCK):
        yield mask_bits(n, start, min(start + _MASK_BLOCK, total))


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices (n <= 7), in edge-mask
    order, built by ``bits_graph`` from the ``_mask_blocks`` rows."""
    return (bits_graph(n, row) for bits in _mask_blocks(n) for row in bits)


def all_labeled_graph6(n: int) -> Iterator[str]:
    """graph6 strings of all 2^C(n,2) labeled graphs on n vertices, in
    edge-mask order, encoded from the ``_mask_blocks``."""
    return (g6 for bits in _mask_blocks(n) for g6 in graph6_strings(n, bits))


def gnp_graphs(n: int, p: float, count: int, seed: int) -> Iterator[Graph]:
    """Reproducible G(n,p) samples from a seeded generator."""
    if not 0 <= p <= 1:
        raise GraphError(f"p must be in [0,1], got {p}")
    if count < 0:
        raise GraphError(f"count must be at least 0, got {count}")
    rng = random.Random(seed)
    pairs = _pairs(n)
    for _ in range(count):
        edges = tuple(e for e in pairs if rng.random() < p)
        yield Graph(n, edges)


def read_graph6_lines(path: str) -> Iterator[str]:
    """The validated graph6 lines of a file, stripped, without decoding them.

    Blank lines and ``#`` comments are skipped. A malformed line raises
    ``Graph6Error`` naming ``path:line``.
    """
    # a non-ASCII byte reads as U+FFFD, which check_graph6 rejects at its offset
    with open(path, encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                line = check_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"{path}:{lineno}: {exc.reason}", exc.offset) from exc
            yield line


def parse_edge_list(text: str) -> Graph:
    """Edge-list text format: first line ``n m``, then m lines ``u v`` (0-based).

    Blank lines and ``#`` comments are skipped, as in graph6 files. A pair
    given twice, in either orientation, is an error.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header line {lines[0]!r}; expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise GraphError(f"header declares {m} edges but found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return graph_from_edges(n, edges)


@dataclass(frozen=True)
class GraphSource:
    """A deterministic stream of graphs for scans.

    kinds: ``all-labeled`` (args: n), ``graph6-file`` (path), ``gnp``
    (n, p, count, seed), ``single`` (one Graph).
    """

    kind: str
    n: int = 0
    p: float = 0.0
    count: int = 0
    seed: int = 0
    path: str = ""
    graph: Graph | None = None

    def describe(self) -> str:
        if self.kind == "all-labeled":
            return f"all-labeled:{self.n}"
        if self.kind == "graph6-file":
            return f"graph6-file:{self.path}"
        if self.kind == "gnp":
            return f"gnp:n={self.n},p={self.p},count={self.count},seed={self.seed}"
        if self.kind == "single":
            return f"single:{self.single_graph6}"
        raise GraphError(f"unknown source kind {self.kind!r}")

    @cached_property
    def single_graph6(self) -> str:
        """The graph6 string of a ``single`` source's graph, encoded once for
        ``describe`` and ``graph6_stream``."""
        if self.graph is None:
            raise GraphError("single source without a graph")
        return encode_graph6(self.graph)


def graph_stream(src: GraphSource) -> Iterator[Graph]:
    """Deterministic iterator of graphs for the given source: the strings of
    ``graph6_stream(src)``, decoded."""
    return map(parse_graph6, graph6_stream(src))


def graph6_stream(src: GraphSource) -> Iterator[str]:
    """The graphs of a source as graph6 strings, in source order; the one
    dispatch over source kinds.

    All-labeled and graph6-file sources build no ``Graph`` on the way.
    """
    if src.kind == "all-labeled":
        return all_labeled_graph6(src.n)
    if src.kind == "graph6-file":
        return read_graph6_lines(src.path)
    if src.kind == "gnp":
        return map(encode_graph6, gnp_graphs(src.n, src.p, src.count, src.seed))
    if src.kind == "single":
        return iter([src.single_graph6])
    raise GraphError(f"unknown source kind {src.kind!r}")
