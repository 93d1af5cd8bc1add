"""Word semimetrics and the continuous Cayley graph.

``word_distance`` and ``shortest_word`` read one answer.  When the oracle
has a structural fast path, ``exact_quotient`` gives a shortest word w with
x·w = y, or None when y is not in xM, read off the normal forms; the
distance is its length, and None is a known infinity.  Otherwise they read
the distance field of the source, one breadth-first search per source
element, grown lazily in whole levels and shared by every query and ball
from that source.  Every field and ball walks the one Cayley graph of the
oracle, its out-edge table `successors`, so each product m·s is computed
once per oracle however many fields reach m.  Answers follow horizon semantics:
exact (finite, or infinite when the field's frontier empties within the
horizon or the fast path finds no quotient) or only known to exceed the
horizon.  A field's witness word is its parent chain, the first shortest
word in BFS order.

The five-case distance on the point set M ∪ (M × S × (0,1)) has one
evaluator, a reduction to base vertices that serves single points
(``gamma_distance``), finitely described regions (cell sets,
``gamma_set_distance``) and Γ's distance table on a sample
(``GammaOracle.distance_rows``) alike.  Each case is a word distance between
base vertices plus an offset: a source point leaves from its vertex, or
from either end of its edge, and a target point is reached at its vertex or
at the start of its edge.  The case formulas are affine in edge offsets
between breakpoints, so for a cell set closure extremes suffice, and the
infimum takes one word distance per pair of base vertices, at the least
offset each side reaches there.  Two points on one edge are |mu - nu| apart
instead, so offsets from an edge both sides lie on are never paired with
each other; interval gaps cover those pairs.

Offsets are exact ints over 2L, for the lcm L of the offset denominators
in play, and ``_encoded`` gives each word distance as an int, even when
known and odd when only a bound, so every minimum over the cases is a plain
min of codes plus offsets.  A point or set call reads the codes through a
memo of its own, one lookup per pair of base vertices.  A table takes one
code per pair of base vertices, not per pair of points: it builds one row
per source base over the target bases, and each point's row is the least of
its sources' rows shifted by their offsets.

Cell sets store their cells in ints alone: each edge's merged bounds over
the set's own denominator; the Fraction segments are a view, built when
read.  A translate mB takes one product m·v per distinct base v of B and
keeps B's integer bounds; when m identifies no two bases, as a
left-cancellable m never does, nothing is merged, checked or sorted again.
Membership is a lookup of the point's edge and an integer comparison.  A
set distance reads each set's entries, base -> least offset, from its
integer bounds, scaled to a common 2L; a source set caches its own, the
ones that take products, for use against every set it shares no edge with.
Only a shared edge makes it key the entries on that edge and scan the
same-edge gaps.
"""

from __future__ import annotations

import math
import operator
import weakref
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .errors import HorizonTooSmall, InvalidElement, NoPath
from .extnum import INF, ExtNonNeg, Frozen, TruncatedDistance
from .monoids import MonoidOracle, Word, format_word
from .spaces import SemimetricSpace, ViolationReport


# ---------------------------------------------------------------------------
# Word distance (structural fast path, else the source's distance field)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _known(depth: int) -> TruncatedDistance:
    return TruncatedDistance.known(ExtNonNeg.finite(depth))


_KNOWN_INF = TruncatedDistance.known(INF)


def word_distance(oracle: MonoidOracle, x: Word, y: Word, horizon: int) -> TruncatedDistance:
    """d(x,y) in the word semimetric, known up to `horizon`.

    x and y must be normal forms, as `parse_word` returns them: a target
    that is not one is never found by the distance field.
    """
    # A structural quotient is a few slice comparisons and a field answer a
    # lookup once the field is grown, so neither is memoized.
    w = () if x == y else oracle.exact_quotient(x, y)
    if w is NotImplemented:
        field = oracle.distance_field(x)
        depth = field.depth(y, horizon)
        if depth is not None:
            return _known(depth)
        if field.empty_level is not None and field.empty_level <= horizon:
            return _KNOWN_INF
        return TruncatedDistance.unknown_above(ExtNonNeg.finite(horizon))
    return _KNOWN_INF if w is None else _known(len(w))


def shortest_word(oracle: MonoidOracle, x: Word, y: Word, horizon: int) -> Word:
    """A witness word w of length d(x,y) with x*w = y; NoPath if none certified.

    x and y must be normal forms, as for `word_distance`.
    """
    # The same answer as word_distance's, read the same way.
    w = () if x == y else oracle.exact_quotient(x, y)
    if w is NotImplemented:
        field = oracle.distance_field(x)
        w = field.word_to(y) if field.depth(y, horizon) is not None else None
    if w is None:
        raise NoPath(f"no certified finite path from {format_word(x)} to {format_word(y)}")
    return w


# ---------------------------------------------------------------------------
# Cayley points
# ---------------------------------------------------------------------------


class Vertex(Frozen):
    __slots__ = ("element",)

    def __init__(self, element: Word):
        object.__setattr__(self, "element", element)

    def __str__(self) -> str:
        return f"v:{format_word(self.element)}"


class EdgePoint(Frozen):
    __slots__ = ("element", "gen", "mu")

    def __init__(self, element: Word, gen: str, mu: Fraction):
        if not isinstance(mu, Fraction):
            mu = Fraction(mu)
        if not (0 < mu < 1):
            raise InvalidElement(f"edge offset must lie strictly between 0 and 1, got {mu}")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "mu", mu)

    def __str__(self) -> str:
        return f"e:{format_word(self.element)}:{self.gen}:{self.mu.numerator}/{self.mu.denominator}"


CayleyPoint = Union[Vertex, EdgePoint]


# ---------------------------------------------------------------------------
# The five-case distance
# ---------------------------------------------------------------------------

# Sources and targets are flat (base, edge, offset) entries, offsets ints over
# 2L for one common denominator L that the caller chooses.  An entry carries
# the edge its point lies on, or None, and two entries that carry the same
# edge are never paired: points on one edge are |mu - nu| apart instead.


def _encoded(oracle: MonoidOracle, s: Word, t: Word, scale: int, horizon: int) -> Optional[int]:
    """2*L*d(s, t), plus 1 when d(s, t) is only known to exceed that value,
    or None when it is a known infinity; L is ``scale``.

    Every five-case minimum keeps truncated_min's order: least value first,
    and a known value before an unknown bound of the same size.  A known
    value is even and a bound odd, so a plain min of these codes, with
    offsets over 2L added, keeps that order, and ``_truncated`` reads the
    least one back; None, above every code, is left out of the min.
    """
    d = word_distance(oracle, s, t, horizon)
    v = d.value.frac  # word distances and horizons are whole numbers
    return None if v is None else 2 * scale * v.numerator + (not d.is_known)


def _base_pair_distance(
    oracle: MonoidOracle, sources, targets, best: Optional[int], scale: int, horizon: int
) -> Optional[int]:
    """The least of ``best`` (a same-edge gap, or None) and _encoded(s, t) +
    a + b over sources (s, e, a) and targets (t, f, b) with e None or e != f,
    offsets over 2L where L is ``scale``; None, a known infinity, if none.
    Each pair of bases costs one word distance, read through a memo."""
    memo: dict = {}
    for s, s_edge, a in sources:
        for t, t_edge, b in targets:
            if s_edge is not None and s_edge == t_edge:
                continue
            d = memo.get((s, t), memo)  # the memo itself marks a missing pair
            if d is memo:
                d = memo[s, t] = _encoded(oracle, s, t, scale, horizon)
            if d is not None:
                d += a + b
                if best is None or d < best:
                    best = d
    return best


def _truncated(best: Optional[int], scale: int) -> TruncatedDistance:
    """The distance a least code stands for: even is known, odd a bound."""
    if best is None:
        return _KNOWN_INF
    return TruncatedDistance("unknown_above" if best & 1 else "known", ExtNonNeg(Fraction(best >> 1, scale)))


def _target(p: CayleyPoint, scale: int) -> tuple:
    """A vertex n is reached at (n, None, 0), an edge point (n, y, nu) at
    (n, (n, y), nu), offsets over ``scale``."""
    if isinstance(p, Vertex):
        return (p.element, None, 0)
    return (p.element, (p.element, p.gen), p.mu.numerator * (scale // p.mu.denominator))


def _sources(oracle: MonoidOracle, p: CayleyPoint, scale: int) -> tuple:
    """A vertex m leaves from (m, None, 0), an edge point (m, x, mu) from
    (m, (m, x), mu) and (m·x, (m, x), 1 - mu)."""
    near = _target(p, scale)
    if near[1] is None:
        return (near,)
    far = oracle.successors(p.element)[oracle.generators.index(p.gen)]
    return near, (far, near[1], scale - near[2])


def _gap(sources: tuple, target: tuple) -> Optional[int]:
    """|mu - nu| when both points lie on one edge, else None."""
    edge = target[1]
    return abs(sources[0][2] - target[2]) if edge is not None and sources[0][1] == edge else None


def gamma_distance(oracle: MonoidOracle, p: CayleyPoint, q: CayleyPoint, horizon: int) -> TruncatedDistance:
    """d(p, q), from p's sources to q's target, offsets over 2L for the lcm L
    of their offset denominators."""
    if isinstance(p, Vertex) and isinstance(q, Vertex):
        return word_distance(oracle, p.element, q.element, horizon)
    scale = math.lcm(*(r.mu.denominator for r in (p, q) if isinstance(r, EdgePoint)))
    sources, target = _sources(oracle, p, 2 * scale), _target(q, 2 * scale)
    best = _base_pair_distance(oracle, sources, (target,), _gap(sources, target), scale, horizon)
    return _truncated(best, scale)


# ---------------------------------------------------------------------------
# Cell sets: finite descriptions of regions of the Cayley graph
# ---------------------------------------------------------------------------


class Segment(Frozen):
    __slots__ = ("element", "gen", "lo", "hi")

    def __init__(self, element: Word, gen: str, lo: Fraction, hi: Fraction):
        if not (0 <= lo <= hi <= 1):
            raise InvalidElement(f"bad segment bounds [{lo}, {hi}]")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


class CellSet:
    """Finitely many vertices plus edge segments, read as a closed region.

    The segments are stored in ints alone: ``_edges`` maps an edge (m, s)
    to its merged bounds, sorted (lo, hi) pairs over the set's own
    denominator ``_scale``, the lcm of the given bounds' denominators.
    ``segments``, the Fraction view, is built from them on first read.
    """

    def __init__(self, vertices: Iterable[Word] = (), segments: Iterable[Segment] = ()):
        self.vertices = frozenset(vertices)
        segments = tuple(segments)
        L = self._scale = math.lcm(*(f.denominator for g in segments for f in (g.lo, g.hi)))
        self._edges = _merged(
            ((g.element, g.gen), g.lo.numerator * L // g.lo.denominator, g.hi.numerator * L // g.hi.denominator)
            for g in segments
        )
        self._segments: Optional[tuple[Segment, ...]] = None
        self._sources: Optional[tuple[weakref.ref, list[tuple]]] = None

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The segments, merged and sorted by edge and lower bound."""
        if self._segments is None:
            L = self._scale
            self._segments = tuple(
                Segment(m, s, Fraction(lo, L), Fraction(hi, L))
                for (m, s), bounds in sorted(self._edges.items())
                for lo, hi in bounds
            )
        return self._segments

    def __bool__(self) -> bool:
        return bool(self.vertices) or bool(self._edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CellSet)
            and self.vertices == other.vertices
            and self.segments == other.segments
        )

    def __hash__(self):
        return hash((self.vertices, self.segments))

    def translate(self, oracle: MonoidOracle, m: Word) -> "CellSet":
        """mB: one product m*v per distinct base v, with the integer bounds
        kept over B's own denominator.

        When m is injective on the bases, as every left-cancellable m is,
        the bounds of each edge are already merged and stay valid, so the
        edges are relabelled as they are.  Otherwise the bounds of the edges
        that now coincide are merged as the constructor merges them.
        """
        edges = self._edges
        image = {v: oracle.multiply(m, v) for v in self.vertices.union(v for v, _ in edges)}
        mB = CellSet(map(image.__getitem__, self.vertices))
        mB._scale = self._scale
        if len(set(image.values())) < len(image):
            mB._edges = _merged(((image[v], s), lo, hi) for (v, s), bounds in edges.items() for lo, hi in bounds)
        else:
            mB._edges = {(image[v], s): bounds for (v, s), bounds in edges.items()}
        return mB

    def contains(self, p: CayleyPoint) -> bool:
        """Membership in the closed region (segment endpoints included)."""
        if isinstance(p, Vertex):
            return p.element in self.vertices
        bounds = self._edges.get((p.element, p.gen))
        if bounds is None:
            return False
        # lo/L <= n/d <= hi/L, cross-multiplied.
        n, d = p.mu.numerator * self._scale, p.mu.denominator
        return any(lo * d <= n <= hi * d for lo, hi in bounds)

    def _entries(self, oracle: Optional[MonoidOracle], shared, factor: int) -> list[tuple]:
        """The set's distance entries (base, edge, least offset), offsets
        over factor*L: as a target its vertices and the lower end of each
        segment, and with an oracle also, as a source, the far end m·s of
        each segment's edge at 1 - hi.  Entries from an edge in ``shared``
        carry that edge; the others carry None."""
        L = self._scale
        entries = dict.fromkeys(((v, None) for v in self.vertices), 0)
        for (m, s), bounds in self._edges.items():
            edge = (m, s) if (m, s) in shared else None
            _offer(entries, m, edge, bounds[0][0] * factor)
            if oracle is not None:
                far = oracle.successors(m)[oracle.generators.index(s)]
                _offer(entries, far, edge, (L - bounds[-1][1]) * factor)
        return [(*key, a) for key, a in entries.items()]

    def _source_entries(self, oracle: MonoidOracle) -> list[tuple]:
        """``_entries`` as a source with no edge shared, over 2L, cached for
        the last oracle asked.  Targets are not cached: they take no
        products, and a cache on every translate costs more memory than
        the loop costs time.  The oracle is held weakly: a report keeps its
        ball until it is encoded, and must not keep the oracle's fields and
        interned words alive with it."""
        if self._sources is None or self._sources[0]() is not oracle:
            self._sources = (weakref.ref(oracle), self._entries(oracle, (), 2))
        return self._sources[1]

    def edge_bounds(self, edge: tuple[Word, str]) -> list[tuple[Fraction, Fraction]]:
        """The merged bounds of the set's segments on one edge (m, s)."""
        bounds = self._edges.get(edge, ())
        return [(Fraction(lo, self._scale), Fraction(hi, self._scale)) for lo, hi in bounds]

    def to_json(self) -> dict:
        return {
            "vertices": sorted(f"v:{format_word(v)}" for v in self.vertices),
            "segments": [
                {"base": format_word(s.element), "gen": s.gen, "lo": s.lo, "hi": s.hi} for s in self.segments
            ],
        }


def _merged(bounds: Iterable[tuple[tuple[Word, str], int, int]]) -> dict:
    """Integer bounds (edge, lo, hi) as ``CellSet._edges``: each edge's
    bounds sorted, and merged where they overlap or touch."""
    edges: dict = {}
    for edge, lo, hi in sorted(bounds):
        merged = edges.setdefault(edge, [])
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return {edge: tuple(merged) for edge, merged in edges.items()}


class Translates(dict):
    """The translates mB of one cell set B, keyed by m, each built on first use."""

    def __init__(self, oracle: MonoidOracle, B: CellSet):
        super().__init__()
        self.oracle, self.B = oracle, B

    def __missing__(self, m: Word) -> CellSet:
        mB = self[m] = self.B.translate(self.oracle, m)
        return mB


def _offer(entries: dict, base: Word, edge, offset: int) -> None:
    key = (base, edge)
    if key not in entries or offset < entries[key]:
        entries[key] = offset


def gamma_set_distance(oracle: MonoidOracle, A: CellSet, B: CellSet, horizon: int) -> TruncatedDistance:
    """Exact inf { d(a,b) : a in closure(A), b in closure(B) }.

    Only the least offset at each base matters, so a segment [lo, hi] on
    the edge (m, x) gives the sources (m, lo) and (m·x, 1 - hi) and the
    target (m, lo), as the points at its ends would.  Two points on one edge
    are |mu - nu| apart instead, which the interval gaps bound from below;
    so offsets from an edge on which both sets have segments keep that edge.
    Each set's entries are over its own L, scaled to 2L for the lcm L of the
    two; a source set that shares no edge and needs no more scaling reads
    its cached entries.
    """
    if not A or not B:
        return _KNOWN_INF
    a_edges, b_edges = A._edges, B._edges
    scale = math.lcm(A._scale, B._scale)
    fa, fb = 2 * scale // A._scale, 2 * scale // B._scale
    shared = a_edges.keys() & b_edges.keys()
    # Same-edge overlaps need the interior: |mu - nu| is convex, so interval
    # intersection (distance 0) is not visible from endpoints alone.
    least_gap = min(
        (
            max(0, b_lo * fb - a_hi * fa, a_lo * fa - b_hi * fb)
            for edge in shared
            for a_lo, a_hi in a_edges[edge]
            for b_lo, b_hi in b_edges[edge]
        ),
        default=None,
    )
    sources = A._source_entries(oracle) if not shared and fa == 2 else A._entries(oracle, shared, fa)
    best = _base_pair_distance(oracle, sources, B._entries(None, shared, fb), least_gap, scale, horizon)
    return _truncated(best, scale)


# ---------------------------------------------------------------------------
# Gamma oracle: the Cayley graph as a semimetric space
# ---------------------------------------------------------------------------


class GammaOracle(SemimetricSpace):
    """Γ_S(M) with a fixed default horizon; restriction to vertices is d_S."""

    def __init__(self, monoid: MonoidOracle, horizon: int = 8):
        self.monoid = monoid
        self.horizon = horizon

    def distance(self, p: CayleyPoint, q: CayleyPoint, horizon: Optional[int] = None) -> TruncatedDistance:
        return gamma_distance(self.monoid, p, q, self.horizon if horizon is None else horizon)

    def set_distance(self, A: CellSet, B: CellSet, horizon: Optional[int] = None) -> TruncatedDistance:
        return gamma_set_distance(self.monoid, A, B, self.horizon if horizon is None else horizon)

    def distance_rows(self, sample: Sequence[CayleyPoint]) -> tuple[list[list[int]], int, int]:
        """The rows over the lcm L of the sample's offset denominators.

        Each point is reduced to its sources and its target once, offsets
        over 2L.  Each distinct source base s gets one row of ``_encoded``
        codes over the distinct target bases t, one word distance each.
        Gathered at the sample's targets (t, f, b), with b added, it gives
        each point's row as the elementwise least, over the point's sources
        (s, e, a), of that row plus a.  Only a target on the point's own
        edge goes through ``_base_pair_distance``, for the same-edge gap.
        """
        monoid, horizon = self.monoid, self.horizon
        scale = math.lcm(*(p.mu.denominator for p in sample if isinstance(p, EdgePoint)))
        targets = [_target(q, 2 * scale) for q in sample]
        sources = [_sources(monoid, p, 2 * scale) for p in sample]
        columns: dict[Word, int] = {}
        on_edge: dict[tuple, list[int]] = {}
        for k, (t, edge, _) in enumerate(targets):
            columns.setdefault(t, len(columns))
            if edge is not None:
                on_edge.setdefault(edge, []).append(k)
        at = [columns[t] for t, _, _ in targets]
        offsets = [b for _, _, b in targets]
        base_rows: dict[Word, list] = {}  # None for a known infinity
        for s, _, _ in (entry for entries in sources for entry in entries):
            if s not in base_rows:
                base_rows[s] = [_encoded(monoid, s, t, scale, horizon) for t in columns]
        # Infinity: even, and above every finite entry plus a + b <= 4L.
        infinity = 2 * max((v for row in base_rows.values() for v in row if v is not None), default=0) + 4 * scale + 2
        gathered = {}
        for s, row in base_rows.items():
            row = [infinity if v is None else v for v in row]
            gathered[s] = list(map(operator.add, map(row.__getitem__, at), offsets))
        rows = []
        for p, entries in zip(sample, sources):
            row = None
            for s, _, a in entries:
                shifted = map(a.__add__, gathered[s])
                row = list(shifted) if row is None else list(map(min, row, shifted))
            for k in on_edge.get(entries[0][1], ()):
                row[k] = _base_pair_distance(monoid, entries, (targets[k],), _gap(entries, targets[k]), scale, horizon)
            if any(map((1).__and__, row)):
                k = next(k for k, v in enumerate(row) if v & 1)
                raise self._unknown(p, sample[k], Fraction(row[k] >> 1, scale))
            rows.append(row)
        top = max((max(filter(infinity.__gt__, row), default=0) for row in rows), default=0) >> 1
        inf = 2 * top + 1
        return [[v >> 1 if v < infinity else inf for v in row] for row in rows], scale, inf

    # -- ball cell sets ----------------------------------------------------

    def out_ball_cellset(self, center: Word, radius: Fraction, horizon: Optional[int] = None) -> CellSet:
        horizon = self.horizon if horizon is None else horizon
        radius = Fraction(radius)
        depth = int(radius)
        if depth > horizon:
            raise HorizonTooSmall(f"radius {radius} exceeds horizon {horizon}")
        # The center's field holds d(center, m) for every m it reached.
        field = self.monoid.distance_field(center)
        vertices = field.elements_up_to(depth)
        segments = [
            Segment(m, s, Fraction(0), min(Fraction(1), radius - field.reached[m][0]))
            for m in vertices
            if field.reached[m][0] < radius
            for s in self.monoid.generators
        ]
        return CellSet(vertices, segments)

    def in_ball_cellset(self, center: Word, radius: Fraction, horizon: Optional[int] = None) -> CellSet:
        """The points within `radius` of `center`.

        Every distance to the center comes from one breadth-first search from
        the center, to depth floor(radius), over the candidates' out-edges
        reversed.  That is exact: a vertex on a path of at most that length
        into the center is itself that close, hence a candidate.
        """
        horizon = self.horizon if horizon is None else horizon
        radius = Fraction(radius)
        depth = int(radius)
        if depth > horizon:
            raise HorizonTooSmall(f"radius {radius} exceeds horizon {horizon}")
        monoid = self.monoid
        candidates = monoid.in_ball_candidates(center, depth + 1, horizon)
        if candidates is None:
            raise HorizonTooSmall(f"{monoid.name}: cannot enumerate in-ball candidates")
        edges = {m: monoid.successors(m) for m in candidates}
        into: dict[Word, list[Word]] = {}
        for m, products in edges.items():
            for p in products:
                into.setdefault(p, []).append(m)
        dist = {center: 0}
        queue = [center]
        for p in queue:
            if dist[p] < depth:
                for m in into.get(p, ()):
                    if m not in dist:
                        dist[m] = dist[p] + 1
                        queue.append(m)
        # Edge (m, s) holds the offsets mu with mu + d(m, c) <= radius or
        # (1 - mu) + d(ms, c) <= radius.
        room = [radius - d for d in range(depth + 1)]
        segments = []
        for m, products in edges.items():
            dm = dist.get(m)
            for s, ms in zip(monoid.generators, products):
                if dm is not None and room[dm] > 0:
                    segments.append(Segment(m, s, Fraction(0), min(Fraction(1), room[dm])))
                dms = dist.get(ms)
                if dms is not None and room[dms] > 0:
                    segments.append(Segment(m, s, max(Fraction(0), 1 - room[dms]), Fraction(1)))
        return CellSet(dist, segments)

    def strong_ball_cellset(self, center: Word, radius: Fraction, horizon: Optional[int] = None) -> CellSet:
        out = self.out_ball_cellset(center, radius, horizon)
        inn = self.in_ball_cellset(center, radius, horizon)
        vertices = out.vertices & inn.vertices
        segments = []
        inn_by_edge: dict[tuple[Word, str], list[Segment]] = {}
        for seg in inn.segments:
            inn_by_edge.setdefault((seg.element, seg.gen), []).append(seg)
        for seg in out.segments:
            for other in inn_by_edge.get((seg.element, seg.gen), ()):
                lo = max(seg.lo, other.lo)
                hi = min(seg.hi, other.hi)
                if lo <= hi:
                    segments.append(Segment(seg.element, seg.gen, lo, hi))
        return CellSet(vertices, segments)

    def ball_cellset(self, center: Word, radius: Fraction, kind: str, horizon: Optional[int] = None) -> CellSet:
        if radius < 0:
            return CellSet()  # no point lies at a negative distance
        if kind == "out":
            return self.out_ball_cellset(center, radius, horizon)
        if kind == "in":
            return self.in_ball_cellset(center, radius, horizon)
        if kind == "strong":
            return self.strong_ball_cellset(center, radius, horizon)
        raise ValueError(f"unknown ball kind {kind!r}")


# ---------------------------------------------------------------------------
# Inclusion quasi-isometry
# ---------------------------------------------------------------------------


def check_inclusion_qi(gamma: GammaOracle, depth: int):
    """Edge points sit in strong 1-balls of their base vertices.

    On vertices, Γ's distance is d_S by definition (gamma_distance returns
    word_distance's answer), so that half of the inclusion needs no check;
    the sampled vertex pairs must still be known at the horizon.  Edge
    points need none either: a point p at offset μ on an edge out of m is
    reached from m at the start of its own edge (`_target`) and leaves
    along that edge back to m (`_sources`), so d(m, p) <= μ and
    d(p, m) <= μ, both known.  The report thus never has a violation.
    The vertices sampled are those within ``depth``, capped at Γ's horizon."""
    monoid, horizon = gamma.monoid, gamma.horizon
    ball = monoid.elements_up_to(min(horizon, depth))
    for x in ball:
        for y in ball:
            if not word_distance(monoid, x, y, horizon).is_known:
                raise HorizonTooSmall(
                    f"d({format_word(x)}, {format_word(y)}) not known at horizon {horizon}"
                )
    return ViolationReport("inclusion_qi")
