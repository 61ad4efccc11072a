"""Discrete Bayesian network model: representation, parsing, structural queries.

A network is a DAG over variables 0..n-1 with one conditional probability
table per variable. Domain values are contiguous integers starting at 0, and
every tuple enumeration in this package is lexicographic in (variable order,
value order), which gives a canonical meaning to "the first h tuples".

Evidence is a plain ``dict`` mapping variable id -> observed value. A partial
assignment is an ordered tuple of ``(variable id, value)`` pairs.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

Evidence = dict[int, int]
PartialAssignment = tuple[tuple[int, int], ...]

#: CPT rows must sum to one within this tolerance; rows are never renormalized
#: silently (fail fast keeps oracle comparisons exact).
ROW_SUM_TOL = 1e-9


class NetworkFormatError(ValueError):
    """Malformed network or evidence document."""


@dataclass(frozen=True)
class Variable:
    """A discrete variable with domain {0, ..., cardinality-1}."""

    id: int
    name: str
    cardinality: int


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table P(child | parents).

    ``table`` has shape (*parent cardinalities, child cardinality): parent
    configurations index the leading axes (row-major, first parent outermost)
    and the child value indexes the last axis, so ``table[u]`` is the child
    distribution for parent configuration ``u``.
    """

    child: int
    parents: tuple[int, ...]
    table: np.ndarray


#: Byte budget of one network's structure cache; beyond it the least
#: recently used entries are dropped.
CACHE_BYTES = 64 * 2**20

#: Bytes charged per array of a cache entry on top of its data, and once for
#: the entry itself: an array object with its share of the tuples and numbers
#: around it. A walk over every object of bf and abdp entries measured
#: 270-460 bytes.
_ARRAY_OVERHEAD = 320


def held_bytes(arrays: list[np.ndarray]) -> int:
    """What a cache entry holding these arrays costs, roughly."""
    return sum(a.nbytes for a in arrays) + _ARRAY_OVERHEAD * (len(arrays) + 1)


class StructureCache:
    """What is derived from a network's structure and CPTs alone (elimination
    plans, blanket structures), kept for reuse across queries: a
    least-recently-used map whose entries, charged by ``held_bytes``, stay
    within ``CACHE_BYTES``. An entry larger than the whole budget is not
    kept."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()  # key -> (value, bytes)
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        hit = self._entries.get(key)
        if hit is None:
            return None
        self._entries.move_to_end(key)
        return hit[0]

    def put(self, key, value, nbytes: int) -> None:
        """Keep ``value``, charged ``nbytes``, under a key that ``get`` missed."""
        if nbytes > CACHE_BYTES:
            return
        self._entries[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > CACHE_BYTES:
            _, (_, dropped) = self._entries.popitem(last=False)
            self.nbytes -= dropped


@dataclass
class BayesianNetwork:
    """Immutable-by-convention network: do not mutate after construction."""

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]
    _cache: StructureCache = field(default_factory=StructureCache, repr=False, compare=False)

    def __post_init__(self):
        self.cards = tuple(v.cardinality for v in self.variables)
        self.children: tuple[tuple[int, ...], ...] = _children_lists(self)
        self.topo_order: tuple[int, ...] = _topological_order(self)

    @property
    def n(self) -> int:
        return len(self.variables)

    def parents(self, var: int) -> tuple[int, ...]:
        return self.cpts[var].parents


def _children_lists(bn: BayesianNetwork) -> tuple[tuple[int, ...], ...]:
    kids: list[list[int]] = [[] for _ in bn.variables]
    for cpt in bn.cpts:
        for p in cpt.parents:
            kids[p].append(cpt.child)
    return tuple(tuple(sorted(k)) for k in kids)


def _topological_order(bn: BayesianNetwork) -> tuple[int, ...]:
    indeg = [len(c.parents) for c in bn.cpts]
    ready = sorted(v for v in range(bn.n) if indeg[v] == 0)
    order: list[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in bn.children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                # keep determinism: insert sorted
                lo, hi = 0, len(ready)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if ready[mid] < w:
                        lo = mid + 1
                    else:
                        hi = mid
                ready.insert(lo, w)
    if len(order) != bn.n:
        raise NetworkFormatError("parent structure contains a directed cycle")
    return tuple(order)


def validate_network(bn: BayesianNetwork) -> None:
    """Check all structural invariants; raise NetworkFormatError on failure."""
    for i, v in enumerate(bn.variables):
        if v.id != i:
            raise NetworkFormatError(f"variable ids must be dense 0..n-1, got {v.id} at {i}")
        if v.cardinality < 1:
            raise NetworkFormatError(f"variable {i} has cardinality {v.cardinality} < 1")
    if len(bn.cpts) != bn.n:
        raise NetworkFormatError("exactly one CPT per variable required")
    for i, cpt in enumerate(bn.cpts):
        if cpt.child != i:
            raise NetworkFormatError(f"CPT {i} is for child {cpt.child}; expected {i}")
        expect = tuple(bn.cards[p] for p in cpt.parents) + (bn.cards[i],)
        if cpt.table.shape != expect:
            raise NetworkFormatError(
                f"CPT for variable {i}: table shape {cpt.table.shape} != {expect}"
            )
        _check_rows(cpt, i)
    _topological_order(bn)  # raises on cycles


def _check_rows(cpt: Cpt, child: int) -> None:
    flat = cpt.table.reshape(-1, cpt.table.shape[-1])
    # NaN fails every comparison below, so it is rejected on its own
    if not np.all(np.isfinite(flat)):
        raise NetworkFormatError(f"CPT for variable {child}: entries not finite")
    if np.any(flat < 0.0) or np.any(flat > 1.0):
        raise NetworkFormatError(f"CPT for variable {child}: entries outside [0, 1]")
    sums = flat.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        r = int(bad[0])
        raise NetworkFormatError(
            f"CPT for variable {child}: row {r} sums to {sums[r]!r}, expected 1"
        )


# ---------------------------------------------------------------------------
# parsing

class _Tokens:
    """Whitespace token stream that remembers line numbers for error reports."""

    def __init__(self, text: str):
        self.items: list[tuple[str, int]] = []
        for ln, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self.items.append((tok, ln))
        self.pos = 0

    def next(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.items):
            raise NetworkFormatError(f"unexpected end of document: expected {what}")
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def end(self, what: str) -> None:
        """Reject any token left after the last one the format allows."""
        if self.pos < len(self.items):
            tok, ln = self.items[self.pos]
            raise NetworkFormatError(f"line {ln}: unexpected token {tok!r} after {what}")

    def next_int(self, what: str) -> int:
        tok, ln = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise NetworkFormatError(f"line {ln}: expected {what}, got {tok!r}") from None

    def next_float(self, what: str) -> float:
        tok, ln = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise NetworkFormatError(f"line {ln}: expected {what}, got {tok!r}") from None


def parse_network(text: str) -> BayesianNetwork:
    """Parse a UAI-format Bayesian network document.

    Layout: token "BAYES"; variable count n; n cardinalities; factor count
    (must equal n); n scope lines "k i_1 ... i_k" with the child variable
    last; n table blocks, each an entry count followed by that many
    probabilities in row-major order (parent configurations outer, child
    value inner). Whitespace-insensitive.

    Raises:
        NetworkFormatError: malformed header, non-stochastic row, cyclic
            structure, or out-of-range index — with the offending line.
    """
    toks = _Tokens(text)
    kind, ln = toks.next("preamble")
    if kind.upper() != "BAYES":
        raise NetworkFormatError(f"line {ln}: expected 'BAYES' preamble, got {kind!r}")
    n = toks.next_int("variable count")
    if n < 1:
        raise NetworkFormatError("variable count must be >= 1")
    cards = [toks.next_int(f"cardinality of variable {i}") for i in range(n)]
    for i, c in enumerate(cards):
        if c < 1:
            raise NetworkFormatError(f"variable {i}: cardinality {c} < 1")
    n_factors = toks.next_int("factor count")
    if n_factors != n:
        raise NetworkFormatError(
            f"factor count {n_factors} != variable count {n} (one CPT per variable)"
        )

    scopes: list[tuple[int, ...]] = []
    seen_children: set[int] = set()
    for f in range(n):
        k = toks.next_int(f"scope size of factor {f}")
        if k < 1:
            raise NetworkFormatError(f"factor {f}: scope size {k} < 1")
        scope = []
        for j in range(k):
            idx, ln = toks.next(f"scope member {j} of factor {f}")
            try:
                iv = int(idx)
            except ValueError:
                raise NetworkFormatError(f"line {ln}: scope member {idx!r} not an integer") from None
            if not (0 <= iv < n):
                raise NetworkFormatError(f"line {ln}: variable index {iv} out of range 0..{n - 1}")
            scope.append(iv)
        child = scope[-1]
        if child in seen_children:
            raise NetworkFormatError(f"factor {f}: variable {child} already has a CPT")
        if len(set(scope)) != len(scope):
            raise NetworkFormatError(f"factor {f}: repeated variable in scope {scope}")
        seen_children.add(child)
        scopes.append(tuple(scope))

    cpts_by_child: dict[int, Cpt] = {}
    for f, scope in enumerate(scopes):
        child = scope[-1]
        parents = scope[:-1]
        m = toks.next_int(f"entry count of table {f}")
        want = 1
        for v in scope:
            want *= cards[v]
        if m != want:
            raise NetworkFormatError(
                f"table {f} (variable {child}): {m} entries declared, scope needs {want}"
            )
        vals = np.array(
            [toks.next_float(f"entry {j} of table {f}") for j in range(m)], dtype=np.float64
        )
        shape = tuple(cards[p] for p in parents) + (cards[child],)
        cpts_by_child[child] = Cpt(child=child, parents=parents, table=vals.reshape(shape))
    toks.end("the last table")

    variables = tuple(Variable(i, f"X{i}", cards[i]) for i in range(n))
    bn = BayesianNetwork(variables=variables, cpts=tuple(cpts_by_child[i] for i in range(n)))
    validate_network(bn)
    return bn


def parse_evidence(text: str) -> Evidence:
    """Parse an evidence document: count m, then m "variable value" pairs.

    Values are range-checked later, when the evidence is bound to a network
    (see validate_evidence). Duplicate variables are rejected here.
    """
    toks = _Tokens(text)
    m = toks.next_int("evidence pair count")
    if m < 0:
        raise NetworkFormatError(f"evidence pair count {m} < 0")
    ev: Evidence = {}
    for j in range(m):
        var = toks.next_int(f"variable of pair {j}")
        val = toks.next_int(f"value of pair {j}")
        if var in ev:
            raise NetworkFormatError(f"duplicate evidence variable {var}")
        ev[var] = val
    toks.end(f"{m} evidence pairs")
    return ev


def validate_evidence(bn: BayesianNetwork, e: Evidence) -> None:
    for var, val in e.items():
        if not (0 <= var < bn.n):
            raise NetworkFormatError(f"evidence variable {var} out of range")
        if not (0 <= val < bn.cards[var]):
            raise NetworkFormatError(
                f"evidence value {val} out of range for variable {var} "
                f"(cardinality {bn.cards[var]})"
            )


# ---------------------------------------------------------------------------
# structural queries

def ancestors_of(bn: BayesianNetwork, seeds: set[int]) -> set[int]:
    """All strict ancestors of any seed (seeds themselves not included unless
    they are ancestors of another seed)."""
    out: set[int] = set()
    stack = [p for s in seeds for p in bn.parents(s)]
    while stack:
        v = stack.pop()
        if v not in out:
            out.add(v)
            stack.extend(bn.parents(v))
    return out


def assignment_tuples(cards: tuple[int, ...]):
    """Lexicographic enumeration of all value tuples for the given cards."""
    if not cards:
        yield ()
        return
    total = math.prod(cards)
    for flat in range(total):
        out = []
        rem = flat
        for c in reversed(cards):
            out.append(rem % c)
            rem //= c
        yield tuple(reversed(out))
