"""Pure-Python kernels over bitmask adjacency.

These are the hot primitives behind recognition, clique search and exact
coloring. The compiled extension (_fastcore) implements the same functions
with identical results for n <= 64; this module is the always-available
fallback and the reference for cross-backend tests. Recursive searches are
module-level functions, not nested closures, so a call leaves no reference
cycles for the garbage collector.

Conventions: adj is an indexable of per-vertex neighbor bitmasks, sub is a
bitmask restricting the operation to an induced subgraph, colors are 1-based
and 0 means uncolored.
"""

from __future__ import annotations


def find_claw(adj, n: int):
    """Least induced K1,3 as (center, leaf1, leaf2, leaf3), or None.

    Witnesses are ordered by center, then by the ascending leaf triple.
    """
    for u in range(n):
        nu = adj[u]
        if nu.bit_count() < 3:
            continue
        ma = nu
        while ma:
            ba = ma & -ma
            a = ba.bit_length() - 1
            ma ^= ba
            mb = nu & ~adj[a] & (-1 << (a + 1))
            while mb:
                bb = mb & -mb
                b = bb.bit_length() - 1
                mb ^= bb
                mc = mb & ~adj[b]
                if mc:
                    c = (mc & -mc).bit_length() - 1
                    return (u, a, b, c)
    return None


def find_k5_minus_p3(adj, n: int):
    """Least induced K5-minus-P3 as (a, b, c, d, e), or None.

    Role labels: d, e span the dominating edge (adjacent to a, b and c),
    ab is an edge, and c is adjacent to neither a nor b. The search anchors
    on the edge (d, e) and scans its common neighborhood, minimizing
    (d, e, a, b, c) with d < e and a < b. For each a, the c candidates are
    far = common - N[a]; a b above a in common & N(a) completes a witness
    iff it misses some vertex of far, that is, iff b is outside the common
    neighborhood of far. So each a costs one pass over far, not one per b.
    """
    for d in range(n):
        md = adj[d] & (-1 << (d + 1))
        while md:
            bd = md & -md
            e = bd.bit_length() - 1
            md ^= bd
            common = adj[d] & adj[e]
            if common.bit_count() < 3:
                continue
            ma = common
            while ma:
                ba = ma & -ma
                a = ba.bit_length() - 1
                ma ^= ba
                far = common & ~adj[a] & ~ba
                if not far:
                    continue
                above = common & adj[a] & (-1 << (a + 1))
                hits_all = above  # the b adjacent to every vertex of far
                mf = far
                while mf and hits_all:
                    bf = mf & -mf
                    hits_all &= adj[bf.bit_length() - 1]
                    mf ^= bf
                mb = above & ~hits_all
                if mb:
                    b = (mb & -mb).bit_length() - 1
                    mc = far & ~adj[b]
                    return (a, b, (mc & -mc).bit_length() - 1, d, e)
    return None


def _color_order(adj, cand: int):
    """Greedy color classes over cand: vertex list plus per-vertex class index.

    Classes are built least-vertex-first; the class index of a vertex bounds
    the largest clique containing it inside cand, which is the branch bound
    used by the clique searches.
    """
    vs = []
    bounds = []
    rem = cand
    color = 0
    while rem:
        color += 1
        avail = rem
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            avail ^= b
            avail &= ~adj[v]
            rem ^= b
            vs.append(v)
            bounds.append(color)
    return vs, bounds


def _clique_number_expand(adj, cand: int, size: int, best: int) -> int:
    vs, bounds = _color_order(adj, cand)
    for i in range(len(vs) - 1, -1, -1):
        if size + bounds[i] <= best:
            return best
        v = vs[i]
        nc = cand & adj[v]
        if nc:
            best = _clique_number_expand(adj, nc, size + 1, best)
        elif size + 1 > best:
            best = size + 1
        cand ^= 1 << v
    return best


def _universal(adj, sub: int) -> int:
    """The vertices of sub adjacent to every other vertex of sub.

    They lie in every maximum clique of sub, so the clique searches run on
    the rest and add them back; sub is a clique iff all of it is universal.
    """
    u = m = sub
    while m:
        b = m & -m
        hit = (adj[b.bit_length() - 1] | b) & sub
        if hit != sub:  # b and the vertices it misses are not universal
            u &= hit ^ b
            m &= hit
        m ^= b
    return u


def clique_number(adj, n: int, sub: int) -> int:
    """Exact maximum clique size within sub (0 for the empty mask).

    The search runs on sub minus its universal vertices, which are counted
    in directly.
    """
    u = _universal(adj, sub)
    if u == sub:
        return u.bit_count()
    return u.bit_count() + _clique_number_expand(adj, sub ^ u, 0, 0)


def _has_clique_expand(adj, cand: int, size: int, k: int) -> bool:
    vs, bounds = _color_order(adj, cand)
    for i in range(len(vs) - 1, -1, -1):
        if size + bounds[i] < k:
            return False
        v = vs[i]
        if size + 1 == k:
            return True
        if _has_clique_expand(adj, cand & adj[v], size + 1, k):
            return True
        cand ^= 1 << v
    return False


def has_clique(adj, n: int, sub: int, k: int) -> bool:
    """True iff sub contains a clique of size k."""
    if k <= 0:
        return True
    if sub.bit_count() < k:
        return False
    return _has_clique_expand(adj, sub, 0, k)


def _max_cliques_rec(
    adj, out: list, mask: int, cand: int, left: int, first: bool
) -> bool:
    """Append every (left)-clique of cand, joined to mask, in ascending order.

    cand holds at least left vertices. Branching on the candidates in
    ascending order emits cliques in ascending-tuple order: mask is shared by
    all of them, so their order is that of their cand parts. With first set,
    stop at the first clique and return True. bound[i] is the number of
    greedy color classes of the candidates from position i on, colored from
    the highest vertex down; it bounds the largest clique among them and
    never grows with i.
    """
    if left == 1:
        m = cand & -cand if first else cand
        while m:
            b = m & -m
            out.append(mask | b)
            m ^= b
        return first
    if left == 2:  # the edges of cand, with no bound to compute
        m = cand
        while m:
            b = m & -m
            m ^= b
            ends = m & adj[b.bit_length() - 1]
            if ends and first:
                out.append(mask | b | (ends & -ends))
                return True
            while ends:
                e = ends & -ends
                out.append(mask | b | e)
                ends ^= e
        return False
    vs = []
    m = cand
    while m:
        b = m & -m
        vs.append(b.bit_length() - 1)
        m ^= b
    bound = [0] * len(vs)
    classes: list[int] = []
    for i in range(len(vs) - 1, -1, -1):
        nv = adj[vs[i]]
        for j, cls in enumerate(classes):
            if not cls & nv:
                classes[j] = cls | 1 << vs[i]
                break
        else:
            classes.append(1 << vs[i])
        bound[i] = len(classes)
    for i, v in enumerate(vs):
        if bound[i] < left:
            return False
        nxt = cand & adj[v] & (-1 << (v + 1))
        if nxt.bit_count() >= left - 1 and _max_cliques_rec(
            adj, out, mask | 1 << v, nxt, left - 1, first
        ):
            return True
    return False


def _search_max_cliques(adj, sub: int, first: bool) -> list[int]:
    """Maximum cliques of sub in ascending-tuple order (only the first one
    when first is set), searched on sub minus its universal vertices."""
    u = _universal(adj, sub)
    core = sub ^ u
    if not core:
        return [u]
    out: list[int] = []
    _max_cliques_rec(
        adj, out, u, core, _clique_number_expand(adj, core, 0, 0), first
    )
    return out


def lex_min_max_clique(adj, n: int, sub: int) -> int:
    """The lexicographically least maximum clique within sub, as a mask.

    Cliques are compared as ascending vertex tuples: this is the first
    clique the ascending max_cliques search emits.
    """
    return _search_max_cliques(adj, sub, True)[0]


def max_cliques(adj, n: int, sub: int) -> list[int]:
    """All maximum cliques within sub as masks, in ascending-tuple order.

    The empty mask has the empty clique as its single maximum clique. The
    universal vertices U of sub are in every maximum clique; adding U to two
    equal-size cliques keeps the least element of their symmetric
    difference, so searching sub - U and adding U back keeps the order.
    """
    return _search_max_cliques(adj, sub, False)


def dsatur(adj, n: int, sub: int) -> list[int]:
    """Greedy coloring by saturation degree, restricted to sub.

    Vertex selection: max saturation, ties by induced degree, ties by least
    index. Returns 1-based colors; vertices outside sub get 0.
    """
    colors = [0] * n
    count = sub.bit_count()
    if count == 0:
        return colors
    deg = [0] * n
    order = []
    m = sub
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        deg[v] = (adj[v] & sub).bit_count()
        order.append(v)
    nbc = [0] * n  # bit c-1 set iff some neighbor is colored c
    for _ in range(count):
        best = -1
        bs = -1
        bd = -1
        for v in order:
            if colors[v]:
                continue
            s = nbc[v].bit_count()
            if s > bs or (s == bs and deg[v] > bd):
                best, bs, bd = v, s, deg[v]
        used = nbc[best]
        c = ((~used) & (used + 1)).bit_length()  # lowest zero bit, 1-based
        colors[best] = c
        bit = 1 << (c - 1)
        mw = adj[best] & sub
        while mw:
            bw = mw & -mw
            nbc[bw.bit_length() - 1] |= bit
            mw ^= bw
    return colors


def _k_color_bt(
    adj, sub: int, k: int, colors, nbc, deg, uncol: int, top: int
) -> bool:
    """One step of k_color: color the most saturated vertex of uncol, recurse.

    colors and nbc are updated in place and restored on failure; top is the
    highest color index used so far.
    """
    if uncol == 0:
        return True
    best = -1
    bs = -1
    bd = -1
    m = uncol
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        s = nbc[v].bit_count()
        if s > bs or (s == bs and deg[v] > bd):
            best, bs, bd = v, s, deg[v]
    v = best
    limit = top + 1 if top < k else k
    forbidden = nbc[v]
    for c in range(1, limit + 1):
        bit = 1 << (c - 1)
        if forbidden & bit:
            continue
        colors[v] = c
        changed = 0
        mw = adj[v] & sub
        while mw:
            bw = mw & -mw
            w = bw.bit_length() - 1
            mw ^= bw
            if not nbc[w] & bit:
                nbc[w] |= bit
                changed |= bw
        if _k_color_bt(
            adj, sub, k, colors, nbc, deg, uncol & ~(1 << v), c if c > top else top
        ):
            return True
        mw = changed
        while mw:
            bw = mw & -mw
            nbc[bw.bit_length() - 1] ^= bit
            mw ^= bw
        colors[v] = 0
    return False


def k_color(adj, n: int, sub: int, k: int, clique: int = 0):
    """A proper coloring of sub with at most k colors, or None.

    Exact backtracking with DSATUR-style dynamic vertex selection, symmetry
    breaking (a fresh color must be the next unused index) and an optional
    precolored clique (its vertices take colors 1..|clique| in ascending
    order). Deterministic. Returns 1-based colors, 0 outside sub.
    """
    if sub == 0:
        return [0] * n
    if k <= 0 or clique.bit_count() > k:
        return None
    colors = [0] * n
    nbc = [0] * n
    deg = [0] * n
    m = sub
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        deg[v] = (adj[v] & sub).bit_count()
    used = 0
    m = clique
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        used += 1
        colors[v] = used
        bit = 1 << (used - 1)
        mw = adj[v] & sub
        while mw:
            bw = mw & -mw
            nbc[bw.bit_length() - 1] |= bit
            mw ^= bw
    if _k_color_bt(adj, sub, k, colors, nbc, deg, sub & ~clique, used):
        return colors
    return None


def scan_in_class(n: int, start: int, stop: int) -> list[int]:
    """Edge masks in [start, stop) whose graphs avoid both forbidden subgraphs.

    The edge-bit order matches graph.from_edge_mask.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for mask in range(start, stop):
        adj = [0] * n
        mm = mask
        p = 0
        while mm:
            if mm & 1:
                i, j = pairs[p]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            mm >>= 1
            p += 1
        if find_claw(adj, n) is None and find_k5_minus_p3(adj, n) is None:
            out.append(mask)
    return out
