"""Pure-Python kernels over bitmask adjacency.

These are the hot primitives behind recognition, clique search and exact
coloring, for graphs of any size; the package reaches them through
_kernels. One branch and bound, _clique_search, answers both clique-size
questions: how large the largest clique is (clique_number, and the target
size of the max_cliques enumeration) and whether a k-clique exists
(has_clique). One search colors: k_color is a single loop over an explicit
stack, and dsatur is its first descent. Recursive searches are module-level
functions, not nested closures, so a call leaves no reference cycles for
the garbage collector.

Conventions: adj is an indexable of per-vertex neighbor bitmasks, sub is a
bitmask restricting the operation to an induced subgraph, colors are 1-based
and 0 means uncolored.
"""

from __future__ import annotations

from ..bitops import universal_vertices


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


def claw_free_has_k5_minus_p3(adj, n: int) -> bool:
    """Whether a claw-free graph contains an induced K5-minus-P3.

    Precondition: the graph is claw-free. On a graph with a claw the answer
    may be True with no K5-minus-P3 present (K2 joined to 3K1), though never
    False with one present.

    Rule: for each vertex c with non-neighbors X = V - N[c], let D be the
    d in N(c) with |N(d) & X| >= 2; the answer is True iff some adjacent
    d, e in D have |N(d) & N(e) & X| >= 2. Proof: take two such vertices a
    and b. They are adjacent, since otherwise d is the center of the claw
    {a, b, c}; so (a, b, c, d, e) is a K5-minus-P3 (c misses a and b, and
    d, e are joined to all three). Conversely every K5-minus-P3 gives such
    c, d, e. A near-complete graph has tiny X sets, so this is near-linear
    there, where find_k5_minus_p3 is cubic; only a verdict is returned.
    """
    full = (1 << n) - 1
    far = [0] * n
    for c in range(n):
        x = full & ~adj[c] & ~(1 << c)
        if x & (x - 1) == 0:  # under two non-neighbors
            continue
        dmask = 0
        m = adj[c]
        while m:
            b = m & -m
            d = b.bit_length() - 1
            m ^= b
            fd = adj[d] & x
            if fd & (fd - 1):
                far[d] = fd
                dmask |= b
        m = dmask
        while m:
            b = m & -m
            d = b.bit_length() - 1
            m ^= b
            fd = far[d]
            me = adj[d] & m
            while me:
                be = me & -me
                me ^= be
                common = fd & far[be.bit_length() - 1]
                if common & (common - 1):
                    return True
    return False


def _color_order(adj, cand: int):
    """Greedy color classes over cand: vertex list plus per-vertex class index.

    Classes are built least-vertex-first; the class index of a vertex bounds
    the largest clique containing it inside cand, which is the branch bound
    of _clique_search.
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


def _clique_search(adj, cand: int, size: int, best: int, stop: int) -> int:
    """max(best, size + the clique number of cand), or the first value
    reached that is >= stop.

    The greedy-color-class branch and bound of Tomita and Seki's MCQ: the
    vertices are tried from the last color class down, and a vertex whose
    class index cannot lift size above best ends the level. With stop at
    best + 1 it decides whether a (best + 1)-clique exists; with stop above
    |cand| it finds the maximum.
    """
    vs, bounds = _color_order(adj, cand)
    for i in range(len(vs) - 1, -1, -1):
        if size + bounds[i] <= best:
            return best
        v = vs[i]
        if size + 1 > best:
            best = size + 1
            if best >= stop:
                return best
        nc = cand & adj[v]
        if nc:
            best = _clique_search(adj, nc, size + 1, best, stop)
            if best >= stop:
                return best
        cand ^= 1 << v
    return best


def clique_number(adj, n: int, sub: int) -> int:
    """Exact maximum clique size within sub (0 for the empty mask).

    The search runs on sub minus its universal vertices, which are counted
    in directly.
    """
    u = universal_vertices(adj, sub)
    core = sub ^ u
    return u.bit_count() + _clique_search(adj, core, 0, 0, core.bit_count() + 1)


def has_clique(adj, n: int, sub: int, k: int) -> bool:
    """True iff sub contains a clique of size k.

    Stops at the first one, so it can be far cheaper than clique_number
    when the answer is yes. Like clique_number, it searches sub minus its
    universal vertices, which every maximal clique of sub contains.
    """
    if sub.bit_count() < k:
        return False
    u = universal_vertices(adj, sub)
    k -= u.bit_count()
    return k <= 0 or _clique_search(adj, sub ^ u, 0, k - 1, k) >= k


def _max_cliques_rec(
    adj, out: list, mask: int, cand: int, left: int, first: bool
) -> bool:
    """Append every (left)-clique of cand, joined to mask, in ascending order.

    Branching on the candidates in ascending order emits cliques in
    ascending-tuple order: mask is shared by all of them, so their order is
    that of their cand parts. With first set, stop at the first clique and
    return True.

    The bound: color cand greedily into classes, each class built from the
    highest remaining vertex down. Class tops strictly fall, so the
    candidates from v on meet exactly the classes whose top is >= v, and
    their number bounds the largest clique among them. Branching stops at
    the first v above the top of class left, so only the first left classes
    are built.
    """
    if not left:
        out.append(mask)
        return first
    rem = cand
    for _ in range(left):
        if not rem:
            return False
        top = rem.bit_length() - 1
        avail = rem
        while avail:
            v = avail.bit_length() - 1
            b = 1 << v
            rem ^= b
            avail &= ~adj[v] & ~b
    m = cand & ((2 << top) - 1)
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        nxt = cand & adj[v] & (-1 << (v + 1))
        if nxt.bit_count() >= left - 1 and _max_cliques_rec(
            adj, out, mask | 1 << v, nxt, left - 1, first
        ):
            return True
    return False


def _search_max_cliques(adj, sub: int, first: bool) -> list[int]:
    """Maximum cliques of sub in ascending-tuple order (only the first one
    when first is set), searched on sub minus its universal vertices."""
    u = universal_vertices(adj, sub)
    core = sub ^ u
    out: list[int] = []
    w = _clique_search(adj, core, 0, 0, core.bit_count() + 1)
    _max_cliques_rec(adj, out, u, core, w, first)
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
    """Brelaz's greedy DSATUR coloring of sub: the first descent of k_color.

    With k = |sub| the color bound top + 1 <= k holds at every step, and
    color top + 1 is always free, since no vertex has it yet. So the search
    never backtracks: its first descent colors every vertex, taking the
    vertex with the most distinct neighbor colors, then the most neighbors
    in sub, then the least index, and giving it the least free color. That
    is DSATUR. Returns 1-based colors; vertices outside sub get 0.
    """
    return k_color(adj, n, sub, sub.bit_count())


def k_color(adj, n: int, sub: int, k: int, clique: int = 0):
    """A proper coloring of sub with at most k colors, or None.

    Exact backtracking with DSATUR's dynamic vertex selection, symmetry
    breaking (a fresh color must be the next unused index) and an optional
    precolored clique (its vertices take colors 1..|clique| in ascending
    order); colors are tried in ascending order. Deterministic. Returns
    1-based colors, 0 outside sub.

    One loop with an explicit stack, so no depth reaches the recursion
    limit. seen[c] holds the vertices of sub with a neighbor colored c, so
    coloring v with c touches only adj[v] & sub & ~seen[c]. A stack frame
    keeps (v, that mask, top before v, the colors left to try on v), and
    backtracking undoes exactly what the step did.
    """
    if sub == 0:
        return [0] * n
    if k <= 0 or clique.bit_count() > k:
        return None
    count = sub.bit_count()
    colors = [0] * n
    nbc = [0] * n  # bit c-1 set iff some neighbor is colored c
    seen = [0] * (count + 1)
    deg = [0] * n
    order = []
    m = sub
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        deg[v] = (adj[v] & sub).bit_count()
        order.append(v)
    top = 0  # the highest color used so far
    m = clique
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        top += 1
        colors[v] = top
        bit = 1 << (top - 1)
        mw = seen[top] = adj[v] & sub
        while mw:
            bw = mw & -mw
            nbc[bw.bit_length() - 1] |= bit
            mw ^= bw
    left = count - top  # vertices still uncolored
    stack = []
    while left:
        best = -1
        bs = -1
        bd = -1
        for v in order:
            if colors[v]:
                continue
            s = nbc[v].bit_count()
            if s > bs or (s == bs and deg[v] > bd):
                best, bs, bd = v, s, deg[v]
        v = best
        free = ~nbc[v] & ((1 << (top + 1 if top < k else k)) - 1)
        while not free:
            if not stack:
                return None
            v, mw, top, free = stack.pop()
            left += 1
            c = colors[v]
            colors[v] = 0
            seen[c] ^= mw
            bit = 1 << (c - 1)
            while mw:
                bw = mw & -mw
                nbc[bw.bit_length() - 1] ^= bit
                mw ^= bw
        bit = free & -free
        c = bit.bit_length()
        mw = adj[v] & sub & ~seen[c]
        stack.append((v, mw, top, free ^ bit))
        left -= 1
        colors[v] = c
        seen[c] |= mw
        if c > top:
            top = c
        while mw:
            bw = mw & -mw
            nbc[bw.bit_length() - 1] |= bit
            mw ^= bw
    return colors


def in_class_extensions(adj, n: int) -> list[int]:
    """Neighbor masks S of a new vertex n-1 that keep a graph in the class.

    adj is an in-class graph on vertices 0..n-2. The class is hereditary,
    so the graph plus a vertex v = n-1 joined to S is in it iff no claw and
    no K5-minus-P3 goes through v. Claws are found from v's side: v as a
    leaf of a claw centered at u in S (u has a non-adjacent pair of
    neighbors outside S), or v as the center (S holds an independent
    triple). A claw-free candidate then meets the precondition of
    claw_free_has_k5_minus_p3. Masks are returned in ascending order.
    """
    v = n - 1
    vbit = 1 << v
    child = list(adj) + [0]
    out = []
    for s in range(vbit):
        m = s
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            # v as a leaf of a claw centered at u
            r = adj[u] & ~s
            while r:
                bx = r & -r
                r ^= bx
                if r & ~adj[bx.bit_length() - 1]:
                    break
            else:
                # v as the center, with u as its least leaf
                mb = s & ~adj[u] & (-1 << (u + 1))
                while mb:
                    bb = mb & -mb
                    mb ^= bb
                    if mb & ~adj[bb.bit_length() - 1]:
                        break
                else:
                    continue
            break
        else:
            for u in range(v):
                child[u] = adj[u] | vbit if s >> u & 1 else adj[u]
            child[v] = s
            if not claw_free_has_k5_minus_p3(child, n):
                out.append(s)
    return out


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
