"""Pure-Python kernels over bitmask adjacency.

These are the hot primitives behind recognition, clique search and exact
coloring, for graphs of any size. Each kernel has one binding, this
module's: callers look it up at call time (``K.<name>``) and kernels call
each other through the module's globals, so replacing a name here, as
perfbench's tracer and the tests do, reaches every caller; backend_name
names the implementation. One branch and bound, _clique_search, answers all
four clique questions: the clique number (clique_number), whether a k-clique
exists (has_clique), the lexicographically least maximum clique
(lex_min_max_clique) and the list of maximum cliques (max_cliques, which
clique_table below reads). One
search colors: k_color, and dsatur is its first descent. Both searches are
single loops over an explicit stack, so no clique or graph size reaches the
recursion limit, and no kernel builds a closure, so a call leaves no
reference cycles for the garbage collector. One rule, claw_through, finds
the claws through a new vertex joined to one neighborhood, for the sparse
side of the random draw. The exhaustive sweep's children
(in_class_extensions) decide all 2^k neighborhoods of the new vertex of a
k-vertex parent at once, as truth tables over the subset lattice whose bit
s is the verdict on neighborhood s: claw_table is claw_through's rule as
such a table, and the K5-minus-P3 rules through the new vertex are ORed in.
The sweep's per-graph check reads a third such table, shape_table, whose
bit s is the four-shape verdict at every vertex of N[v] when v is joined
to s (rules and proof in its docstring), and the colorer resumes each
child at v from a fourth, clique_table, whose bit s says whether s holds a
maximum clique of the parent, that is, whether v raises omega.
A whole claw-free graph is decided by claw_free_has_k5_minus_p3 instead,
for the random draw and recognition, near-linear on dense graphs.

Conventions: adj is an indexable of per-vertex neighbor bitmasks, sub is a
bitmask restricting the operation to an induced subgraph, colors are 1-based
and 0 means uncolored.
"""

from __future__ import annotations

from functools import cache
from operator import or_

from .bitops import universal_vertices

backend_name = "pure"


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


def _clique_search(adj, cand: int, best: int, stop: int, out=None):
    """(best, clique): the clique number of cand, or best if it is larger,
    and the clique that last raised best (0 if none did).

    The search ends as soon as best reaches stop. With out, a list, best is
    held instead, and every (best + 1)-clique is appended to out in
    ascending-tuple order. One loop over an explicit stack, whose frames
    are the levels of the current clique.

    Vertices are tried in ascending order, each level extending the current
    clique by a candidate above its last vertex, so cliques are visited as
    ascending tuples in lexicographic order, each before its extensions.
    That is why the clique that raises best to the clique number w is the
    lexicographically least maximum clique C: a subtree is pruned only when
    it holds no clique larger than best, so C, or a prefix of it, can only
    be pruned once best is w; and every clique visited before C precedes it
    in that order, so if it had size w, C would not be the least.

    The bound: a level colors its candidates greedily into classes, each
    class built from the highest remaining vertex down. Class tops strictly
    fall, so the candidates from v on meet exactly the classes whose top is
    >= v, and their number bounds the largest clique among them. A level
    that needs need more vertices to beat best ends at the first v above
    the top of class need, so only the first need classes are built, and
    more only when a deeper level raises best. When no more than need
    candidates are left, the count alone decides (only all of them can
    beat best), so no class is built; on a large clique this keeps each
    level constant work.
    """
    clique = mask = size = built = low = 0
    rem = cand
    stack = []
    while True:
        need = best + 1 - size
        if built < need:
            count = cand.bit_count()
            if count <= need:  # only all of them together can beat best
                low = -1 if count == need else 0
            else:
                while rem and built < need:
                    top = rem.bit_length() - 1
                    avail = rem
                    while avail:
                        v = avail.bit_length() - 1
                        b = 1 << v
                        rem ^= b
                        avail &= ~adj[v] & ~b
                    built += 1
                low = (2 << top) - 1 if built == need else 0
        b = cand & -cand & low
        if not b:
            if not stack:
                return best, clique
            mask, size, cand, rem, built, low = stack.pop()
            continue
        cand ^= b
        if size >= best:
            if out is not None:
                out.append(mask | b)
                continue
            best = size + 1
            clique = mask | b
            if best >= stop:
                return best, clique
        nxt = cand & adj[b.bit_length() - 1]
        if nxt.bit_count() >= best - size:
            stack.append((mask, size, cand, rem, built, low))
            mask |= b
            size += 1
            cand = rem = nxt
            built = 0


def clique_number(adj, n: int, sub: int) -> int:
    """Exact maximum clique size within sub (0 for the empty mask).

    The search runs on sub minus its universal vertices, which are counted
    in directly.
    """
    u = universal_vertices(adj, sub)
    return u.bit_count() + _clique_search(adj, sub ^ u, 0, n + 1)[0]


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
    return k <= 0 or _clique_search(adj, sub ^ u, k - 1, k)[0] >= k


def lex_min_max_clique(adj, n: int, sub: int) -> int:
    """The lexicographically least maximum clique within sub, as a mask.

    Cliques are compared as ascending vertex tuples. The universal vertices
    U of sub are in every maximum clique; adding U to two equal-size
    cliques keeps the least element of their symmetric difference, so the
    least clique of sub - U plus U is the least of sub.
    """
    u = universal_vertices(adj, sub)
    return u | _clique_search(adj, sub ^ u, 0, n + 1)[1]


def max_cliques(adj, n: int, sub: int) -> list[int]:
    """All maximum cliques within sub as masks, in ascending-tuple order.

    The empty mask has the empty clique as its single maximum clique. Like
    lex_min_max_clique, it searches sub minus its universal vertices and
    adds them back, which keeps the order.
    """
    u = universal_vertices(adj, sub)
    core = sub ^ u
    w = _clique_search(adj, core, 0, n + 1)[0]
    if not w:
        return [u]
    out: list[int] = []
    _clique_search(adj, core, w - 1, n + 1, out)
    return [u | c for c in out]


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
    deg = [(a & sub).bit_count() for a in adj]
    order = [v for v in range(n) if sub >> v & 1]
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


def claw_through(adj, nb: int) -> bool:
    """True iff a new vertex joined to nb lies in a claw.

    adj is a graph the new vertex is not in yet, and nb its neighbors. The
    new vertex is a leaf of a claw centered at some u in nb iff u has two
    non-adjacent neighbors outside nb, and the center of one iff nb holds
    an independent triple. Every claw of the grown graph that the graph
    adj lacks goes through the new vertex, so when adj is claw-free the
    grown graph is claw-free iff this is False.
    """
    m = nb
    while m:
        b = m & -m
        u = b.bit_length() - 1
        m ^= b
        # a leaf of a claw centered at u
        r = adj[u] & ~nb
        while r:
            bx = r & -r
            r ^= bx
            if r & ~adj[bx.bit_length() - 1]:
                return True
        # the center, with u as its least leaf
        mb = nb & ~adj[u] & (-1 << (u + 1))
        while mb:
            bb = mb & -mb
            mb ^= bb
            if mb & ~adj[bb.bit_length() - 1]:
                return True
    return False


@cache
def _lattice(k: int):
    """Truth tables over the subsets s of {0..k-1}, as (2^k)-bit ints whose
    bit s is the value at s: full (all true), t[u] ("u in s") and, per
    vertex mask m, sup[m] ("m within s"), hit[m] ("s meets m"), in2[m] ("two
    of m in s") and out2[m] ("two of m outside s"); and vm[s], per s, the
    tuple that holds the bit of vertex k at each u in s and 0 elsewhere.
    Each per-mask table holds 4^k bits, 2 KB at k = 7, so one set per k is
    kept for the life of the process."""
    size = 1 << k
    full = (1 << size) - 1
    t = tuple(sum(1 << s for s in range(size) if s >> u & 1) for u in range(k))
    sup = [full] * size
    hit = [0] * size
    in2 = [0] * size
    out2 = [0] * size
    for m in range(1, size):
        low = m & -m
        r = m ^ low
        tu = t[low.bit_length() - 1]
        sup[m] = sup[r] & tu
        hit[m] = hit[r] | tu
        in2[m] = in2[r] | hit[r] & tu
        out2[m] = out2[r] | (full ^ sup[r]) & ~tu
    vbit = 1 << k
    vm = tuple(tuple(vbit if s >> u & 1 else 0 for u in range(k)) for s in range(size))
    return full, t, tuple(sup), tuple(hit), tuple(in2), tuple(out2), vm


def claw_table(adj, k: int) -> int:
    """The truth table of claw_through(adj, s) over every s below 2^k.

    adj is a graph on vertices 0..k-1; bit s is set iff a new vertex joined
    to s lies in a claw. By claw_through's rule it is a leaf of a claw
    centered at u in s iff u has non-adjacent neighbors x < y outside s, and
    the center of one iff s holds an independent triple u < b < c.
    """
    full, t, sup, hit = _lattice(k)[:4]
    bad = 0
    for u in range(k):
        nu = adj[u]
        inside = full  # s misses no non-adjacent pair x < y of N(u)
        m = nu
        while m:
            bx = m & -m
            x = bx.bit_length() - 1
            m ^= bx
            y = m & ~adj[x]
            if y:
                inside &= t[x] | sup[y]
        center = 0
        m = ~nu & ((1 << k) - 1) & (-2 << u)  # b above u, and c above b
        while m:
            bb = m & -m
            b = bb.bit_length() - 1
            m ^= bb
            c = m & ~adj[b]
            if c:
                center |= t[b] & hit[c]
        bad |= t[u] & (center | (full ^ inside))
    return bad


def shape_table(adj, k: int) -> int:
    """The four-shape verdict at N[v] of a new vertex v joined to s, as a
    truth table over every s below 2^k.

    adj is a graph P on vertices 0..k-1; bit s is set iff, in P plus v
    joined to s, some u in s + {v} has an <N(u)> that is none of the four
    shapes of recognition.verify_neighborhood_all_cliques: a clique minus a
    matching, two cliques with no edges between them, a C5 or a P4. The
    rules, with co(x) the non-neighbors of x in P, and their proofs:

      u = v   <N(v)> = <s>. It is a clique minus a matching iff no x in s
              has two non-neighbors in s. It is two cliques iff it has no
              induced P3 and no independent triple, that is, iff no
              non-adjacent x, y in s have a third vertex of s joined to
              both (a P3 with ends x, y) or to neither. A P4 or a C5 is
              neither, so the s that induce one are taken out of the
              verdict: P's induced P4s, and each P4 plus a vertex joined to
              its ends alone.
      u in s  <N(u)> is <A> plus v joined to T = s & A, A = N_P(u), so it
              reads s only through T:
              - a clique minus a matching iff no x in A misses two others
                in A, every x in A that misses one is in s (x misses v iff
                x is not in s) and |A - s| <= 1 (v misses A - T);
              - two cliques iff <A>, an induced subgraph of it, is two
                cliques C1, C2 (C2 maybe empty) and v's side T + {v} is a
                whole side plus v: T is C1 or C2, and T = {} needs C2 = {},
                since v alone is a third side otherwise;
              - a C5 iff <A> is the P4 left by deleting v and T its ends;
              - a P4 iff deleting v leaves a P3 and T is one end of it (v
                an end), or an edge plus a vertex z and T is z and one end
                of the edge (v inside).

    Every term is an AND of "x in s" and "x not in s" over the lattice
    (_lattice), and the pair terms at v take one hit[...] each, as in
    claw_table, so a call is O(k^2) table operations plus one step per
    induced P4 and C5 of P.
    """
    full, t, sup, hit, in2, out2 = _lattice(k)[:6]
    kmask = (1 << k) - 1
    co = [kmask & ~adj[x] & ~(1 << x) for x in range(k)]
    # at v: s is no clique minus a matching (cm) and no two cliques (two),
    # unless it induces a P4 or a C5 (shaped)
    cm = two = shaped = 0
    for x in range(k):
        ax, cx, tx = adj[x], co[x], t[x]
        cm |= tx & in2[cx]
        pairs = 0
        m = cx & (-2 << x)
        while m:
            by = m & -m
            y = by.bit_length() - 1
            m ^= by
            pairs |= t[y] & hit[ax & adj[y] | cx & co[y]]
        two |= tx & pairs
        # the induced P4s a-x-y-d with x < y, and a C5 per e joined to a, d
        m = ax & (-2 << x)
        while m:
            by = m & -m
            y = by.bit_length() - 1
            m ^= by
            xy = 1 << x | by
            ma = ax & co[y]
            while ma:
                ba = ma & -ma
                a = ba.bit_length() - 1
                ma ^= ba
                md = adj[y] & cx & co[a]
                while md:
                    bd = md & -md
                    md ^= bd
                    p4 = xy | ba | bd
                    shaped |= 1 << p4
                    me = adj[a] & adj[bd.bit_length() - 1] & cx & co[y]
                    while me:
                        be = me & -me
                        me ^= be
                        shaped |= 1 << (p4 | be)
    bad = cm & two & ~shaped
    # at u in s: ok is the table of the s whose T = s & A passes a shape
    for u in range(k):
        a = adj[u]
        if not a:
            continue  # <N(u)> is v alone
        size = a.bit_count()
        one = ends = lone = mids = 0
        matching = True
        m = a
        while m:
            bx = m & -m
            m ^= bx
            x = bx.bit_length() - 1
            miss = a & co[x]
            if miss & (miss - 1):
                matching = False
            elif miss:
                one |= bx
            if size in (3, 4):  # degrees in <A>, for the P4 and C5 cases
                d = size - 1 - miss.bit_count()
                if d == 1:
                    ends |= bx
                elif d == 2:
                    mids |= bx
                elif not d:
                    lone |= bx
        ok = sup[one] & (full ^ out2[a]) if matching else 0
        first = a & -a
        c1 = (adj[first.bit_length() - 1] | first) & a
        c2 = a ^ c1
        m = a
        while m:
            bx = m & -m
            m ^= bx
            if (adj[bx.bit_length() - 1] | bx) & a != (c2 if bx & c2 else c1):
                break
        else:
            if c2:
                ok |= sup[c1] & (full ^ hit[c2]) | sup[c2] & (full ^ hit[c1])
            else:
                ok |= sup[a] | (full ^ hit[a])
        if ends.bit_count() == 2:
            if size == 4 and mids.bit_count() == 2:  # a P4: T its ends
                ok |= sup[ends] & (full ^ hit[a ^ ends])
            elif size == 3:  # a P3 or an edge plus a vertex
                e = ends & -ends
                for x in (e | lone, (ends ^ e) | lone):
                    ok |= sup[x] & (full ^ hit[a ^ x])
        bad |= t[u] & (full ^ ok)
    return bad


def clique_table(adj, k: int) -> int:
    """Whether s holds a maximum clique of P, as a truth table over every s
    below 2^k.

    adj is a graph P on vertices 0..k-1; bit s is set iff s holds a clique
    of size omega(P). Every such clique is a maximum clique of P, so the
    table is the OR, over max_cliques, of the tables "c within s". A new
    vertex joined to s raises omega by one iff bit s is set.
    """
    sup = _lattice(k)[2]
    table = 0
    for c in max_cliques(adj, k, (1 << k) - 1):
        table |= sup[c]
    return table


def in_class_extensions(adj, n: int) -> list[tuple[int, ...]]:
    """Adjacencies of the in-class graphs that add a vertex v = n-1 to adj.

    adj is an in-class graph on vertices 0..k-1, k = n-1, so every claw or
    K5-minus-P3 of adj plus v joined to S goes through v, and the grown
    graph is in the class iff none does. All 2^k neighborhoods S are
    decided at once, by truth tables over the subset lattice (_lattice):
    each forbidden pattern through v is an AND of "u in S" and "u not in S"
    terms, ORed into the table bad. claw_table gives the claws. The rules
    for the K5-minus-P3s hold when v is in no claw, and any other S is in
    bad already. Roles as in find_k5_minus_p3 (de is the edge joined to a,
    b and c, ab is an edge, c misses a and b); v takes one of three roles
    (d and e, and a and b, are symmetric):

      v = c  some edge de inside S has two common neighbors outside S;
      v = d  some edge ec inside S leaves two vertices of S & N(e) - N[c];
      v = a  some edge de inside S has a common neighbor c outside S and a
             common neighbor b in S that misses c.

    Each is also sufficient. The two vertices of the first two rules are
    the a and b, and they are adjacent: otherwise d (first) or e (second)
    is the center of a claw on a, b and v or c. The children are the S
    outside bad, built in ascending order of S, their last entry.
    """
    k = n - 1
    full, t, _, hit, in2, out2, vm = _lattice(k)
    bad = claw_table(adj, k)
    for e in range(k):
        ae = adj[e]
        te = t[e]
        m = ae
        while m:
            bc = m & -m
            c = bc.bit_length() - 1
            m ^= bc
            ac = adj[c]
            both = te & t[c]
            bad |= both & in2[ae & ~ac & ~bc]  # v = d, with e and c
            if c < e:
                continue  # the edge ec as de: each edge once
            common = ae & ac
            if not common:
                continue
            rule = out2[common]  # v = c
            mx = common
            while mx:  # v = a, with c = x outside S and b in S
                bx = mx & -mx
                x = bx.bit_length() - 1
                mx ^= bx
                rule |= hit[common & ~adj[x] & ~bx] & ~t[x]
            bad |= both & rule
    good = full & ~bad
    out = []
    while good:
        b = good & -good
        s = b.bit_length() - 1
        good ^= b
        out.append((*map(or_, adj, vm[s]), s))
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
