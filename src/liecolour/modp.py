"""Mod-p acceleration for the closure rank and for Hom spaces.

Reducing Q(zeta_m) -> F_p along zeta -> omega (omega of multiplicative
order m, which exists whenever p = 1 mod m) can only lower ranks.  That
one-sided guarantee is used as a sound fast path, with three certificates:

* `certifies_full_closure`: a full closure mod p (found by two spins when
  the algebra mod p shows a rank-one idempotent, `rank_one_certificate`,
  by the closure rank otherwise) certifies that the matrices generate the
  whole matrix algebra over the exact field;
* `certified_hom` with no solution mod p: full column rank mod p of its
  Hom system certifies that the exact Hom space is zero;
* `certified_hom` otherwise: a Hom basis solved mod p, lifted to
  Q(zeta_m) and checked exactly against every matrix of the view.

These are the interface.  False or None means "no certificate" (a rank
dropped, a denominator is 0 mod p, p is past the int64 bound, the lift
failed), never the opposite verdict; the caller then computes exactly.

The action they take is rho of the algebra's generating set
(ColourAlgebra.generators, gmodule's generator_action), not of its whole
basis, and both kinds of certificate stay sound:

* the same algebra: a module is a valid representation (its constructor
  or JSON loader checked it, and every transform keeps it), so
  rho([[s, t]]) = rho(s) rho(t) - eps rho(t) rho(s), and rho of the
  generating set generates the same unital associative algebra over
  Q(zeta_m) as rho of the basis.  So they have the same invariant
  subspaces, spins, closure dimension and Hom(V, W);
* one-sided mod p: the algebra that the generating set's images generate
  mod p lies in the reduction of the one that all the images generate,
  so its dimension is still at most the exact closure dimension, and the
  Hom system of the generating set still has nullity at least the exact
  dim Hom.  "Full rank mod p" and the exact check of a lifted basis prove
  what they proved with every basis element.  A prime at which another
  basis element's expression in the generating set has a denominator
  divisible by p (a generator's image that vanishes mod p, say) can only
  withhold a certificate.

Hom by spinning (the MeatAxe homomorphism method; Lux & Pahlings,
Representations of Groups: A Computational Approach, CUP 2010).  Degree-0
maps phi: V -> W with phi rho_V(x_k) = rho_W(x_k) phi for x_k in the
algebra's generating set are solved as follows.

1. V is spun once mod p, under the first prime and embedding, from unit
   vectors (homogeneous): the next unit vector outside the span starts a new
   spin whenever the span closes below d = dim V, so reducible V is covered.
   The word tree records each basis vector b_i as a generator g or as
   rho_V(x_k) b_j.
2. Under an embedding zeta -> omega^k, gcd(k, m) = 1, at a prime p, the
   tree gives the basis B (columns b_i), which must be invertible
   (fp_rref; singular B is no certificate), and C_k = B^-1 rho_V(x_k) B.
   The unknowns are u_g in W_{deg g}, one block per generator; pushing them
   along the tree gives U_i = phi(b_i) as a linear function of u.  phi is
   an intertwiner iff sum_i C_k[i, j] U_i - rho_W(x_k) U_j = 0 for all k
   and j: K d dim W rows, sum_g dim W_{deg g} columns.  phi is fixed by u
   (u_g = phi(g)) and every solution is one, so the nullity of this system
   is dim Hom(V, W) mod p.  A homogeneous b_i makes phi = (U_i)_i B^-1
   degree 0.
3. Each solution is mapped back to phi = (U_i)_i B^-1, flattened row-major
   (entry (r, c) at r dim V + c, the order of the intertwiner system's
   variables, whose other entries vanish) and brought to the canonical
   form: each vector 1 at its own last nonzero column and 0 at the others'
   last columns, which must agree across embeddings and primes.
4. At each prime the first embedding (k = 1) is solved first, and its
   basis is read as power-basis coordinate 0 of each entry, every other
   coordinate 0: combined by CRT with the earlier primes' first-embedding
   bases, it is lifted to Q by rational reconstruction (Wang 1981;
   Monagan, ISSAC 2004) and returned if every candidate passes the exact
   check phi rho_V(x_k) = rho_W(x_k) phi.  Only when that rational
   candidate fails are the other phi(m) - 1 embeddings solved, unless both
   actions are rational mod p, when every embedding gives the same system
   and the rational candidate was the whole attempt.  Their phi(m) images
   of each entry determine its power-basis coordinates mod p (a
   Vandermonde solve), which are combined by CRT with the earlier primes'
   and lifted to Q(zeta_m) the same way.  Primes p = 1 (mod m) are added
   while no candidate passes, until their product passes 2 H^2 for a
   height bound H of the basis (_hom_height: Hadamard's bound on the
   minors of the intertwiner system, carried to power-basis coordinates
   as fpfield's inverse does), where the reconstruction is unique: a
   basis that every prime reduces alike passes by then.

A basis returned is exact, complete, and the very basis linalg.nullspace
returns for the intertwiner system, from one embedding or from all:

* Hom(V, W) is the nullspace of an integer system over Z[zeta_m] (the
  intertwiner system with denominators cleared).  One embedding is the
  reduction of that system modulo one prime ideal P = (p, zeta - omega^k),
  which defines Hom(V mod P, W mod P), the space step 2 solves; the rank
  mod P is at most the exact rank, so the h solutions under any one
  embedding bound the exact Hom dimension from above;
* h exact intertwiners in canonical form, each 1 at its own last column
  and 0 at the other last columns, are independent, so they are a basis
  of the exact Hom space;
* a space has one basis of that form, and linalg.nullspace's is one (the
  last nonzero entry of each vector is its free column: an entry of the
  reduced form is 0 left of its row's pivot), so the full path returns
  the same basis as the rational candidate would;
* a wrong guess, a rational candidate for a basis that is not rational
  included, fails the reconstruction or the exact check and is never
  returned.

The rational candidate is what the paper's modules need.  In V_lambda each
rho(x_k) has entries all in Q or all in iQ, so complex conjugation maps it
to +-rho(x_k), a twist by a character; twisting V and W by the same
character leaves Hom(V, W) unchanged, so Hom(V, W) is conjugation-stable
and its canonical basis is rational.  A conjugate by a matrix with
non-rational entries (the benchmark's dense conjugates, or V_1 conjugated
by diag(1, i)) can give a basis that is not, which takes every embedding.

The closure is computed one sector block at a time.  The Burnside algebra
A of a graded module is generated by the action matrices and the diagonal
grading operators T_chi.  The T_chi span the sector projections P_s, over Q
and mod p alike, because |Gamma/H| <= 256 < p.  So A is the direct sum of
the blocks P_s A P_t, and P_s A P_t is spanned by the words in the action
matrices alone, restricted to V_t and landing in V_s.  Each rho(x_k) maps
V_t into V_{t + deg x_k}, so closure_rank closes the identity of each
sector V_t under left multiplication by such blocks and adds up the block
ranks: the same algebra, and dimension, as the closure of the d^2-long
words under all the generators.  gmodule's exact fallback closes the same
words on V_t in one echelon d n_t wide, where closure_rank keeps one per
target block V_t -> V_s: dense F_p rows pay for their width, while sparse
exact rows do not.

The closure and the spin of step 1 grow one incremental echelon,
_FpEchelon (the Meat-Axe spinning form; Parker 1984), whose rows are each
1 at their own pivot and 0 at the others': a vector is reduced by one
product, vec[pivots] @ rows, which sums up to ncols products of entries in
[0, p); ncols, the size of a block V_t -> V_s, is at most
(largest sector) d <= d^2.

Most closures are decided without closure_rank, by a rank-one idempotent
E_ii (1 at (i, i), 0 elsewhere) in the algebra A mod p, the rank-one case
of Norton's irreducibility test (Holt & Rees, J. Austral. Math. Soc. A 57,
1994):

* E_ii is in A when i is alone in its sector V_t, as E_ii = P_t.  It is
  also in A when a block V_t -> V_t of an action matrix, or of a product
  rho(x_a) rho(x_b) through V_t -> V_s -> V_t, is diagonal, D, and its
  entry at i occurs once on D's diagonal: P_t D P_t is in A, and
  E_ii = P_t q(P_t D P_t) for the Lagrange polynomial q that is 1 at that
  entry and 0 at the others.
* If the spins of e_i under the matrices and under their transposes are
  both F_p^d, then A e_i = F_p^d and e_i^T A = (F_p^d)^T (a spin of a
  homogeneous vector is graded, so the projections add nothing to it).
  Every u w^T is then a E_ii b with u = a e_i and w^T = e_i^T b, a, b in A,
  so A = End(F_p^d): its dimension is d^2.
* If either spin is proper, A is not End(F_p^d), whose e_i spins to all
  of F_p^d either way, so the dimension is below d^2.

So the answer is closure_rank(...) == d^2 in every case; closure_rank
runs only when no E_ii shows.  rank_one_certificate is the two-spin half
alone, for a caller that decides the other case without closure_rank
(loopfunctor's lift step, by the commutant of the loop module).

A full spin mod p also settles an exact spin (the lattice argument behind
the MeatAxe's spinning; Parker 1984): whole_spin_test is the filter of
the one scan of candidate spins that gmodule's witness search and
decompose share, and skips the unit vectors whose exact spin is the whole
module.
Let the action's entries be p-integral (a view raises ValueError
otherwise, and nothing is certified), let O be Z[zeta_m] localised at the
prime P = (p, zeta - omega), a discrete valuation ring with O/P = F_p and
a uniformiser pi, and let S be the exact spin of e_i.  L = S cap O^d is a
lattice of rank dim S (it spans S), invariant under the action, and
saturated: an x in L that lies in P O^d is pi y with y in S cap O^d = L.
So L/PL embeds in F_p^d as an invariant subspace of dimension dim S that
contains e_i, and with it the spin of e_i mod p.  A spin mod p that is all
of F_p^d therefore forces dim S = d.

Each GradedModule holds one FpView in a slot, made on first use: the
entries of its generator_action reduced mod each prime that
certifies_full_closure, certified_hom (for V and for W) and
whole_spin_test have used, and certified_hom's spin tree of V, spun at its
first prime and embedding, the only ones it spins at.  Every regrading
(parity_shift, coarsen, regrade) gives the module it derives the same
action tuple, algebra and view.  A view refers to no module, and nothing
module-global refers to a view, so it is dropped with the last module that
holds it.

int64 arithmetic is bounded in one place, the view: FpView._entries
raises ValueError, as for a denominator divisible by p, when
max(d^2, c) (p - 1)^2 >= 2^63, for c the coordinates it stores per entry,
and every certificate then reads "no certificate".  Every entry is
reduced into [0, p), and every contraction in this module sums at most
that many products of two entries before it is reduced mod p: c for an
image, ncols <= d^2 for _FpEchelon.add, d for a closure block, a
rank-one product or a spin, and at most d dim W for _hom_solutions, whose
two views are reduced at the same prime, so the larger one's bound covers
d dim W.  At the primes prime_for gives, about 2^20, every certificate
stops at d of about 2,900.  A Hom basis's power-basis coordinates
(fpfield._power_coordinates) sum phi(m) <= c products.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from math import gcd, isqrt, lcm

import numpy as np

from . import linalg
from .fpfield import (
    _crt,
    _power_coordinates,
    _rational,
    _root_powers,
    order_m_root,
    prime_for,
)


def fp_for_field(f):
    p = prime_for(f.m)
    return p, order_m_root(f.m, p)


class FpView:
    """The F_p images of one exact action, a sequence of d x d matrices of
    sparse rows, under zeta -> omega, and the spin tree of certified_hom's
    step 1.  Each entry's coordinates are reduced mod p once per prime (the
    entries are kept as one int64 array: flat index, then the coordinates,
    or the first alone when every entry is rational mod p), so each image is
    one product with the powers of omega.  What is computed is kept as long
    as the view, and every image is within the int64 bound (see the module
    docstring)."""

    __slots__ = ("action", "dim", "_reduced", "_tree")

    def __init__(self, action, dim):
        self.action = action
        self.dim = dim
        self._reduced = {}  # p -> the reduced entries
        self._tree = None  # _spin_tree of the image certified_hom spins

    def _entries(self, p):
        red = self._reduced.get(p)
        if red is None:
            n, rows = self.dim, []
            for k, mat in enumerate(self.action):
                for i, row in enumerate(mat):
                    at = (k * n + i) * n
                    for j, x in row.items():
                        inv = pow(x.den, -1, p)  # ValueError when p divides x.den
                        rows.append([at + j, *(c * inv % p for c in x.nums)])
            red = np.array(rows, dtype=np.int64) if rows else np.zeros((0, 2), dtype=np.int64)
            if max(n * n, red.shape[1] - 1) * (p - 1) ** 2 >= 1 << 63:
                raise ValueError(f"F_{p} products of a {n}-dimensional action overflow int64")
            if not np.count_nonzero(red[:, 2:]):
                red = red[:, :2].copy()
            self._reduced[p] = red
        return red

    def images(self, p, omega):
        """The image under zeta -> omega, an int64 array (K, d, d) with
        entries in [0, p); ValueError when p divides a denominator or p is
        past the int64 bound."""
        red = self._entries(p)
        out = np.zeros((len(self.action), self.dim, self.dim), dtype=np.int64)
        if red.size:
            powers = np.array([pow(omega, t, p) for t in range(red.shape[1] - 1)], dtype=np.int64)
            out.reshape(-1)[red[:, 0]] = red[:, 1:] @ powers % p
        return out

    def rational(self, p):
        """True if every omega gives the same image mod p: every entry is
        rational mod p."""
        return self._entries(p).shape[1] == 2

    def tree(self, p, omega):
        """_spin_tree of the image under zeta -> omega mod p, spun on the
        first call; certified_hom calls it at its first prime and embedding
        only."""
        if self._tree is None:
            self._tree = _spin_tree(self.images(p, omega), p, self.dim)
        return self._tree


class _FpEchelon:
    """Incrementally built reduced basis of a subspace of F_p^ncols, the F_p
    counterpart of linalg.RowBasis.  The first `rank` rows of `rows` are the
    basis in the order added; row i is 1 at column pivots[i] and 0 at the
    other rows' pivots.  Both arrays are allocated once, for the ncols rows
    a basis can have."""

    def __init__(self, ncols, p):
        self.p = p
        self.ncols = ncols
        self.rank = 0
        self.rows = np.empty((ncols, ncols), dtype=np.int64)
        self.pivots = np.empty(ncols, dtype=np.intp)

    def add(self, vec):
        """Insert vec, entries in [0, p): the row it adds, normalised and
        reduced, or None if vec is in the span."""
        p, r = self.p, self.rank
        rows = self.rows[:r]
        if r:
            # a row's coefficient is vec's entry at the row's pivot; only
            # the rows with a nonzero one take part
            coef = vec[self.pivots[:r]]
            used = coef.nonzero()[0]
            if used.size:
                vec = (vec - coef[used] @ rows[used]) % p
        nz = vec.nonzero()[0]
        if nz.size == 0:
            return None
        c = int(nz[0])
        vec = vec * pow(int(vec[c]), -1, p) % p
        hit = rows[:, c].nonzero()[0]
        if hit.size:  # in place, to hold fewer row-block temporaries at once
            cleared = rows[hit]
            cleared -= np.outer(cleared[:, c], vec)
            cleared %= p
            rows[hit] = cleared
        self.rows[r] = vec
        self.pivots[r] = c
        self.rank = r + 1
        return vec


def _blocks(mats, p, parts):
    """The nonzero blocks of a graded action: for each sector t (an index
    into `parts`), the pairs (s, block V_t -> V_s) of the matrices in
    `mats` that do not vanish on V_t, in the order of `mats`.  By
    homogeneity the columns of sector t hit one sector s."""
    sector = {i: s for s, idx in enumerate(parts) for i in idx}
    out_of = {}
    for t, idx in enumerate(parts):
        for g in mats:
            cut = g[:, idx] % p
            nz = np.flatnonzero(cut)
            if nz.size:
                s = sector[int(nz[0]) // len(idx)]
                out_of.setdefault(t, []).append((s, cut[parts[s]]))
    return out_of


def closure_rank(mats, p, dim, parts):
    """Dimension over F_p of the unital algebra generated by a graded action
    and its sector projections (why blocks suffice: see the module docstring).

    `mats` are the dim x dim F_p action matrices and `parts` the basis
    indices of each non-empty sector.  Each V_t's identity is closed under
    the blocks V_u -> V_s, one echelon per target s, and the ranks are
    summed; each block span, closed under every block, is that of all words
    on V_t.  Callers and the perfbench tracer compare the result with dim^2.
    """
    sizes = [len(idx) for idx in parts]
    out_of = _blocks(mats, p, parts)
    total = 0
    for t, n in enumerate(sizes):
        echs = {t: _FpEchelon(n * n, p)}
        work = [(t, echs[t].add(np.eye(n, dtype=np.int64).reshape(-1)))]
        while work:
            u, w = work.pop()
            wm = w.reshape(sizes[u], n)
            for s, g in out_of.get(u, ()):
                ech = echs.get(s)
                if ech is None:
                    ech = echs[s] = _FpEchelon(sizes[s] * n, p)
                elif ech.rank == ech.ncols:
                    continue
                added = ech.add((g @ wm % p).reshape(-1))
                if added is not None:
                    work.append((s, added))
        total += sum(ech.rank for ech in echs.values())
    return total


def _unique_diagonal_entry(block, idx):
    """The first index of `idx` whose entry occurs once on the diagonal of
    the square F_p block, if the block is diagonal; otherwise None."""
    diag = block.diagonal()
    if np.count_nonzero(block) != np.count_nonzero(diag):
        return None
    values = diag.tolist()
    counts = Counter(values)
    return next((i for i, x in zip(idx, values) if counts[x] == 1), None)


def _rank_one_index(mats, p, parts):
    """An index i such that E_ii lies in the algebra that the F_p action
    matrices and the sector projections generate, or None if none shows.
    It is looked for in a one-vector sector, then in the blocks V_t -> V_t
    of the matrices, then in those of the products V_t -> V_s -> V_t: a
    diagonal block on whose diagonal i's entry occurs once (see the module
    docstring)."""
    for idx in parts:
        if len(idx) == 1:
            return idx[0]
    out_of = _blocks(mats, p, parts)
    for t, idx in enumerate(parts):
        for s, g in out_of.get(t, ()):
            if s == t and (i := _unique_diagonal_entry(g, idx)) is not None:
                return i
    # products only now, one at a time
    for t, idx in enumerate(parts):
        for s, b in out_of.get(t, ()):
            for u, a in out_of.get(s, ()):
                if u == t and (i := _unique_diagonal_entry(a @ b % p, idx)) is not None:
                    return i
    return None


def _spans_all(mats, p, d, i):
    """True if the words in the d x d F_p matrices `mats` take the unit
    vector e_i to a spanning set of F_p^d."""
    basis = _FpEchelon(d, p)
    work = [basis.add(np.eye(1, d, i, dtype=np.int64)[0])]
    while work:
        v = work.pop()
        for g in mats:
            if basis.rank == d:
                return True
            added = basis.add(g @ v % p)
            if added is not None:
                work.append(added)
    return basis.rank == d


def fp_rref(a, p):
    """Reduce the int64 array `a` in place to its reduced row echelon form
    over F_p, by one whole-array Gauss-Jordan elimination, and return the
    pivot columns.  Row i of the result has its pivot 1 at column
    pivots[i]; the rows from len(pivots) on are zero."""
    a %= p
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        # row r is 0 left of column c, so no row changes there
        col = a[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
    return pivots


def fp_rank(rows, p):
    """Rank over F_p of a stack of integer rows (an int64 numpy 2-D array,
    which is left reduced in place, as fp_rref leaves it)."""
    return len(fp_rref(rows, p))


def _spin_tree(mats, p, d):
    """Word tree of a basis of F_p^d spun from unit vectors under the d x d
    F_p matrices `mats`: entry i is (None, c) when basis vector i is the unit
    vector e_c, a generator, and (k, j) when it is mats[k] times vector j.
    Unit vectors are tried in index order, each only once the span of the
    ones before has closed below d."""
    basis = _FpEchelon(d, p)
    vecs, tree = [], []

    def add(v, how):
        if basis.add(v) is not None:
            vecs.append(v)
            tree.append(how)

    for c in range(d):
        if len(vecs) == d:
            break
        j = len(vecs)
        add(np.eye(1, d, c, dtype=np.int64)[0], (None, c))
        while j < len(vecs) < d:
            for k, g in enumerate(mats):
                add(g @ vecs[j] % p, (k, j))
            j += 1
    return tree


def _hom_solutions(act_v, act_w, tree, unknowns, p):
    """Hom(V, W) mod p under one embedding (steps 2 and 3 of the module
    docstring), from the F_p action arrays act_v (K, d, d) and act_w
    (K, e, e): its basis flattened row-major in canonical form, with the
    last nonzero column of each vector, or None if the tree's basis B is
    singular.  `unknowns[i]` lists the W indices of the unknowns of
    generator i.  A full column rank, found by fp_rank, gives an empty basis
    at once; otherwise the pivots are read off the rows it reduced."""
    d, e = len(tree), act_w.shape[1]
    n = sum(len(idx) for idx in unknowns.values())
    B = np.zeros((d, d), dtype=np.int64)
    U = np.zeros((d, e, n), dtype=np.int64)  # U[i] u = phi(b_i)
    offset = 0
    for i, (k, j) in enumerate(tree):
        if k is None:
            B[j, i] = 1
            idx = unknowns[i]
            U[i, idx, range(offset, offset + len(idx))] = 1
            offset += len(idx)
        else:
            B[:, i] = act_v[k] @ B[:, j] % p
            U[i] = act_w[k] @ U[j] % p
    inv = np.hstack([B, np.eye(d, dtype=np.int64)])
    if fp_rref(inv, p) != list(range(d)):
        return None
    inv = inv[:, d:]
    K = len(act_v)
    # sum_i C_k[i, j] U_i = sum_l (rho_V(x_k) B)[l, j] (B^-T U)_l, as 2-D products
    moved = (act_v.reshape(K * d, d) @ B % p).reshape(K, d, d)
    pushed = moved.transpose(0, 2, 1).reshape(K * d, d) @ (inv.T @ U.reshape(d, e * n) % p) % p
    acted = act_w.reshape(K * e, e) @ U.transpose(1, 0, 2).reshape(e, d * n) % p
    acted = acted.reshape(K, e, d, n).transpose(0, 2, 1, 3)
    rows = ((pushed.reshape(K, d, e, n) - acted) % p).reshape(K * d * e, n)
    rank = fp_rank(rows, p)
    if rank == n:
        return np.zeros((0, e * d), dtype=np.int64), []
    pivots = [int(row.nonzero()[0][0]) for row in rows[:rank]]
    free = [c for c in range(n) if c not in set(pivots)]
    h = len(free)
    null = np.zeros((n, h), dtype=np.int64)
    null[free, range(h)] = 1
    if pivots:
        null[pivots] = -rows[: len(pivots), free] % p
    # phi_t = (U_i u_t)_i B^-1, as (t, r, c)
    images = U.reshape(d * e, n) @ null % p  # rows (i, r): U_i u_t at r
    flat = (inv.T @ images.reshape(d, e * h) % p).reshape(d, e, h)
    flat = flat.transpose(2, 1, 0).reshape(h, e * d)
    # canonical form: reduced echelon form with the columns reversed
    rev = flat[:, ::-1].copy()
    pivots = fp_rref(rev, p)
    if len(pivots) != h:
        return None  # unreachable: u -> phi is injective
    return rev[::-1, ::-1].copy(), [e * d - 1 - c for c in reversed(pivots)]


def _lift(f, residues, modulus, d):
    """Candidate maps (sparse rows) from the coordinates mod `modulus` of
    their entries, residues[t, s, r d + c] for coordinate t of entry (r, c)
    of candidate s (the coordinates past len(residues) are 0); None if a
    coordinate does not reconstruct."""
    count, size = residues.shape[1:]
    pad = [0] * (f.degree - len(residues))
    maps = [[{} for _ in range(size // d)] for _ in range(count)]
    for s, j in sorted(set(zip(*np.nonzero(residues)[1:]))):
        coeffs = [_rational(int(u), modulus) for u in residues[:, s, j]]
        if None in coeffs:
            return None
        r, c = divmod(int(j), d)
        maps[s][r][c] = f.num(coeffs + pad)
    return maps


def _checked_lift(f, residues, modulus, d, act_v, act_w):
    """_lift's candidate maps if each of them intertwines the exact actions,
    else None."""
    maps = _lift(f, residues, modulus, d)
    if maps is not None and all(linalg.mat_mul(phi, a) == linalg.mat_mul(b, phi)
                                for phi in maps for a, b in zip(act_v, act_w)):
        return maps
    return None


def _hom_height(f, act_v, act_w, deg_v, deg_w):
    """A height bound H for the canonical Hom basis of the exact actions
    act_v and act_w (sparse rows) with basis degrees deg_v and deg_w: every
    power-basis coordinate a/b of every entry, in lowest terms, has |a| <= H
    and b <= H.

    The basis is linalg.nullspace's for the intertwiner system, so by
    Cramer's rule each entry is N / D for minors N, D of that system with
    its rows scaled into Z[zeta] (row (k, r, c) by the lcm D_k of the
    denominators in rho_V(x_k) and rho_W(x_k)).  Its entries at the
    variables (r, t) and (t, c) are rho_V(x_k)[t][c] and -rho_W(x_k)[r][t],
    and |sigma(z)| <= s(z), the sum of the absolute values of z's integer
    coordinates, for every embedding sigma, so under each sigma the row has
    Euclidean length at most h, the largest sum of the two lengths of a
    column of D_k rho_V(x_k) and a row of D_k rho_W(x_k).  By Hadamard's
    bound |sigma(N)|, |sigma(D)| <= B = h^v for the v unknowns, the minors'
    largest possible size.  As in fpfield._inverse_height, N / D =
    N adj(D) / Norm(D) with |Norm(D)| <= B^n (n = phi(m)) and
    |sigma(N adj(D))| <= B^n, whose coordinates Lagrange interpolation at
    the roots of Phi = Phi_m bounds by n |Phi|_1 2^(m-n) B^n / m."""
    h = 0
    for a, b in zip(act_v, act_w):
        scale = lcm(*(x.den for mat in (a, b) for row in mat for x in row.values()))
        cols = Counter()  # squared lengths of the columns of a
        for row in a:
            for c, x in row.items():
                cols[c] += (sum(map(abs, x.nums)) * scale // x.den) ** 2
        rows = [sum((sum(map(abs, x.nums)) * scale // x.den) ** 2 for x in row.values())
                for row in b]
        # isqrt(s) + 1 > sqrt(s)
        h = max(h, isqrt(max(cols.values(), default=0)) + isqrt(max(rows, default=0)) + 2)
    in_sector = Counter(deg_v)
    n, m = f.degree, f.m
    norm = (h ** sum(in_sector[s] for s in deg_w)) ** n
    lagrange = (n * sum(abs(c) for c in f.poly) * norm) << (m - n)
    return max(norm, -(-lagrange // m))


def certified_hom(f, view_v, view_w, deg_v, deg_w):
    """Basis of the degree-0 maps phi: V -> W (sparse rows) with
    phi rho_V(x_k) = rho_W(x_k) phi for the exact actions of the FpViews
    view_v and view_w and basis degrees deg_v and deg_w over f, solved by
    spinning mod p and checked exactly (see the module docstring); None when
    there is no certificate.

    The basis, when given, is the one linalg.nullspace returns for the
    intertwiner system.  When every action matrix is zero it is the unit
    maps, given at once.  [] is certified by full column rank mod p.  At
    each prime the first embedding is solved and its basis lifted to Q
    with the earlier primes' first-embedding bases; the other embeddings
    are solved only when that rational candidate fails.  Primes are added
    until their product passes 2 H^2 for the height bound H of _hom_height:
    past it the reconstruction is unique, so a basis that all the primes
    reduce alike is found.  None is returned for a denominator divisible by
    a prime used, a singular spin basis, last columns that differ between
    embeddings or primes, or no candidate basis that reconstructs and passes
    the exact check once the product has passed 2 H^2.
    """
    act_v, act_w = view_v.action, view_w.action
    d, e = len(deg_v), len(deg_w)
    if not any(row for mat in (*act_v, *act_w) for row in mat):
        # every degree-0 map intertwines: the units E_rc, in the order of the
        # intertwiner system's variables, as linalg.nullspace gives them for
        # a system without rows
        return [[{c: f.one} if i == r else {} for i in range(e)]
                for r in range(e) for c in range(d) if deg_w[r] == deg_v[c]]
    m = f.m
    units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    sectors = {}
    for r, s in enumerate(deg_w):
        sectors.setdefault(s, []).append(r)
    tree = unknowns = last = rational = residues = bound = None
    modulus = 1
    for i in count():
        p = prime_for(m, i)
        omega = order_m_root(m, p)
        images = []
        for k in units:
            w = pow(omega, k, p)
            try:
                fv, fw = view_v.images(p, w), view_w.images(p, w)
            except ValueError:  # a denominator is 0 mod p, or the int64 bound
                return None
            if tree is None:
                tree = view_v.tree(p, w)
                unknowns = {t: sectors.get(deg_v[c], []) for t, (g, c) in enumerate(tree)
                            if g is None}
            solved = _hom_solutions(fv, fw, tree, unknowns, p)
            if solved is None or last is not None and solved[1] != last:
                return None
            basis, last = solved
            if not last:
                # only the first solve can get here: every later one matched
                # its nonempty last columns
                return []
            images.append(basis)
            if len(images) == 1:
                # the rational candidate: this basis as power-basis coordinate 0
                rational = _crt(rational, basis[None], modulus, p)
                maps = _checked_lift(f, rational, modulus * p, d, act_v, act_w)
                if maps is not None:
                    return maps
                if view_v.rational(p) and view_w.rational(p):
                    break  # every embedding gives this system
        if len(images) == 1:  # rational actions, or phi(m) = 1: coordinate 0
            coords = np.zeros((len(units), *basis.shape), dtype=np.int64)
            coords[0] = basis
        else:
            coords = _power_coordinates(m, images, p, _root_powers(m, p))
        residues = _crt(residues, coords, modulus, p)
        modulus *= p
        # with every coordinate past the first 0, this is the rational candidate
        if residues[1:].any():
            maps = _checked_lift(f, residues, modulus, d, act_v, act_w)
            if maps is not None:
                return maps
        if bound is None:  # made only when one prime does not suffice
            bound = 2 * _hom_height(f, act_v, act_w, deg_v, deg_w) ** 2
        if modulus > bound:
            return None


def _first_image(f, view):
    """(image, p): the action's image under f's first prime p and embedding,
    or None when the view raises ValueError (a denominator is 0 mod p, or p
    is past the int64 bound of the module docstring)."""
    p, omega = fp_for_field(f)
    try:
        return view.images(p, omega), p
    except ValueError:
        return None


def rank_one_certificate(f, view, parts):
    """certifies_full_closure's answer when _rank_one_index finds an index
    i: two spins of e_i; None when no rank-one idempotent shows, so that
    only closure_rank could answer.  False is no certificate, as is a view
    that raises ValueError."""
    got = _first_image(f, view)
    if got is None:
        return False
    fp, p = got
    i = _rank_one_index(fp, p, parts)
    if i is None:
        return None
    d = view.dim
    return _spans_all(fp, p, d, i) and _spans_all(fp.transpose(0, 2, 1), p, d, i)


def certifies_full_closure(f, view, parts):
    """True if the unital algebra that a graded action over f and its sector
    projections generate has dimension d^2 mod p, which proves it is all of
    End(f^d).  `view` is the action's FpView and `parts` the basis indices
    of each non-empty sector, as closure_rank takes them.  The answer is
    rank_one_certificate's when a rank-one idempotent shows, closure_rank's
    otherwise (see the module docstring)."""
    answer = rank_one_certificate(f, view, parts)
    if answer is not None:
        return answer
    fp, p = _first_image(f, view)  # rank_one_certificate got the image
    return closure_rank(fp, p, view.dim, parts) == view.dim ** 2


def whole_spin_test(f, view):
    """A test of sparse candidate vectors under the action of the FpView
    `view` over f: test(v) is True if v is a multiple of one unit vector
    e_i that spins to all of F_p^d, which proves that the exact spin of v
    is all of f^d (the lattice argument of the module docstring).  False is
    no certificate: any other vector, a proper spin mod p, or, for every v,
    a view that raises ValueError."""
    d = view.dim
    got = _first_image(f, view)
    if got is None:
        return lambda v: False
    fp, p = got
    return lambda v: len(v) == 1 and _spans_all(fp, p, d, next(iter(v)))
