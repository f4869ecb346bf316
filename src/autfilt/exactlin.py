"""Exact integer linear algebra on labeled tensor spaces.

Vectors are sparse maps from basis labels to nonzero int coefficients:
every operator the computations use is integral with an integral inverse,
and a rational span or kernel always has an integer basis.  Every space
carries an explicit label tuple in sorted order, so spans, kernels and
subspace comparisons are deterministic.

Labels live only at the edges: inside, a row is a dict from a label's
position in space.labels() to its coefficient, so no step hashes a nested
label tuple, and the least position is the least label.  A TensorVector
holds its row, converted from labels once when it is built and back only
when its coords are read; an operator is a function from a position of its
domain to the image row of that basis vector, so images, saturations,
kernels, membership and the kernel claim run on rows.

There is one elimination, SubspaceBasis: a reduced integer echelon basis
(content stripped, each pivot cleared from the other rows), which avoids
fill-in and coefficient blowup during the larger orbit saturations.  Spans,
saturations and kernels all go through it; kernel_basis reduces the
matrix rows of an operator and reads the kernel off that row space.

Every space is one Space value: a family name and its integer parameters,
with one constructor per family the computations need: VSpace(n) for
V = Q^n, TensorSpace(n, m) for its tensor powers, MkSpace(n, k) for
dual-vector (x) degree-(k+1) free-Lie values (basis e_i^* (x) Lyndon
bracketing), whose k = 1 case is Hom(V, wedge^2 V), and WedgeSpace(n, m)
for its wedge powers.  Every label set is in its natural sorted order,
and no space is built over MAX_DIMENSION labels.
An operator on V lifts to the other families through induced_on.  The
symplectic space is VSpace(2g) with a_i = 2i - 1 and b_i = 2i; the form
lives only in symplectic_pairing.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, gcd, lcm, prod

from . import autf, lie

# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


# The most labels a space may have: MkSpace(5, 8) took 2 s and 333 MB to
# enumerate its 1,085,000 labels, before any position index.
MAX_DIMENSION = 500_000


@functools.cache
def _lyndon_count(n, m):
    """Lyndon words of length m >= 1 over n letters, from the necklace
    identity n^m = sum over d | m of d * _lyndon_count(n, d)."""
    return (n**m - sum(d * _lyndon_count(n, d) for d in range(1, m) if m % d == 0)) // m


# family -> (parameter names, descriptor format over the parameters,
# labels in their natural order, which is the space order, and the
# dimension in closed form)
_FAMILIES = {
    "V": (("n",), "V(n={0})", lambda n: range(1, n + 1), lambda n: n),
    "T": (
        ("n", "m"),
        "T(n={0},m={1})",
        lambda n, m: itertools.product(range(1, n + 1), repeat=m),
        lambda n, m: n**m,
    ),
    "Mk": (
        ("n", "k"),
        "Mk(n={0},k={1})",
        lambda n, k: itertools.product(range(1, n + 1), lie.lyndon_words(n, k + 1)),
        lambda n, k: n * _lyndon_count(n, k + 1),
    ),
    "W": (
        ("n", "m"),
        "w{1}V(n={0})",
        lambda n, m: itertools.combinations(range(1, n + 1), m),
        comb,
    ),
}


@functools.cache
def _labels(family, params):
    return tuple(_FAMILIES[family][2](*params))


@functools.cache
def _index(family, params):
    return {label: p for p, label in enumerate(_labels(family, params))}


def _check_size(name, value):
    """ValueError unless value is a nonnegative int (bool is not one):
    the check on every size parameter of a space, n, m, k or the genus g."""
    if not (autf.is_json_int(value) and value >= 0):
        raise ValueError(f"{name} must be a nonnegative int, got {value!r}")


class Space(autf.FrozenRecord):
    """A labeled basis space: a family name from _FAMILIES and its integer
    parameters, which alone decide equality and hashing.  Each parameter
    is checked by _check_size, so 3.0 or True never stands for an int, and
    the dimension, from its closed form before any label is built, is at
    most MAX_DIMENSION."""

    __slots__ = ("family", "params")

    def __init__(self, family, params):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        names, _, _, dimension = _FAMILIES[family]
        for name, value in zip(names, params, strict=True):
            _check_size(name, value)
        dim = dimension(*params)
        if dim > MAX_DIMENSION:
            raise ValueError(
                f"{self.descriptor} has dimension {dim}, over "
                f"the bound exactlin.MAX_DIMENSION = {MAX_DIMENSION}"
            )

    @property
    def descriptor(self):
        return _FAMILIES[self.family][1].format(*self.params)

    def labels(self):
        """The basis labels in space order, which is sorted order, as one
        tuple shared by equal spaces."""
        return _labels(self.family, self.params)

    @property
    def index(self):
        """label -> its position in labels(), as one dict shared by equal
        spaces."""
        return _index(self.family, self.params)

    @property
    def dimension(self):
        return _FAMILIES[self.family][3](*self.params)


def VSpace(n):
    """V = Q^n with labels 1..n."""
    return Space("V", (n,))


def TensorSpace(n, m):
    """V^(x)m with basis labels the length-m index tuples."""
    return Space("T", (n, m))


def MkSpace(n, k):
    """V* (x) Lie_{k+1}(V) with labels (dual index, Lyndon word of length k+1).

    For k = 1 this is Hom(V, wedge^2 V): the length-2 Lyndon words (a, b)
    with a < b are exactly the wedge pairs.
    """
    return Space("Mk", (n, k))


def WedgeSpace(n, m):
    """wedge^m V with labels the strictly increasing m-tuples of indices."""
    return Space("W", (n, m))


def wedge_label(indices):
    """(sign of the permutation sorting indices, the sorted tuple); the
    sign is 0 when an index repeats."""
    label = tuple(sorted(indices))
    if len(set(label)) < len(label):
        return 0, label
    return (-1) ** sum(a > b for a, b in itertools.combinations(indices, 2)), label


# ---------------------------------------------------------------------------
# vectors and operators
# ---------------------------------------------------------------------------


class TensorVector:
    """Sparse integer vector over a labeled space, built from label-keyed
    coords and held as its row: positions in space.labels() -> nonzero ints."""

    __slots__ = ("space", "row")

    def __init__(self, space, coords=()):
        nonzero = {}
        for label, v in dict(coords).items():
            if type(v) is not int:
                raise ValueError(f"coefficient of {label!r} is not an int: {v!r}")
            if v:
                nonzero[label] = v
        index = space.index
        if not index.keys() >= nonzero.keys():
            stray = sorted(map(repr, nonzero.keys() - index.keys()))
            raise ValueError(f"labels not in {space.descriptor}: {', '.join(stray)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "row", {index[label]: v for label, v in nonzero.items()})

    @classmethod
    def _trusted(cls, space, row):
        """Trusted constructor: row must already hold nonzero ints at
        positions of space; it is stored as it is, not copied."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "space", space)
        object.__setattr__(vec, "row", row)
        return vec

    @property
    def coords(self):
        """The label view of the row, as a new dict."""
        labels = self.space.labels()
        return {labels[p]: c for p, c in self.row.items()}

    def __setattr__(self, name, value):
        raise AttributeError("TensorVector is immutable")

    @classmethod
    def unit(cls, space, label):
        return cls(space, {label: 1})

    def __bool__(self):
        return bool(self.row)

    def __eq__(self, other):
        return (
            isinstance(other, TensorVector)
            and self.space == other.space
            and self.row == other.row
        )

    def __hash__(self):
        return hash((self.space, frozenset(self.row.items())))

    def __add__(self, other):
        self._check(other)
        return TensorVector._trusted(self.space, lie.tensor_add(self.row, other.row))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if type(c) is not int:
            raise ValueError(f"scalar is not an int: {c!r}")
        return TensorVector._trusted(self.space, lie.tensor_scale(self.row, c))

    def _check(self, other):
        if self.space != other.space:
            raise ValueError(
                f"space mismatch: {self.space.descriptor} vs {other.space.descriptor}"
            )

    def __repr__(self):
        return f"TensorVector({self.space.descriptor}, {len(self.row)} terms)"


class LinearOperator:
    """Linear map given on positions, with cached images.

    image_row maps a position p of space_in to the image of that basis
    vector, a row of space_out: its positions keyed to nonzero ints.  The
    row is trusted, not checked, and cached as it is; no step mutates it.
    An inverse witness, when present, is another LinearOperator; orbit
    saturation refuses generators without one.
    """

    def __init__(self, space_in, space_out, image_row, name, inverse=None):
        self.space_in = space_in
        self.space_out = space_out
        self.image_row = image_row
        self.name = name
        self.inverse = inverse
        self._cache = {}

    def _apply_row(self, row):
        """The image of a row of space_in, as a new row of space_out."""
        out = {}
        cache = self._cache
        for p, c in row.items():
            image = cache.get(p)
            if image is None:
                image = cache[p] = self.image_row(p)
            lie.tensor_add_into(out, image, c)
        return out

    def image_of(self, label):
        row = self._apply_row({self.space_in.index[label]: 1})
        return TensorVector._trusted(self.space_out, row)

    def apply(self, vec):
        if vec.space != self.space_in:
            raise ValueError(
                f"operator {self.name or '?'} expects {self.space_in.descriptor}, "
                f"got {vec.space.descriptor}"
            )
        return TensorVector._trusted(self.space_out, self._apply_row(vec.row))

    __call__ = apply

    def __repr__(self):
        return (
            f"LinearOperator({self.name or 'anonymous'}: "
            f"{self.space_in.descriptor} -> {self.space_out.descriptor})"
        )


def _operator_pair(space, fwd, bwd, name):
    """Endomorphisms name and name^-1 of space from image_row functions,
    each the other's inverse witness."""
    op = LinearOperator(space, space, fwd, name)
    op.inverse = LinearOperator(space, space, bwd, name + "^-1", inverse=op)
    return op


def _moving_pair(space, moves_fwd, moves_bwd, name):
    """Operator pair fixing every label except the keys of the move tables,
    which map to the coordinate dicts stored there (nonzero ints)."""

    def row_function(moves):
        rows = {space.index[a]: TensorVector(space, image).row for a, image in moves.items()}
        return lambda p: rows.get(p, {p: 1})

    return _operator_pair(space, row_function(moves_fwd), row_function(moves_bwd), name)


# ---------------------------------------------------------------------------
# spans, kernels, saturation
# ---------------------------------------------------------------------------


def _divide_content(row, sign=1):
    """The int row with no zeros divided by sign times its content."""
    g = sign * gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


class SubspaceBasis:
    """Reduced integer echelon basis of a subspace, rows keyed by pivot position.

    Each row's pivot is its least position (its least label), with a
    positive entry, and the row has content 1; no row has a nonzero entry
    at another row's pivot.  So clearing one pivot from a vector leaves its
    other pivot entries merely scaled, and reduction clears each pivot the
    vector holds once, in one pass, with no search for the least position.

    _holders indexes the rows by position: each non-pivot position maps to
    the set of pivots whose row holds it (a set may be left empty), so an
    insert finds the rows to back-substitute without scanning them all.
    _insert_row is insert on rows, and _reduce_row decides contains.
    """

    def __init__(self, space):
        self.space = space
        self.rows = {}
        self._holders = {}

    @property
    def dim(self):
        return len(self.rows)

    def _row_of(self, vec):
        """The row of a TensorVector of this space, as a new dict."""
        if not isinstance(vec, TensorVector) or vec.space != self.space:
            got = vec.space.descriptor if isinstance(vec, TensorVector) else type(vec)
            raise ValueError(
                f"space mismatch: basis of {self.space.descriptor}, vector of {got}"
            )
        return dict(vec.row)

    def _reduce_row(self, v):
        """The row v, which may be mutated, reduced against the basis: no
        entry at any pivot, and empty exactly when v is in the span."""
        v = _divide_content(v)
        rows = self.rows
        for p in v.keys() & rows.keys():
            _eliminate(v, rows[p], p)
        return v

    def insert(self, vec):
        """_insert_row of a TensorVector of this space, the residue as coords."""
        residue = self._insert_row(self._row_of(vec))
        return None if residue is None else TensorVector._trusted(self.space, residue).coords

    def _insert_row(self, v):
        """Add the row v, which may be mutated; returns the inserted residue
        row or None if v is dependent.

        The returned row is never mutated afterwards: back-substitution
        replaces the rows that hold the new pivot with new dicts.
        """
        residue = self._reduce_row(v)
        if not residue:
            return None
        p = min(residue)
        residue = _divide_content(residue, 1 if residue[p] > 0 else -1)
        holders = self._holders
        for q in holders.pop(p, ()):
            # the residue's entries all sit past q, so q stays the pivot
            # and its entry stays positive
            old = self.rows[q]
            row = dict(old)
            _eliminate(row, residue, p)
            row = self.rows[q] = _divide_content(row)
            # only the residue's positions can enter or leave the row
            for f in residue:
                if f not in row:
                    if f != p:
                        holders[f].discard(q)
                elif f not in old:
                    holders.setdefault(f, set()).add(q)
        for f in residue:
            if f != p:
                holders.setdefault(f, set()).add(p)
        self.rows[p] = residue
        return residue

    def contains(self, vec):
        return not self._reduce_row(self._row_of(vec))


def span_basis(vectors):
    vectors = list(vectors)
    if not vectors:
        raise ValueError("need at least one vector to infer the space")
    basis = SubspaceBasis(vectors[0].space)
    for v in vectors:
        basis.insert(v)
    return basis


def kernel_basis(op):
    """Exact kernel of a LinearOperator, as a basis in its domain.

    The matrix rows (one per output label, over the domain labels) are
    reduced in a SubspaceBasis, and the kernel is read off that row space:
    no reduced row holds another row's pivot, so each free (non-pivot)
    domain label f gives the kernel vector
    L e_f - sum_p (L row_p[f] / row_p[p]) e_p over the pivots p whose row
    holds f, with L the lcm of those pivot entries.  The reduced basis of a
    subspace is unique, so the result does not depend on the row order.
    """
    space = op.space_in
    matrix = {}
    for col in range(space.dimension):
        for q, c in op._apply_row({col: 1}).items():
            matrix.setdefault(q, {})[col] = c
    row_space = SubspaceBasis(space)
    for row in matrix.values():
        row_space._insert_row(row)
    rows = row_space.rows
    kernel = SubspaceBasis(space)
    for f in range(space.dimension):
        if f in rows:
            continue
        pivots = row_space._holders.get(f, ())
        L = lcm(*(rows[p][p] for p in pivots))
        vec = {f: L}
        for p in pivots:
            vec[p] = -(L // rows[p][p]) * rows[p][f]
        kernel._insert_row(vec)
    return kernel


def _eliminate(v, row, p):
    """Clear v[p] in place with a*v - b*row, where a:b is row[p]:v[p] in
    lowest terms; v is scaled only when a is not 1."""
    a, b = row[p], v[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in v:
            v[k] *= a
    lie.tensor_add_into(v, row, -b)


class SaturationResult(autf.Record):
    __slots__ = ("basis", "closed", "rounds", "applications")


def orbit_saturate(generators, seeds):
    """Smallest subspace containing the seeds and stable under the group
    the generators generate.

    Every generator must carry an inverse witness, but only the generators
    themselves are applied: for an invertible g and a finite-dimensional W,
    gW contained in W forces gW = W, hence g^-1 W = W.  Termination: the
    dimension grows strictly or the queue drains.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    space = seeds[0].space
    ops = list(generators)
    for g in ops:
        if g.space_in != space or g.space_out != space:
            raise ValueError("generators must be endomorphisms of the seed space")
        if g.inverse is None:
            raise ValueError(f"generator {g.name or '?'} has no inverse witness")
    basis = SubspaceBasis(space)
    queue = []
    for s in seeds:
        residue = basis._insert_row(basis._row_of(s))
        if residue is not None:
            queue.append(residue)
    applications = 0
    rounds = 0
    while queue:
        rounds += 1
        next_queue = []
        for row in queue:
            for op in ops:
                applications += 1
                residue = basis._insert_row(op._apply_row(row))
                if residue is not None:
                    next_queue.append(residue)
        queue = next_queue
    return SaturationResult(basis, True, rounds, applications)


# ---------------------------------------------------------------------------
# the contraction map and the shift-difference space
# ---------------------------------------------------------------------------

@functools.cache
def phi_operator(n, k):
    """Contraction of the dual slot with the first tensor factor."""
    space_in, space_out = MkSpace(n, k), TensorSpace(n, k)
    labels, index = space_in.labels(), space_out.index

    def image_row(p):
        # distinct monomials with first letter d have distinct tails
        d, w = labels[p]
        return {
            index[mono[1:]]: c for mono, c in lie.lyndon_word_tensor(w).items() if mono[0] == d
        }

    return LinearOperator(space_in, space_out, image_row, f"Phi({n},{k})")


def tau_map(t):
    """Contraction of a degree-k invariant, given as an MkSpace(n, k) vector."""
    if t.space.family != "Mk":
        raise ValueError(f"tau_map does not apply to {t.space.descriptor}")
    return phi_operator(*t.space.params).apply(t)


def w_basis(n, k):
    """Span of all differences (monomial - its cyclic shift).

    This is the target space of the contraction on degree-k invariants:
    it is stable (setwise) under the shift, complementary to the
    pointwise-invariant subspace, and has dimension n^k minus the
    necklace count.
    """
    space = TensorSpace(n, k)
    index = space.index
    basis = SubspaceBasis(space)
    for p, mono in enumerate(space.labels()):
        q = index[mono[1:] + mono[:1]]
        if q != p:
            basis._insert_row({p: 1, q: -1})
    return basis


# ---------------------------------------------------------------------------
# induced actions of elementary matrices
# ---------------------------------------------------------------------------


def elementary_sl(i, j, n):
    """Transvection sending e_j to e_j + e_i, all other basis vectors fixed.

    The dual representation acts by the inverse transpose, so e_i^* maps
    to e_i^* - e_j^*.  Use induced_on to lift to the structured spaces.
    """
    if i == j:
        raise ValueError("need i != j")
    _check_size("n", n)
    autf._check_indices(n, i, j)
    return _moving_pair(VSpace(n), {j: {j: 1, i: 1}}, {j: {j: 1, i: -1}}, f"E({i},{j})")


def sl_generators(n):
    """Two generators [E(1,2), P] of SL_n(Z), P the signed cycle e_j -> e_(j+1),
    e_n -> (-1)^(n-1) e_1 (determinant 1).

    Why they generate: P E(i,j) P^-1 = E(i+1,j+1) for i, j < n, so the
    conjugates of E(1,2) by powers of P are every E(i,i+1) and E(n,1)^+-1.
    The commutator [E(i,j), E(j,l)] = E(i,l) (i, j, l distinct) walks these
    round the cycle to every transvection (for n = 2 the conjugates already
    are E(1,2) and E(2,1)^-1: P and E(1,2) are the classical S and T), and
    transvections generate SL_n(Z).  So a subspace stable under the two is
    stable under the group, and by the argument in orbit_saturate under
    their inverses too.
    """
    _check_size("n", n)
    sign = (-1) ** (n - 1)
    fwd = {j: {j + 1: 1} for j in range(1, n)} | {n: {1: sign}}
    bwd = {j + 1: {j: 1} for j in range(1, n)} | {1: {n: sign}}
    return [elementary_sl(1, 2, n), _moving_pair(VSpace(n), fwd, bwd, "P")]


def _image_function(op):
    """label -> the coords of its image under op, each read once, when first
    asked for: a lift is built in pairs, and the inverse's is rarely used."""
    return functools.cache(lambda a: op.image_of(a).coords)


def _product_expand(image, mono):
    """Diagonal action on one tensor monomial, as a dict of label tuples,
    from the _image_function of the operator on V.

    Each choice of one image term per letter gives its own label tuple, so
    the products need no accumulation.
    """
    return {
        tuple(b for b, _ in terms): prod(c for _, c in terms)
        for terms in itertools.product(*(image(a).items() for a in mono))
    }


def _act_on_lyndon_word(image, w):
    """Diagonal action on the bracketing of w, back in Lyndon coordinates,
    from the _image_function of the operator on V."""
    out = {}
    for mono, c in lie.lyndon_word_tensor(w).items():
        lie.tensor_add_into(out, _product_expand(image, mono), c)
    return lie.lie_from_tensor_coords(out)


def induced_on(base, space):
    """Functorial lift of an invertible operator on V = VSpace(n) to a
    structured space over the same n."""
    v = VSpace(space.params[0])
    if base.space_in != v or base.space_out != v:
        raise ValueError(
            f"{base.name or '?'} is not an endomorphism of {v.descriptor}, "
            f"so it does not lift to {space.descriptor}"
        )
    fwd = _induce_one(base, space)
    bwd = _induce_one(base.inverse, space)
    fwd.inverse, bwd.inverse = bwd, fwd
    return fwd


def _induce_one(base, space):
    if space.family == "V":
        return base
    name = f"{base.name} on {space.descriptor}"
    image = _image_function(base)
    labels, index = space.labels(), space.index
    if space.family == "T":

        def image_row(p):
            return {index[t]: c for t, c in _product_expand(image, labels[p]).items()}

    elif space.family == "W":

        def image_row(p):
            # each term of the tensor image sorted into a wedge label
            out = {}
            for combo, c in _product_expand(image, labels[p]).items():
                sign, key = wedge_label(combo)
                if sign:
                    lie.tensor_add_into(out, {index[key]: c}, sign)
            return out

    else:
        # the label (c, ww) sits at position (c - 1) * L + (position of ww
        # among the L Lyndon words), which is the position of (1, ww) in
        # the first L labels; the Lie image depends on the word only, not
        # on the dual index, so it is computed once per word
        n, k = space.params
        L = _lyndon_count(n, k + 1)

        @functools.cache
        def shifts():
            # the dual action, e_d^* -> sum_c <e_d, g^-1 e_c> e_c^*, read off
            # the columns of the inverse, as {(c - 1) * L: coefficient} at
            # d - 1; built when first needed, like the _image_function
            cols = [base.inverse._apply_row({c: 1}) for c in range(n)]
            return [{c * L: col[d] for c, col in enumerate(cols) if d in col} for d in range(n)]

        @functools.cache
        def word_row(q):
            lie_coords = _act_on_lyndon_word(image, labels[q][1])
            return {index[1, ww]: cw for ww, cw in lie_coords.items()}

        def image_row(p):
            d, q = divmod(p, L)
            lie_row = word_row(q)
            return {s + r: dc * cw for s, dc in shifts()[d].items() for r, cw in lie_row.items()}

    return LinearOperator(space, space, image_row, name)


# ---------------------------------------------------------------------------
# symplectic generators on VSpace(2g): a_i = 2i - 1, b_i = 2i
# ---------------------------------------------------------------------------


def sp_generator(kind, i, j=None, g=None):
    """The rotation sigma_i (a_i -> b_i, b_i -> -a_i) or the transvection
    tau_ij (b_i -> b_i + a_j, b_j -> b_j + a_i); all other basis vectors fixed."""
    _check_size("g", g)
    autf._check_indices(g, i)
    a_i, b_i = 2 * i - 1, 2 * i
    if kind == "sigma":
        moves_fwd = {a_i: {b_i: 1}, b_i: {a_i: -1}}
        moves_bwd = {b_i: {a_i: 1}, a_i: {b_i: -1}}
        name = f"sigma({i})"
    elif kind == "tau":
        if j is None or j == i:
            raise ValueError("tau needs a second index distinct from the first")
        autf._check_indices(g, j)
        a_j, b_j = 2 * j - 1, 2 * j
        moves_fwd = {b_i: {b_i: 1, a_j: 1}, b_j: {b_j: 1, a_i: 1}}
        moves_bwd = {b_i: {b_i: 1, a_j: -1}, b_j: {b_j: 1, a_i: -1}}
        name = f"tau({i},{j})"
    else:
        raise ValueError("kind must be 'sigma' or 'tau'")
    return _moving_pair(VSpace(2 * g), moves_fwd, moves_bwd, name)


def sp_transvection(v_coords, g):
    """Symplectic transvection x -> x + <x, v> v about the vector v.

    Preserves the symplectic form for every v; the inverse subtracts.
    Used as the documented extended generating set when the rotation and
    double transvection generators alone are suspected of stalling.
    """
    _check_size("g", g)
    space = VSpace(2 * g)
    vvec = TensorVector(space, v_coords)
    v_row = vvec.row

    def row_function(sign):
        def row(p):
            return lie.tensor_add_into({p: 1}, v_row, sign * symplectic_pairing({p: 1}, v_row))

        return row

    tag = "+".join(map(str, sorted(vvec.coords)))
    return _operator_pair(space, row_function(1), row_function(-1), f"transvection({tag})")


def extended_sp_generators(g):
    """Transvections about a_i, b_i, a_i + a_j and a_i + b_j for all pairs."""
    _check_size("g", g)
    out = []
    for i in range(1, g + 1):
        out.append(sp_transvection({2 * i - 1: 1}, g))
        out.append(sp_transvection({2 * i: 1}, g))
        for j in range(1, g + 1):
            if i == j:
                continue
            out.append(sp_transvection({2 * i - 1: 1, 2 * j - 1: 1}, g))
            out.append(sp_transvection({2 * i - 1: 1, 2 * j: 1}, g))
    return out


def symplectic_pairing(u, v):
    """<a_i, b_i> = 1 = -<b_i, a_i>, zero on all other basis pairs, for two
    rows u and v of VSpace(2g)."""
    total = 0
    for x, cu in u.items():
        # a_i (label 2i - 1) sits at the even position x = 2i - 2 and pairs
        # with b_i at x + 1; b_i at an odd x pairs with a_i at x - 1
        if x % 2 == 0:
            total += cu * v.get(x + 1, 0)
        else:
            total -= cu * v.get(x - 1, 0)
    return total


def preserves_symplectic_form(op):
    dim = op.space_in.dimension
    images = [op._apply_row({p: 1}) for p in range(dim)]
    return all(
        symplectic_pairing(images[p], images[q]) == symplectic_pairing({p: 1}, {q: 1})
        for p in range(dim)
        for q in range(dim)
    )


# ---------------------------------------------------------------------------
# single-row family vectors and the reduction identities
# ---------------------------------------------------------------------------


def e_delta(n, k, dual_index, tail):
    """e_d^* (x) [e_t1, ..., e_t(k+1)] as an Mk vector (left-normed bracket).

    The bracket comes in Lyndon coordinates from
    lie.left_normed_of_generators; the dual index and every tail letter
    must be ints in 1..n.
    """
    tail = tuple(tail)
    if len(tail) != k + 1:
        raise ValueError("tail must have length k+1")
    autf._check_indices(n, dual_index, *tail)
    value = lie.left_normed_of_generators(tail)
    return TensorVector(MkSpace(n, k), {(dual_index, w): c for w, c in value.items()})


def c_count(delta):
    """Occurrences of the dual index in the tail of delta = (i, tail)."""
    dual_index, tail = delta
    return sum(1 for a in tail if a == dual_index)


def elementary_formal_action(i, j, p, delta):
    """Formal expansion of E_ij^p applied to a single-row symbol e_delta.

    The dual slot e_i^* branches into e_i^* - p e_j^*; every occurrence of
    j in the tail branches into e_j + p e_i.  Returns a dict mapping symbols
    (d, tail) to integer coefficients, without collapsing to a basis.
    """
    d, tail = delta
    dual_choices = [(1, d)]
    if d == i:
        dual_choices.append((-p, j))
    slot_choices = []
    for a in tail:
        if a == j:
            slot_choices.append(((1, j), (p, i)))
        else:
            slot_choices.append(((1, a),))
    out = {}
    for dc, dd in dual_choices:
        for combo in itertools.product(*slot_choices):
            sym = (dd, tuple(a for _, a in combo))
            lie.tensor_add_into(out, {sym: prod(c for c, _ in combo)}, dc)
    return out


def _formal_sum(terms, n, k):
    row = {}
    for (d, tail), c in terms.items():
        lie.tensor_add_into(row, e_delta(n, k, d, tail).row, c)
    return TensorVector._trusted(MkSpace(n, k), row)


class ZReductionReport(autf.Record):
    __slots__ = (
        "delta",
        "fresh_index",
        "c_value",
        "leading_coefficient",
        "lower_terms_ok",
        "vector_match",
    )

    @property
    def ok(self):
        return (
            self.leading_coefficient == 2 ** self.c_value - 2
            and self.lower_terms_ok
            and self.vector_match
        )


def z_reduction_check(n, k, delta, fresh_index):
    """Check z = E^2 e' - 2 E e' = (2^c - 2) e_delta + (lower c terms).

    delta = (i, tail) must have c(delta) >= 2 and fresh_index must avoid
    delta entirely; e' is delta with tail occurrences of i renamed to the
    fresh index.  The structural claim is about the formal expansion; the
    vector-level equality pins it against the honest induced action.
    """
    i, tail = delta
    j = fresh_index
    if j == i or j in tail:
        raise ValueError("fresh index must avoid delta")
    c = c_count(delta)
    if c < 2:
        raise ValueError("need c(delta) >= 2")
    tail_fresh = tuple(j if a == i else a for a in tail)
    base = (i, tail_fresh)
    z_terms = {}
    for p, scale in ((2, 1), (1, -2)):
        lie.tensor_add_into(z_terms, elementary_formal_action(i, j, p, base), scale)
    leading = z_terms.get(delta, 0)
    lower_ok = all(
        c_count(sym) < c for sym in z_terms if sym != delta
    )
    op = induced_on(elementary_sl(i, j, n), MkSpace(n, k))
    e_fresh = e_delta(n, k, *base)
    z_vec = op.apply(op.apply(e_fresh)) - op.apply(e_fresh).scale(2)
    match = _formal_sum(z_terms, n, k) == z_vec
    return ZReductionReport(delta, j, c, leading, lower_ok, match)


def closing_identity_check(n, k, i, j, eps, mutate_sign=False):
    """Exact identity e_(i;i,eps) - e_(j;j,eps) = E_ij e_(i;j,eps) - e_(i;j,eps) + e_(j;i,eps).

    mutate_sign flips one sign on the right-hand side and is the negative
    control: the mutated identity must fail.
    """
    eps = tuple(eps)
    if i == j or i in eps or j in eps or len(eps) != k:
        raise ValueError("need distinct i, j avoiding eps with len(eps) = k")
    lhs = e_delta(n, k, i, (i,) + eps) - e_delta(n, k, j, (j,) + eps)
    op = induced_on(elementary_sl(i, j, n), MkSpace(n, k))
    mid = e_delta(n, k, i, (j,) + eps)
    last = e_delta(n, k, j, (i,) + eps)
    if mutate_sign:
        last = last.scale(-1)
    rhs = op.apply(mid) - mid + last
    return lhs == rhs


# ---------------------------------------------------------------------------
# the kernel claim
# ---------------------------------------------------------------------------


class KernelClaimReport(autf.Record):
    __slots__ = (
        "n",
        "k",
        "ambient_dimension",
        "seed_count",
        "seeds_in_kernel",
        "orbit_dimension",
        "kernel_dimension",
        "orbit_inside_kernel",
        "saturation_closed",
        "equal",
    )

    def to_json_obj(self):
        return self.as_dict()


def kernel_claim_check(n, k, full_closure=True):
    """Compare the SL_n(Z)-orbit span (two generators, see sl_generators)
    of the single-row family vectors with the kernel of the contraction
    inside the dual-Lie space.

    Seeds are the unit vectors e_i^* (x) (Lyndon bracketing avoiding i).
    The kernel dimension is the ambient dimension minus the rank of the
    contraction, the span of its images in TensorSpace(n, k), so no
    kernel basis is built.  Every orbit basis row is checked to lie in the
    kernel, and a subspace of the kernel with the kernel's dimension is
    the kernel, so equality is containment plus the dimension count.  The
    saturation always runs to closure; full_closure=True is the only value
    accepted, kept for callers that still name it.
    """
    if full_closure is not True:
        raise ValueError(
            "kernel_claim_check takes only full_closure=True: the early-stop "
            "saturation mode is gone"
        )
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n - 2, got n={n}, k={k}")
    space = MkSpace(n, k)
    phi = phi_operator(n, k)
    labels = space.labels()
    seeds = [p for p, (d, w) in enumerate(labels) if d not in w]
    seeds_ok = not any(phi._apply_row({p: 1}) for p in seeds)
    image_span = SubspaceBasis(phi.space_out)
    for p in range(space.dimension):
        image_span._insert_row(phi._apply_row({p: 1}))
    kernel_dim = space.dimension - image_span.dim
    result = orbit_saturate(
        [induced_on(g, space) for g in sl_generators(n)],
        [TensorVector._trusted(space, {p: 1}) for p in seeds],
    )
    orbit = result.basis
    inside = all(not phi._apply_row(row) for row in orbit.rows.values())
    return KernelClaimReport(
        n=n,
        k=k,
        ambient_dimension=space.dimension,
        seed_count=len(seeds),
        seeds_in_kernel=seeds_ok,
        orbit_dimension=orbit.dim,
        kernel_dimension=kernel_dim,
        orbit_inside_kernel=inside,
        saturation_closed=result.closed,
        equal=inside and orbit.dim == kernel_dim,
    )
