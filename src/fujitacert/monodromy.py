"""Monodromy of the rank-2 character eigenspaces: criteria and matrix oracle.

Two independent routes decide (ir)reducibility and (in)finiteness:

* criteria - integer arithmetic on the weight tuple: the four non-integrality
  conditions for irreducibility, and Galois-definiteness for finiteness
  (finite iff every unit conjugate of the character has a definite form);
* oracle - an explicit rank-2 matrix triple over Q(zeta_n) built from
  companion matrices with integer exponents for every character, reducible
  ones included; reducibility as the vanishing of the commutator
  determinant det(g0*g1 - g1*g0), a search of the group it generates (the
  generators, then the letters' pairs a*b with one word of each reversed
  pair tested, then one breadth-first walk of the group modulo its
  root-of-unity scalars, multiplying class keys by letters normalized to a
  determinant exponent 0 or 1 and skipping the products that g0*g1*ginf = 1
  makes 1 or a letter, which gives the exact order as |G/Z| * |Z|;
  Kronecker's theorem tests each element for finite order), and an exactly
  solved invariant Hermitian form.

The oracle divides once, by 1 - y for a root of unity y (a sum of shifts), in
the form's closed-form solve; companion inverses are closed forms, walk
inverses are products via g0*g1*ginf = 1, and the form is s*m0 for the
solution line m0 and s = 1 + alpha from m0* = alpha*m0, checked Hermitian; the
sign of its determinant decides the signature, and 0 means a reducible triple.

The sweep tests elsewhere hold agreement of the two routes as the highest
severity invariant; neither side may be shortcut through the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd, inf

from .cyclotomic import (
    CyclotomicNumber, float_error_bound, inverse_one_minus_root, real_sign, roots_of_unity_order, sum_of_products, zeta
)
from .eigenspace import WeightTuple, sigma_sum
from .residues import InternalInconsistencyError, NonUnitError, check_modulus, units

DEFAULT_CLOSURE_CAP = 20000
DEFAULT_MAX_WORD_LEN = 8


class IrreducibilityRequiredError(InternalInconsistencyError):
    """Galois-definiteness criterion invoked without its irreducibility hypothesis."""


class ReducibleNoUniqueFormError(InternalInconsistencyError):
    """Invariant-form solution space is not 1-dimensional: triple is not irreducible."""


# ---------------------------------------------------------------------------
# exponents and criteria

Exponents = tuple[int, int, int]


def levelt_exponents(w: WeightTuple, j: int) -> Exponents:
    """(ka, kb, kc) with e(a) = zeta_n^ka, e(b) = zeta_n^kb, e(c) = zeta_n^kc.

    The character-scaled parameters are a = j*m3/n, b = -j*m0/n and
    c = -j*(m0+m2)/n modulo 1 (integer shifts change none of the implemented
    conclusions), so each is an integer exponent mod n.
    """
    n = w.n
    j %= n
    if j == 0:
        raise ValueError("character index j must be nonzero mod n")
    m0, _, m2, m3 = w.m
    return (j * m3) % n, (-j * m0) % n, (-j * (m0 + m2)) % n


def is_irreducible(w: WeightTuple, j: int) -> bool:
    """True iff none of a, b, a-c, b-c is an integer: ka, kb avoid both kc and 0.

    Unwinding the exponents, this is exactly: n divides none of j*m_i -- so
    irreducible characters are in particular non-degenerate.
    """
    ka, kb, kc = levelt_exponents(w, j)
    return not {ka, kb} & {kc, 0}


class Finiteness(str, enum.Enum):
    """The kind of a finiteness verdict; prints and serializes as its bare name."""

    FINITE = "FINITE"
    INFINITE = "INFINITE"
    INCONCLUSIVE = "INCONCLUSIVE"

    __str__ = str.__str__


@dataclass(frozen=True)
class FinitenessVerdict:
    """FINITE(order) | INFINITE(witness) | INCONCLUSIVE(cap).

    The criterion route emits FINITE without an order (order is only known
    to the closure oracle) and INFINITE with an indefinite-conjugate witness;
    the oracle route emits FINITE with the exact group order and INFINITE
    with an infinite-order word witness.
    """

    kind: Finiteness
    order: int | None = None
    witness: tuple[tuple[str, object], ...] | None = None
    cap: int | None = None


def agreement(criterion: Finiteness, closure: Finiteness) -> bool | None:
    """Whether the two routes agree; None when the closure is INCONCLUSIVE (no answer)."""
    return None if closure is Finiteness.INCONCLUSIVE else criterion is closure


def finiteness_by_signature(w: WeightTuple, j: int) -> FinitenessVerdict:
    """Galois-definiteness criterion: finite iff every unit conjugate is definite.

    Requires is_irreducible(w, j); the criterion is not licensed otherwise.
    Never INCONCLUSIVE.
    """
    if not is_irreducible(w, j):
        raise IrreducibilityRequiredError(
            f"finiteness criterion needs an irreducible character, got j={j} for {w}"
        )
    n = w.n
    j = j % n
    for h in units(n):
        hj = (h * j) % n
        if sigma_sum(w, hj) == 2 * n:
            witness = (("unit", h), ("character", hj), ("sigma", 2 * n))
            return FinitenessVerdict(Finiteness.INFINITE, witness=witness)
    return FinitenessVerdict(Finiteness.FINITE)


def find_infinite_character(w: WeightTuple) -> int:
    """The character j with j*(m0+m3) = -1 mod n; its sigma sum is forced to 2n."""
    n = w.n
    s = (w.m[0] + w.m[3]) % n
    if gcd(s, n) != 1:
        raise NonUnitError(f"m0+m3 = {s} is not a unit mod {n}")
    j = (-pow(s, -1, n)) % n
    total = sigma_sum(w, j)
    if total != 2 * n:
        raise InternalInconsistencyError(f"sigma({j}) = {total} for {w}, want 2n = {2 * n}")
    return j


# ---------------------------------------------------------------------------
# 2x2 matrices over a cyclotomic field

Mat = tuple[tuple[CyclotomicNumber, CyclotomicNumber], tuple[CyclotomicNumber, CyclotomicNumber]]


def mat_identity(level: int) -> Mat:
    one = CyclotomicNumber.one(level)
    zero = CyclotomicNumber.zero(level)
    return ((one, zero), (zero, one))


def mat_mul(a: Mat, b: Mat) -> Mat:
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (sum_of_products((a00, b00), (a01, b10)), sum_of_products((a00, b01), (a01, b11))),
        (sum_of_products((a10, b00), (a11, b10)), sum_of_products((a10, b01), (a11, b11))),
    )


def mat_trace(a: Mat) -> CyclotomicNumber:
    return a[0][0] + a[1][1]


def mat_det(a: Mat) -> CyclotomicNumber:
    return sum_of_products((a[0][0], a[1][1]), (-a[0][1], a[1][0]))


def mat_conj_transpose(a: Mat) -> Mat:
    return (
        (a[0][0].conjugate(), a[1][0].conjugate()),
        (a[0][1].conjugate(), a[1][1].conjugate()),
    )


def mat_is_identity(a: Mat) -> bool:
    level = a[0][0].level
    return a == mat_identity(level)


# ---------------------------------------------------------------------------
# the rigid rank-2 triple


@dataclass(frozen=True)
class MonodromyTriple:
    """Generators g0, g1, ginf over Q(zeta_level) with g0*g1*ginf = 1.

    exponents records the Levelt exponents (ka, kb, kc) used to build the
    triple; all downstream checks except the Hodge orientation of the
    invariant form are conjugation-invariant and ignore it.
    """

    level: int
    g0: Mat
    g1: Mat
    ginf: Mat
    exponents: Exponents

    def __post_init__(self):
        prod = mat_mul(mat_mul(self.g0, self.g1), self.ginf)
        if not mat_is_identity(prod):
            raise ValueError("g0*g1*ginf is not the identity")

    def generators(self) -> list[tuple[str, Mat]]:
        return [("g0", self.g0), ("g1", self.g1), ("ginf", self.ginf)]

    def inverses(self) -> list[tuple[str, Mat]]:
        """g0^-1 = g1*ginf, g1^-1 = ginf*g0, ginf^-1 = g0*g1 by g0*g1*ginf = 1: no division."""
        g0, g1, ginf = self.g0, self.g1, self.ginf
        return [("g0^-1", mat_mul(g1, ginf)), ("g1^-1", mat_mul(ginf, g0)), ("ginf^-1", mat_mul(g0, g1))]


def _companion(level: int, trace: CyclotomicNumber, k: int) -> tuple[Mat, Mat]:
    """C = ((0, -zeta^k), (1, trace)) and, as det C = zeta^k, C^-1 = ((trace*zeta^-k, 1), (-zeta^-k, 0))."""
    zero, one = CyclotomicNumber.zero(level), CyclotomicNumber.one(level)
    inverse = ((trace.mul_zeta_power(-k), one), (-zeta(level, -k), zero))
    return ((zero, -zeta(level, k)), (one, trace)), inverse


def levelt_triple(exponents: Exponents, n: int) -> MonodromyTriple:
    """Companion-matrix realization of the rank-2 local system, for every exponent triple.

    ginf = A is the companion matrix with eigenvalues zeta^ka, zeta^kb; the
    companion matrix B with eigenvalues zeta^kc, 1 yields g0 = B^-1 and
    g1 = B*A^-1 (closed-form companion inverses, no division), so the
    product relation holds by construction; MonodromyTriple re-checks it.
    Reducible exponents are built too: for each eigenvalue lambda of
    ((0, -zeta^k), (1, t)), (1, lambda) is a left eigenvector, since
    lambda^2 - t*lambda + zeta^k = 0.  A root shared by the multisets at 0
    and oo is thus a left eigenvector w of both A and B, and ker w is fixed
    by g0 and g1; has_common_eigenvector finds that line from the matrices.
    The word g0*g1^-1 = B^-1*A*B^-1 has trace tr(A*B^-2), which is
    tr(B^-1)*tr(A*B^-1) - zeta^-kc*tr(A) by Cayley-Hamilton, and
    tr(A*B^-1) = 1 + zeta^(ka+kb-kc), as g1^-1 - I = (A - B)*B^-1 has rank 1.
    So tr(g0*g1^-1) = 1 + zeta^(ka+kb-kc) + zeta^-kc + zeta^(ka+kb-2kc)
    - zeta^(ka-kc) - zeta^(kb-kc), and det(g0*g1^-1) = zeta^(ka+kb-2kc) is a
    root of unity: |sigma_h(tr)| > 2 at one unit h gives infinite order.
    """
    level = n
    ka, kb, kc = (k % level for k in exponents)
    a_mat, a_inv = _companion(level, zeta(level, ka) + zeta(level, kb), ka + kb)
    b_mat, b_inv = _companion(level, zeta(level, kc) + CyclotomicNumber.one(level), kc)
    g1 = mat_mul(b_mat, a_inv)
    return MonodromyTriple(level=level, g0=b_inv, g1=g1, ginf=a_mat, exponents=(ka, kb, kc))


def triple_from_weights(w: WeightTuple, j: int) -> MonodromyTriple:
    return levelt_triple(levelt_exponents(w, j), w.n)


# ---------------------------------------------------------------------------
# exact finite-order testing


@lru_cache(maxsize=None)
def _half_units(level: int) -> tuple[int, ...]:
    """The units h <= level - h, one of each pair {h, level - h}: has_finite_order's embeddings."""
    check_modulus(level)
    return tuple(h for h in range(1, level // 2 + 1) if gcd(h, level) == 1)


def has_finite_order(m: Mat, level: int) -> bool:
    """Exact finite-order test for a 2x2 matrix over Q(zeta_level), by Kronecker.

    A scalar has finite order iff it is a root of unity.  A non-scalar matrix
    with trace t and determinant d has finite order iff d is a root of unity,
    t is integral, t = d*conj(t), and |sigma_h(t)| < 2 for every unit h.  Each
    condition is necessary, since a non-scalar matrix of finite order has two
    distinct roots of unity as eigenvalues.  Together they put the eigenvalues
    at every embedding at sqrt(d) times a distinct conjugate pair on the unit
    circle, so the eigenvalues are algebraic integers with all conjugates of
    modulus 1 - roots of unity - and distinct, so the matrix is semisimple.
    d = zeta_N^u is found by lookup, so t = d*conj(t) is a shift of conj(t).
    Of each pair {h, n-h} only h is tested, as sigma_{n-h}(t) = conj(sigma_h(t)).
    |sigma_h(t)| is compared with 2 in floating point outside the rigorous error
    band, and inside it (or past the float range) by the exact sign of the real
    number sigma_h(t*conj(t)) - 4.
    """
    if m[0][1].is_zero() and m[1][0].is_zero() and m[0][0] == m[1][1]:  # a scalar
        return m[0][0].root_of_unity_exponent() is not None
    t, u = mat_trace(m), mat_det(m).root_of_unity_exponent()
    if t.den != 1 or u is None:
        return False
    t_bar = t.conjugate()
    if t != t_bar.mul_root_of_unity(u):
        return False
    hs = _half_units(level)
    try:  # a finite bound keeps every coefficient, and so every float sum, in range
        err, values = float_error_bound(t), t.complex_values(hs)
    except OverflowError:  # an infinite band sends every h to the exact step
        err, values = inf, repeat(0j)
    norm = None
    for h, value in zip(hs, values):
        size = abs(value)
        if size < 2 - err:
            continue
        if size > 2 + err:
            return False
        if norm is None:
            norm = sum_of_products((t, t_bar))
        if real_sign(norm.galois(h) - 4) >= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the oracle walk

def _projective_key(m: Mat, e: int) -> tuple[int, Mat]:
    """(u, zeta_N^u * m), the same for every root-of-unity multiple of m, for det m = zeta_N^e.

    det(zeta_N^w * m) = zeta_N^(2w) * det m and N is even, so exactly two multiples of m, +-r with
    r = zeta_N^-floor(e/2) * m (e in [0, N)), have a determinant exponent below 2: the key is the
    one whose first nonzero coefficient is positive."""
    count = roots_of_unity_order(m[0][0].level)
    u = -(e % count // 2) % count
    r = tuple(tuple(x.mul_root_of_unity(u) for x in row) for row in m) if u else m
    if next(x.terms[0][1] for x in r[0] + r[1] if x.terms) < 0:
        u, r = (u + count // 2) % count, tuple(tuple(-x for x in row) for row in r)
    return u, r


# (a, b) with a*b = 1 or, by g0*g1*ginf = 1, a letter (g0*g1 = ginf^-1, g1^-1*g0^-1 = ginf, ...)
_RELATION_PAIRS = (
    ("g0", "g0^-1"), ("g0^-1", "g0"), ("g1", "g1^-1"), ("g1^-1", "g1"), ("ginf", "ginf^-1"), ("ginf^-1", "ginf"),
    ("g0", "g1"), ("g1", "ginf"), ("ginf", "g0"), ("g1^-1", "g0^-1"), ("g0^-1", "ginf^-1"), ("ginf^-1", "g1^-1"),
)


def _letters(t: MonodromyTriple) -> tuple[list[tuple[Mat, str]], dict[str, str]]:
    """((letter, name) for g0, g1, ginf, then t.inverses() (products, no division), in that order;
    alias): a repeated matrix keeps its first name, and alias maps each of the six names to it."""
    names: dict[Mat, str] = {}
    alias = {name: names.setdefault(g, name) for name, g in t.generators() + t.inverses()}
    return list(names.items()), alias


def _walk(t: MonodromyTriple, letters: list[tuple[Mat, str]], dets, alias: dict[str, str]):
    """Breadth-first walk of the classes of G = <g0, g1, ginf> modulo mu_N, from the letters.

    letters, alias = _letters(t), with det = zeta_N^dets[i] for the i-th letter.  A class is held
    by its key _projective_key(m, e) = (u, r), r = zeta_N^u * m for its first word m; every class
    other than the identity's is yielded once, as (r, word, None) with that word, in order of word
    length.  The walk multiplies keys by the letters' keys, so a product's determinant exponent is
    0, 1 or 2 (rescaled at 2 only), and adds up their u's, so u is against the word's own matrix p.
    A product meeting a known class q as p = zeta_N^d * q, d != 0, is yielded
    as (r, word, d).  After a word ending in a, the product with b is skipped when a*b is 1 or a
    letter (_RELATION_PAIRS): then w*a*b = w*c exactly, a product made one length earlier, so a
    skipped product is no new class and its d was already yielded.
    """
    count = roots_of_unity_order(t.level)
    place = {name: i for i, (_, name) in enumerate(letters)}
    skip = {(place[alias[a]], place[alias[b]]) for a, b in _RELATION_PAIRS}
    normal = [(*_projective_key(g, d), d % 2, name) for (g, name), d in zip(letters, dets)]
    identity = mat_identity(t.level)
    seen = {identity: 0}  # the identity's key is (0, I)
    frontier = [(identity, (), 0, 0, None)]  # key r, word, u: r = zeta_N^u * word, e: det r = zeta_N^e, last letter
    while frontier:
        next_frontier = []
        for mat, word, s, e, a in frontier:
            for b, (v, g, d, name) in enumerate(normal):
                if (a, b) in skip:
                    continue
                u, r = _projective_key(mat_mul(mat, g), e + d) if word else (0, g)  # g is its own key
                u = (u + s + v) % count
                if r in seen:
                    if seen[r] != u:
                        yield r, word + (name,), seen[r] - u
                    continue
                seen[r] = u
                next_frontier.append((r, word + (name,), u, (e + d) % 2, b))
                yield r, word + (name,), None
        frontier = next_frontier


def group_closure(
    t: MonodromyTriple,
    cap: int = DEFAULT_CLOSURE_CAP,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
) -> FinitenessVerdict:
    """Decide finiteness exactly: test the generators and the letters' pairs, then walk G modulo mu_N.

    INFINITE with the first word (in walk order) of length <= max_word_len that has infinite order;
    otherwise FINITE with the exact group order if it is at most cap; otherwise INCONCLUSIVE.

    Every INFINITE witness met so far (n <= 12, certify --oracle) has length <= 2, so these words
    are tested first: g0, g1 and ginf, then each product a*b of letters with b not before a that is
    not 1, a letter or an earlier product.  The other letters are their inverses; g^-1 has the order
    of g and b*a = a^-1*(a*b)*a that of a*b, so the first infinite-order word is the one a walk
    testing every word finds.  Without a witness there, the class walk visits the classes of G
    modulo the scalars mu_N * I (mu_N: the roots of unity of Q(zeta_n)), keyed through the
    determinants (a letter's is a root of unity, as it or its inverse passed the test), and tests
    the longer words.  Finite order is unchanged by a root-of-unity scalar, so the first
    infinite-order element is first in its class, and the class walk reaches it by the same word
    (as its class key).  A product meeting a known class as zeta_N^d times it puts zeta_N^d * I in
    G; once the walk closes these are the Schreier generators of the scalars Z of G, so
    |Z| = N / gcd(N, every d) and |G| = |G/Z| * |Z|, |G/Z| the number of classes.  A product the
    walk skips equals a shorter one by g0*g1*ginf = 1, so its d was met before and every gcd is
    the same.  The walk stops at a witness, or once it is past max_word_len and the classes times
    the |Z| found so far exceed cap.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if max_word_len < 1:
        raise ValueError("max_word_len must be >= 1")
    short = min(2, max_word_len)

    def infinite(*word):
        return FinitenessVerdict(Finiteness.INFINITE, witness=(("kind", "infinite_order_word"), ("word", "*".join(word))))

    for name, g in t.generators():
        if not has_finite_order(g, t.level):
            return infinite(name)
    letters, alias = _letters(t)
    if short == 2:
        seen = {mat_identity(t.level), *(g for g, _ in letters)}
        for i, (a, a_name) in enumerate(letters):
            for b, b_name in letters[i:]:
                prod = mat_mul(a, b)
                if prod not in seen:
                    seen.add(prod)
                    if not has_finite_order(prod, t.level):
                        return infinite(a_name, b_name)
    dets = [mat_det(g).root_of_unity_exponent() for g, _ in letters]
    if None in dets:
        raise InternalInconsistencyError("a letter's determinant is not a root of unity")
    count = roots_of_unity_order(t.level)
    scalars, classes = count, 1  # scalars: gcd of N and every d met so far
    for mat, word, shift in _walk(t, letters, dets, alias):
        if shift is not None:
            scalars = gcd(scalars, shift)
            continue
        classes += 1
        if len(word) <= max_word_len:
            if len(word) > short and not has_finite_order(mat, t.level):
                return infinite(*word)
        elif classes * (count // scalars) > cap:
            return FinitenessVerdict(Finiteness.INCONCLUSIVE, cap=cap)
    order = classes * (count // scalars)
    if order > cap:
        return FinitenessVerdict(Finiteness.INCONCLUSIVE, cap=cap)
    return FinitenessVerdict(Finiteness.FINITE, order=order)


def infinite_order_witness(t: MonodromyTriple, max_word_len: int = DEFAULT_MAX_WORD_LEN) -> str | None:
    """The witness word of group_closure alone, '*'-joined.

    With cap = 1 the walk ends right after the words of length <= max_word_len.
    None means no witness within the length bound (a valid empty result:
    finite groups have none at any bound).
    """
    verdict = group_closure(t, cap=1, max_word_len=max_word_len)
    return dict(verdict.witness)["word"] if verdict.kind is Finiteness.INFINITE else None


# ---------------------------------------------------------------------------
# common eigenvectors (irreducibility oracle)


def has_common_eigenvector(t: MonodromyTriple) -> bool:
    """Exact reducibility oracle: det(g0*g1 - g1*g0) = 0 (Shemesh, Linear Algebra Appl. 62, 1984).

    A common eigenvector v of g0 and g1 has [g0, g1]v = 0, so the determinant
    vanishes.  Conversely, a scalar g0 shares every eigenvector of g1; else
    write g0 - lambda = u*w^T, so det[g0, g1] = -det(u, g1*u)*det(g1^T*w, w)
    and u or ker w^T, both eigenvectors of g0, is one of g1.  For a Levelt
    triple g0 has eigenvalues zeta^-kc and 1, so lambda and the vector lie in
    Q(zeta_n); ginf = (g0*g1)^-1 shares it.  Only the matrices are read, never
    the weight criterion.
    """
    g, h = t.g0, t.g1
    commutator = [  # g*h - h*g, each entry one sum of four products
        [sum_of_products((g[r][0], h[0][c]), (g[r][1], h[1][c]), (-h[r][0], g[0][c]), (-h[r][1], g[1][c]))
         for c in (0, 1)]
        for r in (0, 1)
    ]
    return mat_det(commutator).is_zero()


# ---------------------------------------------------------------------------
# invariant Hermitian form


def _invariant_line(t: MonodromyTriple) -> tuple[Mat, CyclotomicNumber] | None:
    """(m0, alpha) with m0* = alpha*m0 for invariant_hermitian_form's m0, or None if g0 and g1 do not fix m0.

    A triple not in the Levelt companion shape is a ValueError.
    """
    zero, one = CyclotomicNumber.zero(t.level), CyclotomicNumber.one(t.level)
    (p, g0_01), (q, g0_11) = t.g0
    (ginf_00, x), (ginf_10, trace) = t.ginf
    uq, ux = q.root_of_unity_exponent(), x.root_of_unity_exponent()
    if (g0_01, g0_11, ginf_00, ginf_10) != (one, zero, zero, one) or uq is None or ux is None:
        raise ValueError("triple is not in Levelt companion shape")
    px_t = p.mul_root_of_unity(ux) + trace
    u = (uq + ux) % roots_of_unity_order(t.level)  # qx = zeta_N^u
    if u:
        b1 = px_t * inverse_one_minus_root(t.level, u)
        m0, alpha = ((one, b1), (p + b1.mul_root_of_unity(uq), one)), one
    elif not px_t.is_zero():
        m0, alpha = ((zero, one.mul_root_of_unity(-uq)), (one, zero)), q
    else:
        raise ReducibleNoUniqueFormError("g1 = I: the invariant forms are those of g0 alone, not one line")
    return (m0, alpha) if all(mat_mul(mat_conj_transpose(g), mat_mul(m0, g)) == m0 for g in (t.g0, t.g1)) else None


def invariant_hermitian_form(t: MonodromyTriple) -> tuple[Mat, tuple[int, int]]:
    """Solve gbar^T M g = M for all generators; return (form, signature).

    The solution space must be 1-dimensional over the field (Schur); otherwise
    ReducibleNoUniqueFormError.  It is solved in closed form from the Levelt shape
    g0 = ((p, 1), (q, 0)), ginf = ((0, x), (1, t)), q and x roots of unity (Beukers-Heckman,
    Invent. Math. 95, 1989, 3-4).  For M = ((a, b), (c, d)), entries (1, 0), (1, 1) of
    g0* M g0 = M give c = ap + bq, d = a, and entry (0, 1) of ginf* M ginf = M gives b = cx + dt,
    so (1 - qx)*b = (px + t)*a.  So every solution is a multiple of m0 = ((1, b1), (p + b1*q, 1)),
    b1 = (px + t)/(1 - qx), if qx != 1, or of m0 = ((0, conj(q)), (1, 0)) if qx = 1 and
    px + t != 0; else g0*ginf = I = g1, and the forms of g0 alone are a plane.  m0 spans the
    solutions iff g0 and g1 (so ginf) fix it.  m0* solves too, so m0* = alpha*m0: alpha = 1 if
    qx != 1, as both (1, 1) entries are 1, else alpha = q.  The form is s*m0 = X + X* for X = m0,
    s = 1 + alpha, or for X = zeta*m0, s = zeta - zeta^-1 if alpha = -1 (0 only at level <= 2; no
    division), checked Hermitian, which holds iff m0* = alpha*m0.  det < 0 is signature (1, 1);
    det > 0 is definite, of the sign of the (0, 0) entry, and oriented by the Hodge convention:
    of the two real rays of solutions, the one whose positivity index is (weight sum - 1).  det = 0
    is ReducibleNoUniqueFormError: the kernel of a degenerate invariant form is a line every
    generator fixes.  The definite/indefinite alternative is solved, not assumed: an indefinite
    solution is returned as (1,1) regardless of the weight data, and the cross-check against the
    eigenspace signature is a real test.
    """
    level = t.level
    line = _invariant_line(t)
    if line is None:
        raise ReducibleNoUniqueFormError("invariant form space has dimension 0, expected 1")
    m0, alpha = line
    s = 1 + alpha if alpha != -CyclotomicNumber.one(level) else zeta(level, 1) - zeta(level, -1)
    if s.is_zero():
        raise InternalInconsistencyError("no Hermitian representative found")
    herm = tuple(tuple(s * x for x in row) for row in m0)
    if mat_conj_transpose(herm) != herm:
        raise InternalInconsistencyError("conjugate-transpose left the solution line")
    det_sign = real_sign(mat_det(herm))
    if det_sign == 0:
        raise ReducibleNoUniqueFormError("degenerate invariant form: its kernel is a line every generator fixes")
    if det_sign < 0:
        return herm, (1, 1)
    signature = (2, 0) if real_sign(herm[0][0]) > 0 else (0, 2)
    # Hodge weight sum: the normalized residues are [-kb], [kc-ka], [kb-kc], [ka] over n
    ka, kb, kc = t.exponents
    wanted_p = (ka + (kc - ka) % level + (kb - kc) % level + (-kb) % level) // level - 1
    if wanted_p in (0, 2) and signature[0] != wanted_p:
        herm = ((-herm[0][0], -herm[0][1]), (-herm[1][0], -herm[1][1]))
        signature = (signature[1], signature[0])
    return herm, signature
