"""Admissible walks on the even lattice and their exact weight sums.

A walk of kind X runs from -n to n (step sum +2n), kind Y from n to -n
(step sum -2n), kind W returns to n (step sum 0).  Steps are drawn from the
potential support; the interior vertices j(1), ..., j(nu) must avoid +-n.
The weight of a walk with steps x(1..nu+1) is

    h(x, z) = prod_t V(x(t)) * prod_{t=1}^{nu} 1 / (n^2 - j(t)^2 + z).

For a two-term potential the steps are -2R and +2S, so a walk is an
interleaving of step counts (neg, pos) solving  -2R neg + 2S pos = step sum.
Solutions organize into shells: consecutive shells differ by (s, r) extra
steps.  Every sum (X/Y shells, W closed walks over any support) comes from
one transfer DP over (steps taken, vertex), at one z per call;
closed-walk enumeration and `weight` are kept for walk inspection, and the
tests enumerate shells walk by walk as their oracle.

The DP is fraction-free: a layer holds Gaussian-integer numerators over
one shared denominator, which only ever multiplies, and each length's sum
is returned unreduced over it.  So the denominators of one call nest, and
a sum over shells or lengths is added in integers over the largest and
reduced once, as it becomes a GaussianRational.  On a lattice of one or
two offsets (every X/Y shell and every two-term closed walk) a walk's
length fixes its step counts, so the steps carry unit weight and each
length's sum takes its coefficient monomial once; three or more offsets
keep their coefficients inside the same loop.  The same pass carries, in
fixed point with outward rounding, the products that bound how far the X/Y
shell sums move on the disc |z| <= 1 (`sum_and_disc_bound`).  At z = 0 the
map u -> -u takes the Y walks of (R, S) onto the X walks of (S, R), so for
R = S one call serves both kinds (`_sums_and_disc_bounds`).

Crossing walks (X and Y, from -+n to +-n) are walked to half their length.
Reversed and reflected j -> -j, a crossing walk is again one, of the same
weight, so its second half is a reflected first half: each length's sum
joins, at the middle layer, the prefixes that end at v with those that end
at -v, as exact integer products.  The denominators still nest.  Layers keep
the vertices inside the step cone of the walks' end, and a zero factor
raises only where it lies on a summed walk, at the position a full-length
pass would first meet it (`_walk_sums`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .numerics import GaussianRational, ScalarLike, gaussian_power
from .potential import FourierPotential, TwoTermParams


class WalkKind(str, Enum):
    X = "X"
    Y = "Y"
    W = "W"


_STEP_SUM_FACTOR = {WalkKind.X: 2, WalkKind.Y: -2, WalkKind.W: 0}
_START_SIGN = {WalkKind.X: -1, WalkKind.Y: 1, WalkKind.W: 1}


class WalkSingularityError(ArithmeticError):
    """A weight denominator n^2 - j(t)^2 + z vanished at interior position t."""

    def __init__(self, n: int, t: int, vertex: int):
        self.n = n
        self.t = t
        self.vertex = vertex
        super().__init__(
            f"singular weight factor at n={n}, interior position t={t}, vertex j={vertex}"
        )


@dataclass(frozen=True)
class Walk:
    """Step sequence with its kind and index n; validated on construction."""

    steps: Tuple[int, ...]
    kind: WalkKind
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not self.steps:
            raise ValueError("a walk needs at least one step")
        for x in self.steps:
            if x == 0 or x % 2 != 0:
                raise ValueError(f"steps must be even and nonzero, got {x}")
        want = _STEP_SUM_FACTOR[self.kind] * self.n
        got = sum(self.steps)
        if got != want:
            raise ValueError(
                f"step sum {got} does not match kind {self.kind.value} at n={self.n} (want {want})"
            )

    @property
    def nu(self) -> int:
        """Number of interior vertices (steps minus one)."""
        return len(self.steps) - 1

    def start(self) -> int:
        return _START_SIGN[self.kind] * self.n

    def end(self) -> int:
        return self.start() + sum(self.steps)


def vertices(walk: Walk) -> Tuple[int, ...]:
    """All vertices j(0), ..., j(nu+1) including both endpoints."""
    out = [walk.start()]
    for x in walk.steps:
        out.append(out[-1] + x)
    return tuple(out)


@dataclass(frozen=True)
class ShellSteps:
    """Step counts of one two-term shell: `neg` steps -2R and `pos` steps +2S."""

    neg: int
    pos: int

    @property
    def total(self) -> int:
        return self.neg + self.pos


def shell_step_counts(
    params: TwoTermParams, n: int, kind: WalkKind, shell: int
) -> Optional[ShellSteps]:
    """Step counts of shell `shell` (0-indexed), or None when infeasible.

    Kind X solves -r*neg + s*pos = n/d, kind Y solves r*neg - s*pos = n/d;
    no solution exists unless d divides n.  Successive shells add (s, r).
    Kind W uses counts (s*k, r*k) with k = shell >= 1; shell 0 is empty.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if shell < 0:
        raise ValueError(f"shell index must be >= 0, got {shell}")
    r, s, d = params.r, params.s, params.d
    if kind is WalkKind.W:
        return ShellSteps(s * shell, r * shell) if shell >= 1 else None
    if n % d != 0:
        return None
    n_red = n // d
    if kind is WalkKind.X:
        neg0 = next(p for p in range(s) if (n_red + r * p) % s == 0)
        pos0 = (n_red + r * neg0) // s
    else:
        pos0 = next(q for q in range(r) if (n_red + s * q) % r == 0)
        neg0 = (n_red + s * pos0) // r
    return ShellSteps(neg0 + s * shell, pos0 + r * shell)


def enumerate_closed(
    pot: FourierPotential, n: int, step_cap: int, max_walks: int = 1_000_000
) -> List[Walk]:
    """All admissible closed walks (kind W, start and end at n) with at most
    `step_cap` steps over the full potential support, lexicographic order."""
    if step_cap < 1:
        raise ValueError(f"step_cap must be >= 1, got {step_cap}")
    steps = sorted(pot.support())
    if not steps:
        return []
    max_step = max(abs(x) for x in steps)
    out: List[Walk] = []
    prefix: List[int] = []

    # DFS trying steps in ascending order emits walks in lexicographic step
    # order (a closing walk precedes every longer walk sharing its prefix).
    def extend(vertex: int, used: int) -> None:
        if len(out) >= max_walks:
            raise ValueError("too many closed walks; raise max_walks")
        for step in steps:
            nxt = vertex + step
            if nxt == n:
                out.append(Walk(tuple(prefix) + (step,), WalkKind.W, n))
                continue
            if nxt == -n:
                continue
            remaining = step_cap - used - 1
            # prune prefixes that cannot return to n within the budget
            if remaining == 0 or abs(nxt - n) > remaining * max_step:
                continue
            prefix.append(step)
            extend(nxt, used + 1)
            prefix.pop()

    extend(n, 0)
    return out


def weight(walk: Walk, pot: FourierPotential, z: ScalarLike) -> GaussianRational:
    """Exact walk weight h(x, z); raises WalkSingularityError on a vanishing
    interior denominator.  Steps outside the support contribute factor 0."""
    zg = GaussianRational.of(z)
    # kept apart from the engine's helpers: the tests check the engine against this
    q = math.lcm(zg.re.denominator, zg.im.denominator)
    p_re, p_im = int(zg.re * q), int(zg.im * q)
    n = walk.n
    value = GaussianRational.of(1)
    for x in walk.steps:
        value = value * pot.coefficient(x)
    # z = P / Q: the interior factors are Q / W_t, W_t = Q(n^2 - j(t)^2) + P,
    # so their product is Q^nu / prod W_t, one Gaussian integer
    w_re, w_im = 1, 0
    verts = vertices(walk)
    for t in range(1, len(verts) - 1):
        j = verts[t]
        f_re = q * (n * n - j * j) + p_re
        if f_re == 0 and p_im == 0:
            raise WalkSingularityError(n, t, j)
        w_re, w_im = w_re * f_re - w_im * p_im, w_re * p_im + w_im * f_re
    scale = q ** walk.nu
    norm = w_re * w_re + w_im * w_im
    return value * GaussianRational(Fraction(scale * w_re, norm), Fraction(-scale * w_im, norm))


def _over_common_denominator(
    values: Sequence[GaussianRational],
) -> Tuple[List[Tuple[int, int]], int]:
    """Gaussian integers g_i and the least positive integer q with
    values[i] = g_i / q."""
    q = math.lcm(*(part.denominator for v in values for part in (v.re, v.im)))
    return [
        (v.re.numerator * (q // v.re.denominator), v.im.numerator * (q // v.im.denominator))
        for v in values
    ], q


# significant bits the disc bound keeps per layer
_BOUND_BITS = 64


def _dyadic(m: int, e: int) -> Fraction:
    """m * 2^e, exactly."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _walk_sums(
    steps: Sequence[Tuple[int, GaussianRational]], n: int, start: int, end: int,
    lengths: Iterable[int], z: ScalarLike,
) -> Dict[int, Tuple[int, int, int, int, int, int]]:
    """Per requested step count, over the admissible walks start -> end of
    that many steps (`steps` pairs each step with its coefficient): the
    exact sum of h(x, z) as (re, im, den), the sum being (re + i im) / den
    unreduced with den > 0, then (m1, m0, e) with P1 = m1 2^e and P0 = m0 2^e
    bounds from above of the sum of prod_t 1/(|D_t| - 1) and from below of
    the sum of prod_t 1/|D_t|, D_t = n^2 - j(t)^2 at the interior vertices.

    Layer t maps a vertex to the weighted sum of admissible t-step prefixes
    ending there, held fraction-free: a Gaussian-integer numerator per
    vertex over one positive integer denominator `den` shared by the layer.
    With z = P / Q, the factor 1 / (n^2 - u^2 + z) is Q / W_u with W_u =
    Q(n^2 - u^2) + P; the layer is brought over the lcm L of the |W_u|^2
    (of the |W_u| when z is real) by multiplying vertex u by
    Q conj(W_u) L / |W_u|^2, and `den` by L.  Nothing is divided and
    nothing reduced: `den` and the C^t below only ever multiply, so the
    denominator of a length divides that of every longer one (for crossing
    walks see below), and a caller adds lengths over the largest and
    reduces once (`_summed`).

    Coefficients g_x / C over a common denominator C enter where they
    depend on the walk.  With three or more offsets a step multiplies the
    numerators by g_x and `den` by C.  With at most two, the step counts
    (k_1, k_2) of a t-step walk from start to end solve k_1 + k_2 = t and
    k_1 x_1 + k_2 x_2 = end - start, so every walk of length t carries the
    same coefficient product: steps carry unit weight, and the sum of
    length t is multiplied once by g_1^k_1 g_2^k_2 / C^t (a length with no
    integer solution has no walks and stays zero, over the same C^t).

    Each vertex also carries P1 and P0 in fixed point: integer mantissas
    over one binary exponent e per layer.  A vertex factor multiplies by
    2^_BOUND_BITS and divides by |D_u| - 1 or |D_u| (>= 4: steps are even,
    and n - u, n + u even and nonzero), then the layer shifts right until
    its largest P1 mantissa has _BOUND_BITS bits; P1 rounds up and P0
    down, so neither underflows nor rounds the wrong way, however small
    the products get.

    Layer t keeps a vertex u only inside the step cone of `end`, end - up
    (top - t) <= u <= end + down (top - t), `top` the longest requested
    length and `up`, `down` the largest step up and down (0 if none): from
    outside it no walk of at most `top` steps reaches `end`.

    A zero factor takes the value 0 and marks its vertex with (t, u), and
    each vertex carries the least mark over the prefixes that end there
    (`marks`).  After the pass, WalkSingularityError is raised at the
    least mark that reaches a sum, through a collected `end` or a joined
    head (below): the least (t, vertex) at which a zero factor lies on a
    requested walk.  A prefix that no requested walk completes reaches no
    sum, so its marks raise nothing.

    Crossing walks (start = -end: kinds X and Y) are joined at the middle
    layer.  The factor of a vertex u depends on u^2 only and start = -end,
    so reversing a walk and reflecting it, j'(t) = -j(L - t), maps the
    admissible L-step walks start -> end one to one onto themselves, with
    the same steps in reverse order: weight, coefficient product and the
    P1, P0 products are kept.  Cut an L-step walk, L >= 2, at m = ceil(L/2)
    and v = j(m), an interior vertex.  Its first half is an m-step prefix
    ending at v, v's factor included; the image of its second half is an
    (L - m)-step prefix ending at -v, whose own factor is no part of the
    walk.  Every such pair of prefixes makes one admissible walk, and the
    cone keeps both halves of every walk, each being a prefix of an
    admissible walk of length L <= top.  So the sum of length L is sum_v
    F_m(v) G_{L-m}(-v), F the layer after the vertex factors and G the
    layer before them, and the loop runs only to depth max ceil(L/2).  The
    products are exact integers: numerators over den_F den_G (times C^L on
    two offsets), mantissas over 2^(e_F + e_G), where products of the
    nonnegative upper bounds bound P1 from above and of the lower bounds
    P0 from below.

    Nesting: m = ceil(L/2) and L - m = floor(L/2) never decrease with L,
    and the layer denominators only multiply, so den_F den_G of a length
    divides that of every longer one.  Hence every length >= 2 is joined,
    even one whose whole pass lies within the depth: read at its own layer,
    its denominator need not divide the next joined one's.  One step has
    no middle vertex; it is read at t = 1 over C or 1, which divides every
    joined denominator.

    Singular position: tails need no marks.  A zero factor at (t, u) in
    the second half of a requested L-step walk, t > m >= L/2, lies on its
    image, a requested walk too, at (L - t, -u), with L - t < L/2 <= m:
    in a head, and lower.  So tail marks never lower the least mark, and
    the least mark over the joined heads and the collected ends is the
    first zero factor a full-length pass over the requested walks meets."""
    out = {length: (0, 0, 1, 0, 0, 0) for length in lengths}
    offsets = [x for x, _ in steps]
    top = max(out, default=0)
    up = max((x for x in offsets if x > 0), default=0)
    down = max((-x for x in offsets if x < 0), default=0)
    coeffs, c_den = _over_common_denominator([c for _, c in steps])
    weighted = len(steps) > 2
    int_steps = [(x, g_re, g_im) for x, (g_re, g_im) in zip(offsets, coeffs)]
    ((p_re, p_im),), q = _over_common_denominator([GaussianRational.of(z)])

    def collect(t: int, num_re: int, num_im: int, total: int, p1: int, p0: int, e: int) -> None:
        # a zero sum keeps the C^t too, so that the denominators nest
        if not weighted:
            total *= c_den ** t
            if num_re or num_im:
                # t - k_2 steps x_1 and k_2 steps x_2
                k_2 = (end - start - t * offsets[0]) // (offsets[1] - offsets[0]) if offsets[1:] else 0
                for (_, g_re, g_im), k in zip(int_steps, (t - k_2, k_2)):
                    h_re, h_im = gaussian_power(g_re, g_im, k)
                    num_re, num_im = num_re * h_re - num_im * h_im, num_re * h_im + num_im * h_re
        out[t] = (num_re, num_im, total, p1, p0, e)

    joined = [length for length in out if length >= 2] if start == -end else []
    # depth -> (layer, den, e, marks) after the vertex factors (F), (layer, den, e) before (G)
    heads = {(length + 1) // 2: None for length in joined}
    tails = {length // 2: None for length in joined}
    # vertex -> (m_re, m_im, d, |D_u|): 1 / (D_u + z) = (m_re + i m_im) / d, d > 0, or 0 / 1
    scale: Dict[int, Tuple[int, int, int, int]] = {}
    zero = set()  # the vertices whose factor is 0
    # vertex -> (numerator re, im over den; P1, P0 mantissas over 2^e)
    layer: Dict[int, Tuple[int, int, int, int]] = {start: (1, 0, 1, 1)}
    marks: Dict[int, Tuple[int, int]] = {}
    reached: List[Tuple[int, int]] = []  # the marks that reach a sum
    den, e = 1, 0
    for t in range(1, (max(heads) if joined else top) + 1):
        nxt: Dict[int, Tuple[int, int, int, int]] = {}
        low, high = end - up * (top - t), end + down * (top - t)
        for v, (a, b, m1, m0) in layer.items():
            for x, g_re, g_im in int_steps:
                u = v + x
                # end (+-n) collects the walks of length t
                if low <= u <= high and (u == end or abs(u) != n):
                    re, im = (a * g_re - b * g_im, a * g_im + b * g_re) if weighted else (a, b)
                    if u in nxt:
                        old_re, old_im, old1, old0 = nxt[u]
                        nxt[u] = (old_re + re, old_im + im, old1 + m1, old0 + m0)
                    else:
                        nxt[u] = (re, im, m1, m0)
        carried: Dict[int, Tuple[int, int]] = {}
        for v, mark in marks.items():
            for u in (v + x for x in offsets):
                if u in nxt:
                    carried[u] = min(carried.get(u, mark), mark)
        marks = carried
        end_re, end_im, end1, end0 = nxt.pop(end, (0, 0, 0, 0))
        end_mark = marks.pop(end, None)
        if weighted:
            den *= c_den
        if t in out and (t < 2 or not joined):
            collect(t, end_re, end_im, den, end1, end0, e)
            reached += [end_mark] if end_mark else []
        if t in tails:
            tails[t] = (dict(nxt), den, e)
        for u in [u for u in nxt if u not in scale]:
            d_u = n * n - u * u
            w_re = q * d_u + p_re
            if w_re == 0 and p_im == 0:
                zero.add(u)
                scale[u] = (0, 0, 1, abs(d_u))
            elif p_im == 0:
                scale[u] = (q, 0, w_re, abs(d_u)) if w_re > 0 else (-q, 0, -w_re, abs(d_u))
            else:
                scale[u] = (q * w_re, -q * p_im, w_re * w_re + p_im * p_im, abs(d_u))
        for u in zero & nxt.keys():
            # a mark carried from an earlier layer is the lesser
            marks.setdefault(u, (t, u))
        # pairwise: unpacking a layer into one call builds large argument
        # tuples whose frees fragment the heap and raise the peak RSS
        lcm = 1
        for u in nxt:
            lcm = math.lcm(lcm, scale[u][2])
        top1 = 0
        for u, (a, b, m1, m0) in nxt.items():
            m_re, m_im, d, d_u = scale[u]
            k = lcm // d
            m_re, m_im = m_re * k, m_im * k
            m1 = -((-m1 << _BOUND_BITS) // (d_u - 1))
            top1 = m1 if m1 > top1 else top1
            nxt[u] = (a * m_re - b * m_im, a * m_im + b * m_re, m1, (m0 << _BOUND_BITS) // d_u)
        den *= lcm
        shift = max(top1.bit_length() - _BOUND_BITS, 0)
        e += shift - _BOUND_BITS
        layer = {u: (a, b, -(-m1 >> shift), m0 >> shift) for u, (a, b, m1, m0) in nxt.items()}
        if t in heads:
            heads[t] = (layer, den, e, marks)
    for length in joined:
        head, head_den, head_e, head_marks = heads[(length + 1) // 2]
        tail, tail_den, tail_e = tails[length // 2]
        reached += [mark for v, mark in head_marks.items() if -v in tail]
        re = im = p1 = p0 = 0
        for v, (a, b, m1, m0) in head.items():
            if -v in tail:
                c, d, n1, n0 = tail[-v]
                re, im = re + a * c - b * d, im + a * d + b * c
                p1, p0 = p1 + m1 * n1, p0 + m0 * n0
        collect(length, re, im, head_den * tail_den, p1, p0, head_e + tail_e)
    if reached:
        raise WalkSingularityError(n, *min(reached))
    return out


def _sqrt_upper(num: int, den: int) -> Tuple[int, int]:
    """(m, e) with m 2^e a dyadic upper bound of sqrt(num / den), num >= 0
    and den > 0 in lowest terms, to about _BOUND_BITS bits: with X =
    ceil(num 4^k / den) for an integer k, sqrt(num / den) <= ceil(sqrt(X)) / 2^k."""
    k = (2 * _BOUND_BITS - num.bit_length() + den.bit_length()) // 2
    x = -((-num << 2 * k) // den) if k >= 0 else -(-num // (den << -2 * k))
    r = math.isqrt(x)
    return r + (r * r < x), -k


def _summed(parts: Iterable[Tuple[int, int, int]]) -> Tuple[int, int, int]:
    """The sum of the quotients (re + i im) / den in `parts`, unreduced over
    their largest den, which the others must divide, as in one `_walk_sums` call."""
    parts = list(parts)
    top = max((den for *_, den in parts), default=1)
    return (sum(re * (top // den) for re, _, den in parts),
            sum(im * (top // den) for _, im, den in parts), top)


def _reduced(re: int, im: int, den: int) -> GaussianRational:
    """(re + i im) / den in lowest terms: the one reduction of an exact sum."""
    return GaussianRational(Fraction(re, den), Fraction(im, den))


# (X-walk, Y-walk) shell caps of beta_plus / beta_minus and the criteria
DEFAULT_SHELL_CAPS = (3, 2)


def _shell_walk_sums(
    params: TwoTermParams, n: int, kind: WalkKind, shells: Sequence[int], z: ScalarLike
) -> List[Tuple[ShellSteps, int, int, int, int, int, int]]:
    """Per shell in `shells`: its step counts and the engine's (re, im, den,
    m1, m0, e) over its X or Y walks, from one engine call: shell k holds
    the walks of t0 + k(r+s) steps, so a step count names its shell.  Empty
    when d does not divide n: then no shell has a step-count solution."""
    if kind is WalkKind.W:
        raise ValueError("shell sums cover kinds X and Y; use alpha_n for W")
    if min(shells) < 0:
        raise ValueError(f"shell indices must be >= 0, got {min(shells)}")
    zero = shell_step_counts(params, n, kind, 0)
    if zero is None:
        return []
    counts = [ShellSteps(zero.neg + params.s * k, zero.pos + params.r * k) for k in shells]
    start = _START_SIGN[kind] * n
    steps = ((-2 * params.R, params.a), (2 * params.S, params.b))
    sums = _walk_sums(steps, n, start, start + _STEP_SUM_FACTOR[kind] * n,
                      [c.total for c in counts], z)
    return [(c, *sums[c.total]) for c in counts]


def shell_sums(
    params: TwoTermParams, n: int, kind: WalkKind, shells: Sequence[int], z: ScalarLike
) -> List[GaussianRational]:
    """Exact sums of h(x, z) over the X or Y walks of each shell in `shells`,
    from one engine call.  Infeasible shells sum to zero."""
    rows = _shell_walk_sums(params, n, kind, shells, z)
    return [_reduced(*row[1:4]) for row in rows] or [GaussianRational() for _ in shells]


def _shells_total(
    params: TwoTermParams, n: int, kind: WalkKind, shells: Sequence[int], z: ScalarLike
) -> Tuple[int, int, int]:
    """`shell_sums` added into one unreduced (re, im, den) (`_summed`)."""
    return _summed(row[1:4] for row in _shell_walk_sums(params, n, kind, shells, z))


def _sum_and_disc_bound(
    rows: Sequence[Tuple[ShellSteps, int, int, int, int, int, int]], params: TwoTermParams,
) -> Tuple[Tuple[int, int, int], Fraction]:
    """The sum of `rows` (`_shell_walk_sums`) as an unreduced (re, im, den),
    and their disc bound (`sum_and_disc_bound`), whose dyadic terms are
    summed exactly in integers over the smallest exponent."""
    # a = g_a / q and b = g_b / q, so |a|^2neg |b|^2pos = |g_a|^2neg |g_b|^2pos / q^2(neg+pos)
    (g_a, g_b), q = _over_common_denominator([params.a, params.b])
    a2, b2 = (x * x + y * y for x, y in (g_a, g_b))
    terms = []
    for c, *_, m1, m0, e in rows:
        num, den = a2 ** c.neg * b2 ** c.pos, q ** (2 * c.total)
        g = math.gcd(num, den)
        root, f = _sqrt_upper(num // g, den // g)
        terms.append((root * (m1 - m0), e + f))
    low = min((f for _, f in terms), default=0)
    return _summed(row[1:4] for row in rows), _dyadic(sum(m << (f - low) for m, f in terms), low)


def sum_and_disc_bound(
    params: TwoTermParams, n: int, kind: WalkKind, shells: Sequence[int]
) -> Tuple[GaussianRational, Fraction]:
    """B(0) and a rigorous upper bound of sup_{|z| <= 1} |B(z) - B(0)|, from
    one engine call at z = 0, where B(z) is the sum of h(x, z) over the X or
    Y walks of the shells in `shells`.

    Proof.  |D_t| = |n^2 - j(t)^2| >= 4 at every interior vertex
    (`_walk_sums`).  For |z| <= 1 put w_t = z / D_t, |w_t| <= 1/4; then
    h(x, z) = h(x, 0) prod_t 1 / (1 + w_t), and the power series of
    prod_t 1 / (1 + w_t) - 1 is dominated termwise by that of
    prod_t 1 / (1 - |w_t|) - 1, so

        |h(x, z) - h(x, 0)| <= prod |V| (prod 1/(|D_t| - 1) - prod 1/|D_t|).

    The walks of one shell share their step counts (neg, pos), so prod |V|
    = |a|^neg |b|^pos on the whole shell, and summing over its walks gives
    A (P1 - P0), P1 and P0 the sums of the two products.  The bound is the
    sum over the shells of an upper bound of A = sqrt(|a|^2neg |b|^2pos)
    times the engine's upper bound of P1 minus its lower bound of P0."""
    value, bound = _sum_and_disc_bound(_shell_walk_sums(params, n, kind, shells, 0), params)
    return _reduced(*value), bound


def _sums_and_disc_bounds(
    params: TwoTermParams, n: int, caps: Tuple[int, int]
) -> Tuple[Tuple[Tuple[int, int, int], Fraction], Tuple[Tuple[int, int, int], Fraction]]:
    """`sum_and_disc_bound` for the X walks of shells 0..caps[0] and the Y
    walks of shells 0..caps[1], sums unreduced, one engine call per lattice.

    The map u -> -u takes the Y walks of (R, S) onto the X walks of (S, R)
    step by step, interior factors 1/(n^2 - u^2) included.  For R = S both
    kinds therefore walk one lattice: Y shell k is X shell k with the step
    counts (neg, pos) swapped, so its sum is the X shell's times the
    Gaussian-integer quotient (a/b)^(n/d), and its bound takes |a|^pos
    |b|^neg over the same P1 - P0.  One engine call over shells
    0..max(caps) serves both.  Its layers also keep the vertices of the
    longer shells, so their fixed-point shifts, and the last bits of the Y
    bound, can differ from a Y-only call's; the bound is rigorous either way."""
    if params.R != params.S:
        return tuple(_sum_and_disc_bound(_shell_walk_sums(params, n, kind, range(cap + 1), 0), params)
                     for kind, cap in zip((WalkKind.X, WalkKind.Y), caps))
    rows = _shell_walk_sums(params, n, WalkKind.X, range(max(caps) + 1), 0)
    plus = _sum_and_disc_bound(rows[:caps[0] + 1], params)
    (re, im, den), bound = _sum_and_disc_bound(
        [(ShellSteps(c.pos, c.neg), *rest) for c, *rest in rows[:caps[1] + 1]], params)
    # a/b = g_a conj(g_b) / |g_b|^2 for a = g_a / q and b = g_b / q
    ((a_re, a_im), (b_re, b_im)), _ = _over_common_denominator([params.a, params.b])
    k = n // params.d
    p_re, p_im = gaussian_power(a_re * b_re + a_im * b_im, a_im * b_re - a_re * b_im, k)
    return plus, ((re * p_re - im * p_im, re * p_im + im * p_re,
                   den * (b_re * b_re + b_im * b_im) ** k), bound)


def shell_sum(
    params: TwoTermParams, n: int, kind: WalkKind, shell: int, z: ScalarLike
) -> GaussianRational:
    """Exact sum of h(x, z) over all admissible walks of one shell."""
    return shell_sums(params, n, kind, (shell,), z)[0]


def closed_sum(pot: FourierPotential, n: int, step_cap: int, z: ScalarLike) -> GaussianRational:
    """Exact sum of h(x, z) over admissible closed walks (kind W) of 1..step_cap
    steps over the full potential support, reduced once."""
    if step_cap < 1:
        raise ValueError(f"step_cap must be >= 1, got {step_cap}")
    sums = _walk_sums(pot.coeffs, n, n, n, range(1, step_cap + 1), z)
    return _reduced(*_summed(row[:3] for row in sums.values()))
