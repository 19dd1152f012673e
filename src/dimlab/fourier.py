"""Fourier transforms of dyadic measures and mean-square dimension checks.

The transform of a tree measure has a closed form (cube indicators turn into
sinc products, atoms into unimodular phases), so the only numerics here are
frequency-domain quadrature and slope fits. The support is translated to be
centered at the origin before any transform work: dimension quantities are
translation invariant and the near-zero lower bound on |mu_hat| assumes a
support ball around 0. After centering, every pair frequency |c_j - c_k| is
bounded by the support diameter, so a node spacing of pi/(8 sqrt(d)) already
oversamples the fastest oscillation; Richardson halving then drives the
composite-trapezoid error below the requested tolerance, and running out of
refinement budget raises a flag instead of failing silently. The halvings are
nested: going from P to 2P pieces evaluates only the P new midpoints and
reuses the old sum (Romberg's reuse), so every quadrature node is evaluated
once.

Each integral builds the measure's leaf decomposition (`_terms`) once, in
factored form: splitting the leaf Morton keys at one level k writes every
leaf center as c = hi + lo, a prefix-cube corner plus an offset inside it,
so exp(i z.c) = exp(i z.hi) exp(i z.lo). A frequency then needs U + H
phases (U distinct suffixes, H distinct prefixes) instead of one per leaf,
and the sum over leaves is one matmul of the suffix phases against the
dense (U x H) weight matrix. k follows one cost rule (`_split_level`) that
includes the unsplit k = 0, which is also how atoms are evaluated. Every
quadrature call is an equispaced radius grid start + k step, k < n, along
fixed directions, so the phases come by angle addition: with k = i B + j
and B about sqrt(n), a call costs U + H sin/cos pairs per direction per
coarse or fine grid point (n / B + B of them) and a few multiply-adds per
node; a single frequency is the n = 1 case, the direct sin/cos. One
radial evaluator returns, at every node, both the integrand and the raw
shell mean of |mu_hat|^2, so the energy's decay fit reads its shell means
off the converged nodes instead of evaluating them again. Every measure here
is real, so |mu_hat(-z)| = |mu_hat(z)|: a 2-D ring mean over equispaced
directions equals the mean over the half of them in [0, pi), and only that
half is evaluated, for all the radii of a call in one kernel pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dyadic import deinterleave
from .estimators import SlopeTriple, _ls, slope_fit
from .exact import UnavailableError, ValidationError, to_fraction
from .measure import ATOMS, DyadicMeasureTree, net_measure
from .settree import DyadicSetTree

_TWO_PI = 2.0 * math.pi
# 2-D ring directions in [0, pi); by conjugate symmetry their mean is the
# mean over the 64 equispaced directions of the full circle
_HALF_RING = 32
# the factored kernel's cost model, set when every phase cell of a node was
# a sin/cos pair: one phase cell costs about as much as _TRIG_COST cells of
# the weight matmul (about 40 ns against 1 ns on one core), and the dense
# weight matrix is kept within _FILL_CAP cells per leaf
_TRIG_COST = 32
_FILL_CAP = 8
# about this many (frequency, phase) cells per kernel block: rows times
# (U + H)
_BLOCK_CELLS = 1 << 20
# frequency vectors per quadrature call: ~4x the ~950,000 of the default
# 2-D fourier-corr and energy radii on a depth-6 Sierpinski measure
_NODE_BUDGET = 1 << 22


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def support_radius(d: int) -> float:
    """Radius of the ball around the origin holding the centered unit cube."""
    return math.sqrt(d) / 2


# ---------------------------------------------------------------------------
# the transform


def _split_level(mu: DyadicMeasureTree) -> int:
    """Morton split level k for the factored phases: the one minimising
    _TRIG_COST * (U + H) + U * H, H the level-k cubes (each has a leaf
    below it, so H counts the leaf keys' level-k prefixes) and U the leaf
    keys' distinct suffixes, over the splits whose dense weight matrix holds
    at most _FILL_CAP * L cells; k = 0 (H = 1) always qualifies."""
    n, keys = mu.max_depth, mu.support.levels[-1]
    cap = _FILL_CAP * len(keys)
    best, best_cost = 0, None
    for k, level in enumerate(mu.support.levels):
        mask = (1 << (mu.d * (n - k))) - 1
        h, u = len(level), len({key & mask for key in keys})
        cost = _TRIG_COST * (u + h) + u * h
        if u * h <= cap and (best_cost is None or cost < best_cost):
            best, best_cost = k, cost
    return best


def _terms(mu: DyadicMeasureTree):
    """Factored leaf decomposition for transform work: (hi, lo, W, side).

    Every leaf center, shifted by -1/2 per axis so the support sits in
    B(0, sqrt(d)/2), is hi[h] + lo[u]: hi holds the corners of the level-k
    prefix cubes of the leaf Morton keys (H x d), lo the centers of the
    suffix cubes inside a prefix cube, shifted (U x d), and W[u, h] the
    weight of the leaf with that prefix and suffix (0 where there is none).
    Atoms are the unsplit case: one prefix at the origin and W the weight
    column. side is None for atomic measures.
    """
    import numpy as np
    d = mu.d
    if mu.leaf_model == ATOMS:  # a / q is float(Fraction(a, q)), bit for bit
        q, pts, ns, wden = mu._atom_ints
        lo = np.array([[a / q - 0.5 for a in p] for p in pts],
                      dtype=float).reshape(-1, d)
        W = np.array([[n / wden] for n in ns], dtype=float)
        return np.zeros((1, d)), lo, W, None
    n = mu.max_depth
    side = 2.0 ** -n
    nums, den = mu.tables[n]
    keys = mu.support.levels[n]
    k = _split_level(mu)
    shift = d * (n - k)
    mask = (1 << shift) - 1
    prefixes: dict[int, int] = {}
    suffixes: dict[int, int] = {}
    cells = [(suffixes.setdefault(key & mask, len(suffixes)),
              prefixes.setdefault(key >> shift, len(prefixes)))
             for key in keys]
    hi = np.array([deinterleave(p, k, d) for p in prefixes],
                  dtype=float).reshape(-1, d) * 2.0 ** -k
    lo = (np.array([deinterleave(q, n - k, d) for q in suffixes],
                   dtype=float).reshape(-1, d) + 0.5) * side - 0.5
    W = np.zeros((len(suffixes), len(prefixes)))
    for (u, h), num in zip(cells, nums):
        W[u, h] = num / den  # correctly rounded: the nearest float
    return hi, lo, W, side


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) from cos and sin: the transform's only trig on phases."""
    import numpy as np
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _mu_hat_grid(terms, dirs: np.ndarray, start: float, step: float,
                 count: int) -> np.ndarray:
    """mu_hat at the frequencies (start + k step) dirs[t] for k < count, as
    a (count, T) complex array, given the measure's `_terms` and the T
    direction vectors dirs (T x d).

    The phases rho_k q, q = dirs.lo and dirs.hi, come from angle addition:
    with k = i B + j and B about sqrt(count), cos/sin run only at the B fine
    radii start + j step and the count / B coarse offsets i B step, and a
    node's exp(i rho_k q) is the product of its fine and coarse factors. A
    single radius (count = 1) has coarse offset 0, which is the direct
    cos/sin. The (node x U) by (U x H) product is done by BLAS, in blocks of
    nodes and directions that hold every temporary within _BLOCK_CELLS
    cells."""
    import numpy as np
    hi, lo, W, side = terms
    u = len(lo)
    cols = np.concatenate([lo, hi]).T  # d x (U + H)
    per = max(1, _BLOCK_CELLS // cols.shape[1])  # (node, direction) rows
    tb = min(len(dirs), per)
    fine = min(math.isqrt(count - 1) + 1, per // tb)
    coarse = -(-count // fine)
    chunk = per // (tb * fine)  # coarse offsets per block
    out = np.empty((count, len(dirs)), dtype=complex)
    for t0 in range(0, len(dirs), tb):
        q = dirs[t0:t0 + tb] @ cols
        ef = _cis((start + step * np.arange(fine))[:, None, None] * q)
        for i0 in range(0, coarse, chunk):
            k0 = i0 * fine
            rows = min(count - k0, chunk * fine)
            offs = step * fine * np.arange(i0, min(i0 + chunk, coarse))
            e = (_cis(offs[:, None, None, None] * q) * ef).reshape(
                -1, cols.shape[1])[:rows * len(q)]
            # sum_u W[u, h] exp(i z.lo[u]), times exp(i z.hi[h]), summed
            vals = np.einsum("rh,rh->r", e[:, :u] @ W, e[:, u:])
            out[k0:k0 + rows, t0:t0 + tb] = vals.reshape(rows, -1)
    if side is not None:
        # sin(x)/x with x = z_a side / 2 per axis; np.sinc is
        # sin(pi x)/(pi x)
        rhos = start + step * np.arange(count)
        for a in range(dirs.shape[1]):
            out *= np.sinc(rhos[:, None] * dirs[:, a] * side
                           / (2.0 * math.pi))
    return out


# ---------------------------------------------------------------------------
# mean-square integrals I(R) = integral of |mu_hat|^2 over |z| <= R


@dataclass
class MeanSquareCurve:
    """Samples of R -> integral_{|z|<=R} |mu_hat(z)|^2 dz, each with an err
    that is a Richardson estimate of the quadrature error, not a proven
    bound. degraded means the refinement budget ran out first."""

    samples: list[dict] = field(default_factory=list)
    degraded: bool = False
    meta: dict = field(default_factory=dict)


def _trapezoid(ys: np.ndarray, h: float) -> float:
    return float((0.5 * (ys[0] + ys[-1]) + ys[1:-1].sum()) * h)


def _node_spacing(d: int) -> float:
    # pair frequencies after centering are at most the support diameter
    # sqrt(d); 16 nodes per worst-case wavelength to seed the refinement
    return math.pi / (8.0 * math.sqrt(d))


class _RadialIntegrand:
    """Radial profile g with I(R) = integral_0^R g, for d = 1 and d = 2.

    A call on the radius grid start + k step, k < count, returns g there
    and, at the same nodes, the shell means of the unweighted |mu_hat|^2
    (d = 2: the ring mean; d = 1: the value on the half-line, by
    symmetry)."""

    def __init__(self, mu: DyadicMeasureTree, weight_exp: float = 0.0):
        import numpy as np
        self.terms = _terms(mu)
        self.d = mu.d
        self.weight_exp = weight_exp  # extra |z|^weight_exp factor
        if self.d == 2:
            thetas = np.linspace(0.0, math.pi, _HALF_RING, endpoint=False)
            self.dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        else:
            self.dirs = np.ones((1, 1))
        self.directions = len(self.dirs)  # frequency vectors per radius

    def __call__(self, start: float, step: float,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        # every ring of the call in one kernel pass, one row per radius
        vals = _mu_hat_grid(self.terms, self.dirs, start, step, count)
        shell = (np.abs(vals) ** 2).mean(axis=1)
        rhos = start + step * np.arange(count)
        vals = 2.0 * shell if self.d == 1 else rhos * shell * _TWO_PI
        if self.weight_exp != 0.0:
            vals = vals * rhos ** self.weight_exp
        return vals, shell


def _refine_segments(g, bounds: list[float], h_start: float,
                     rel_tol: float, max_halvings: int):
    """Composite trapezoid per segment with Richardson halving until each
    segment's error estimate fits its share of the total budget.

    Halvings are nested: from P to 2P pieces of width h, g is evaluated
    only at the P new midpoints, and T(h/2) = T(h)/2 + (h/2) * sum g(mid).
    Each segment keeps a running sum of g's shell values over the nodes
    evaluated, and ends with raw_mean, that sum over pieces + 1: the mean
    of the shell values at its final nodes. g is called on radius grids
    (start, step, count): a segment's pieces + 1 nodes, or a halving's
    midpoints. A node is g.directions frequency vectors; a starting grid of
    more than _NODE_BUDGET raises before any array is made, and a halving
    past it ends as degraded."""
    spans = [(lo, hi, max(8, math.ceil((hi - lo) / h_start)))
             for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    nodes = g.directions * sum(pieces + 1 for _, _, pieces in spans)
    if nodes > _NODE_BUDGET:
        raise UnavailableError(f"quadrature needs {nodes} frequency "
                               f"vectors, over the budget of {_NODE_BUDGET}")
    segments = []
    for lo, hi, pieces in spans:
        ys, shell = g(lo, (hi - lo) / pieces, pieces + 1)
        segments.append({"lo": lo, "hi": hi, "pieces": pieces,
                         "value": _trapezoid(ys, (hi - lo) / pieces),
                         "shell_sum": float(shell.sum())})
    total0 = sum(abs(s["value"]) for s in segments) or 1e-30
    budget = rel_tol * total0 / max(1, len(segments))

    degraded = False
    halvings = 0
    for seg in segments:
        v = seg["value"]
        err = math.inf
        for _ in range(max_halvings):
            pieces = seg["pieces"]
            if nodes + g.directions * pieces > _NODE_BUDGET:
                degraded = True
                break
            nodes += g.directions * pieces
            h = (seg["hi"] - seg["lo"]) / pieces
            ys, shell = g(seg["lo"] + 0.5 * h, h, pieces)
            v2 = 0.5 * v + 0.5 * h * float(ys.sum())
            seg["pieces"] = 2 * pieces
            seg["shell_sum"] += float(shell.sum())
            err = abs(v2 - v) / 3.0
            v = v2
            halvings += 1
            if err <= budget:
                break
        else:
            degraded = True
        seg["value"] = v
        seg["err"] = err
        seg["raw_mean"] = seg["shell_sum"] / (seg["pieces"] + 1)
    return segments, degraded, halvings


def _radii(values) -> list[float]:
    """Radii as sorted floats, at least one, each finite and positive."""
    try:
        Rs = sorted(float(R) for R in values)
    except OverflowError:
        raise ValidationError("radii must fit in a float") from None
    if not Rs or not all(0.0 < R < math.inf for R in Rs):  # nan fails too
        raise ValidationError("radii must be finite and positive as floats")
    return Rs


def _check_rel_tol(rel_tol: float) -> None:
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValidationError("rel_tol must be finite and > 0")


def mean_square_curve(mu: DyadicMeasureTree, r_values, rel_tol: float = 1e-3,
                      max_halvings: int = 14) -> MeanSquareCurve:
    """I(R) at each requested R. The requested radii are segment endpoints,
    so every sample sits exactly on a quadrature node."""
    Rs = _radii(r_values)
    _check_rel_tol(rel_tol)
    if max_halvings < 0:
        raise ValidationError("max_halvings must be >= 0")
    if mu.d > 2:
        raise UnavailableError("mean-square quadrature is implemented for "
                               "d <= 2")

    g = _RadialIntegrand(mu)
    segments, degraded, halvings = _refine_segments(
        g, [0.0] + Rs, _node_spacing(mu.d), rel_tol, max_halvings)

    curve = MeanSquareCurve(degraded=degraded,
                            meta={"h_start": _node_spacing(mu.d),
                                  "halvings": halvings, "rel_tol": rel_tol})
    acc = 0.0
    acc_err = 0.0
    it = iter(segments)
    seg = next(it, None)
    for R in Rs:
        while seg is not None and seg["hi"] <= R * (1 + 1e-15):
            acc += seg["value"]
            acc_err += seg["err"]
            seg = next(it, None)
        curve.samples.append({"R": R, "value": acc, "err": acc_err})
    return curve


# ---------------------------------------------------------------------------
# ball-count vs mean-square sandwich


@dataclass
class FourierSandwichReport:
    """Per-radius comparison of the two-point correlation integral with
    r^d I(1/r), plus the fitted exponent of their ratio. The sandwich holds
    when the ratio's log-log slope stays within [-d*eps - tol, d*eps + tol];
    wide correlation brackets or degraded quadrature make the verdict
    inconclusive rather than failed."""

    eps: float
    tol: float
    rows: list[dict]
    slope: float
    passed: bool
    inconclusive: bool
    meta: dict


def fourier_sandwich_report(mu: DyadicMeasureTree, eps, r_list,
                            tol: float = 0.05, extra_depth: int = 4,
                            bracket_rel_tol: float = 0.25
                            ) -> FourierSandwichReport:
    epsf = float(eps)
    if not (0.0 < epsf < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError("tol must be finite and >= 0")
    rads = sorted((to_fraction(r) for r in r_list), reverse=True)
    _radii(rads)
    # the near-zero argument pins mu_hat only out to |z| ~ 1/diam, which
    # caps the usable radii at 1/2 regardless of the nominal r_0
    cap = 0.5
    usable = [r for r in rads if float(r) <= cap]
    skipped = [float(r) for r in rads if float(r) > cap]
    if len(usable) < 4:
        raise ValidationError("need at least 4 radii at or below 1/2")

    d = mu.d
    # 1/r ascends as r descends, so the samples come in the order of usable
    curve = mean_square_curve(mu, [1.0 / float(r) for r in usable])
    inconclusive = curve.degraded

    rows = []
    pts = []
    for r, sample in zip(usable, curve.samples):
        rf = float(r)
        br = mu.ball_correlation_bracket(r, extra_depth)
        mid = br.midpoint
        width = br.width
        I = sample["value"]
        ratio = mid / (rf ** d * I)
        row = {"r": rf, "corr_mid": mid, "corr_width": width,
               "mean_square": I,
               "envelope_low": rf ** (d * (1 + epsf)) * I,
               "envelope_high": rf ** (d * (1 - epsf)) * I,
               "ratio": ratio}
        if mid > 0 and width > bracket_rel_tol * mid:
            row["flag"] = "wide-bracket"
            inconclusive = True
        rows.append(row)
        pts.append((math.log2(rf), math.log2(ratio)))

    fit = slope_fit(pts, window_len=len(pts))
    slope = fit.full.value
    bound = d * epsf + tol
    passed = (-bound <= slope <= bound) and not inconclusive
    return FourierSandwichReport(epsf, tol, rows, slope, passed, inconclusive,
                                 {"skipped_radii": skipped,
                                  "slope_bound": bound,
                                  "quadrature": curve.meta})


# ---------------------------------------------------------------------------
# dimension estimates from the mean-square curve


@dataclass
class FourierDimsReport:
    dims: SlopeTriple
    low_confidence: bool
    curve: MeanSquareCurve


def _dims_from_curve(d: int, curve: MeanSquareCurve,
                     window_len: int | None) -> tuple[SlopeTriple, bool]:
    pts = []
    for s in curve.samples:
        if s["value"] <= 0:
            continue
        x = math.log2(s["R"])
        y = -(math.log2(s["value"]) - d * x)  # -log2(R^-d I(R))
        pts.append((x, y))
    triple = slope_fit(pts, window_len)
    span = pts[-1][0] - pts[0][0]
    low_conf = span < 4.0 or len(pts) < 4
    return triple, low_conf


def fourier_correlation_dims(mu: DyadicMeasureTree, r_window,
                             window_len: int | None = None,
                             rel_tol: float = 1e-3) -> FourierDimsReport:
    """Correlation-dimension proxies read off the decay of R^-d I(R):
    windowed slopes of -log2(R^-d I(R)) against log2 R."""
    curve = mean_square_curve(mu, r_window, rel_tol)
    triple, low_conf = _dims_from_curve(mu.d, curve, window_len)
    return FourierDimsReport(triple, low_conf or curve.degraded, curve)


def fourier_box_estimate(tree: DyadicSetTree, r_window,
                         window_len: int | None = None,
                         rel_tol: float = 1e-3) -> FourierDimsReport:
    """Box-dimension-flavored estimate: slope of R^-d min over candidate
    measures of I_mu(R). With a finite candidate family this upper-bounds
    the infimum the limit definition calls for; the family is the uniform
    measure plus the atomic net measures at the deepest level and half
    of it."""
    candidates = [DyadicMeasureTree.uniform_on_set(tree)]
    depth = tree.max_depth
    for n in sorted({max(1, depth // 2), depth}):
        candidates.append(net_measure(tree, n))

    Rs = _radii(r_window)
    curves = [mean_square_curve(mu, Rs, rel_tol) for mu in candidates]
    best = MeanSquareCurve(degraded=any(c.degraded for c in curves),
                           meta={"candidates": len(candidates)})
    for i, R in enumerate(Rs):
        low = min((c.samples[i] for c in curves), key=lambda s: s["value"])
        best.samples.append({"R": R, "value": low["value"], "err": low["err"]})
    triple, low_conf = _dims_from_curve(tree.d, best, window_len)
    return FourierDimsReport(triple, low_conf or best.degraded, best)


# ---------------------------------------------------------------------------
# transformed energy


@dataclass
class FourierEnergyReport:
    """Weighted frequency integral int |z|^(s-d) |mu_hat|^2 dz, truncated,
    with a decay-fit tail estimate. err adds Richardson estimates of the
    quadrature error, the head's bound and half the tail: an estimate, not
    a proven bound. diverged means the measured high-frequency decay
    cannot make the full integral finite."""

    s: float
    value: float
    err: float
    diverged: bool
    truncations: list[tuple[float, float]]
    decay_exponent: float
    meta: dict


def fourier_energy(mu: DyadicMeasureTree, s, r_max: float = 4096.0,
                   rel_tol: float = 1e-3) -> FourierEnergyReport:
    sf = float(s)
    d = mu.d
    if not (0.0 <= sf <= d):
        raise ValidationError("s must lie in [0, d]")
    if d > 2:
        raise UnavailableError("fourier energy quadrature is implemented "
                               "for d <= 2")

    # head: |z| <= a. |mu_hat(z) - 1| <= |z| sqrt(d) rho, so |mu_hat|^2 is
    # within 2 a sqrt(d) rho of 1 there; the weight integrates in closed
    # form. At s = 0 the weight |z|^-d is not integrable at the origin, so
    # the integral starts at |z| = 1 and finiteness means exactly
    # mean-square integrability.
    rho = support_radius(d)
    if sf > 0.0:
        a = 1.0 / 16.0
        vd = unit_ball_volume(d)
        head = d * vd * a ** sf / sf  # int_{|z|<=a} |z|^{s-d} dz
        head_err = head * 2.0 * a * math.sqrt(d) * rho
    else:
        a = 1.0
        head = 0.0
        head_err = 0.0
    if not (math.isfinite(r_max) and 2.0 * a < r_max * 0.999):
        raise ValidationError("r_max must be finite and leave the two octave "
                              f"segments past the head cut {a} that the "
                              "decay fit needs")
    _check_rel_tol(rel_tol)

    octaves = [a]
    R = a * 2.0
    while R < r_max * 0.999:
        octaves.append(R)
        R *= 2.0
    octaves.append(r_max)

    g = _RadialIntegrand(mu, weight_exp=sf - d)
    # each segment's raw_mean, the shell average of |mu_hat|^2 on its
    # converged nodes, feeds the high-frequency decay fit
    segments, degraded, _ = _refine_segments(g, octaves, _node_spacing(d),
                                             rel_tol, max_halvings=12)

    truncations = []
    acc = head
    for seg in segments:
        acc += seg["value"]
        truncations.append((seg["hi"], acc))

    k = min(4, len(segments))
    tail_pts = [(math.log2(seg["hi"]),
                 math.log2(max(seg["raw_mean"], 1e-300)))
                for seg in segments[-k:]]
    xs_t, ys_t = zip(*tail_pts)
    gamma = -_ls(xs_t, ys_t)[0]

    # beyond r_max, |mu_hat|^2 ~ C |z|^-gamma gives a closed-form shell
    # integral that converges only for gamma > s
    diverged = gamma <= sf + 0.05
    if diverged:
        value = math.inf
        err = math.inf
    else:
        C = segments[-1]["raw_mean"] * r_max ** gamma
        surf = 2.0 if d == 1 else _TWO_PI  # |sphere| in d = 1, 2
        tail = surf * C * r_max ** (sf - gamma) / (gamma - sf)
        value = acc + tail
        err = head_err + sum(seg["err"] for seg in segments) + 0.5 * tail

    return FourierEnergyReport(sf, value, err, diverged, truncations, gamma,
                               {"r_max": r_max, "head_cut": a,
                                "degraded": degraded,
                                "octave_means": [seg["raw_mean"]
                                                 for seg in segments]})


# ---------------------------------------------------------------------------
# near-zero lower bound


def near_zero_report(mu: DyadicMeasureTree) -> dict:
    """Sampled check of |mu_hat(z)| >= 1/2 on |z| <= (1/2)/(sqrt(d) rho),
    which follows from the gradient bound |grad mu_hat| <= sqrt(d) rho for
    a probability measure supported in B(0, rho), at 129 frequencies."""
    import numpy as np
    samples = 129
    d = mu.d
    rho = support_radius(d)
    radius = 0.5 / (math.sqrt(d) * rho)
    rng = np.random.default_rng(7)
    if d == 1:
        Z = np.linspace(-radius, radius, samples).reshape(-1, 1)
    else:
        raw = rng.normal(size=(samples, d))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = radius * rng.random(samples) ** (1.0 / d)
        Z = raw * radii[:, None]
        Z[0] = 0.0
    vals = np.abs(_mu_hat_grid(_terms(mu), Z, 1.0, 0.0, 1)[0])
    worst = int(np.argmin(vals))
    return {"radius": radius, "min_abs": float(vals[worst]),
            "argmin": [float(c) for c in Z[worst]],
            "ok": bool(vals[worst] >= 0.5)}
