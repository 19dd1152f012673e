"""Tests for the frequency-side pipeline: transform values, mean-square
integrals against special-function oracles, decay-slope dimension reads,
the correlation sandwich, and weighted energy."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j1, sici

from dimlab import fourier
from dimlab.dyadic import deinterleave
from dimlab.exact import UnavailableError, ValidationError, pow2
from dimlab.fourier import (
    _BLOCK_CELLS,
    _FILL_CAP,
    _TRIG_COST,
    _mu_hat_grid,
    _node_spacing,
    _RadialIntegrand,
    _refine_segments,
    _split_level,
    _terms,
    _trapezoid,
    fourier_box_estimate,
    fourier_correlation_dims,
    fourier_energy,
    fourier_sandwich_report,
    mean_square_curve,
    near_zero_report,
    support_radius,
    unit_ball_volume,
)
from dimlab.measure import DyadicMeasureTree
from dimlab.settree import DyadicSetTree
from oracles import oracle_mean_square_1d


def mu_hat(mu, z) -> complex:
    """The transform at one frequency vector (a scalar when d = 1), from
    the package's kernel."""
    zv = np.atleast_1d(np.asarray(z, dtype=float)).reshape(1, -1)
    return complex(_mu_hat_grid(_terms(mu), zv, 1.0, 0.0, 1)[0, 0])


def uniform_interval(depth=8):
    return DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, depth))


def cantor_tree(depth=8):
    return DyadicSetTree.from_digit_ifs(1, group=2, keep=[0, 3], depth=depth)


def interval_I(R):
    # closed form for the centered unit interval:
    # I(R) = 4 Si(R) - 8 sin^2(R/2) / R
    return 4.0 * sici(R)[0] - 8.0 * math.sin(R / 2.0) ** 2 / R


def atoms_I(points, weights, R):
    """I(R) of sum_j w_j delta_{c_j}: the sum over atom pairs of w_j w_k
    times the integral of exp(i z.(c_j - c_k)) over |z| <= R, which is
    2 sin(R D)/D in d = 1 and 2 pi R J1(R D)/D in d = 2, with D = |c_j - c_k|
    (2R and pi R^2 on the diagonal)."""
    total = 0.0
    for (p, a), (q, b) in itertools.product(zip(points, weights), repeat=2):
        dist = math.dist([float(x) for x in p], [float(x) for x in q])
        if len(p) == 1:
            kernel = 2.0 * R if dist == 0 else 2.0 * math.sin(R * dist) / dist
        else:
            kernel = (math.pi * R * R if dist == 0 else
                      2.0 * math.pi * R * j1(R * dist) / dist)
        total += float(a) * float(b) * kernel
    return total


class TestTransform:
    def test_value_at_zero_is_total_mass(self):
        assert mu_hat(uniform_interval(), 0.0) == pytest.approx(1.0)

    def test_interval_closed_form(self):
        # the per-cube sinc factors make the uniform leaf model exact,
        # so the transform is sin(z/2)/(z/2) regardless of depth
        mu = uniform_interval(5)
        for z in (0.7, 3.0, 11.5):
            want = math.sin(z / 2.0) / (z / 2.0)
            assert mu_hat(mu, z) == pytest.approx(want, abs=1e-12)
        assert abs(mu_hat(mu, 2.0 * math.pi)) < 1e-12

    def test_conjugate_symmetry_and_modulus_bound(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(6))
        for z in np.linspace(0.3, 40.0, 25):
            v = mu_hat(mu, z)
            assert mu_hat(mu, -z) == pytest.approx(v.conjugate(), abs=1e-12)
            assert abs(v) <= 1.0 + 1e-12

    def test_atom_has_unit_modulus(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 3),)], [1], 1, 6)
        for z in (0.1, 5.0, 123.0):
            assert abs(mu_hat(mu, z)) == pytest.approx(1.0)

    def test_square_factorizes(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(2, 4))
        z = (1.3, -2.2)
        want = (math.sin(z[0] / 2) / (z[0] / 2)) * \
               (math.sin(z[1] / 2) / (z[1] / 2))
        assert mu_hat(mu, z) == pytest.approx(want, abs=1e-12)

    def test_geometry_helpers(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert support_radius(1) == pytest.approx(0.5)


def oracle_mu_hat(mu, Z):
    """Brute force sum_j w_j exp(i z.c_j) prod_k sinc(z_k side / 2) over
    the leaves (centers from level_masses and deinterleave, shifted by
    -1/2 per axis), or over the atoms with no sinc factor."""
    if mu.leaf_model == "atoms":
        centers = np.array([[float(x) - 0.5 for x in p] for p, _ in mu.atoms])
        w = np.array([float(wt) for _, wt in mu.atoms])
        return np.exp(1j * (Z @ centers.T)) @ w
    n, d = mu.max_depth, mu.d
    side = 2.0 ** -n
    rows = mu.level_masses(n)
    centers = np.array([[(j + 0.5) * side - 0.5
                         for j in deinterleave(key, n, d)]
                        for key, _ in rows])
    w = np.array([float(m) for _, m in rows])
    vals = np.exp(1j * (Z @ centers.T)) @ w
    for k in range(d):
        u = Z[:, k] * side / 2.0
        vals = vals * np.where(u == 0.0, 1.0,
                               np.sin(u) / np.where(u == 0.0, 1.0, u))
    return vals


def oracle_frequencies(d, seed, count=200, radius=4096.0):
    """Frequencies with |z| <= radius: the origin, axis points at the
    radius, and random points spread over all scales."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    Z = raw * (radius * rng.random(count) ** 3)[:, None]
    Z[0] = 0.0
    Z[1] = radius * np.eye(d)[0]
    Z[2] = -radius * np.eye(d)[-1]
    return Z


def assert_kernel_matches_oracle(mu, seed=0):
    Z = oracle_frequencies(mu.d, seed)
    want = oracle_mu_hat(mu, Z)
    terms = _terms(mu)
    got = _mu_hat_grid(terms, Z, 1.0, 0.0, 1)[0]
    assert np.abs(np.abs(got) ** 2 - np.abs(want) ** 2).max() <= 1e-12
    for z, v in zip(Z[:12], want[:12]):
        assert abs(mu_hat(mu, z) - v) <= 1e-12
    # the split never makes the dense weight matrix much larger than the
    # leaf count
    hi, lo, W, _ = terms
    leaves = len(mu.atoms) if mu.leaf_model == "atoms" else \
        len(mu.level_masses(mu.max_depth))
    assert W.shape == (len(lo), len(hi))
    assert W.size <= 8 * leaves
    return terms


def random_sparse_2d(seed, depth=8, count=40):
    rng = random.Random(seed)
    keys = rng.sample(range(1 << (2 * depth)), count)
    return DyadicSetTree.from_codes(2, depth, keys)


ORACLE_MEASURES = {
    "sierpinski5": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 5)),
    "full1-10": lambda: uniform_interval(10),
    "full2-6": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.full(2, 6)),
    "cantor12": lambda: DyadicMeasureTree.uniform_on_set(cantor_tree(12)),
    "sparse-cantor": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.from_digit_ifs(1, 3, [0, 7], 12)),
    "random-split-sierpinski": lambda: DyadicMeasureTree.random_split(
        DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 5), random.Random(3)),
    "random-split-cantor": lambda: DyadicMeasureTree.random_split(
        cantor_tree(10), random.Random(5)),
    "random-sparse-2d": lambda: DyadicMeasureTree.random_split(
        random_sparse_2d(11), random.Random(11)),
    # 12% of the depth-7 cubes: the cheapest split by cost alone would
    # hold W at 8.2 cells per leaf, over the cap
    "random-2d": lambda: DyadicMeasureTree.uniform_on_set(
        random_sparse_2d(13, depth=7, count=2000)),
    "atoms-1d": lambda: DyadicMeasureTree.atomic(
        [(Fraction(1, 3),), (Fraction(3, 4),), (Fraction(1, 8),)],
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 1, 6),
    "atoms-2d": lambda: DyadicMeasureTree.atomic(
        [(Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 4), Fraction(1, 2)),
         (Fraction(1, 8), Fraction(7, 8))],
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], 2, 6),
}


@st.composite
def _oracle_trees(draw):
    """Digit-IFS trees and occupied-cube trees of point sets, d = 1, 2."""
    d = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(1, 10 if d == 1 else 5))
    if draw(st.booleans()):
        group = draw(st.integers(1, 2))
        keep = draw(st.sets(st.integers(0, (1 << (d * group)) - 1),
                            min_size=1))
        return DyadicSetTree.from_digit_ifs(d, group, sorted(keep), depth)
    coord = st.builds(Fraction, st.integers(1, 1 << depth),
                      st.just(1 << depth))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=40))
    return DyadicSetTree.from_points(pts, d, depth)


@st.composite
def _oracle_measures(draw):
    """Uniform and random-split measures on `_oracle_trees`, and atoms."""
    kind = draw(st.sampled_from(["uniform", "random_split", "atoms"]))
    if kind == "atoms":
        d = draw(st.sampled_from([1, 2]))
        coord = st.builds(Fraction, st.integers(1, 12), st.just(12))
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                            max_size=8))
        ws = draw(st.lists(st.integers(1, 9), min_size=len(pts),
                           max_size=len(pts)))
        return DyadicMeasureTree.atomic(
            pts, [Fraction(w, sum(ws)) for w in ws], d, 4)
    tree = draw(_oracle_trees())
    if kind == "uniform":
        return DyadicMeasureTree.uniform_on_set(tree)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return DyadicMeasureTree.random_split(tree, rng)


def two_set_split_level(keys, n, d):
    """The split-level rule with H and U both counted as sets of the leaf
    keys' prefixes and suffixes at every level."""
    cap = _FILL_CAP * len(keys)
    best, best_cost = 0, None
    for k in range(n + 1):
        shift = d * (n - k)
        h = len({key >> shift for key in keys})
        u = len({key & ((1 << shift) - 1) for key in keys})
        cost = _TRIG_COST * (u + h) + u * h
        if u * h <= cap and (best_cost is None or cost < best_cost):
            best, best_cost = k, cost
    return best


@st.composite
def _split_trees(draw):
    """Occupied-cube trees of random point sets and digit-IFS trees, d <= 3."""
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(0, {1: 12, 2: 6, 3: 4}[d]))
    if depth and draw(st.booleans()):
        keep = draw(st.sets(st.integers(0, (1 << d) - 1), min_size=1))
        return DyadicSetTree.from_digit_ifs(d, 1, sorted(keep), depth)
    coord = st.builds(Fraction, st.integers(1, 1 << depth),
                      st.just(1 << depth))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=300))
    return DyadicSetTree.from_points(pts, d, depth)


class TestFactoredKernel:
    """The factored phases against the brute-force leaf sum, |z| <= 4096."""

    @pytest.mark.parametrize("kind", sorted(ORACLE_MEASURES))
    def test_matches_oracle(self, kind):
        assert_kernel_matches_oracle(ORACLE_MEASURES[kind]())

    @settings(max_examples=80, deadline=None, database=None)
    @given(_oracle_measures(), st.integers(0, 2 ** 16))
    def test_matches_oracle_on_random_measures(self, mu, seed):
        assert_kernel_matches_oracle(mu, seed)

    @pytest.mark.parametrize("kind, leaves, U, H", [
        ("full1-10", 1024, 32, 32),
        ("sierpinski5", 243, 27, 9),
        ("cantor12", 64, 8, 8),
        ("full2-6", 4096, 64, 64),
    ])
    def test_product_sets_split_near_the_square_root(self, kind, leaves, U,
                                                     H):
        hi, lo, W, _ = _terms(ORACLE_MEASURES[kind]())
        assert (len(lo), len(hi), W.size) == (U, H, leaves)
        assert np.count_nonzero(W) == leaves

    def test_sparse_2d_set_stays_unsplit(self):
        # 40 random cubes of 65536: no split shares enough prefixes or
        # suffixes to pay, so the kernel is the unsplit leaf sum
        mu = DyadicMeasureTree.uniform_on_set(random_sparse_2d(11))
        hi, lo, W, _ = assert_kernel_matches_oracle(mu)
        assert hi.shape == (1, 2) and not hi.any()
        assert W.shape == (40, 1)

    @pytest.mark.parametrize("kind", ["random-split-sierpinski",
                                      "random-split-cantor",
                                      "random-sparse-2d"])
    def test_weights_are_the_rounded_masses(self, kind):
        # every W entry is the float of the leaf's exact mass, bit for bit,
        # at the cell whose hi + lo is the leaf's shifted centre
        mu = ORACLE_MEASURES[kind]()
        hi, lo, W, side = _terms(mu)
        n, d = mu.max_depth, mu.d
        got = {tuple(hi[h] + lo[u]): W[u, h].hex()
               for u, h in zip(*np.nonzero(W))}
        want = {tuple((c + 0.5) * side - 0.5 for c in deinterleave(k, n, d)):
                float(m).hex() for k, m in mu.level_masses(n)}
        assert got == want

    def test_atoms_are_the_unsplit_case(self):
        mu = ORACLE_MEASURES["atoms-2d"]()
        hi, lo, W, side = _terms(mu)
        assert side is None and hi.shape == (1, 2) and not hi.any()
        assert W[:, 0].tolist() == [float(w) for _, w in mu.atoms]
        assert lo.tolist() == [[float(x) - 0.5 for x in p]
                               for p, _ in mu.atoms]


    @pytest.mark.parametrize("kind", sorted(ORACLE_MEASURES))
    def test_split_level_matches_two_set_rule(self, kind):
        mu = ORACLE_MEASURES[kind]()
        n = mu.max_depth
        assert _split_level(mu) == two_set_split_level(
            mu.support.levels[n], n, mu.d)

    @settings(max_examples=100, deadline=None, database=None)
    @given(_split_trees())
    def test_split_level_matches_two_set_rule_on_random_trees(self, tree):
        mu = DyadicMeasureTree.uniform_on_set(tree)
        assert _split_level(mu) == two_set_split_level(
            tree.levels[tree.max_depth], tree.max_depth, tree.d)


class TestMeanSquare:
    def test_interval_against_si_oracle(self):
        mu = uniform_interval()
        for R in (1.0, 8.0, 64.0):
            got = mean_square_curve(mu, [R]).samples[0]
            assert got["value"] == pytest.approx(
                interval_I(R), abs=max(3 * got["err"], 1e-6))

    @pytest.mark.parametrize("name", ["full1-10", "cantor10",
                                      "cantor12-random"])
    def test_within_err_of_offset_histogram_closed_form(self, name):
        # I(R) at R = 2..4096 from the leaf offset histogram and Si lies
        # within the Richardson err of every sample; at R = 2 the err
        # exceeds the distance by under 0.1%
        mu = {"full1-10": uniform_interval(10),
              "cantor10": DyadicMeasureTree.uniform_on_set(cantor_tree(10)),
              "cantor12-random": DyadicMeasureTree.random_split(
                  cantor_tree(12), random.Random(12))}[name]
        curve = mean_square_curve(mu, [2.0 ** k for k in range(1, 13)])
        for s in curve.samples:
            truth = oracle_mean_square_1d(mu, s["R"])
            assert abs(s["value"] - truth) <= s["err"], s["R"]

    def test_atom_is_twice_R(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 3),)], [1], 1, 6)
        got = mean_square_curve(mu, [5.0]).samples[0]
        assert got["value"] == pytest.approx(10.0, abs=1e-9)
        assert got["err"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("points, weights, Rs", [
        ([(Fraction(1, 3),), (Fraction(3, 4),), (Fraction(1, 8),)],
         [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
         [1.0, 4.0, 16.0, 64.0, 256.0]),
        ([(Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 4), Fraction(1, 2)),
          (Fraction(1, 8), Fraction(7, 8))],
         [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
         [1.0, 4.0, 16.0, 32.0]),
    ], ids=["d1", "d2"])
    def test_atoms_against_closed_form(self, points, weights, Rs):
        mu = DyadicMeasureTree.atomic(points, weights, len(points[0]), 6)
        curve = mean_square_curve(mu, Rs)
        for got in curve.samples:
            assert got["value"] == pytest.approx(
                atoms_I(points, weights, got["R"]),
                abs=max(3 * got["err"], 1e-9))

    def test_no_halvings_is_degraded(self, monkeypatch):
        # a node budget of 12 covers the starting nodes of [0, 4] and no
        # halving, so no segment gets an error estimate
        monkeypatch.setattr("dimlab.fourier._NODE_BUDGET", 12)
        curve = mean_square_curve(uniform_interval(4), [4.0])
        assert curve.degraded
        assert curve.samples[0]["err"] == math.inf

    def test_curve_is_increasing_and_samples_pin_endpoints(self):
        mu = uniform_interval(6)
        Rs = [1.0, 4.0, 16.0]
        curve = mean_square_curve(mu, Rs)
        vals = [s["value"] for s in curve.samples]
        assert vals == sorted(vals)
        assert [s["R"] for s in curve.samples] == Rs

    def test_validation(self):
        with pytest.raises(ValidationError):
            mean_square_curve(uniform_interval(3), [0.0])
        for bad in (math.inf, math.nan, pow2(1100), pow2(-1100)):
            with pytest.raises(ValidationError):
                mean_square_curve(uniform_interval(3), [1.0, bad])
        mu3 = DyadicMeasureTree.atomic([(Fraction(1, 2),) * 3], [1], 3, 4)
        with pytest.raises(UnavailableError):
            mean_square_curve(mu3, [2.0])


def sierpinski_tree(depth=3):
    return DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], depth)


QUADRATURE_MEASURES = {
    "cantor-uniform": lambda: DyadicMeasureTree.uniform_on_set(
        cantor_tree(6)),
    "sierpinski-uniform": lambda: DyadicMeasureTree.uniform_on_set(
        sierpinski_tree()),
    "sierpinski-random-split": lambda: DyadicMeasureTree.random_split(
        sierpinski_tree(), random.Random(7)),
    "atoms-2d": lambda: DyadicMeasureTree.atomic(
        [(Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 4), Fraction(1, 2)),
         (Fraction(1, 8), Fraction(7, 8))],
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], 2, 6),
}


class _CountingIntegrand:
    """Wraps a radial integrand and records the radii of every call."""

    def __init__(self, g):
        self.g = g
        self.directions = g.directions
        self.calls = []

    def __call__(self, start, step, count):
        self.calls.append(start + step * np.arange(count))
        return self.g(start, step, count)


class TestNestedQuadrature:
    @pytest.mark.parametrize("kind", sorted(QUADRATURE_MEASURES))
    def test_each_node_is_evaluated_once(self, kind):
        mu = QUADRATURE_MEASURES[kind]()
        g = _CountingIntegrand(_RadialIntegrand(mu))
        bounds = [0.0, 3.0, 12.0, 40.0]
        h = _node_spacing(mu.d)
        segments, _, halvings = _refine_segments(g, bounds, h, 1e-7, 14)
        assert halvings > len(segments)  # some segment halves repeatedly
        for seg in segments:
            mine = [c for c in g.calls
                    if seg["lo"] < 0.5 * (c[0] + c[-1]) < seg["hi"]]
            p0 = len(mine[0]) - 1
            assert p0 == max(8, math.ceil((seg["hi"] - seg["lo"]) / h))
            k = len(mine) - 1
            # the halving from P pieces evaluates exactly the P midpoints
            assert [len(c) for c in mine[1:]] == [p0 << i for i in range(k)]
            assert seg["pieces"] == p0 << k
            assert sum(len(c) for c in mine) == seg["pieces"] + 1
            nodes = np.sort(np.concatenate(mine))
            assert np.all(np.diff(nodes) > 0)  # no node evaluated twice
        assert sum(len(c) for c in g.calls) == \
            sum(seg["pieces"] + 1 for seg in segments)

    @pytest.mark.parametrize("kind, weight_exp, bounds", [
        ("cantor-uniform", 0.0, [0.0, 4.0, 16.0, 64.0]),
        ("cantor-uniform", -2.0 / 3.0, [1.0 / 16.0, 0.5, 8.0, 64.0]),
        ("sierpinski-random-split", 0.0, [0.0, 4.0, 16.0]),
        ("sierpinski-random-split", -1.5, [1.0 / 16.0, 1.0, 16.0]),
        ("atoms-2d", 0.0, [0.0, 2.0, 8.0]),
    ])
    def test_nested_value_matches_full_grid(self, kind, weight_exp, bounds):
        mu = QUADRATURE_MEASURES[kind]()
        g = _RadialIntegrand(mu, weight_exp=weight_exp)
        segments, _, halvings = _refine_segments(
            g, bounds, _node_spacing(mu.d), 1e-6, 14)
        assert halvings > len(segments)
        for seg in segments:
            ys, shell = g(seg["lo"], (seg["hi"] - seg["lo"]) / seg["pieces"],
                          seg["pieces"] + 1)
            fresh = _trapezoid(ys, (seg["hi"] - seg["lo"]) / seg["pieces"])
            assert seg["value"] == pytest.approx(fresh, rel=1e-12, abs=0)
            assert seg["raw_mean"] == pytest.approx(float(shell.mean()),
                                                    rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["sierpinski-uniform",
                                      "sierpinski-random-split", "atoms-2d"])
    def test_half_circle_ring_matches_full_circle(self, kind):
        # both rings on one radius grid through the one kernel, so the
        # phases split into the same fine and coarse factors
        g = _RadialIntegrand(QUADRATURE_MEASURES[kind]())
        assert g.dirs.shape == (32, 2)
        thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        full = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        start, step, count = 0.25, 1.3, 50  # out to radius 63.95
        _, shell = g(start, step, count)
        want = (np.abs(_mu_hat_grid(g.terms, full, start, step, count))
                ** 2).mean(axis=1)
        assert shell == pytest.approx(want, rel=1e-13, abs=0)

    # 2^16 fits the budget as radii but not times the 32 ring directions
    @pytest.mark.parametrize("kind, R", [("cantor-uniform", 2.0 ** 40),
                                         ("atoms-2d", 2.0 ** 16)])
    def test_grid_over_node_budget_is_unavailable(self, kind, R):
        mu = QUADRATURE_MEASURES[kind]()
        g = _CountingIntegrand(_RadialIntegrand(mu))
        with pytest.raises(UnavailableError, match="budget"):
            _refine_segments(g, [0.0, R], _node_spacing(mu.d), 1e-3, 14)
        assert g.calls == []  # refused before any node array was made
        with pytest.raises(UnavailableError, match="budget"):
            mean_square_curve(mu, [R])
        with pytest.raises(UnavailableError, match="budget"):
            fourier_energy(mu, 0.5, r_max=R)

    def test_halving_past_node_budget_degrades(self, monkeypatch):
        mu = QUADRATURE_MEASURES["sierpinski-uniform"]()
        g = _CountingIntegrand(_RadialIntegrand(mu))
        bounds = [0.0, 3.0, 12.0, 40.0]
        h = _node_spacing(mu.d)
        _, degraded, _ = _refine_segments(g, bounds, h, 1e-7, 14)
        spent = 32 * sum(len(c) for c in g.calls)
        assert not degraded
        monkeypatch.setattr("dimlab.fourier._NODE_BUDGET", spent - 1)
        g.calls.clear()
        _, degraded, _ = _refine_segments(g, bounds, h, 1e-7, 14)
        assert degraded
        assert 32 * sum(len(c) for c in g.calls) <= spent - 1


def grid_oracle_sq(mu, dirs, start, step, count, chunk=512):
    """|mu_hat|^2 at (start + k step) dirs[t], k < count, from the direct
    per-node leaf sum, chunk radii at a time."""
    rhos = start + step * np.arange(count)
    out = []
    for k in range(0, count, chunk):
        Z = (rhos[k:k + chunk, None, None] * dirs).reshape(-1, dirs.shape[1])
        out.append((np.abs(oracle_mu_hat(mu, Z)) ** 2).reshape(-1, len(dirs)))
    return np.concatenate(out)


class TestGridKernel:
    """The angle-addition phases against the direct per-node leaf sum."""

    @pytest.mark.parametrize("count", [1, 2, 7, 16, 17, "blocks", "narrow"])
    @pytest.mark.parametrize("kind", sorted(QUADRATURE_MEASURES))
    def test_matches_direct_leaf_sum(self, kind, count, monkeypatch):
        mu = QUADRATURE_MEASURES[kind]()
        g = _RadialIntegrand(mu)
        hi, lo, _, _ = g.terms
        cells = len(lo) + len(hi)
        if count == "blocks":
            # count T (U + H) is over twice _BLOCK_CELLS, so the grid takes
            # more than one kernel block
            count = 2 * _BLOCK_CELLS // (len(g.dirs) * cells) + 3
        elif count == "narrow":
            # three (node, direction) rows per block: 2-D rings split into
            # blocks of directions, 1-D grids into blocks of 3 nodes
            monkeypatch.setattr(fourier, "_BLOCK_CELLS", 3 * cells)
            count = 17
        step = min(0.29, 500.0 / count)
        got = np.abs(_mu_hat_grid(g.terms, g.dirs, 0.37, step, count)) ** 2
        want = grid_oracle_sq(mu, g.dirs, 0.37, step, count)
        assert got.shape == want.shape == (count, len(g.dirs))
        # |mu_hat|^2 <= 1, so this is an absolute error at the value's scale
        assert np.abs(got - want).max() <= 1e-12

    def test_trig_is_a_fraction_of_a_pair_per_phase_cell(self, monkeypatch):
        # one call on 1,024 radii of the depth-5 Sierpinski measure: a sin/cos
        # pair per node, direction and phase cell would be n T (U + H)
        g = _RadialIntegrand(ORACLE_MEASURES["sierpinski5"]())
        hi, lo, _, _ = g.terms
        n, T, cells = 1024, len(g.dirs), len(lo) + len(hi)
        assert (T, cells) == (32, 36)
        pairs = []
        cis = fourier._cis

        def counting(phase):
            pairs.append(phase.size)
            return cis(phase)

        monkeypatch.setattr(fourier, "_cis", counting)
        g(0.3, 0.1, n)
        assert 0 < sum(pairs) <= n * T * cells // 8


class TestDecaySlopes:
    window = [2.0 ** k for k in range(2, 11)]

    def test_interval_slope_near_one(self):
        rep = fourier_correlation_dims(uniform_interval(), self.window)
        assert rep.dims.full.value == pytest.approx(0.976, abs=0.02)
        assert rep.dims.lower.value <= rep.dims.full.value \
            <= rep.dims.upper.value
        assert not rep.low_confidence

    def test_atom_slope_is_zero(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 3),)], [1], 1, 6)
        rep = fourier_correlation_dims(mu, self.window)
        assert rep.dims.full.value == pytest.approx(0.0, abs=1e-9)

    def test_short_window_flags_low_confidence(self):
        rep = fourier_correlation_dims(uniform_interval(5),
                                       [2.0, 3.0, 4.0, 5.0])
        assert rep.low_confidence

    def test_underflowed_samples_leave_the_fit(self):
        # in 2-D, I(R) ~ pi R^2 rounds to 0.0 as a float below R ~ 2^-537;
        # such a sample has no logarithm and is left out of the fit
        mu = DyadicMeasureTree.uniform_on_set(
            DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 4))
        rep = fourier_correlation_dims(mu, [2.0 ** -k
                                            for k in range(560, 519, -1)])
        zeros = [s["R"] for s in rep.curve.samples if s["value"] == 0.0]
        assert len(zeros) == 23 and max(zeros) < 2.0 ** -537
        assert len(rep.dims.points) == 41 - 23

    def test_box_estimate_full_and_cantor(self):
        win = [2.0 ** k for k in range(1, 10)]
        full = fourier_box_estimate(DyadicSetTree.full(1, 6), win)
        assert full.dims.full.value == pytest.approx(0.93, abs=0.05)
        cant = fourier_box_estimate(cantor_tree(8), win)
        assert cant.dims.full.value == pytest.approx(0.5, abs=0.05)


class TestSandwich:
    def test_cantor_passes(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(8))
        rep = fourier_sandwich_report(mu, Fraction(1, 5),
                                      [pow2(-k) for k in range(2, 7)])
        assert rep.passed and not rep.inconclusive
        assert abs(rep.slope) <= rep.meta["slope_bound"]
        for row in rep.rows:
            assert row["envelope_low"] <= row["envelope_high"]
            assert row["ratio"] == pytest.approx(
                row["corr_mid"] / (row["r"] * row["mean_square"]))

    def test_radii_above_half_are_skipped(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(8))
        rep = fourier_sandwich_report(
            mu, Fraction(1, 5), [Fraction(1)] + [pow2(-k) for k in
                                                 range(2, 7)])
        assert rep.meta["skipped_radii"] == [1.0]
        assert len(rep.rows) == 5

    def test_wide_bracket_is_inconclusive(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(8))
        rep = fourier_sandwich_report(mu, Fraction(1, 5),
                                      [pow2(-k) for k in range(2, 7)],
                                      extra_depth=0)
        assert rep.inconclusive and not rep.passed
        assert any("flag" in row for row in rep.rows)

    def test_validation(self):
        mu = uniform_interval(4)
        with pytest.raises(ValidationError):
            fourier_sandwich_report(mu, 0.0, [pow2(-k) for k in range(2, 7)])
        with pytest.raises(ValidationError):
            # only three radii survive the 1/2 cap
            fourier_sandwich_report(mu, 0.2, [1, pow2(-2), pow2(-3),
                                              pow2(-4)])
        with pytest.raises(ValidationError):
            # 2^-1100 rounds to 0 as a float
            fourier_sandwich_report(mu, 0.2, [pow2(-k)
                                              for k in range(1, 1101)])
        with pytest.raises(ValidationError):
            # 2^1100 does not fit in a float
            fourier_sandwich_report(mu, 0.2, [pow2(1100)] + [
                pow2(-k) for k in range(2, 7)])


class TestFourierEnergy:
    def test_interval_half_energy(self):
        # spatial value is 8/3; the frequency side carries sqrt(2 pi)
        rep = fourier_energy(uniform_interval(), 0.5)
        assert not rep.diverged
        want = 8.0 * math.sqrt(2.0 * math.pi) / 3.0
        assert rep.value == pytest.approx(want, abs=max(3 * rep.err, 0.05))
        assert rep.decay_exponent == pytest.approx(2.0, abs=0.3)
        assert [v for _, v in rep.truncations] == \
            sorted(v for _, v in rep.truncations)

    def test_atom_diverges(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 3),)], [1], 1, 6)
        rep = fourier_energy(mu, 0.5)
        assert rep.diverged
        assert rep.value == math.inf
        assert rep.decay_exponent == pytest.approx(0.0, abs=0.05)

    def test_s_zero_means_mean_square_integrability(self):
        rep = fourier_energy(uniform_interval(6), 0)
        assert not rep.diverged
        assert rep.meta["head_cut"] == 1.0
        assert 0.0 < rep.value < math.inf

    @pytest.mark.parametrize("s, cut, r_max", [
        (Fraction(1, 3), 0.0625, 0.1), (Fraction(1, 3), 0.0625, 0.125),
        (0, 1.0, 2.0)])
    def test_one_octave_is_refused(self, s, cut, r_max):
        # one octave segment past the head cut leaves no decay slope to
        # fit; the energy used to read diverged on a decay exponent of 0
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(10))
        with pytest.raises(ValidationError, match=f"head cut {cut} "):
            fourier_energy(mu, s, r_max=r_max)

    def test_two_octaves_fit_the_decay(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(10))
        rep = fourier_energy(mu, Fraction(1, 3), r_max=0.13)
        assert [r for r, _ in rep.truncations] == [0.125, 0.13]
        assert rep.decay_exponent == pytest.approx(0.0272, abs=1e-4)

    def test_cantor_third_energy_finite(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(8))
        rep = fourier_energy(mu, Fraction(1, 3))
        assert not rep.diverged
        assert rep.value > 0

    @pytest.mark.parametrize("tree, s, refine_depth, kw", [
        (DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 4), Fraction(1, 2),
         4, {"r_max": 256}),
        (DyadicSetTree.full(1, 6), Fraction(1, 2), 8, {}),
    ], ids=["sierpinski4", "interval6"])
    def test_parseval_matches_spatial_bracket(self, tree, s, refine_depth,
                                              kw):
        # int |z|^(s-d) |mu_hat|^2 dz = (2 pi)^d / c(d, s) * I_s(mu) with
        # c(d, s) = pi^(d/2) 2^(d-s) Gamma((d-s)/2) / Gamma(s/2) (Mattila,
        # Fourier Analysis and Hausdorff Dimension, 2015, sec. 3.5): the
        # quadrature must land in the scaled spatial bracket, widened by
        # its own error estimate
        mu = DyadicMeasureTree.uniform_on_set(tree)
        d, sv = mu.d, float(s)
        c = (math.pi ** (d / 2) * 2 ** (d - sv) * math.gamma((d - sv) / 2)
             / math.gamma(sv / 2))
        scale = (2 * math.pi) ** d / c
        b = mu.energy_bracket(s, refine_depth=refine_depth)
        rep = fourier_energy(mu, s, **kw)
        assert not b.diverged and not rep.diverged
        assert (b.lower * scale - rep.err <= rep.value
                <= b.upper * scale + rep.err)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fourier_energy(uniform_interval(3), 1.5)
        mu3 = DyadicMeasureTree.atomic([(Fraction(1, 2),) * 3], [1], 3, 4)
        with pytest.raises(UnavailableError):
            fourier_energy(mu3, 0.5)


class TestNearZero:
    def test_interval(self):
        rep = near_zero_report(uniform_interval(6))
        assert rep["ok"]
        assert rep["radius"] == pytest.approx(1.0)
        # the worst sample sits at the window edge |z| = 1
        assert rep["min_abs"] == pytest.approx(math.sin(0.5) / 0.5, abs=1e-6)

    def test_atom(self):
        mu = DyadicMeasureTree.atomic([(Fraction(1, 3),)], [1], 1, 6)
        assert near_zero_report(mu)["min_abs"] >= 0.999

    def test_square(self):
        mu = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(2, 3))
        rep = near_zero_report(mu)
        assert rep["ok"]
        assert rep["radius"] == pytest.approx(0.5)


def test_radial_bits_pinned():
    # float.hex of the energy outputs as computed with nested halvings and
    # half-circle rings. Re-pinned when node reuse came in: each halving
    # now adds the new midpoints to the old trapezoid sum and each shell
    # mean is a running sum over pieces + 1, so the same nodes round
    # differently in the last bits. err is the Richardson difference, so
    # it is what shows a reordered product in the integrand. Re-pinned
    # again for the factored kernel: each leaf phase is now exp(i z.hi)
    # times exp(i z.lo) summed through real matmuls, and a 2-D call's rings
    # are averaged row-wise in one batch, so err, the decay exponent and
    # some octave means move in the last bits; every value is unchanged.
    # Re-pinned again for the radius grid: each node's phases are products
    # of a fine and a coarse factor (angle addition) and the leaf sum is one
    # complex product, so err, one decay exponent and some octave means
    # move by at most 2.2e-15 relative; both values are unchanged.
    cases = [
        (DyadicSetTree.full(2, 2), Fraction(1, 2), {"r_max": 64},
         "0x1.4d53c75e0c481p+4", "0x1.97a52ae153a0ep-2",
         "0x1.86c9e1f7bb232p+1",
         ["0x1.ff9c099581e0bp-1", "0x1.fe70993c16a11p-1",
          "0x1.f9c98cc419009p-1", "0x1.e797116d8cdedp-1",
          "0x1.a506bde591ff1p-1", "0x1.d35d4ddf176efp-2",
          "0x1.9d174f4d32ef2p-5", "0x1.dbd25db746277p-8",
          "0x1.85297f438f853p-11", "0x1.86c7ad1946ba4p-14"]),
        (cantor_tree(6), Fraction(1, 3), {},
         "0x1.4d1a7f80f55b1p+3", "0x1.3689eed4944fep-3",
         "0x1.029495ee3ae2ep+1",
         ["0x1.ff4c1ec73db69p-1", "0x1.fd31b01b28f75p-1",
          "0x1.f4d9fb94a6177p-1", "0x1.d496806721713p-1",
          "0x1.6408f7193c2b3p-1", "0x1.9fdf145d83e12p-3",
          "0x1.0fad1078e4344p-2", "0x1.03c59e12b553dp-3",
          "0x1.d68634d825838p-4", "0x1.2fa92d6c50443p-4",
          "0x1.31f8aee77b1a7p-4", "0x1.f45c65cd7f940p-5",
          "0x1.fbe6f2efb6ebap-8", "0x1.42eb6657c7dc6p-9",
          "0x1.07e439192982fp-11", "0x1.0343e856d9141p-13"]),
    ]
    for tree, s, kw, value, err, gamma, means in cases:
        rep = fourier_energy(DyadicMeasureTree.uniform_on_set(tree), s, **kw)
        assert rep.value.hex() == value
        assert rep.err.hex() == err
        assert rep.decay_exponent.hex() == gamma
        assert [m.hex() for m in rep.meta["octave_means"]] == means
