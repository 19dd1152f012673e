"""Exactness digest: one SHA-256 per section of exact outputs, pinned in
digest.json next to this file.

Each section prints canonical text (Fractions as p/q, floats as
float.hex) for one family of results over a fixed corpus: full trees in
d = 1..3, Cantor and Sierpinski digit-IFS sets, sparse from_codes trees
and the depth-24 alternating set, under uniform, seeded random_split and
atomic measures, and the stagewise Frostman measures on them, plus the
ValidationError text of set trees with one defect or two planted on their
one-child levels, and what the corpus sets (with the four inequality-chain
inputs) and the net measures load back to from their files. A change that
is meant to keep every output passes unchanged; one that moves a section
on purpose re-pins it with

    PYTHONPATH=src python tests/test_digest.py

which rewrites digest.json and names the sections that moved.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from dimlab import cli, constructions, io
from dimlab.estimators import (box_dims, correlation_dims,
                               correlation_predicates, correlation_sandwich,
                               frostman_slope, packing_threshold)
from dimlab.exact import (ConstructionError, ValidationError, diameter_level,
                          format_rational, level_for_radius, pow2)
from dimlab.fourier import fourier_box_estimate
from dimlab.measure import (DyadicMeasureTree, anti_frostman_check,
                            anti_frostman_measure)
from dimlab.settree import DyadicSetTree

DIGEST = Path(__file__).with_name("digest.json")


def _codes(d, depth, count, seed):
    return DyadicSetTree.from_codes(d, depth, random.Random(seed).sample(
        range(1 << (d * depth)), count))


TREES = {
    "full1-10": lambda: DyadicSetTree.full(1, 10),
    "full2-5": lambda: DyadicSetTree.full(2, 5),
    "full3-3": lambda: DyadicSetTree.full(3, 3),
    "cantor-8": lambda: DyadicSetTree.from_digit_ifs(1, 2, [0, 3], 8),
    "sierpinski-5": lambda: DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 5),
    "codes1-12": lambda: _codes(1, 12, 40, 1),
    "codes2-6": lambda: _codes(2, 6, 24, 2),
    "codes3-4": lambda: _codes(3, 4, 12, 3),
    "alternating24": lambda: constructions.alternating_set(
        constructions.alternating_plan(Fraction(2, 5), Fraction(7, 10)), 24),
}


def _atoms(d, count, seed):
    rng = random.Random(seed)
    pts = [tuple(Fraction(rng.randint(1, 60), 60) for _ in range(d))
           for _ in range(count)]
    ws = [rng.randint(1, 9) for _ in pts]
    return DyadicMeasureTree.atomic(pts, [Fraction(w, sum(ws)) for w in ws],
                                    d, 6)


def _measures():
    out = {}
    for name, make in TREES.items():
        out[f"{name}/uniform"] = functools.partial(
            DyadicMeasureTree.uniform_on_set, make())
        out[f"{name}/random"] = functools.partial(
            DyadicMeasureTree.random_split, make(), random.Random(len(name)))
    out["atoms1"] = lambda: _atoms(1, 14, 11)
    out["atoms2"] = lambda: _atoms(2, 10, 12)
    out["anti-frostman"] = lambda: anti_frostman_measure(
        TREES["cantor-8"](), [2, 4, 6])[0]
    return out


MEASURES = _measures()


@functools.cache
def measure(name):
    return MEASURES[name]()


def radii(k_max):
    """p/q 2^-k over a few shapes of p/q, down to 2^-k_max."""
    return [Fraction(p, q << k) for k in range(0, k_max + 1, 2)
            for p, q in ((1, 3), (5, 7), (1, 1), (3, 2))]


def text(x) -> str:
    """Canonical text: Fractions as p/q, floats as float.hex, ints wider
    than 2048 bits (symbolic counts) in hex, dicts by sorted key."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, int) and x.bit_length() > 2048:
        return hex(x)
    if isinstance(x, dict):
        return "{" + " ".join(f"{k}={text(v)}" for k, v in sorted(
            x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + " ".join(map(text, x)) + "]"
    return str(x)


def split_tables():
    for name in MEASURES:
        mu = measure(name)
        for n, ((nums, den), keys) in enumerate(zip(mu.tables,
                                                    mu.support.levels)):
            yield f"{name} {n} {den} {text(list(zip(keys, nums)))}"


def ball_brackets():
    for name in MEASURES:
        mu = measure(name)
        # 3-D pairs cost most: fewer radii and caps there
        for r in radii(6 if mu.d < 3 else 2):
            for extra in ((0, 1, 2, 4) if mu.d < 3 else (0, 1, 2)):
                b = mu.ball_correlation_bracket(r, extra)
                yield f"{name} {r} {extra} {b.lower} {b.upper} {b.cap_level}"


def packing():
    for name in MEASURES:
        mu = measure(name)
        top = mu.max_depth
        for levels in (range(1, top + 1), range(top // 2, top + 1)):
            got = packing_threshold(mu, levels)
            yield f"{name} {text(list(levels))} {text(got)}"


def predicates():
    for name in MEASURES:
        mu = measure(name)
        rads = [Fraction(1, 1 << k) for k in range(2, 6)] + [Fraction(2, 7)]
        for s in (Fraction(1, 2), Fraction(1)):
            reports = correlation_predicates(mu, s, rads, extra_depth=2)
            for key, rep in sorted(reports.items()):
                yield f"{name} {s} {key} {rep.verdict} {text(rep.records)}"


def slopes():
    for name in MEASURES:
        mu = measure(name)
        fits = (("box", box_dims, mu.support), ("corr", correlation_dims, mu),
                ("frostman", frostman_slope, mu))
        for label, fit, arg in fits:
            for window in (None, 3):
                try:
                    st = fit(arg, None, window)
                except ValidationError as exc:
                    yield f"{name} {label} {window} error {exc}"
                    continue
                parts = [text((e.value, e.window, e.residual, e.variant,
                               e.npoints)) for e in (st.lower, st.upper,
                                                     st.full)]
                yield (f"{name} {label} {window} {' '.join(parts)} "
                       f"{st.window_len} {text(st.points)}")


def _sweep24():
    return constructions.sweep_set(constructions.sweep_plan(
        Fraction(2, 5), Fraction(7, 10)), 24)


# set trees whose one-child levels (as many cubes as the level above) get
# the planted defects of bad_trees
VALIDATION_TREES = {name: TREES[name] for name in (
    "cantor-8", "codes1-12", "codes2-6", "alternating24")}
VALIDATION_TREES["sweep24"] = _sweep24


def _defects(levels, d, n, i):
    """(label, level n's keys) for the defects planted at key i of level n:
    a key out of range above or below, two neighbours swapped, a key moved
    to a sibling of its neighbour (a childless parent above, the order
    kept), a key moved to a cube whose parent is not selected, and such an
    orphan added."""
    keys, above = levels[n], set(levels[n - 1])
    yield "range-high", keys[:i] + [1 << (d * n)] + keys[i + 1:]
    yield "range-low", keys[:i] + [-1] + keys[i + 1:]
    if len(keys) > 1:
        j = min(i, len(keys) - 2)
        yield "swap", keys[:j] + [keys[j + 1], keys[j]] + keys[j + 2:]
    # a sibling of key i in place of its neighbour on that side: on a
    # one-child level the neighbour's parent loses its only child, and the
    # order is kept
    sib = keys[i] ^ 1
    j = i + 1 if sib > keys[i] else i - 1
    if 0 <= j < len(keys) and keys[j] != sib:
        yield "childless", keys[:j] + [sib] + keys[j + 1:]
    lo = keys[i - 1] + 1 if i else 0
    hi = keys[i + 1] if i + 1 < len(keys) else 1 << (d * n)
    orphan = next((k for k in range(lo, min(hi, lo + 4096))
                   if k >> d not in above), None)
    if orphan is not None:
        yield "orphan", keys[:i] + [orphan] + keys[i + 1:]
        yield "orphan-added", sorted(keys + [orphan])


def bad_trees():
    """(name, levels, d): one defect on a one-child level at its first,
    middle and last key, and a defect on a one-child level together with
    one on a later branching level."""
    for name, make in VALIDATION_TREES.items():
        tree = make()
        lv, d = tree.levels, tree.d
        chained = [n for n in range(1, len(lv)) if len(lv[n]) == len(lv[n - 1])]
        branching = [n for n in range(1, len(lv)) if len(lv[n]) > len(lv[n - 1])]
        for n in chained:
            for i in sorted({0, len(lv[n]) // 2, len(lv[n]) - 1}):
                for label, keys in _defects(lv, d, n, i):
                    yield (f"{name} {label} {n} {i}",
                           lv[:n] + [keys] + lv[n + 1:], d)
        for n in chained:
            later = [m for m in branching if m > n][:2]
            for m in later:
                i, k = len(lv[n]) // 2, len(lv[m]) // 2
                for first, one in _defects(lv, d, n, i):
                    for second, two in _defects(lv, d, m, k):
                        levels = list(lv)
                        levels[n], levels[m] = one, two
                        yield (f"{name} {first} {n} {i} + {second} {m} {k}",
                               levels, d)


def validation_messages():
    for label, levels, d in bad_trees():
        tree = DyadicSetTree(d, len(levels) - 1, levels, None, {})
        try:
            tree.validate()
        except ValidationError as exc:
            yield f"{label} {exc}"
        else:
            yield f"{label} valid"


# measures whose tables get the planted defects of planted_masses: one-child
# and branching levels in 1-D and 2-D, equal splits, and atoms
MESSAGE_MEASURES = {
    "codes1-6/random": lambda: DyadicMeasureTree.random_split(
        DyadicSetTree.from_codes(1, 6, [0, 1, 4, 40]), random.Random(7)),
    "codes2-4/random": lambda: DyadicMeasureTree.random_split(
        DyadicSetTree.from_codes(2, 4, [3, 12, 200, 201]), random.Random(7)),
    "cantor-5/uniform": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.from_digit_ifs(1, 2, [0, 3], 5)),
    "full2-2/uniform": lambda: DyadicMeasureTree.uniform_on_set(
        DyadicSetTree.full(2, 2)),
    "atoms2": lambda: _atoms(2, 10, 12),
}


def planted_masses(mu):
    """(label, per-level Fraction tables, atoms) of mu with one defect
    each: none, a level dropped, root mass 1/2, a cube missing, a mass of
    0 or negated at the first, middle and last key of each level, an extra
    cube, a child's mass doubled under the first, the last or both parents
    of each level above, and for atoms two atom weights swapped."""
    masses = [dict(mu.level_masses(n)) for n in range(mu.max_depth + 1)]

    def edited(n, change):
        tbl = dict(masses[n])
        change(tbl)
        return masses[:n] + [tbl] + masses[n + 1:]

    yield "none", masses, mu.atoms
    yield "depth", masses[:-1], mu.atoms
    yield "root", edited(0, lambda t: t.update({0: Fraction(1, 2)})), mu.atoms
    levels = mu.support.levels
    for n, keys in enumerate(levels):
        for i in sorted({0, len(keys) // 2, len(keys) - 1}):
            k = keys[i]
            yield f"missing {n} {i}", edited(n, lambda t: t.pop(k)), mu.atoms
            yield f"zero {n} {i}", edited(
                n, lambda t: t.update({k: Fraction(0)})), mu.atoms
            yield f"negative {n} {i}", edited(
                n, lambda t: t.update({k: -t[k]})), mu.atoms
        extra = next(k for k in range(len(keys) + 1) if k not in keys)
        yield f"extra {n}", edited(
            n, lambda t: t.update({extra: Fraction(1, 7)})), mu.atoms
        if n:
            first, last = levels[n - 1][0], levels[n - 1][-1]
            for label, cut in (("first", {first}), ("last", {last}),
                               ("both", {first, last})):
                kids = [mu.support.children_keys(n - 1, pk)[0] for pk in cut]
                yield (f"conservation {label} {n}",
                       edited(n, lambda t: t.update({c: 2 * t[c]
                                                     for c in kids})),
                       mu.atoms)
    if mu.atoms:
        ws = [w for _, w in mu.atoms]
        i = next(i for i, w in enumerate(ws) if w != ws[0])
        ws[0], ws[i] = ws[i], ws[0]
        yield "atoms", masses, [(p, w) for (p, _), w in zip(mu.atoms, ws)]


def _message(build, *args):
    try:
        build(*args)
    except ValidationError as exc:
        return str(exc)
    return "valid"


def measure_messages():
    """The ValidationError text of from_masses and of measure_from_dict (a
    measure file's rows in the tables' order) on each planted defect, the
    tables in key order and reversed, of measure_from_dict on a file that
    lists a cube twice in one level, and of validate() on tables with one
    level scaled out of lowest terms."""
    for name, make in MESSAGE_MEASURES.items():
        mu = make()
        for label, masses, atoms in planted_masses(mu):
            for order in ("keys", "reversed"):
                if order == "reversed":
                    masses = [dict(reversed(t.items())) for t in masses]
                got = _message(DyadicMeasureTree.from_masses, mu.support,
                               masses, mu.leaf_model, atoms)
                yield f"{name} {label} {order} from_masses {got}"
                data = io.measure_to_dict(mu)
                data["masses"] = [[[k, format_rational(m)] for k, m in
                                   t.items()] for t in masses]
                if atoms is not None:
                    data["atoms"] = [[[format_rational(c) for c in p],
                                      format_rational(w)] for p, w in atoms]
                got = _message(io.measure_from_dict, data)
                yield f"{name} {label} {order} measure_from_dict {got}"
        for n, keys in enumerate(mu.support.levels):
            # a file's row for the last cube again, first in its level
            data = io.measure_to_dict(mu)
            data["masses"][n].insert(0, [keys[-1], "999/1000"])
            got = _message(io.measure_from_dict, data)
            yield f"{name} duplicate {n} measure_from_dict {got}"
        for n, (nums, den) in enumerate(mu.tables):
            tables = list(mu.tables)
            tables[n] = ([3 * m for m in nums], 3 * den)
            got = _message(DyadicMeasureTree(mu.support, mu.leaf_model,
                                             tables, mu.atoms).validate)
            yield f"{name} scaled {n} validate {got}"


def _ball_rows(name, mu, centres):
    """Every centre's exact ball mass and the ball bracket of an atomic
    measure, at radius 0, a few p/q 2^-k, and 2 (at least sqrt(d))."""
    for r in [Fraction(0)] + radii(4)[::3] + [Fraction(2)]:
        masses = [mu.ball_mass_atoms(x, r) for x in centres]
        yield f"{name} {r} {text(masses)}"
        if r:
            b = mu.ball_correlation_bracket(r)
            yield f"{name} {r} bracket {b.lower} {b.upper} {b.cap_level}"


def atom_ball_masses():
    """anti_frostman_check on the corpus's sets (2-D Sierpinski at depth 6
    among them), and on every atomic measure (random atoms in d = 1..3, an
    anti-Frostman measure, the level-n nets of the corpus written by
    `construct measure --kind net`) its atoms, ball masses at its atoms and
    a few other centres, and ball brackets; the net rows of
    correlation_sandwich; and a Fourier box estimate, whose candidates are
    nets, in float.hex."""
    sets = dict(TREES)
    sets["sierpinski-6"] = lambda: DyadicSetTree.from_digit_ifs(
        2, 1, [0, 1, 2], 6)
    for name in ("full1-10", "cantor-8", "codes1-12", "alternating24",
                 "sierpinski-5", "sierpinski-6", "codes2-6", "full2-5",
                 "full3-3", "codes3-4"):
        tree = sets[name]()
        top = min(tree.max_depth, 12)
        for lv in (range(1, top + 1), range(2, top + 1, 3)):
            rep = anti_frostman_check(tree, lv)
            yield (f"{name} anti-frostman {text(list(lv))} {rep['ok']} "
                   f"{rep['normalizer']} {text(rep['rows'])}")
    extra = [tuple(Fraction(k, 7) for k in (3, 5, 1)),
             tuple(Fraction(1, 1 << j) for j in (1, 3, 2))]
    atomic = {"atoms1": measure("atoms1"), "atoms2": measure("atoms2"),
              "atoms3": _atoms(3, 12, 13),
              "anti-frostman": measure("anti-frostman")}
    for name, mu in atomic.items():
        yield f"{name} atoms {text(mu.atoms)}"
        centres = [p for p, _ in mu.atoms] + [x[:mu.d] for x in extra]
        yield from _ball_rows(name, mu, centres)
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in TREES.items():
            tree = make()
            src, out = f"{tmp}/{name}.json", f"{tmp}/{name}.net.json"
            io.save_json(tree, src)
            for n in sorted({0, 1, tree.max_depth // 2, tree.max_depth}):
                with redirect_stdout(StringIO()):
                    code = cli.main(["construct", "measure", "--set", src,
                                     "--kind", "net", "--level", str(n),
                                     "--out", out])
                mu = io.load_json(out)
                body = text((mu.support.levels, mu.tables, mu.atoms,
                             mu.leaf_model, mu.meta, mu.support.meta))
                yield (f"{name} net {n} {code} "
                       f"{hashlib.sha256(body.encode()).hexdigest()}")
                centres = [p for p, _ in mu.atoms][:48] + [
                    x[:mu.d] for x in extra]
                yield from _ball_rows(f"{name} net {n}", mu, centres)
            rows = correlation_sandwich(tree, range(tree.max_depth + 1))
            yield f"{name} sandwich {rows['ok']} {text(rows['rows'])}"
    rep = fourier_box_estimate(sets["cantor-8"](),
                               [2.0 ** k for k in range(1, 7)])
    yield (f"fourier-box cantor-8 {rep.low_confidence} "
           f"{text(rep.curve.samples)} {text(rep.dims.full.value)}")


def frostman_stages():
    """stagewise_frostman_measures at s = 1/3 and 1/2 on the CLI's default
    radius ladder (2^-(k+2), k = 1..depth), all stages: stage levels and
    report rows, verify_stage_balls rows, and each stage measure's levels
    and tables; or the ConstructionError text where stage 1 is impossible.
    The codes trees, and copies of full1-10 and sierpinski-5 stripped of
    their metadata ("bare"), take the slope heuristic."""
    trees = {name: TREES[name]() for name in (
        "full1-10", "full2-5", "cantor-8", "sierpinski-5", "alternating24",
        "codes1-12", "codes2-6")}
    for name in ("full1-10", "sierpinski-5"):
        t = trees[name]
        trees[f"{name} bare"] = DyadicSetTree(t.d, t.max_depth, t.levels,
                                              None, {})
    for name, tree in trees.items():
        radii = [pow2(-(k + 2)) for k in range(1, tree.max_depth + 1)]
        for s in (Fraction(1, 3), Fraction(1, 2)):
            try:
                measures, rep = constructions.stagewise_frostman_measures(
                    tree, s, radii)
            except ConstructionError as exc:
                yield f"{name} {s} error {exc}"
                continue
            yield (f"{name} {s} {text(rep.stage_levels)} "
                   f"{text(rep.stage_radii)} {rep.heuristic_oracle} "
                   f"{rep.ok} {text(rep.rows)}")
            balls = constructions.verify_stage_balls(measures, rep)
            yield f"{name} {s} balls {balls['ok']} {text(balls['rows'])}"
            for mu in measures:
                yield (f"{name} {s} stage {text(mu.meta)} "
                       f"{text(mu.support.meta)} {text(mu.support.levels)} "
                       f"{text(mu.tables)}")


# the four inputs of the inequality-chain acceptance check
INEQ_SETS = {
    "ineq-cantor": lambda: DyadicSetTree.from_digit_ifs(1, 2, [0, 3], 12),
    "ineq-full": lambda: DyadicSetTree.full(1, 10),
    "ineq-alternating": lambda: constructions.alternating_set(
        constructions.alternating_plan(Fraction(2, 5), Fraction(7, 10),
                                       level_budget=10 ** 6), 24),
    "ineq-sweep": _sweep24,
}


def set_files():
    """Each corpus set and inequality-chain input saved and loaded back:
    its levels, parent runs, symbolic counts and meta."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in {**TREES, **INEQ_SETS}.items():
            path = f"{tmp}/{name}.json"
            io.save_json(make(), path)
            tree = io.load_json(path)
            sym = tree.symbolic.to_dict() if tree.symbolic else None
            yield (f"{name} {text(tree.levels)} {text(tree.parent_runs)} "
                   f"{text(sym)} {text(tree.meta)}")


def levels():
    for q in range(1, 41):
        for p in range(1, 2 * q + 1):
            for k in (0, 3, 9):
                r = Fraction(p, q << k)
                yield (f"{r} {level_for_radius(r)} "
                       f"{text([diameter_level(d, r) for d in (1, 2, 3)])}")


SECTIONS = {
    "split_tables": split_tables,
    "ball_brackets": ball_brackets,
    "packing_threshold": packing,
    "correlation_predicates": predicates,
    "slopes": slopes,
    "radius_levels": levels,
    "validation_messages": validation_messages,
    "measure_messages": measure_messages,
    "atom_ball_masses": atom_ball_masses,
    "frostman_stages": frostman_stages,
    "set_files": set_files,
}


def digest(section: str) -> str:
    body = "\n".join(SECTIONS[section]()) + "\n"
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_digest_section_unchanged(section):
    assert digest(section) == json.loads(DIGEST.read_text())[section]


def main() -> None:
    old = json.loads(DIGEST.read_text()) if DIGEST.exists() else {}
    new = {name: digest(name) for name in sorted(SECTIONS)}
    DIGEST.write_text(json.dumps(new, indent=1) + "\n")
    moved = [name for name in new if old.get(name) != new[name]]
    print("moved: " + (", ".join(moved) if moved else "none"))


if __name__ == "__main__":
    main()
