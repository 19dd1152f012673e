"""Serialization round trips and command-line driver behavior."""

import argparse
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from dimlab import io
from dimlab.cli import _check_lines, build_parser, main
from dimlab.constructions import (alternating_plan, alternating_set,
                                  stagewise_frostman_measures, sweep_plan,
                                  sweep_set)
from dimlab.exact import ValidationError, pow2
from dimlab.measure import DyadicMeasureTree, anti_frostman_measure
from dimlab.settree import DyadicSetTree
from oracles import oracle_measure_from_dict, oracle_measure_json, set_trees


def cantor_tree(depth=8):
    return DyadicSetTree.from_digit_ifs(1, group=2, keep=[0, 3], depth=depth)


# the four sets of the inequality-chain acceptance check
CHAIN_SETS = {
    "cantor": lambda: cantor_tree(12),
    "full": lambda: DyadicSetTree.full(1, 10),
    "alternating": lambda: alternating_set(alternating_plan(
        Fraction(2, 5), Fraction(7, 10), level_budget=10 ** 6), 24),
    "sweep": lambda: sweep_set(sweep_plan(Fraction(2, 5), Fraction(7, 10)),
                               24),
}


def old_layout(tree):
    """A set's payload in the layout that lists every level, as files were
    written before they stored only the leaves."""
    return {("levels" if k == "leaves" else k):
            ([list(lv) for lv in tree.levels] if k == "leaves" else v)
            for k, v in io.set_to_dict(tree).items()}


def meta_file(tmp_path, where, meta):
    """A depth-6 Cantor set's file, in either layout ("set", "old-layout"),
    or its uniform measure's, with `meta` as the measure's own meta
    ("measure") or its support's ("support")."""
    tree = cantor_tree(6)
    if where == "set":
        data = io.set_to_dict(tree)
    elif where == "old-layout":
        data = old_layout(tree)
    else:
        data = io.measure_to_dict(DyadicMeasureTree.uniform_on_set(tree))
    (data["support"] if where == "support" else data)["meta"] = meta
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    return p


def reread(data):
    """A set or measure payload loaded back from its JSON text."""
    text = json.dumps(io._encode(data, io._file_leaf))
    return io._LOADERS[data["type"]](json.loads(
        text, object_hook=io._decode))


def assert_same_set(back, tree):
    """back equals tree and came with the parent runs that the cached
    property builds."""
    assert (back.d, back.max_depth, back.levels, back.meta) == (
        tree.d, tree.max_depth, tree.levels, tree.meta)
    assert (back.symbolic and back.symbolic.to_dict()) == (
        tree.symbolic and tree.symbolic.to_dict())
    assert "parent_runs" in vars(back)  # filled by the load
    assert back.parent_runs == DyadicSetTree.parent_runs.func(tree)


def strict_json(text):
    """json.loads that refuses the non-JSON constants NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def tables(mu):
    """Every level's sorted (key, Fraction mass) rows."""
    return [mu.level_masses(n) for n in range(mu.max_depth + 1)]


class TestJsonRoundTrips:
    def test_set_round_trip_preserves_everything(self, tmp_path):
        tree = cantor_tree(8)
        tree.meta["ratio"] = Fraction(1, 3)
        p = tmp_path / "set.json"
        io.save_json(tree, p)
        assert json.loads(p.read_text())["meta"]["ratio"] == {
            "$rational": "1/3"}
        back = io.load_json(p)
        # a meta value JSON cannot hold is saved as its text
        tree.meta["z"] = 1j
        io.save_json(tree, p)
        assert io.load_json(p).meta["z"] == "1j"
        del tree.meta["z"]
        assert back.d == tree.d
        assert back.max_depth == tree.max_depth
        assert back.levels == tree.levels
        assert back.meta == tree.meta  # rational meta survives the tagging
        # symbolic extension works past the materialized depth
        assert back.box_count(40) == tree.box_count(40)

    @settings(max_examples=200, deadline=None, database=None)
    @given(set_trees())
    def test_set_payloads_load_with_their_runs(self, tree):
        # the leaves layout and the layout that lists every level load to
        # the same tree, with the runs that the cached property builds
        data = io.set_to_dict(tree)
        assert data["leaves"] == tree.levels[-1] and "levels" not in data
        for payload in (data, old_layout(tree)):
            assert_same_set(reread(payload), tree)

    @pytest.mark.parametrize("name", sorted(CHAIN_SETS))
    def test_chain_set_files_load_with_their_runs(self, tmp_path, name):
        tree = CHAIN_SETS[name]()
        p = tmp_path / f"{name}.json"
        io.save_json(tree, p)
        assert_same_set(io.load_json(p), tree)
        p.write_text(json.dumps(io._encode(old_layout(tree),
                                           io._file_leaf)))
        assert_same_set(io.load_json(p), tree)

    def test_sets_past_the_key_budget_round_trip(self, tmp_path):
        # an alternating set may be materialized past d*depth = 62 (its
        # keys are exact ints); its file loads in either layout
        tree = alternating_set(alternating_plan(Fraction(1, 20),
                                                Fraction(1, 10)), 80)
        assert tree.levels[-1][-1] >= 1 << 62
        p = tmp_path / "deep.json"
        for data in (io.set_to_dict(tree), old_layout(tree)):
            p.write_text(json.dumps(io._encode(data, io._file_leaf)))
            assert_same_set(io.load_json(p), tree)
        io.save_json(tree, p)
        assert_same_set(io.load_json(p), tree)

    def test_sweep_file_stores_only_its_leaves(self, tmp_path):
        # 2,052 leaves in place of the 20,575 keys of its 25 levels
        p = tmp_path / "sweep.json"
        io.save_json(CHAIN_SETS["sweep"](), p)
        assert len(json.loads(p.read_text())["leaves"]) == 2052
        assert p.stat().st_size <= 25000

    def test_save_is_idempotent(self, tmp_path):
        # the depth-24 alternating set and the sweep plan hold $bighex ints
        plan = alternating_plan(Fraction(2, 5), Fraction(7, 10))
        for obj in (cantor_tree(6), alternating_set(plan, 24), plan,
                    sweep_plan(Fraction(2, 5), Fraction(7, 10))):
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            io.save_json(obj, a)
            io.save_json(io.load_json(a), b)
            assert a.read_bytes() == b.read_bytes()

    def test_indented_files_still_load(self, tmp_path):
        # earlier versions wrote files with indent=1
        plan = sweep_plan(Fraction(2, 5), Fraction(7, 10))
        alt = alternating_set(alternating_plan(Fraction(2, 5),
                                               Fraction(7, 10)), 24)
        mu = DyadicMeasureTree.random_split(cantor_tree(5), random.Random(3))
        for obj, to_dict in ((plan, io.plan_to_dict), (alt, io.set_to_dict),
                             (mu, io.measure_to_dict)):
            old, new = tmp_path / "old.json", tmp_path / "new.json"
            old.write_text(json.dumps(
                io._encode(to_dict(obj), io._file_leaf), indent=1) + "\n")
            assert "\n " in old.read_text()
            back = io.load_json(old)
            assert to_dict(back) == to_dict(obj)
            io.save_json(back, new)
            assert json.loads(new.read_text()) == json.loads(old.read_text())

    def test_measure_round_trips(self, tmp_path):
        uni = DyadicMeasureTree.uniform_on_set(cantor_tree(6))
        atom = DyadicMeasureTree.atomic(
            [(Fraction(1, 3),), (Fraction(3, 4),)],
            [Fraction(1, 4), Fraction(3, 4)], 1, 5)
        for i, mu in enumerate((uni, atom)):
            p = tmp_path / f"mu{i}.json"
            io.save_json(mu, p)
            back = io.load_json(p)
            assert back.leaf_model == mu.leaf_model
            assert tables(back) == tables(mu)
            assert back.atoms == mu.atoms
            assert back.support.levels == mu.support.levels

    def test_unsorted_repeated_atoms_load_merged(self):
        # a hand-written file may list its atoms in any order and repeat a
        # point: it loads to the same measure, and is written back merged
        # and sorted, as every file dimlab writes
        mu = DyadicMeasureTree.atomic(
            [(Fraction(1, 3),), (Fraction(3, 4),)],
            [Fraction(1, 4), Fraction(3, 4)], 1, 5)
        data = io.measure_to_dict(mu)
        (low, _), (high, _) = data["atoms"]
        data["atoms"] = [[high, "1/2"], [low, "1/4"], [high, "1/4"]]
        back = io.measure_from_dict(data)
        assert (back.tables, back.atoms, back._atom_ints) == (
            mu.tables, mu.atoms, mu._atom_ints)
        assert io.measure_to_dict(back) == io.measure_to_dict(mu)

    def test_saved_measures_are_byte_identical(self, tmp_path):
        # pinned digests of the format-1 files of these measures: the
        # support's sorted leaves, lowest-terms "p/q" masses with the keys
        # of each level sorted
        stages, _ = stagewise_frostman_measures(
            DyadicSetTree.full(1, 8), Fraction(1, 2),
            [Fraction(1, 2 ** k) for k in range(2, 9)], stages=2)
        cases = {
            "uniform": (DyadicMeasureTree.uniform_on_set(cantor_tree(6)),
                        "d9402e15eb24f5c3f37aa5a266d6833e4957b54f931f24c7569f6597b0e43e0a"),
            "random_split": (DyadicMeasureTree.random_split(
                DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 3),
                random.Random(11)),
                "65bdd8650790edb04e26b67845b4cf5d3240635267df2f95c85d694697b103d7"),
            "atomic": (DyadicMeasureTree.atomic(
                [(Fraction(1, 3),), (Fraction(3, 4),), (Fraction(5, 7),)],
                [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)], 1, 5),
                "e6d22463a5d4d18dcaa0282ae3630df57b9673477b8da70cd8d92c91a9d592b7"),
            "stage": (stages[-1],
                      "560a7094af10c23e52be9043ae73e9e2645b6f111929dfd379c23671806e8633"),
        }
        for name, (mu, want) in cases.items():
            p = tmp_path / f"{name}.json"
            io.save_json(mu, p)
            text = p.read_text()
            value = json.loads(text)
            # files are compact; the digests are of the value re-rendered
            # in the indented layout files had before
            assert text == json.dumps(value, separators=(",", ":")) + "\n"
            layout = json.dumps(value, indent=1) + "\n"
            assert hashlib.sha256(layout.encode()).hexdigest() == want, name
            for n, level in enumerate(json.loads(p.read_text())["masses"]):
                assert [k for k, _ in level] == sorted(k for k, _ in level)
                for k, text in level:
                    num, den = map(int, text.split("/"))
                    assert math.gcd(num, den) == 1
                    assert Fraction(num, den) == mu.mass(n, k)
            back = io.load_json(p)
            assert back.tables == mu.tables, name
            assert tables(back) == tables(mu)
            # the same file with its support in the layout that lists
            # every level loads to the same measure
            twin = dict(value, support=old_layout(mu.support))
            for again in (back, reread(twin)):
                assert again.support.levels == mu.support.levels, name
                assert (again.tables, again.atoms, again.meta) == (
                    mu.tables, mu.atoms, mu.meta), name

    def test_measure_files_walk_only_support_and_meta(self, tmp_path):
        # masses and atoms are strings and mass keys are below 2^62, so
        # save_json tags wide ints in the support and meta only; the bytes
        # equal those of the walk over the whole payload, on a support
        # whose symbolic counts are wider than 2048 bits among others
        alt = alternating_set(alternating_plan(Fraction(2, 5),
                                               Fraction(7, 10)), 24)
        measures = {
            "alternating": DyadicMeasureTree.uniform_on_set(alt),
            "random": DyadicMeasureTree.random_split(
                DyadicSetTree.full(1, 10), random.Random(1)),
            "atomic": DyadicMeasureTree.atomic(
                [(Fraction(1, 3),), (Fraction(3, 4),)],
                [Fraction(1, 4), Fraction(3, 4)], 1, 5),
            "anti-frostman": anti_frostman_measure(cantor_tree(8),
                                                   [2, 4, 6])[0],
        }
        for name, mu in measures.items():
            p = tmp_path / f"{name}.json"
            io.save_json(mu, p)
            want = json.dumps(io._encode(io.measure_to_dict(mu),
                                         io._file_leaf),
                              separators=(",", ":")) + "\n"
            assert p.read_text() == want, name
        assert '"$bighex"' in (tmp_path / "alternating.json").read_text()

    def test_rows_from_numerators_match_fraction_rows(self, tmp_path):
        # measure files format each row from its numerator by one gcd; the
        # bytes equal those of one Fraction per row, on uniform (one-child
        # chains sharing rows), random-split, atomic and construction
        # measures
        stages, _ = stagewise_frostman_measures(
            DyadicSetTree.full(1, 8), Fraction(1, 2),
            [Fraction(1, 2 ** k) for k in range(2, 9)], stages=2)
        sweep = sweep_set(sweep_plan(Fraction(2, 5), Fraction(7, 10)), 24)
        measures = [
            DyadicMeasureTree.uniform_on_set(cantor_tree(6)),
            DyadicMeasureTree.uniform_on_set(sweep),
            DyadicMeasureTree.random_split(DyadicSetTree.full(1, 10),
                                           random.Random(1)),
            DyadicMeasureTree.random_split(
                DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 4),
                random.Random(2)),
            DyadicMeasureTree.random_split(sweep, random.Random(3)),
            DyadicMeasureTree.atomic(
                [(Fraction(1, 3),), (Fraction(3, 4),), (Fraction(5, 7),)],
                [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)], 1, 5),
            anti_frostman_measure(cantor_tree(8), [2, 4, 6])[0],
            stages[0], stages[-1]]
        for i, mu in enumerate(measures):
            p = tmp_path / f"mu{i}.json"
            io.save_json(mu, p)
            assert p.read_text() == oracle_measure_json(mu), i

    def test_legacy_equal_split_measure_loads_with_tables(self, tmp_path):
        # format-1 files of uniform measures carried no tables
        for tree in (cantor_tree(6),
                     DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 4)):
            uni = DyadicMeasureTree.uniform_on_set(tree)
            legacy = io.measure_to_dict(uni)
            legacy.update(mass_rule="equal_split", masses=None)
            old = tmp_path / "legacy.json"
            old.write_text(json.dumps(legacy))
            back = io.load_json(old)
            assert tables(back) == tables(uni)
            assert back.meta == {"kind": "uniform_on_set"}
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            io.save_json(back, a)
            saved = json.loads(a.read_text())
            assert saved["mass_rule"] == "explicit"
            assert saved == io.measure_to_dict(uni)
            io.save_json(io.load_json(a), b)
            assert a.read_bytes() == b.read_bytes()

    def test_mass_rows_load_as_one_fraction_per_row(self):
        # measure files load their rows on ints; every row text, canonical
        # or not, valid or not, gives the measure or the error that one
        # parse_rational Fraction per row gives
        mu = DyadicMeasureTree.random_split(
            DyadicSetTree.from_codes(2, 4, [3, 12, 200, 201]),
            random.Random(4))
        base = io.measure_to_dict(mu)

        def outcome(load, data):
            try:
                got = load(data)
            except Exception as exc:  # the error text is the outcome
                return repr(exc)
            return got.support.levels, got.tables

        for n, level in enumerate(base["masses"]):
            for i in sorted({0, len(level) // 2, len(level) - 1}):
                p, q = map(int, level[i][1].split("/"))
                for text in (f"{2 * p}/{2 * q}", f" {p} / {q} ",
                             f"-{p}/-{q}", f"{p}/-{q}", f"-{p}/{q}",
                             f"{p}", f"{q}/{q}", f"0/{q}", f"{p}/0",
                             f"{p}/{q}/1", f"{p}.0/{q}", "", "x/y",
                             f"+{p}/{q}", f"{p:_}/{q}", 3):
                    data = json.loads(json.dumps(base))
                    data["masses"][n][i][1] = text
                    assert outcome(io.measure_from_dict, data) == outcome(
                        oracle_measure_from_dict, data), (n, i, text)
        assert outcome(io.measure_from_dict, base) == (mu.support.levels,
                                                       mu.tables)

    def test_plan_round_trips(self, tmp_path):
        for plan in (alternating_plan(Fraction(2, 5), Fraction(7, 10)),
                     sweep_plan(Fraction(2, 5), Fraction(7, 10))):
            p = tmp_path / "plan.json"
            io.save_json(plan, p)
            assert io.load_json(p) == plan

    def test_dicts_round_trip_without_json_text(self):
        # X_from_dict(X_to_dict(x)) gives x back with no file in between:
        # rationals in meta and counts wider than 2048 bits included
        tree = alternating_set(alternating_plan(Fraction(2, 5),
                                                Fraction(7, 10)), 24)
        tree.meta["r"] = Fraction(1, 3)
        data = io.set_to_dict(tree)
        assert max(data["symbolic"]["segments"][-1].values()
                   ).bit_length() > 2048
        back = io.set_from_dict(data)
        assert (back.levels, back.meta) == (tree.levels, tree.meta)
        assert back.symbolic.to_dict() == tree.symbolic.to_dict()
        for plan in (alternating_plan(Fraction(2, 5), Fraction(7, 10)),
                     sweep_plan(Fraction(2, 5), Fraction(7, 10))):
            assert io.plan_from_dict(io.plan_to_dict(plan)) == plan
        assert max(plan.counts_at_stage).bit_length() > 2048
        mu = DyadicMeasureTree.atomic(
            [(Fraction(1, 3),), (Fraction(3, 4),)],
            [Fraction(1, 4), Fraction(3, 4)], 1, 5)
        mu.meta["w"] = Fraction(2, 7)
        back = io.measure_from_dict(io.measure_to_dict(mu))
        assert (back.tables, back.atoms, back.meta) == (
            mu.tables, mu.atoms, mu.meta)

    def test_dict_readers_reject_other_payloads(self):
        data = io.set_to_dict(cantor_tree(4))
        with pytest.raises(ValidationError, match="not a serialized measure"):
            io.measure_from_dict(data)
        with pytest.raises(ValidationError, match="not a serialized plan"):
            io.plan_from_dict(data)
        with pytest.raises(ValidationError,
                           match="not a serializable plan: DyadicSetTree"):
            io.plan_to_dict(cantor_tree(4))

    def test_huge_counts_survive_as_hex(self, tmp_path):
        # segment anchors deep in the schedule exceed any float or int64
        plan = alternating_plan(Fraction(2, 5), Fraction(7, 10))
        tree = alternating_set(plan, 24)
        p = tmp_path / "alt.json"
        io.save_json(tree, p)
        assert '"$bighex"' in p.read_text()
        back = io.load_json(p)
        lvl = 105766
        assert back.box_count(lvl) == tree.box_count(lvl)
        assert tree.box_count(lvl).bit_length() > 2048

    def test_load_rejects_junk(self, tmp_path):
        with pytest.raises(ValidationError):
            io.load_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            io.load_json(bad)
        unknown = tmp_path / "unknown.json"
        unknown.write_text('{"type": "widget"}')
        with pytest.raises(ValidationError):
            io.load_json(unknown)

    def test_save_rejects_unknown_objects(self, tmp_path):
        with pytest.raises(ValidationError):
            io.save_json(object(), tmp_path / "x.json")


class TestCsv:
    def test_points_from_csv(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n# corner points\n1/3,1/2\n\n0.9,0.9\n")
        tree = io.points_from_csv(p, 2, 3)
        assert tree.d == 2 and tree.max_depth == 3
        assert len(tree.levels[3]) == 2

    def test_points_csv_errors(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.5,0.5\n0.25\n")
        with pytest.raises(ValidationError):
            io.points_from_csv(p, 2, 4)
        p.write_text("0.5,0.5\n0.25,abc\n")  # a header is only line 1
        with pytest.raises(ValidationError, match="bad coordinate 'abc'"):
            io.points_from_csv(p, 2, 4)
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\n")
        with pytest.raises(ValidationError):
            io.points_from_csv(empty, 1, 4)

    def test_curve_to_csv_accepts_tuples_and_samples(self, tmp_path):
        p = tmp_path / "curve.csv"
        io.curve_to_csv([(1, 0.5, 0.01), (2, 0.25, 0.005)], p)
        lines = p.read_text().splitlines()
        assert lines[0] == "scale,value,err"
        assert lines[1] == "1,0.5,0.01"
        io.curve_to_csv([{"R": 2.0, "value": 3.5, "err": 0.1}], p)
        assert p.read_text().splitlines()[1] == "2.0,3.5,0.1"


class TestReportJson:
    def test_dataclass_report(self):
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(6))
        br = mu.energy_bracket(Fraction(1, 3), refine_depth=2)
        data = json.loads(io.report_to_json(br))
        assert data["s"] == "1/3"
        assert data["lower"] <= data["upper"]

    def test_dict_report_with_path(self, tmp_path):
        p = tmp_path / "rep.json"
        text = io.report_to_json({"ok": True, "ratio": Fraction(3, 7)}, p)
        assert json.loads(p.read_text()) == json.loads(text)
        assert json.loads(text)["ratio"] == "3/7"

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError):
            io.report_to_json(42)

    def test_bigint_tagging_boundary(self):
        # ints of more than 2048 bits are tagged, in flat int lists and
        # nested alike; the loader's hook turns the tags back into ints
        edge, big = 2 ** 2048 - 1, 2 ** 2048
        report = {"plain": [1, edge, -edge], "tagged": [1, big],
                  "negative": [-big, 0], "nested": {"a": {"b": big},
                                                    "c": edge, "d": -big}}
        text = io.report_to_json(report)
        data = json.loads(text)
        assert data["plain"] == [1, edge, -edge]
        assert data["tagged"] == [1, {"$bighex": hex(big)}]
        assert data["negative"] == [{"$bighex": hex(-big)}, 0]
        assert data["nested"] == {"a": {"b": {"$bighex": hex(big)}},
                                  "c": edge, "d": {"$bighex": hex(-big)}}
        assert json.loads(text, object_hook=io._decode) == report

    def test_wide_fraction_is_tagged_hex(self):
        # a Fraction with a part wider than 2048 bits is written as the
        # hex of both parts, not as a p/q string
        wide = Fraction(1, 2 ** 2048)
        data = json.loads(io.report_to_json({"f": wide, "g": Fraction(1, 3)}))
        assert data == {"f": {"$bighex": ["0x1", hex(2 ** 2048)]}, "g": "1/3"}

    def test_dataclass_inside_dict_report_writes_its_fields(self):
        # as `verify frostman-stages --json` nests its stage report
        mu = DyadicMeasureTree.uniform_on_set(cantor_tree(6))
        br = mu.energy_bracket(Fraction(1, 3), refine_depth=2)
        data = json.loads(io.report_to_json({"bracket": br, "ok": True}))
        assert data == {"bracket": json.loads(io.report_to_json(br)),
                        "ok": True}
        assert data["bracket"]["s"] == "1/3"

    def test_non_finite_floats_are_null(self, tmp_path):
        # bare Infinity and NaN are not JSON; files and reports write null
        inf = math.inf
        text = io.report_to_json({"v": inf, "w": [-inf, math.nan, 0.5],
                                  "z": complex(inf, 1)})
        assert strict_json(text) == {"v": None, "w": [None, None, 0.5],
                                     "z": {"re": None, "im": 1.0}}
        tree = cantor_tree(4)
        tree.meta["x"] = -inf
        io.save_json(tree, tmp_path / "set.json")
        text = (tmp_path / "set.json").read_text()
        assert strict_json(text)["meta"]["x"] is None

    def test_other_values_are_written_as_text(self):
        path = Path("a") / "b"
        assert json.loads(io.report_to_json({"path": path})) == {
            "path": str(path)}

    def test_bool_in_int_list_stays_bool(self):
        text = io.report_to_json({"xs": [1, True, 2], "flags": [False]})
        assert text == '{"xs":[1,true,2],"flags":[false]}'

    @pytest.mark.skipif(json.encoder.c_make_encoder is None,
                        reason="json's C encoder is not available")
    def test_files_and_reports_use_the_c_encoder(self, tmp_path,
                                                 monkeypatch):
        def python_encoder(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        for obj in (cantor_tree(5),
                    DyadicMeasureTree.uniform_on_set(cantor_tree(5)),
                    alternating_plan(Fraction(2, 5), Fraction(7, 10)),
                    sweep_plan(Fraction(2, 5), Fraction(7, 10))):
            p = tmp_path / "obj.json"
            io.save_json(obj, p)
            assert io.load_json(p) is not None
        big = 1 << 3000
        text = io.report_to_json({"ratio": Fraction(3, 7), "z": 1 + 2j,
                                  "big": big}, tmp_path / "rep.json")
        assert json.loads(text, object_hook=io._decode) == {
            "ratio": "3/7", "z": {"re": 1.0, "im": 2.0}, "big": big}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def cantor_file(tmp_path):
    p = tmp_path / "cantor.json"
    io.save_json(cantor_tree(9), p)
    return str(p)


class TestCliConstruct:
    def test_ifs_then_box_estimate(self, tmp_path, capsys):
        out = tmp_path / "set.json"
        code, text, _ = run_cli(capsys, "construct", "ifs", "--base", "4",
                                "--keep", "0,3", "--depth", "8",
                                "--out", str(out))
        assert code == 0 and out.exists()
        jout = tmp_path / "rep.json"
        cout = tmp_path / "fit.csv"
        code, text, _ = run_cli(capsys, "estimate", "box", "--in", str(out),
                                "--json", str(jout), "--csv", str(cout))
        assert code == 0
        assert "box: full=" in text
        # default window 1..8 includes the odd-level staircase treads
        assert json.loads(jout.read_text())["full"] == pytest.approx(0.5,
                                                                     abs=0.03)
        assert cout.read_text().startswith("level,log2_count")

    def test_alternating_artifacts(self, tmp_path, capsys):
        args = ["construct", "alternating", "--dim-low", "2/5",
                "--dim-high", "7/10", "--depth", "12",
                "--out", str(tmp_path / "set.json"),
                "--plan-out", str(tmp_path / "plan.json"),
                "--stage", "1", "--measure-out", str(tmp_path / "mu.json")]
        code, text, _ = run_cli(capsys, *args)
        assert code == 0
        assert "(depth 12, 128 leaf cubes)" in text
        assert isinstance(io.load_json(tmp_path / "mu.json"),
                          DyadicMeasureTree)

    def test_alternating_set_past_the_key_budget_loads(self, tmp_path,
                                                        capsys):
        out = str(tmp_path / "deep.json")
        code, text, _ = run_cli(capsys, "construct", "alternating",
                                "--dim-low", "1/20", "--dim-high", "1/10",
                                "--depth", "80", "--out", out)
        assert code == 0 and "(depth 80, 8 leaf cubes)" in text
        code, text, _ = run_cli(capsys, "verify", "ineq-chain", "--in", out)
        assert code == 0 and "ineq-chain: PASS" in text

    def test_alternating_out_needs_depth(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "construct", "alternating",
                               "--dim-low", "2/5", "--dim-high", "7/10",
                               "--out", str(tmp_path / "set.json"))
        assert code == 2
        assert "--depth" in err

    def test_sweep_set(self, tmp_path, capsys):
        code, text, _ = run_cli(capsys, "construct", "sweep",
                                "--dim-low", "2/5", "--dim-high", "7/10",
                                "--depth", "8",
                                "--out", str(tmp_path / "sweep.json"))
        assert code == 0
        assert "(depth 8, 12 leaf cubes)" in text

    def test_ifs_rejects_non_power_base(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "construct", "ifs", "--base", "3",
                               "--keep", "0", "--depth", "4",
                               "--out", str(tmp_path / "x.json"))
        assert code == 2 and "power of two" in err

    def test_net_measure(self, tmp_path, cantor_file, capsys):
        out = tmp_path / "net.json"
        code, text, _ = run_cli(capsys, "construct", "measure",
                                "--set", cantor_file, "--kind", "net",
                                "--level", "4", "--out", str(out))
        assert code == 0
        mu = io.load_json(out)
        assert mu.leaf_model == "atoms" and len(mu.atoms) == 4

    def test_net_measure_defaults_to_the_deepest_level(self, tmp_path,
                                                      cantor_file, capsys):
        out = tmp_path / "net.json"
        code, text, _ = run_cli(capsys, "construct", "measure", "--set",
                                cantor_file, "--kind", "net",
                                "--out", str(out))
        assert (code, text) == (0, f"wrote {out} (net measure, depth 9)\n")
        at9 = tmp_path / "net9.json"
        assert run_cli(capsys, "construct", "measure", "--set", cantor_file,
                       "--kind", "net", "--level", "9",
                       "--out", str(at9))[0] == 0
        assert out.read_bytes() == at9.read_bytes()

    def test_anti_frostman_measure(self, tmp_path, cantor_file, capsys):
        out = tmp_path / "af.json"
        code, text, _ = run_cli(capsys, "construct", "measure",
                                "--set", cantor_file, "--kind",
                                "anti-frostman", "--net-levels", "2,4",
                                "--out", str(out))
        assert code == 0 and "(anti-frostman measure, depth 9)" in text
        assert io.load_json(out).tables == anti_frostman_measure(
            cantor_tree(9), [2, 4])[0].tables

    def test_uniform_measure(self, tmp_path, cantor_file, capsys):
        out = tmp_path / "uniform.json"
        code, text, _ = run_cli(capsys, "construct", "measure",
                                "--set", cantor_file, "--kind", "uniform",
                                "--out", str(out))
        assert code == 0 and "(uniform measure, depth 9)" in text
        assert io.load_json(out).tables == DyadicMeasureTree.uniform_on_set(
            cantor_tree(9)).tables

    @pytest.mark.parametrize("argv, want", [
        (["construct", "measure", "--set", "{cantor}",
          "--kind", "anti-frostman", "--out", "{out}"],
         "--net-levels required for anti-frostman"),
        (["construct", "alternating", "--dim-low", "2/5", "--dim-high", "7/10",
          "--measure-out", "{out}"], "--stage is required with --measure-out"),
    ], ids=["anti-frostman-net-levels", "measure-out-stage"])
    def test_missing_companion_option(self, tmp_path, cantor_file, capsys,
                                      argv, want):
        out = tmp_path / "mu.json"
        code, _, err = run_cli(capsys, *[a.format(cantor=cantor_file, out=out)
                                         for a in argv])
        assert (code, err) == (2, f"error: {want}\n")
        assert not out.exists()

    def test_points_command(self, tmp_path, capsys):
        csv_path = tmp_path / "pts.csv"
        csv_path.write_text("0.1\n0.6\n0.9\n")
        code, text, _ = run_cli(capsys, "construct", "points",
                                "--csv", str(csv_path), "--snap-depth", "3",
                                "--out", str(tmp_path / "p.json"))
        assert code == 0 and "3 occupied" in text

    def test_ifs_rejects_zero_base(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "construct", "ifs", "--base", "0",
                               "--keep", "0", "--depth", "4",
                               "--out", str(tmp_path / "x.json"))
        assert code == 2 and "power of two" in err

    def test_ifs_rejects_non_integer_keep(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "construct", "ifs", "--base", "4",
                               "--keep", "x,1", "--depth", "4",
                               "--out", str(tmp_path / "x.json"))
        assert code == 2 and "--keep" in err

    def test_points_missing_csv_is_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "construct", "points",
                               "--csv", str(tmp_path / "missing.csv"),
                               "--snap-depth", "3",
                               "--out", str(tmp_path / "p.json"))
        assert code == 2 and "cannot read" in err


class TestCliEstimate:
    def test_corr_and_frostman(self, cantor_file, capsys):
        for sub in ("corr", "frostman"):
            code, text, _ = run_cli(capsys, "estimate", sub,
                                    "--in", cantor_file,
                                    "--levels", "3..9")
            assert code == 0
            assert f"{sub}: full=0.5" in text

    def test_energy(self, cantor_file, capsys):
        code, text, _ = run_cli(capsys, "estimate", "energy",
                                "--in", cantor_file, "--s", "1/3",
                                "--rmax", "512")
        assert code == 0 and "energy s=1/3:" in text

    def test_one_octave_energy_is_refused(self, tmp_path, capsys):
        # it printed "diverged (decay exponent -0.000)" and exited 0
        p = tmp_path / "cantor.json"
        io.save_json(cantor_tree(10), p)
        code, text, err = run_cli(capsys, "estimate", "energy", "--in",
                                  str(p), "--s", "1/3", "--rmax", "0.1")
        assert (code, text) == (2, "")
        assert err == ("error: r_max must be finite and leave the two octave "
                       "segments past the head cut 0.0625 that the decay "
                       "fit needs\n")

    def test_diverged_energy_report_is_json(self, tmp_path, cantor_file,
                                            capsys):
        # its value and error were written as bare Infinity
        rep = tmp_path / "energy.json"
        code, text, _ = run_cli(capsys, "estimate", "energy", "--in",
                                cantor_file, "--s", "3/4", "--rmax", "512",
                                "--json", str(rep))
        assert code == 0 and "diverged" in text
        data = strict_json(rep.read_text())
        assert (data["value"], data["err"], data["diverged"]) == (
            None, None, True)

    def test_energy_error_prints_as_estimate(self, tmp_path, capsys):
        # err is a Richardson estimate, not a bound: the text must not
        # read as one
        p = tmp_path / "full.json"
        io.save_json(DyadicSetTree.full(1, 4), p)
        code, text, _ = run_cli(capsys, "estimate", "energy", "--in", str(p),
                                "--s", "1/2", "--rmax", "512")
        assert code == 0 and "est. err ~" in text and "err<=" not in text

    def test_fourier_corr_with_csv(self, tmp_path, cantor_file, capsys):
        cout = tmp_path / "curve.csv"
        code, text, _ = run_cli(capsys, "estimate", "fourier-corr",
                                "--in", cantor_file,
                                "--scales", "2^1..2^8", "--csv", str(cout))
        assert code == 0 and "fourier-corr: full=" in text
        assert len(cout.read_text().splitlines()) == 9

    def test_fourier_corr_reports_an_exhausted_budget(self, tmp_path,
                                                      capsys):
        p = tmp_path / "cantor.json"
        io.save_json(cantor_tree(10), p)
        code, text, _ = run_cli(capsys, "estimate", "fourier-corr", "--in",
                                str(p), "--scales", "2^1..2^4",
                                "--rel-tol", "1e-14")
        assert code == 0
        assert "  quadrature budget exhausted on some samples\n" in text

    def test_fourier_corr_on_few_octaves_is_low_confidence(
            self, tmp_path, cantor_file, capsys):
        # plain rational scales; 2..6 spans log2(3) < 4 octaves
        jout = tmp_path / "rep.json"
        code, text, _ = run_cli(capsys, "estimate", "fourier-corr",
                                "--in", cantor_file, "--scales", "2,3,4,6",
                                "--json", str(jout))
        assert code == 0 and "points=4" in text
        assert "  low confidence: fewer than 4 octaves or points\n" in text
        assert json.loads(jout.read_text())["low_confidence"] is True

    @pytest.mark.parametrize("tree", [
        cantor_tree(6), DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 3)],
        ids=["cantor6", "sierpinski3"])
    @pytest.mark.parametrize("cmd, flag, value", [
        ("energy", "--rmax", "0.01"),  # below the head cut 1/16
        ("energy", "--rmax", "0.1"),  # one octave past the head cut
        ("energy", "--rmax", "-5"),
        ("energy", "--rmax", "nan"),
        ("energy", "--rmax", "inf"),
        ("energy", "--rel-tol", "0"),
        ("energy", "--rel-tol", "-1"),
        ("energy", "--rel-tol", "nan"),
        ("fourier-corr", "--rel-tol", "0"),
        ("fourier-corr", "--rel-tol", "-1"),
        ("fourier-corr", "--rel-tol", "nan"),
    ])
    def test_bad_quadrature_args_are_validation_errors(
            self, tmp_path, capsys, tree, cmd, flag, value):
        p = tmp_path / "set.json"
        io.save_json(tree, p)
        extra = ["--s", "1/3"] if cmd == "energy" else []
        code, _, err = run_cli(capsys, "estimate", cmd, "--in", str(p),
                               *extra, f"{flag}={value}")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "fourier-corr", "--scales", "2^1100"],
        ["estimate", "fourier-corr", "--scales", "2^1..2^1100"],
        ["estimate", "fourier-corr", "--scales", "2^-1100"],
        ["estimate", "fourier-box", "--scales", "2^1100"],
        ["verify", "fourier-sandwich", "--eps", "1/5",
         "--scales", "2^-1..2^-1100"],
    ], ids=["corr-overflow", "corr-range-overflow", "corr-underflow",
            "box-overflow", "sandwich-underflow"])
    def test_malformed_fourier_scales_are_validation_errors(
            self, cantor_file, capsys, argv):
        code, text, err = run_cli(capsys, *argv, "--in", cantor_file)
        assert code == 2 and "error:" in err
        assert "PASS" not in text

    def test_fourier_box(self, tmp_path, cantor_file, capsys):
        jout = tmp_path / "rep.json"
        code, text, _ = run_cli(capsys, "estimate", "fourier-box",
                                "--in", cantor_file, "--scales", "2^1..2^8",
                                "--json", str(jout))
        assert code == 0 and text.startswith("fourier-box: full=")
        rep = json.loads(jout.read_text())
        assert len(rep["dims"]["points"]) == 8
        assert set(rep) == {"dims", "low_confidence"}

    @pytest.mark.parametrize("argv, want", [
        (["estimate", "box", "--levels", "5..3"],
         "argument --levels: bad level list '5..3'"),
        (["estimate", "fourier-corr", "--scales", ","],
         "argument --scales: empty scale list ','"),
        (["estimate", "fourier-corr", "--scales", "2^1..8"],
         "argument --scales: range form must be 2^a..2^b, got '2^1..8'"),
        (["estimate", "fourier-corr", "--scales", "2^x"],
         "argument --scales: bad rational literal '2^x'"),
    ], ids=["reversed-levels", "empty-scales", "half-range", "bad-power"])
    def test_malformed_lists_are_usage_errors(self, cantor_file, capsys,
                                              argv, want):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--in", cantor_file])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {want}\n")

    @pytest.mark.parametrize("cmd, want", [("box", "set"),
                                           ("corr", "measure")])
    def test_plan_file_is_not_a_set_or_measure(self, tmp_path, capsys, cmd,
                                               want):
        p = tmp_path / "plan.json"
        io.save_json(sweep_plan(Fraction(2, 5), Fraction(7, 10)), p)
        code, text, err = run_cli(capsys, "estimate", cmd, "--in", str(p))
        assert (code, text, err) == (
            2, "", f"error: {p} holds a plan, not a {want}\n")

    @pytest.mark.parametrize("cmd", ["fourier-corr", "fourier-box"])
    def test_fourier_estimates_reject_levels(self, cantor_file, capsys, cmd):
        # the transform slopes fit every scale in --scales; a level list
        # would be ignored, so the parser refuses it
        with pytest.raises(SystemExit) as exc:
            main(["estimate", cmd, "--in", cantor_file,
                  "--scales", "2^1..2^6", "--levels", "3..5"])
        assert exc.value.code == 2
        assert "--levels" in capsys.readouterr().err

    def test_missing_input_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "box",
                               "--in", "/nonexistent.json")
        assert code == 2 and "error:" in err

    def _estimate_box(self, capsys, tmp_path, payload):
        p = tmp_path / "in.json"
        p.write_text(payload if isinstance(payload, str)
                     else json.dumps(payload))
        return run_cli(capsys, "estimate", "box", "--in", str(p))

    @pytest.mark.parametrize("kind, edit, want", [
        ("measure", lambda data: data.update(leaf_model="gaussian"),
         "unknown leaf model 'gaussian'"),
        ("set", lambda data: data.update(symbolic={"kind": "spiral"}),
         "unknown symbolic counts kind 'spiral'"),
        ("measure", lambda data: data.update(support=io.plan_to_dict(
            sweep_plan(Fraction(2, 5), Fraction(7, 10)))),
         "not a serialized set"),
    ], ids=["leaf-model", "symbolic-kind", "support-not-a-set"])
    def test_malformed_fields_are_validation_errors(self, tmp_path, capsys,
                                                    kind, edit, want):
        tree = cantor_tree(4)
        data = (io.set_to_dict(tree) if kind == "set" else
                io.measure_to_dict(DyadicMeasureTree.uniform_on_set(tree)))
        edit(data)
        code, text, err = self._estimate_box(capsys, tmp_path, data)
        assert (code, text, err) == (2, "", f"error: {want}\n")

    def test_set_without_fields_is_validation_error(self, tmp_path, capsys):
        for payload in ('{"type": "set"}', '{"type": "set", "version": 1}'):
            code, _, err = self._estimate_box(capsys, tmp_path, payload)
            assert code == 2 and "error:" in err

    def test_non_object_payload_is_validation_error(self, tmp_path, capsys):
        code, _, err = self._estimate_box(capsys, tmp_path, "[1, 2]")
        assert code == 2 and "JSON object" in err

    def test_non_integer_level_key_is_validation_error(self, tmp_path,
                                                       capsys):
        data = io.set_to_dict(cantor_tree(4))
        data["leaves"][0] = "x"
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "malformed set payload" in err

    @pytest.mark.parametrize("value", [1.9, 1.0, True, "1"])
    @pytest.mark.parametrize("field", ["key", "d", "max_depth"])
    def test_set_fields_must_be_json_integers(self, tmp_path, capsys, field,
                                              value):
        # cube keys, d and max_depth are JSON integers: a float, bool or
        # string is not read as an int (1.9 was read as 1)
        data = io.set_to_dict(cantor_tree(4))
        if field == "key":
            data["leaves"][1] = value
        else:
            data[field] = value
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "malformed set payload" in err

    def test_float_level_key_is_not_truncated(self, tmp_path):
        p = tmp_path / "set.json"
        p.write_text(json.dumps({"type": "set", "version": 1, "d": 1,
                                 "max_depth": 1, "levels": [[0], [0, 1.9]],
                                 "symbolic": None, "meta": {}}))
        with pytest.raises(ValidationError, match="malformed set payload"):
            io.load_json(p)
        p.write_text(p.read_text().replace("1.9", "1"))
        assert io.load_json(p).levels == [[0], [0, 1]]

    @pytest.mark.parametrize("edit, want", [
        (lambda ks: [ks[1], ks[0], *ks[2:]], "level 6 keys not strictly sorted"),
        (lambda ks: [ks[0], *ks], "level 6 keys not strictly sorted"),
        (lambda ks: [*ks[:-1], 64], "key 64 out of range at level 6"),
        (lambda ks: [-1, *ks], "key -1 out of range at level 6"),
        (lambda ks: [], "empty cube family"),
    ], ids=["unsorted", "duplicate", "range-high", "range-low", "empty"])
    def test_defective_leaves_are_validation_errors(self, tmp_path, capsys,
                                                    edit, want):
        # a defect of the leaves gives the text validate() gives for it at
        # the deepest level, as the same edit does in the layout that lists
        # every level (where no leaves are validate's text for a childless
        # parent)
        tree = cantor_tree(6)
        data, old = io.set_to_dict(tree), old_layout(tree)
        data["leaves"] = old["levels"][-1] = edit(data["leaves"])
        got = self._estimate_box(capsys, tmp_path, data)
        assert got == (2, "", f"error: {want}\n")
        if data["leaves"]:
            assert self._estimate_box(capsys, tmp_path, old) == got
        else:
            assert self._estimate_box(capsys, tmp_path, old) == (
                2, "", "error: cube 0 at level 5 has no selected child\n")

    @pytest.mark.parametrize("value", [1.0, True, "1"])
    def test_measure_mass_keys_must_be_json_integers(self, tmp_path, capsys,
                                                     value):
        data = io.measure_to_dict(
            DyadicMeasureTree.uniform_on_set(cantor_tree(4)))
        assert data["masses"][1][1][0] == 1
        data["masses"][1][1][0] = value
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "malformed measure payload" in err

    @pytest.mark.parametrize("tag", [5, "0xnothex"])
    def test_malformed_bighex_tag_is_validation_error(self, tmp_path, capsys,
                                                      tag):
        data = io.set_to_dict(cantor_tree(4))
        data["leaves"][0] = {"$bighex": tag}
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("where, tag", [
        ("meta", {"$rational": 5}), ("meta", {"$rational": "x/"}),
        ("meta", {"$bighex": "zz"}), ("meta", {"$bighex": 5}),
        ("leaves", {"$rational": "1/2"})])
    def test_malformed_tags_are_validation_errors(self, tmp_path, capsys,
                                                  where, tag):
        # the load hook reads both tags anywhere in a file: one it cannot
        # read, or a rational where a cube key belongs, is an error line
        data = io.set_to_dict(cantor_tree(4))
        if where == "meta":
            data["meta"]["r"] = tag
        else:
            data["leaves"][0] = tag
        code, text, err = self._estimate_box(capsys, tmp_path, data)
        assert (code, text) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_version_is_validation_error(self, tmp_path, capsys):
        data = io.set_to_dict(cantor_tree(4))
        data["version"] = 99
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "format version 99" in err
        data["version"] = io.FORMAT_VERSION
        code, _, _ = self._estimate_box(capsys, tmp_path, data)
        assert code == 0

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_json_integer(self, tmp_path, capsys, version):
        # true and 1.0 compare equal to 1 but are not format version 1
        data = io.set_to_dict(cantor_tree(4))
        data["version"] = version
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "unsupported format version" in err
        with pytest.raises(ValidationError):
            io.load_json(tmp_path / "in.json")

    def test_symbolic_segment_coef_is_not_truncated(self, tmp_path, capsys):
        tree = alternating_set(alternating_plan(Fraction(2, 5),
                                                Fraction(7, 10)), 24)
        data = io._encode(io.set_to_dict(tree), io._file_leaf)
        assert data["symbolic"]["segments"][0]["coef"] == 1
        data["symbolic"]["segments"][0]["coef"] = 1.9
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "malformed set payload" in err
        with pytest.raises(ValidationError):
            io.load_json(tmp_path / "in.json")

    @pytest.mark.parametrize("symbolic", [
        {"kind": "segments",
         "segments": [{"lo": 0, "hi": 20, "base": 0, "coef": 0}]},
        {"kind": "segments",
         "segments": [{"lo": 0, "hi": 20, "base": -5, "coef": 0}]},
        {"kind": "geometric", "group": 2, "branch": 2,
         "prefix_counts": [1, 0]},
        {"kind": "geometric", "group": 2, "branch": 2,
         "prefix_counts": [1, -3]}])
    def test_symbolic_counts_must_be_positive(self, tmp_path, capsys,
                                              symbolic):
        # past the depth-4 leaves the counts come from `symbolic`, and a
        # count of 0 or fewer cubes has no logarithm
        data = io.set_to_dict(DyadicSetTree.full(1, 4))
        data["symbolic"] = symbolic
        p = tmp_path / "in.json"
        p.write_text(json.dumps(data))
        for argv in (["estimate", "box"], ["verify", "ineq-chain"]):
            code, _, err = run_cli(capsys, *argv, "--in", str(p),
                                   "--levels", "1..12")
            assert code == 2 and "error:" in err
        with pytest.raises(ValidationError):
            io.load_json(p)

    @pytest.mark.parametrize("layout", ["leaves", "old-layout"])
    @pytest.mark.parametrize("symbolic, want", [
        ({"kind": "geometric", "group": 1, "branch": 2,
          "prefix_counts": [1]}, "give 4 cubes at level 2, the set holds 2"),
        ({"kind": "segments",
          "segments": [{"lo": 5, "hi": 40, "base": 3, "coef": 1}]},
         "give 4 cubes at level 5, the set holds 8"),
    ], ids=["geometric", "segments"])
    def test_symbolic_counts_must_match_levels(self, tmp_path, capsys,
                                               symbolic, want, layout):
        # counts that contradict a stored level would carry the box slope
        # past the set's dimension (a slope above 1 for this 1-D set)
        tree = cantor_tree(8)
        data = io.set_to_dict(tree) if layout == "leaves" else \
            old_layout(tree)
        data["symbolic"] = symbolic
        code, text, err = self._estimate_box(capsys, tmp_path, data)
        assert (code, text, err) == (2, "", f"error: symbolic counts {want}\n")
        with pytest.raises(ValidationError, match=want):
            io.load_json(tmp_path / "in.json")

    def test_symbolic_geometric_group_must_be_json_integer(self, tmp_path,
                                                           capsys):
        data = io.set_to_dict(DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2],
                                                           3))
        assert data["symbolic"]["group"] == 1
        data["symbolic"]["group"] = True
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "malformed set payload" in err
        with pytest.raises(ValidationError):
            io.load_json(tmp_path / "in.json")

    def test_plan_integers_are_not_truncated(self, tmp_path):
        data = io._encode(io.plan_to_dict(
            sweep_plan(Fraction(2, 5), Fraction(7, 10))), io._file_leaf)
        data["n_seq"][0] += 0.5
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="malformed sweep_plan"):
            io.load_json(p)

    def test_nested_support_version_is_validation_error(self, tmp_path,
                                                        capsys):
        data = io.measure_to_dict(
            DyadicMeasureTree.uniform_on_set(cantor_tree(4)))
        data["support"]["version"] = 99
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "format version 99" in err

    def test_bad_mass_rule_is_validation_error(self, tmp_path, capsys):
        data = io.measure_to_dict(
            DyadicMeasureTree.uniform_on_set(cantor_tree(4)))
        for rule, masses in (("lazy", data["masses"]), ("lazy", None),
                             ("explicit", None)):
            bad = dict(data, mass_rule=rule, masses=masses)
            code, _, err = self._estimate_box(capsys, tmp_path, bad)
            assert code == 2 and "mass rule" in err

    def test_unconserved_uniform_tables_are_validation_error(self, tmp_path,
                                                             capsys):
        data = io.measure_to_dict(
            DyadicMeasureTree.uniform_on_set(cantor_tree(4)))
        assert data["masses"][2][0] == [0, "1/2"]
        data["masses"][2][0][1] = "1/3"
        code, _, err = self._estimate_box(capsys, tmp_path, data)
        assert code == 2 and "not conserved" in err

    def test_uniform_measure_with_atoms_is_validation_error(self, tmp_path,
                                                            capsys):
        # the uniform leaf model never checks atoms: they used to load and
        # be written back by save_json
        data = io.measure_to_dict(
            DyadicMeasureTree.uniform_on_set(cantor_tree(4)))
        data["atoms"] = [[["5/1"], "7/1"]]
        p = tmp_path / "mu.json"
        p.write_text(json.dumps(data))
        code, text, err = run_cli(capsys, "estimate", "corr", "--in", str(p))
        assert (code, text, err) == (
            2, "", "error: uniform leaf model takes no atoms\n")

    @pytest.mark.parametrize("level, row, at, want", [
        (2, [0, "999/1000"], 0, "level 2: cube 0 listed twice"),
        (2, [3, "1/4"], 4, "level 2: cube 3 listed twice"),
        (0, [0, "1/1"], 1, "level 0: cube 0 listed twice"),
        (6, [17, "1/64"], 0, "level 6: cube 17 listed twice")])
    def test_cube_listed_twice_is_validation_error(self, tmp_path, capsys,
                                                   level, row, at, want):
        # a second row for a cube, with another mass or the same, used to
        # load with the last row winning
        data = io.measure_to_dict(
            DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(1, 6)))
        data["masses"][level].insert(at, row)
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(data))
        code, text, err = run_cli(capsys, "estimate", "corr", "--in", str(p))
        assert (code, text, err) == (2, "", f"error: {want}\n")

    def test_unavailable_is_computation_error(self, tmp_path, capsys):
        mu3 = DyadicMeasureTree.atomic([(Fraction(1, 2),) * 3], [1], 3, 4)
        p = tmp_path / "mu3.json"
        io.save_json(mu3, p)
        code, _, err = run_cli(capsys, "estimate", "energy", "--in", str(p),
                               "--s", "1/2")
        assert code == 3 and "error:" in err

    def test_quadrature_over_node_budget_is_computation_error(
            self, cantor_file, capsys):
        code, _, err = run_cli(capsys, "estimate", "fourier-corr",
                               "--in", cantor_file, "--scales", "2^40")
        assert code == 3 and "budget" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, want", [
        (["construct", "alternating", "--dim-low", "2/5", "--dim-high", "7/10",
          "--level-budget", "2", "--plan-out", "{out}"],
         "level budget too small for one full cycle"),
        (["construct", "sweep", "--dim-low", "1/5", "--dim-high", "2/5",
          "--out", "{out}"],
         "breakpoints fail to interleave at stage 1: 1, 1, 2"),
        (["verify", "alternating-counts", "--dim-low", "7/37",
          "--dim-high", "8/37"],
         "schedule collapsed at k=1: n_2k+1=8 <= 8"),
        (["verify", "frostman-stages", "--s", "1/2", "--radii", "2^-30"],
         "no radius maps to a materialized level"),
    ], ids=["alternating-budget", "sweep-interleave", "alternating-collapse",
            "frostman-radii"])
    def test_impossible_requests_are_computation_errors(self, tmp_path,
                                                        capsys, argv, want):
        out = tmp_path / "p.json"
        code, text, err = run_cli(capsys, *[a.format(out=out) for a in argv])
        assert (code, text, err) == (3, "", f"error: {want}\n")
        assert not out.exists()


class TestCliVerify:
    def test_alternating_counts(self, capsys):
        code, text, _ = run_cli(capsys, "verify", "alternating-counts")
        assert code == 0
        assert "alternating-counts: PASS" in text

    def test_sweep_counts(self, capsys):
        code, text, _ = run_cli(capsys, "verify", "sweep-counts")
        assert code == 0
        assert "sweep-counts: PASS" in text

    def test_corr_sandwich(self, cantor_file, capsys):
        code, text, _ = run_cli(capsys, "verify", "corr-sandwich",
                                "--in", cantor_file, "--levels", "2..8",
                                "--random-measures", "2", "--seed", "5")
        assert code == 0 and "corr-sandwich: PASS" in text

    def test_ineq_chain_pass_and_forced_fail(self, cantor_file, capsys):
        code, text, _ = run_cli(capsys, "verify", "ineq-chain",
                                "--in", cantor_file, "--levels", "4..9")
        assert code == 0 and "ineq-chain: PASS" in text
        # a 4-level window reads the correlation slope 0.6 above the
        # packing threshold 11/20, which tol 0 does not forgive
        code, text, _ = run_cli(capsys, "verify", "ineq-chain",
                                "--in", cantor_file, "--levels", "4..9",
                                "--tol", "0", "--window", "4")
        assert code == 4 and "ineq-chain: FAIL" in text

    @pytest.mark.parametrize("argv, threshold", [
        (["--keep", "0,1,2,3", "--d", "2", "--depth", "5"], "2"),
        (["--keep", "0,1,2", "--d", "2", "--depth", "5"], "31/20"),
        (["--keep", "0,1,2,3,4,5,6,7", "--d", "3", "--depth", "4"], "3")],
        ids=["square", "sierpinski", "cube"])
    def test_ineq_chain_passes_above_dimension_one(self, tmp_path, capsys,
                                                   argv, threshold):
        path = str(tmp_path / "set.json")
        code, _, _ = run_cli(capsys, "construct", "ifs", "--base", "2",
                             *argv, "--out", path)
        assert code == 0
        code, text, err = run_cli(capsys, "verify", "ineq-chain", "--in",
                                  path)
        assert (code, err) == (0, "")
        assert f"  packing_threshold = {threshold}\n" in text
        assert "FAIL" not in text and "ineq-chain: PASS" in text

    @pytest.mark.parametrize("edits, want", [
        ({20: {0: 131072, 1: 0}}, "level 20 keys not strictly sorted"),
        ({24: {-1: 1 << 24}}, "key 16777216 out of range at level 24"),
        ({18: {1: 1}}, "cube 16384 at level 17 has no selected child"),
        ({5: {1: 2, 2: 4, 3: 8, 4: 12, 5: 16}},
         "cube 2 at level 5 has unselected parent"),
        # a nesting defect on a one-child level, an order defect on a
        # later branching one: the order scan of every level comes first
        ({5: {1: 1}, 10: {0: 128, 1: 0}}, "level 10 keys not strictly sorted"),
    ], ids=["swap", "range", "childless", "orphan", "two-defects"])
    def test_ineq_chain_corrupted_sweep_file(self, tmp_path, capsys, edits,
                                             want):
        # keys edited on the sweep set's one-child levels (4, 5 and 17..24
        # have as many cubes as the level above) and on branching level 10,
        # in the layout that lists every level
        data = old_layout(CHAIN_SETS["sweep"]())
        for n, keys in edits.items():
            level = data["levels"][n]
            for i, k in keys.items():
                if i == len(level):
                    level.append(k)
                level[i] = k
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        code, text, err = run_cli(capsys, "verify", "ineq-chain",
                                  "--in", str(path))
        assert (code, text, err) == (2, "", f"error: {want}\n")

    def test_ineq_chain_measure_ending_inside_the_window(self, tmp_path,
                                                         capsys):
        # the stage-1 measure ends at level 10 of the depth-24 window: a
        # gap, not a Frostman slope on 1..10 set against a box slope on
        # 1..24 (which failed the chain)
        alt, stage = tmp_path / "alt.json", tmp_path / "st1.json"
        code, _, _ = run_cli(capsys, "construct", "alternating",
                             "--dim-low", "2/5", "--dim-high", "7/10",
                             "--depth", "24", "--out", str(alt),
                             "--stage", "1", "--measure-out", str(stage))
        assert code == 0
        code, text, err = run_cli(capsys, "verify", "ineq-chain",
                                  "--in", str(alt), "--measures", str(stage))
        assert (code, err) == (0, "")
        assert "  gap: measure 1: depth 10 ends before the window\n" in text
        assert "ineq-chain: PASS" in text

    def test_ineq_chain_rejects_measure_of_another_dimension(
            self, tmp_path, cantor_file, capsys):
        square = tmp_path / "sq.json"
        code, _, _ = run_cli(capsys, "construct", "ifs", "--base", "4",
                             "--keep", "0,3", "--depth", "6", "--d", "2",
                             "--out", str(square))
        assert code == 0
        code, text, err = run_cli(capsys, "verify", "ineq-chain",
                                  "--in", cantor_file,
                                  "--measures", str(square))
        assert (code, text, err) == (
            2, "", "error: measure 1 has d = 2, the set has d = 1\n")

    def test_ball_lower_bound(self, cantor_file, capsys):
        code, text, _ = run_cli(capsys, "verify", "ball-lower-bound",
                                "--in", cantor_file, "--levels", "2,4,6,8")
        assert code == 0 and "ball-lower-bound: PASS" in text

    def test_fourier_sandwich(self, tmp_path, cantor_file, capsys):
        jout = tmp_path / "sw.json"
        code, text, _ = run_cli(capsys, "verify", "fourier-sandwich",
                                "--in", cantor_file, "--eps", "1/5",
                                "--scales", "2^-2..2^-6",
                                "--json", str(jout))
        assert code == 0 and "fourier-sandwich: PASS" in text
        assert jout.exists()

    def test_fourier_sandwich_inconclusive_exits_zero(self, tmp_path,
                                                     capsys):
        p, jout = tmp_path / "cantor.json", tmp_path / "sw.json"
        io.save_json(cantor_tree(10), p)
        code, text, _ = run_cli(capsys, "verify", "fourier-sandwich",
                                "--in", str(p), "--eps", "1/5",
                                "--scales", "2^-4..2^-20",
                                "--json", str(jout))
        assert code == 0
        assert text.endswith(f"fourier-sandwich: INCONCLUSIVE\n"
                             f"wrote {jout}\n")
        assert strict_json(jout.read_text())["inconclusive"] is True
        # three points snapped to the depth-6 cubes 28, 29 and 44: at
        # r = 1/4 the bracket is 28.6% of its midpoint, too wide to decide
        csv, p = tmp_path / "pts.csv", tmp_path / "pts.json"
        csv.write_text("0.4453125\n0.4609375\n0.6953125\n")
        code, _, _ = run_cli(capsys, "construct", "points", "--csv", str(csv),
                             "--snap-depth", "6", "--out", str(p))
        assert code == 0
        code, text, _ = run_cli(capsys, "verify", "fourier-sandwich",
                                "--in", str(p), "--eps", "1/2",
                                "--scales", "1/2,1/4,1/8,1/16")
        assert code == 0
        assert "  r=0.25: ratio 0.4729 (bracket too wide)\n" in text
        assert text.endswith("fourier-sandwich: INCONCLUSIVE\n")

    def test_frostman_stages(self, capsys):
        code, text, _ = run_cli(capsys, "verify", "frostman-stages",
                                "--s", "1/2", "--d", "1", "--depth", "8")
        assert code == 0 and "frostman-stages: PASS" in text

    def test_frostman_stage_one_refusal_names_the_count(self, capsys):
        # the oracle admits every cube of the square (dimension 2 > 3/2),
        # but 2^(d+2s+ns) = 2^(5 + 3n/2) cubes need n >= 10 > depth 6
        code, text, err = run_cli(capsys, "verify", "frostman-stages",
                                  "--d", "2", "--depth", "6", "--s", "3/2")
        assert (code, text, err) == (
            3, "", "error: stage 1 impossible: at no candidate level n does "
            "the oracle admit at least 2^(d+2s+ns) cubes (s=3/2, "
            "candidates=[1, 2, 3, 4, 5, 6])\n")
        code, text, _ = run_cli(capsys, "verify", "frostman-stages",
                                "--d", "2", "--depth", "10", "--s", "3/2")
        assert code == 0 and "stages at levels [10]" in text

    def test_frostman_stages_on_sierpinski_use_its_dimension(self, tmp_path,
                                                             capsys):
        # the depth-6 Sierpinski set has dimension log2 3 ~ 1.585, so
        # s = 4/5 is admissible (it was refused as if the dimension were
        # log2 3 / 2)
        p = tmp_path / "sierpinski.json"
        io.save_json(DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 6), p)
        code, text, err = run_cli(capsys, "verify", "frostman-stages",
                                  "--in", str(p), "--s", "4/5")
        assert (code, err) == (0, "")
        assert "stages at levels [5, 6]" in text
        assert "frostman-stages: PASS" in text
        assert "slope heuristic" not in text

    @pytest.mark.parametrize("meta", ["cantor", [1, 2], 7,
                                      {"$rational": "1/2"}])
    @pytest.mark.parametrize("where", ["set", "old-layout", "measure",
                                       "support"])
    def test_meta_must_be_a_json_object(self, tmp_path, capsys, where, meta):
        # a meta that is not an object used to load, and the stage oracle
        # then failed on it with a traceback
        p = meta_file(tmp_path, where, meta)
        code, text, err = run_cli(capsys, "verify", "frostman-stages",
                                  "--s", "1/4", "--in", str(p))
        assert (code, text, err) == (
            2, "", "error: meta must be a JSON object\n")

    @pytest.mark.parametrize("where", ["set", "old-layout", "measure",
                                       "support"])
    def test_null_meta_loads_as_empty(self, tmp_path, capsys, where):
        p = meta_file(tmp_path, where, None)
        obj = io.load_json(p)
        assert (obj.support if where == "support" else obj).meta == {}
        # a set of no known kind: the stages fall back on the heuristic
        code, text, _ = run_cli(capsys, "verify", "frostman-stages",
                                "--s", "1/8", "--in", str(p))
        assert code == 0 and "frostman-stages: PASS" in text
        assert (where == "measure") != ("slope heuristic" in text)

    def test_alternating_meta_needs_dim_low(self, tmp_path, capsys):
        data = io.set_to_dict(cantor_tree(6))
        data["meta"] = {"kind": "alternating"}
        p = tmp_path / "in.json"
        p.write_text(json.dumps(data))
        code, text, err = run_cli(capsys, "verify", "frostman-stages",
                                  "--s", "1/4", "--in", str(p))
        assert (code, text, err) == (
            2, "", "error: alternating set meta has no dim_low\n")

    def test_frostman_stages_json_counts_every_centre(self, tmp_path,
                                                      capsys):
        jout = tmp_path / "fs.json"
        code, text, _ = run_cli(capsys, "verify", "frostman-stages",
                                "--s", "1/2", "--d", "2", "--depth", "5",
                                "--json", str(jout))
        assert code == 0 and "frostman-stages: PASS" in text
        data = json.loads(jout.read_text())
        assert "samples" not in data["balls"]
        stages, balls = data["stages"]["rows"], data["balls"]["rows"]
        assert len(balls) == len(stages) > 0
        for stage, row in zip(stages, balls):
            # every level-n cube of the full square is a centre
            assert row["stage_level"] == stage["level"]
            assert row["centers"] == stage["cubes"] == 4 ** stage["level"]
            assert set(row) == {"stage_level", "radius", "centers",
                                "cover_bound", "ok"}
            assert f"ball check at level {stage['level']}: " \
                   f"{row['centers']} centers, ok" in text

    @pytest.mark.parametrize("argv", [
        ["verify", "frostman-stages", "--s", "1/2", "--depth", "8",
         "--stages", "0"],
        ["verify", "frostman-stages", "--s", "1/2", "--depth", "8",
         "--stages", "-2"],
        ["verify", "sweep-counts", "--materialize-depth", "-1"],
        ["verify", "sweep-counts", "--level-budget", "0"],
        ["construct", "alternating", "--dim-low", "2/5", "--dim-high", "7/10",
         "--depth", "-1", "--out", "{out}"],
        ["construct", "sweep", "--dim-low", "2/5", "--dim-high", "7/10",
         "--depth", "-1", "--out", "{out}"],
        ["verify", "corr-sandwich", "--in", "{cantor}", "--levels", "2..8",
         "--random-measures", "-2"],
        ["construct", "points", "--csv", "{csv}", "--snap-depth", "-1",
         "--out", "{out}"],
        ["verify", "ineq-chain", "--in", "{cantor}", "--levels", "4..9",
         "--tol", "-1"],
        ["verify", "ineq-chain", "--in", "{cantor}", "--levels", "4..9",
         "--tol", "nan"],
        ["verify", "fourier-sandwich", "--in", "{cantor}", "--eps", "1/10",
         "--tol", "-1"],
        ["export", "--in", "{cantor}", "--csv", "{out}", "--min-level", "99"],
    ], ids=["stages-0", "stages-neg",
            "sweep-depth-neg", "sweep-budget-0", "alternating-depth-neg",
            "sweep-set-depth-neg", "random-measures-neg", "snap-depth-neg",
            "ineq-tol-neg", "ineq-tol-nan", "fourier-tol-neg",
            "export-min-level-99"])
    def test_malformed_counts_are_validation_errors(self, tmp_path,
                                                    cantor_file, capsys, argv):
        out = tmp_path / "set.json"
        csv = tmp_path / "pts.csv"
        csv.write_text("1/4\n3/4\n")
        argv = [a.format(out=out, cantor=cantor_file, csv=csv)
                for a in argv]
        code, text, err = run_cli(capsys, *argv)
        assert code == 2 and "error:" in err
        assert "PASS" not in text and not out.exists()


class TestCliExport:
    def test_measure_table(self, tmp_path, cantor_file, capsys):
        mu_path = tmp_path / "mu.json"
        io.save_json(DyadicMeasureTree.uniform_on_set(cantor_tree(5)),
                     mu_path)
        out = tmp_path / "table.csv"
        code, text, _ = run_cli(capsys, "export", "--in", str(mu_path),
                                "--csv", str(out), "--min-level", "1")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,max_mass,corr_sum"
        assert len(lines) == 6

    def test_set_table(self, tmp_path, cantor_file, capsys):
        out = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "export", "--in", cantor_file,
                             "--csv", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "level,box_count,"

    def test_plan_file_is_rejected(self, tmp_path, capsys):
        p = tmp_path / "plan.json"
        io.save_json(sweep_plan(Fraction(2, 5), Fraction(7, 10)), p)
        code, _, err = run_cli(capsys, "export", "--in", str(p),
                               "--csv", str(tmp_path / "x.csv"))
        assert code == 2


class TestCliPlumbing:
    def test_check_lines_list_twenty_failures(self):
        checks = [{"name": "count", "level": n, "ok": False}
                  for n in range(25)] + [{"name": "count", "ok": True}]
        lines = _check_lines(checks)
        assert lines[:2] == ["  FAIL count level=0", "  FAIL count level=1"]
        assert lines[19:] == ["  FAIL count level=19",
                              "  ... and 5 more failures",
                              "  checks: 1/26 passed"]

    def test_argparse_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_bad_rational_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "alternating-counts", "--dim-low", "0.4"])
        assert exc.value.code == 2

    def test_parser_built_once(self, cantor_file, capsys, monkeypatch):
        # main builds its parser on the first call only; later calls in the
        # same process reuse it and add no argument
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        argv = ("estimate", "box", "--in", cantor_file, "--levels", "3..9")
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        build_parser.__wrapped__()
        assert calls  # the counter sees a build
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == []

    def test_reuse_after_usage_error_and_help(self, tmp_path, cantor_file,
                                              capsys):
        outs = [tmp_path / f"rep{i}.json" for i in range(2)]
        argv = ["verify", "ineq-chain", "--in", cantor_file,
                "--levels", "4..9"]
        first = run_cli(capsys, *argv, "--json", str(outs[0]))[0]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "ineq-chain", "--levels", "4..9"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "fourier-corr", "--help"])
        assert exc.value.code == 0
        assert "(default 2^1..2^12)" in capsys.readouterr().out
        again = run_cli(capsys, *argv, "--json", str(outs[1]))[0]
        assert first == again == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("argv", [
        ["estimate", "box", "--in", "{cantor}", "--json", "{out}"],
        ["estimate", "box", "--in", "{cantor}", "--csv", "{out}"],
        ["export", "--in", "{cantor}", "--csv", "{out}"],
        ["construct", "ifs", "--base", "4", "--keep", "0,3", "--depth", "4",
         "--out", "{out}"],
    ], ids=["box-json", "box-csv", "export-csv", "ifs-out"])
    def test_write_errors_exit_two(self, tmp_path, cantor_file, capsys,
                                   argv):
        # each ended in a FileNotFoundError traceback
        out = tmp_path / "missing" / "out.json"
        code, _, err = run_cli(capsys, *[a.format(cantor=cantor_file, out=out)
                                         for a in argv])
        assert code == 2
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, depth, count", [
        (["verify", "frostman-stages", "--s", "1/2", "--depth", "30"],
         30, 1 << 30),
        (["construct", "ifs", "--base", "2", "--keep", "0,1", "--depth", "30",
          "--out", "{out}"], 30, 1 << 30),
        (["construct", "alternating", "--dim-low", "2/5", "--dim-high", "7/10",
          "--depth", "100", "--out", "{out}"], 100, 1 << 39),
        (["construct", "sweep", "--dim-low", "2/5", "--dim-high", "7/10",
          "--depth", "56", "--out", "{out}"], 56, 268437507),
    ], ids=["full", "ifs", "alternating", "sweep"])
    def test_sets_too_large_to_build_are_refused(self, tmp_path, capsys,
                                                 argv, depth, count):
        # the alternating one allocated until the process was killed
        out = tmp_path / "set.json"
        code, text, err = run_cli(capsys, *[a.format(out=out) for a in argv])
        assert (code, err) == (3, f"error: level {depth} would hold {count} "
                               "cubes, more than the 16777216 a constructed "
                               "set may materialize\n")
        assert "PASS" not in text and not out.exists()

    @pytest.mark.parametrize("argv, want", [
        (["estimate", "fourier-corr", "--in", "x.json"], range(1, 13)),
        (["estimate", "fourier-box", "--in", "x.json"], range(1, 13)),
        (["verify", "fourier-sandwich", "--in", "x.json", "--eps", "1/10"],
         range(-4, -11, -1)),
    ], ids=["fourier-corr", "fourier-box", "fourier-sandwich"])
    def test_default_scales_not_shared(self, argv, want):
        # a string default is converted on each parse, so a caller that
        # changes its list cannot change the next call's default
        ap = build_parser()
        one, two = ap.parse_args(argv), ap.parse_args(argv)
        assert one.scales == two.scales == [pow2(e) for e in want]
        assert one.scales is not two.scales
