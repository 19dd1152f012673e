"""The benchmark's three workloads: inputs, job lists and output checks.

Each workload runs in one process with no worker threads. The seed feeds
only the random-split measure and the correlation_sandwich seed of
ball-pairs; every other output is seed independent, so it is compared with
its pinned value (expected.json) at every seed. Seeded outputs are compared
with their pins only at DEFAULT_SEED; at other seeds only their
seed-independent invariants are checked.

Jobs look dimlab functions up through module attributes at call time, so a
tracer installed after this module is imported still sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# one process, no worker threads: pin the BLAS/OpenMP pools before numpy
# loads (<= nproc by construction)
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import dimlab  # noqa: E402

if Path(dimlab.__file__).resolve().parent != SRC / "dimlab":
    raise ImportError(f"dimlab must come from {SRC}, got {dimlab.__file__}")

from dimlab import (cli, constructions, estimators, fourier,  # noqa: E402
                    measure, settree)
from dimlab import io as dio  # noqa: E402

DEFAULT_SEED = 20250819
EXPECTED = HERE / "expected.json"

T_LOW = Fraction(2, 5)
S_HIGH = Fraction(7, 10)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable  # (inputs, seed) -> raw result; the timed part
    summarize: Callable  # raw result -> JSON-able summary
    invariants: Callable  # summary -> list of problems, at any seed
    seeded: bool = False  # summary depends on the seed


def frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def plain(row: dict) -> dict:
    """A record with its Fractions written as "p/q"."""
    return {k: frac(v) if isinstance(v, Fraction) else v
            for k, v in row.items()}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cantor_tree(depth: int):
    return settree.DyadicSetTree.from_digit_ifs(1, group=2, keep=[0, 3],
                                                depth=depth)


def sierpinski_tree():
    return settree.DyadicSetTree.from_digit_ifs(2, 1, [0, 1, 2], 5)


# ---------------------------------------------------------------------------
# inputs (the set-up the setup_s metric times, apart from the import)


def build_inputs(workload: str, workdir: Path) -> dict:
    full = settree.DyadicSetTree.full
    uniform = measure.DyadicMeasureTree.uniform_on_set
    if workload == "ineq-chain":
        workdir.mkdir(parents=True, exist_ok=True)
        alt_plan = constructions.alternating_plan(T_LOW, S_HIGH,
                                                  level_budget=10 ** 6)
        sets = {
            "cantor": cantor_tree(12),
            "full": full(1, 10),
            "alternating": constructions.alternating_set(alt_plan, 24),
            "sweep": constructions.sweep_set(
                constructions.sweep_plan(T_LOW, S_HIGH), 24),
        }
        inputs = {"dir": workdir}
        for name, tree in sets.items():
            inputs[name] = workdir / f"{name}.json"
            dio.save_json(tree, inputs[name])
        return inputs
    if workload == "ball-pairs":
        return {"full1": full(1, 10),
                "sierpinski": uniform(sierpinski_tree()),
                "square": uniform(full(2, 1)),
                "cantor12": cantor_tree(12),
                "cantor11": cantor_tree(11)}
    if workload == "fourier":
        cantor10 = cantor_tree(10)
        return {"sierpinski": uniform(sierpinski_tree()),
                "uniform": uniform(full(1, 10)),
                "atom": measure.DyadicMeasureTree.atomic(
                    [(Fraction(1, 3),)], [1], 1, 10),
                "cantor12": uniform(cantor_tree(12)),
                "cantor10": cantor10,
                "cantor10_uniform": uniform(cantor10)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# exact re-derivations used by the invariants


def _le_rpow(a: Fraction, r: Fraction, s: Fraction) -> bool:
    """a <= r**s for a >= 0, r > 0, s = p/q >= 0: a**q <= r**p."""
    return a ** s.denominator <= r ** s.numerator


def _settle(statuses: list[str]) -> str:
    if "fail" in statuses:
        return "fails"
    if statuses and all(st == "pass" for st in statuses):
        return "holds-on-window"
    return "inconclusive"


# ---------------------------------------------------------------------------
# ineq-chain: the CLI on the four criterion-8 sets


INEQ_THRESHOLDS = {"cantor": Fraction(11, 20), "full": Fraction(1),
                   "alternating": Fraction(1, 2), "sweep": Fraction(1, 5)}


def _ineq_job(name: str) -> Job:
    def run(inputs, seed):
        out = inputs["dir"] / f"{name}.report.json"
        with redirect_stdout(StringIO()):
            code = cli.main(["verify", "ineq-chain", "--in",
                             str(inputs[name]), "--json", str(out)])
        return code, out

    def summarize(result):
        code, out = result
        rep = json.loads(out.read_text())
        return {"exit": code, "ok": rep["ok"], "estimates": rep["estimates"],
                "checks": [[c["name"], c["ok"]] for c in rep["checks"]]}

    def invariants(s):
        problems = []
        if s["exit"] != 0:
            problems.append(f"exit code {s['exit']}")
        if s["ok"] is not True:
            problems.append("report not ok")
        threshold = s["estimates"]["packing_threshold"]
        if Fraction(threshold) != INEQ_THRESHOLDS[name]:
            problems.append(f"packing threshold {threshold}")
        return problems

    return Job(f"ineq-{name}", run, summarize, invariants)


# ---------------------------------------------------------------------------
# ball-pairs: pair walkers and exact ball decisions


RADII_1D = [Fraction(1, 2 ** k) for k in range(4, 11)]


def _predicate_summary(reports) -> dict:
    out = {}
    for key, rep in reports.items():
        out[key] = {"s": frac(rep.s), "verdict": rep.verdict,
                    "records": [plain(rec) for rec in rep.records]}
    return out


def _predicate_invariants(s) -> list[str]:
    problems = []
    for key, rep in s.items():
        sv = Fraction(rep["s"])
        for rec in rep["records"]:
            r = Fraction(rec["radius"])
            st = rec["status"]
            if key == "pair-integral":
                lo, hi = Fraction(rec["lower"]), Fraction(rec["upper"])
                want = ("pass" if _le_rpow(hi, r, sv) else
                        "fail" if not _le_rpow(lo, r, sv) else "inconclusive")
                if not lo <= hi or st != want:
                    problems.append(f"pair-integral at r={rec['radius']}")
            elif key == "ball-sup" and "cover_bound" in rec:
                if (st == "pass") != _le_rpow(Fraction(rec["cover_bound"]),
                                              r, sv):
                    problems.append(f"ball-sup at r={rec['radius']}")
            elif key == "cube-max" and "max_mass" in rec:
                bound = Fraction(1, 2) ** (rec["level"] * sv.numerator)
                m = Fraction(rec["max_mass"]) ** sv.denominator
                if (st == "pass") != (m <= bound):
                    problems.append(f"cube-max at r={rec['radius']}")
        if rep["verdict"] != _settle([rec["status"]
                                      for rec in rep["records"]]):
            problems.append(f"{key} verdict disagrees with its records")
    return problems


def _corr_predicates_job(name: str, seeded: bool) -> Job:
    def run(inputs, seed):
        tree = inputs["full1"]
        if seeded:
            mu = measure.DyadicMeasureTree.random_split(tree,
                                                        random.Random(seed))
        else:
            mu = measure.DyadicMeasureTree.uniform_on_set(tree)
        return estimators.correlation_predicates(mu, 1, RADII_1D)

    return Job(name, run, _predicate_summary, _predicate_invariants, seeded)


def _ball_bracket_job(k: int) -> Job:
    def run(inputs, seed):
        return inputs["sierpinski"].ball_correlation_bracket(
            Fraction(1, 2 ** k), extra_depth=2)

    def summarize(br):
        return {"lower": frac(br.lower), "upper": frac(br.upper),
                "cap_level": br.cap_level}

    def invariants(s):
        lo, hi = Fraction(s["lower"]), Fraction(s["upper"])
        return [] if 0 <= lo <= hi <= 1 else ["bracket out of order"]

    return Job(f"ball-bracket-k{k}", run, summarize, invariants)


def _energy_run(inputs, seed):
    return inputs["square"].energy_bracket(Fraction(1, 2), refine_depth=3)


def _energy_summary(br):
    return {"bracket": {"lower": br.lower, "upper": br.upper},
            "diverged": br.diverged}


def _energy_invariants(s):
    lo, hi = s["bracket"]["lower"], s["bracket"]["upper"]
    ok = math.isfinite(hi) and 0 < lo <= hi and not s["diverged"]
    return [] if ok else ["energy bracket not a finite ordered bracket"]


def _sandwich_run(inputs, seed):
    return estimators.correlation_sandwich(inputs["cantor12"], range(4, 13),
                                           n_random=100, seed=seed)


def _sandwich_summary(rep):
    rows = [plain(row) for row in rep["rows"]]
    return {"ok": rep["ok"], "rows": len(rows), "rows_sha256": digest(rows),
            "net_equal": all(r["corr_sum"] == r["floor"] for r in rows
                             if r["measure"] == "net")}


def _sandwich_invariants(s):
    ok = s["ok"] is True and s["rows"] == 9 * 102 and s["net_equal"]
    return [] if ok else ["correlation sandwich not ok"]


def _anti_frostman_run(inputs, seed):
    return measure.anti_frostman_check(inputs["cantor11"], [2, 4, 6, 8, 10])


def _anti_frostman_summary(rep):
    return {"ok": rep["ok"],
            "rows": [{"level": r["level"], "centers": r["centers"],
                      "net_size": r["net_size"], "bound": frac(r["bound"]),
                      "min_ball_mass": frac(r["min_ball_mass"])}
                     for r in rep["rows"]]}


def _anti_frostman_invariants(s):
    ok = s["ok"] is True and all(
        Fraction(r["min_ball_mass"]) >= Fraction(r["bound"])
        for r in s["rows"])
    return [] if ok else ["ball lower bound violated"]


# ---------------------------------------------------------------------------
# fourier: quadrature and transform work


def _curve_summary(curve) -> dict:
    return {"degraded": curve.degraded,
            "R": [s["R"] for s in curve.samples],
            "samples": [{"value": s["value"], "err": s["err"]}
                        for s in curve.samples]}


def _curve_invariants(s) -> list[str]:
    vals = [x["value"] for x in s["samples"]]
    ok = (all(0 < a <= b for a, b in zip(vals, vals[1:]))
          and all(0 <= x["err"] < math.inf for x in s["samples"]))
    return [] if ok else ["mean-square curve not positive and increasing"]


def _mean_square_run(inputs, seed):
    return fourier.mean_square_curve(inputs["sierpinski"],
                                     [2.0 ** k for k in range(1, 8)])


# correlation dimensions with closed forms: Lebesgue 1, an atom 0, the
# middle-half Cantor set 1/2; the quadrature slope must land near them
DIM_TRUTH = {"uniform": 1.0, "atom": 0.0, "cantor12": 0.5}
DIM_TOL = 0.07


def _dims_summary(rep) -> dict:
    return {"low_confidence": rep.low_confidence,
            "dim": rep.dims.full.value,
            "curve": _curve_summary(rep.curve)}


def _fourier_dims_job(key: str) -> Job:
    def run(inputs, seed):
        return fourier.fourier_correlation_dims(
            inputs[key], [2.0 ** k for k in range(2, 11)])

    def invariants(s):
        problems = _curve_invariants(s["curve"])
        if abs(s["dim"] - DIM_TRUTH[key]) > DIM_TOL:
            problems.append(f"dimension {s['dim']} far from "
                            f"{DIM_TRUTH[key]}")
        return problems

    return Job(f"fourier-dims-{key}", run, _dims_summary, invariants)


def _box_run(inputs, seed):
    return fourier.fourier_box_estimate(inputs["cantor10"],
                                        [2.0 ** k for k in range(1, 11)])


def _box_invariants(s):
    problems = _curve_invariants(s["curve"])
    if abs(s["dim"] - 0.5) > DIM_TOL:
        problems.append(f"box estimate {s['dim']} far from 0.5")
    return problems


def _energy_fourier_run(inputs, seed):
    return fourier.fourier_energy(inputs["cantor10_uniform"], Fraction(1, 3))


def _energy_fourier_summary(rep):
    energy = None if rep.diverged else {"value": rep.value, "err": rep.err}
    return {"diverged": rep.diverged, "decay_exponent": rep.decay_exponent,
            "truncations": [acc for _, acc in rep.truncations],
            "energy": energy}


def _energy_fourier_invariants(s):
    # fourier_energy flags divergence when the tail decay fitted on the last
    # octaves is at most s + 0.05; the flag must agree with that exponent
    problems = []
    if s["diverged"] != (s["decay_exponent"] <= 1 / 3 + 0.05):
        problems.append("divergence flag disagrees with the decay exponent")
    acc = s["truncations"]
    if not all(0 < a <= b < math.inf for a, b in zip(acc, acc[1:])):
        problems.append("truncated energies not positive and increasing")
    e = s["energy"]
    if e is not None and not (acc[-1] <= e["value"] < math.inf
                              and 0 <= e["err"] < math.inf):
        problems.append("energy below its truncation or error not finite")
    return problems


def _near_zero_run(inputs, seed):
    return fourier.near_zero_report(inputs["sierpinski"])


def _near_zero_summary(rep):
    return {"ok": rep["ok"], "min_abs": rep["min_abs"]}


def _near_zero_invariants(s):
    return [] if s["ok"] and s["min_abs"] >= 0.5 else ["|mu_hat| < 1/2"]


# ---------------------------------------------------------------------------


WORKLOADS: dict[str, list[Job]] = {
    "ineq-chain": [_ineq_job(n) for n in INEQ_THRESHOLDS],
    "ball-pairs": [
        _corr_predicates_job("corr-predicates-uniform", seeded=False),
        _corr_predicates_job("corr-predicates-random", seeded=True),
        _ball_bracket_job(3),
        _ball_bracket_job(4),
        Job("energy-square", _energy_run, _energy_summary,
            _energy_invariants),
        Job("corr-sandwich", _sandwich_run, _sandwich_summary,
            _sandwich_invariants, seeded=True),
        Job("anti-frostman", _anti_frostman_run, _anti_frostman_summary,
            _anti_frostman_invariants),
    ],
    "fourier": [
        Job("mean-square-sierpinski", _mean_square_run, _curve_summary,
            _curve_invariants),
        *[_fourier_dims_job(k) for k in DIM_TRUTH],
        Job("fourier-box-cantor10", _box_run, _dims_summary,
            _box_invariants),
        Job("fourier-energy-cantor10", _energy_fourier_run,
            _energy_fourier_summary, _energy_fourier_invariants),
        Job("near-zero-sierpinski", _near_zero_run, _near_zero_summary,
            _near_zero_invariants),
    ],
}


# ---------------------------------------------------------------------------
# comparison with the pins


def compare(got, pin, where: str = "") -> list[str]:
    """Differences between a summary and its pinned value.

    {"value", "err"} pairs agree when the values differ by at most the new
    result's stated err; float {"lower", "upper"} brackets agree when the new
    bracket holds the pinned midpoint; other floats agree to 1e-9 relative;
    everything else (rationals as "p/q", verdicts, counts) must be equal.
    """
    if isinstance(got, dict) and isinstance(pin, dict):
        if got.keys() != pin.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(pin)}"]
        if got.keys() == {"value", "err"}:
            if abs(got["value"] - pin["value"]) <= got["err"]:
                return []
            return [f"{where}: {got['value']} outside "
                    f"{pin['value']} +- {got['err']}"]
        if got.keys() == {"lower", "upper"} and isinstance(got["lower"],
                                                           float):
            mid = (pin["lower"] + pin["upper"]) / 2
            if got["lower"] <= mid <= got["upper"]:
                return []
            return [f"{where}: bracket {got} misses {mid}"]
        return [p for k in got for p in compare(got[k], pin[k],
                                                f"{where}.{k}")]
    if isinstance(got, list) and isinstance(pin, list):
        if len(got) != len(pin):
            return [f"{where}: length {len(got)} != {len(pin)}"]
        return [p for i, (a, b) in enumerate(zip(got, pin))
                for p in compare(a, b, f"{where}[{i}]")]
    if isinstance(got, float) and isinstance(pin, (int, float)):
        if math.isclose(got, pin, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{where}: {got!r} != {pin!r}"]
    return [] if got == pin else [f"{where}: {got!r} != {pin!r}"]


def check(job: Job, summary, seed: int, pins: dict) -> list[str]:
    problems = job.invariants(summary)
    if not job.seeded or seed == DEFAULT_SEED:
        problems += compare(summary, pins[job.name], job.name)
    return problems


def load_pins() -> dict:
    return json.loads(EXPECTED.read_text())
