"""The benchmark's workloads: seeded input files, the CLI calls in order, and output checks.

Inputs come from this file's own numpy code, never from octo_cfs, so a change
to the program cannot change what it is given. Each check raises CheckError;
a failed check counts as a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BUILD = "build"
QUERY = "query"

MASSES = ["--masses", "0.5,0.7,0.9", "--neutrino-masses", "0.1,0.2,0.3", "--tau", "0.7"]
LATTICE_1P3 = ["--dims", "1+3", "--L", "8", "--T", "8", "--a", "0.5", "--eps", "2.0"]
LATTICE_1P1 = ["--L", "16", "--T", "16", "--a", "0.5", "--eps", "2.0"]
DIAGONAL_SIGNS = [[1, 1, -1, -1], [-1, -1, 1, 1], [1, -1, 1, -1]]
KAPPA = 0.2
S_EL = 0.35

#: The point and lattice of the known-defect probe (lattice.vacuum_local_correlation).
VACUUM_3D_PROBE = {
    "L": 8, "T": 8, "a": 0.5, "epsilon": 2.0, "dims": "1+3",
    "charged_masses": [0.5, 0.7, 0.9], "neutrino_masses": [0.1, 0.2, 0.3],
    "tau_reg": 0.7, "point": [2, 3, 1, 0],
}


class CheckError(Exception):
    pass


@dataclass
class Op:
    """One CLI call: its argv after `octo-cfs`, whether it builds an artifact, and its check."""

    kind: str
    argv: list
    check: Callable[[str, dict], None]  # (stdout, state shared by the pass's checks); raises CheckError
    writes: tuple = ()  # kernel containers the call writes, relative to the work directory


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _close(value, ref, rtol, floor=0.0):
    return abs(value - ref) <= rtol * max(abs(ref), floor)


# ---------------------------------------------------------------- inputs

def _point(rng, f, n):
    """Hermitian f x f matrix with exactly n positive and n negative eigenvalues."""
    g = rng.standard_normal((f, 2 * n)) + 1j * rng.standard_normal((f, 2 * n))
    q, _ = np.linalg.qr(g)
    vals = np.concatenate([0.2 + rng.random(n), -(0.2 + rng.random(n))])
    m = (q * vals) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def _measure(rng, f, n, count):
    """A measure file and its weights: `count` distinct points, positive weights summing to one."""
    points = []
    while len(points) < count:
        p = _point(rng, f, n)
        if all(np.linalg.norm(p - q, 2) > 1e-6 for q in points):
            points.append(p)
    weights = 0.5 + rng.random(count)
    weights /= weights.sum()
    obj = {
        "config": {"f": f, "n": n, "kappa": KAPPA, "s": 0.0},
        "points": [[[[float(z.real), float(z.imag)] for z in row] for row in p] for p in points],
        "weights": weights.tolist(),
    }
    return obj, obj["weights"]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


# ---------------------------------------------------------------- checks

def _json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def parses(text, state):
    _json(text)


def all_passed(text, state):
    d = _json(text)
    _require(d.get("all_passed") is True, "check command did not report all_passed")


def csv_rows(count, width):
    def check(text, state):
        rows = list(csv.reader(io.StringIO(text)))
        _require(len(rows) == count + 1, f"expected {count} CSV rows, got {len(rows) - 1}")
        _require(all(len(r) == width for r in rows), f"expected {width} CSV columns")
    return check


def clifford_dim(text, state):
    d = _json(text)
    _require((d["real_dim"], d["complex_dim"]) == (64, 64), f"clifford dim {d['real_dim']}/{d['complex_dim']}")


def cfs_action(key):
    def check(text, state):
        d = _json(text)
        _require(abs(d["volume"] - 1.0) <= 1e-12, f"volume {d['volume']} != 1")
        _require(math.isfinite(d["action"]) and d["action"] > 0, "action is not positive")
        state[key] = d["action"]
    return check


def cfs_el_residual(key, weights, s):
    """sum_i w_i ell_i = action - s, against the action printed by `cfs action` earlier in the pass."""
    def check(text, state):
        d = _json(text)
        _require(len(d["ell"]) == len(weights), "one ell value per support point")
        _require(key in state, "cfs action did not run before el-residual")
        total = math.fsum(w * e for w, e in zip(weights, d["ell"]))
        expect = state[key] - s
        _require(_close(total, expect, 1e-10, floor=state[key]),
                 f"sum w ell = {total!r}, action - s = {expect!r}")
    return check


def cfs_classify(n_pairs):
    def check(text, state):
        d = _json(text)
        _require(len(d["results"]) == n_pairs, f"expected {n_pairs} classified pairs")
        worst = max(r["completeness_residual"] for r in d["results"])
        _require(worst < 1e-10, f"completeness residual {worst:.3e}")
    return check


def cfs_minimize(ref):
    def check(text, state):
        r = _json(text)["report"]
        _require(abs(r["trace"] - 1.0) <= 1e-6, f"trace {r['trace']} != 1")
        _require(abs(r["action"] - ref) <= 1e-6, f"action {r['action']!r}, reference {ref!r}")
    return check


def vacuum_build(text, state):
    d = _json(text)
    _require(d["hermiticity_residual_max"] <= 1e-12, f"hermiticity {d['hermiticity_residual_max']:.3e}")
    _require(d["onshell_residual_max"] <= 1e-12, f"on-shell {d['onshell_residual_max']:.3e}")


def _match(values: dict, ref: dict, what):
    _require(sorted(values) == sorted(ref), f"{what}: unexpected keys")
    floor = max(abs(v) for v in ref.values())
    for name, v in ref.items():
        _require(_close(values[name], v, 1e-9, floor=floor if v == 0 else 0.0),
                 f"{what}[{name}] = {values[name]!r}, reference {v!r}")


def vacuum_residual(ref):
    def check(text, state):
        _match(_json(text)["residuals"], ref["residuals"], "residual")
    return check


def vacuum_localize(text, state):
    d = _json(text)
    for sector in ("neutrino_sector", "charged_sector"):
        s = d[sector]
        got = (s["n_positive"], s["n_negative"], s["rank"])
        _require(got == (2, 2, 4), f"{sector}: (n+, n-, rank) = {got}")


def vacuum_act(ref):
    def check(text, state):
        _match(_json(text)["sector_norms"], ref["sector_norms"], "sector_norms")
    return check


# ---------------------------------------------------------------- workloads

def _readme(rng, workdir: Path, ref) -> list:
    measure, weights = _measure(rng, 4, 1, 6)
    _write_json(workdir / "measure.json", measure)
    _write_json(workdir / "family.json",
                {"config": {"f": 2, "n": 1, "kappa": KAPPA}, "family": {"type": "mirror_pair"}})
    return [
        Op(QUERY, ["octonion", "table", "--format", "csv"], csv_rows(8, 9)),
        Op(QUERY, ["octonion", "check", "--seed", "7"], all_passed),
        Op(QUERY, ["clifford", "dim"], clifford_dim),
        Op(QUERY, ["clifford", "identities"], all_passed),
        Op(QUERY, ["ideals", "states", "--format", "csv"], csv_rows(16, 4)),
        Op(QUERY, ["ideals", "su3"], parses),
        Op(QUERY, ["ideals", "casimir"], parses),
        Op(QUERY, ["cfs", "action", "--measure", "measure.json"], cfs_action("action")),
        Op(QUERY, ["cfs", "classify", "--pairs", "measure.json"], cfs_classify(15)),
        Op(BUILD, ["cfs", "minimize", "--family", "family.json", "--kappa", str(KAPPA), "--seed", "1"],
           cfs_minimize(ref["minimize_action"]["mirror_pair"])),
        Op(QUERY, ["cfs", "el-residual", "--measure", "measure.json", "--s", str(S_EL)],
           cfs_el_residual("action", weights, S_EL)),
        Op(BUILD, ["vacuum", "build", *LATTICE_1P1, *MASSES, "--out", "vac.okn"], vacuum_build,
           writes=("vac.okn",)),
        Op(QUERY, ["vacuum", "residual", "--infile", "vac.okn"], vacuum_residual(ref["vacuum"]["1+1"])),
        Op(QUERY, ["vacuum", "localize", "--infile", "vac.okn", "--point", "2,3"], vacuum_localize),
        Op(QUERY, ["vacuum", "act", "--infile", "vac.okn", "--op", "1,2", "--out", "acted.okn"],
           vacuum_act(ref["vacuum"]["1+1"]), writes=("acted.okn",)),
        Op(QUERY, ["majorana", "check", "--variant", "both"], parses),
        Op(QUERY, ["potentials", "scan", "--tree", "--params",
                   '{"mu2":2.0,"lambda1":1.0,"lambda2":3.0}'], parses),
        Op(QUERY, ["potentials", "scan", "--loop", "--params",
                   '{"lambda1":0.0063,"lambda2":1.0,"g":1.0,"M":1.0}'], parses),
    ]


def _causal(rng, workdir: Path, ref) -> list:
    measure, weights = _measure(rng, 16, 2, 64)
    _write_json(workdir / "measure.json", measure)
    pairs, _ = _measure(rng, 16, 2, 32)
    _write_json(workdir / "pairs.json", pairs)
    _write_json(workdir / "family.json",
                {"config": {"f": 4, "n": 2, "kappa": KAPPA},
                 "family": {"type": "diagonal", "signs": DIAGONAL_SIGNS}})
    return [
        Op(QUERY, ["cfs", "action", "--measure", "measure.json"], cfs_action("action")),
        Op(QUERY, ["cfs", "el-residual", "--measure", "measure.json", "--s", str(S_EL)],
           cfs_el_residual("action", weights, S_EL)),
        Op(QUERY, ["cfs", "classify", "--pairs", "pairs.json", "--geometry"], cfs_classify(32 * 31 // 2)),
        Op(BUILD, ["cfs", "minimize", "--family", "family.json", "--kappa", str(KAPPA), "--seed", "1"],
           cfs_minimize(ref["minimize_action"]["diagonal"])),
    ]


def _vacuum_3d(rng, workdir: Path, ref) -> list:
    return [
        Op(BUILD, ["vacuum", "build", *LATTICE_1P3, *MASSES, "--out", "vac.okn"], vacuum_build,
           writes=("vac.okn",)),
        Op(QUERY, ["vacuum", "residual", "--infile", "vac.okn"], vacuum_residual(ref["vacuum"]["1+3"])),
        Op(QUERY, ["vacuum", "localize", "--infile", "vac.okn", "--point", "2,3,1,0"], vacuum_localize),
        Op(QUERY, ["vacuum", "act", "--infile", "vac.okn", "--op", "1,2", "--out", "acted.okn"],
           vacuum_act(ref["vacuum"]["1+3"]), writes=("acted.okn",)),
    ]


WORKLOADS = {"readme": _readme, "causal": _causal, "vacuum-3d": _vacuum_3d}


def prepare(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's input files into workdir and return its ops in order.

    Checks compare with reference.json: values the seed commit printed for the
    same calls.
    """
    ref = json.loads(Path(__file__).with_name("reference.json").read_text())
    return WORKLOADS[workload](np.random.default_rng(seed), workdir, ref)
