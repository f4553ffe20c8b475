import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
import zipfile

import numpy as np
import pytest

import octo_cfs
from octo_cfs import cfs
from octo_cfs.cli import build_parser, main
from octo_cfs.lattice import (AUX_SUMMANDS, VACUUM_COEFFICIENTS, LatticeSpec, MassData, dirac_residual_single,
                              vacuum_seas)
from octo_cfs.mult_algebra import chain


def run(args, capsys=None):
    code = main(args)
    return code


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_octonion_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["octonion", "table", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 9  # header + 8 labeled rows
    assert lines[1].split(",")[0] == "e0"
    assert lines[2].split(",")[3] == "e3"  # row e1, column e2: e1 e2 = e3
    assert lines[2].split(",")[2] == "-e0"  # e1 e1 = -1


def test_octonion_check_passes(tmp_path):
    out = tmp_path / "check.json"
    assert run(["octonion", "check", "--seed", "4", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["all_passed"]
    assert rep["meta"]["seed"] == 4


def _octonion_check_oracle(seed: int, tol: float = 1e-12) -> list:
    """The sampled checks of `octonion check`, one (x, y) pair at a time as they were first written."""
    from octo_cfs.octonion import Octonion, associator, conj, inv, mul, norm, split, unsplit

    rng = np.random.default_rng(seed)
    e = Octonion.e
    worst = 0.0
    for _ in range(1000):
        x = Octonion(rng.standard_normal(8))
        y = Octonion(rng.standard_normal(8))
        worst = max(worst, abs(norm(mul(x, y)) - norm(x) * norm(y)) / max(1.0, norm(x) * norm(y)))
    worst_a = 0.0
    for _ in range(200):
        x = Octonion(rng.standard_normal(8))
        y = Octonion(rng.standard_normal(8))
        worst_a = max(worst_a, float(np.abs(associator(x, x, y).coeffs).max()))
    worst_inv = worst_split = worst_conj = 0.0
    for _ in range(100):
        x = Octonion(rng.standard_normal(8))
        y = Octonion(rng.standard_normal(8))
        worst_inv = max(worst_inv, float(np.abs((mul(inv(x), x) - e(0)).coeffs).max()))
        worst_split = max(worst_split, float(np.abs(unsplit(split(x)).coeffs - x.coeffs).max()))
        worst_conj = max(worst_conj, float(np.abs((mul(conj(x), conj(y)) - conj(mul(y, x))).coeffs).max()))
    return [
        {"name": "norm_multiplicative_1000", "passed": worst < tol, "value": float(worst)},
        {"name": "alternativity_200", "passed": worst_a < tol * 100, "value": worst_a},
        {"name": "inverse_100", "passed": worst_inv < tol * 100, "value": worst_inv},
        {"name": "split_round_trip_100", "passed": worst_split == 0.0, "value": worst_split},
        {"name": "conj_antiautomorphism_100", "passed": worst_conj < tol * 100, "value": worst_conj},
    ]


def _clifford_identities_oracle(seed: int, tol: float = 1e-12) -> list:
    """The letter, Cl(0,6) and sampled checks of `clifford identities`, one pair at a time as they were first written."""
    from octo_cfs.mult_algebra import left_unit, quadratic_relation_check
    from octo_cfs.octonion import Octonion, norm

    sq = max(float(np.abs(chain([a, a]) + np.eye(8)).max()) for a in range(1, 8))
    anti = max(float(np.abs(chain([a, b]) + chain([b, a])).max()) for a in range(1, 8) for b in range(1, 8) if a != b)
    cl = 0.0
    for i in range(1, 7):
        for j in range(1, 7):
            dev = left_unit(i) @ left_unit(j) + left_unit(j) @ left_unit(i) + 2.0 * (i == j) * np.eye(8)
            cl = max(cl, float(np.abs(dev).max()))
    rng = np.random.default_rng(seed)
    quad = 0.0
    for _ in range(200):
        x = Octonion(rng.standard_normal(8))
        y = Octonion(rng.standard_normal(8))
        quad = max(quad, float(quadratic_relation_check(x, y)) / max(1.0, norm(x) * norm(y)))
    return [
        {"name": "squares_minus_identity", "passed": sq == 0.0, "value": sq},
        {"name": "letter_anticommutation", "passed": anti == 0.0, "value": anti},
        {"name": "clifford_cl06_relations", "passed": cl == 0.0, "value": cl},
        {"name": "quadratic_relation_200", "passed": quad < tol, "value": float(quad)},
    ]


def test_sampled_checks_equal_the_per_sample_oracles(tmp_path):
    out = tmp_path / "checks.json"
    for seed in range(21):
        for command, oracle in ((["octonion", "check"], _octonion_check_oracle),
                                (["clifford", "identities"], _clifford_identities_oracle)):
            assert run([*command, "--seed", str(seed), "--out", str(out)]) == 0
            expect = oracle(seed)
            names = {c["name"] for c in expect}
            assert [c for c in read_json(out)["checks"] if c["name"] in names] == expect


def test_clifford_dim(tmp_path):
    out = tmp_path / "dim.json"
    assert run(["clifford", "dim", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["real_dim"] == 64
    assert rep["complex_dim"] == 64


def test_clifford_identities(tmp_path):
    out = tmp_path / "ids.json"
    assert run(["clifford", "identities", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["all_passed"]
    names = {c["name"] for c in rep["checks"]}
    assert "chain_l1..l6_equals_l7" in names
    assert "left_right_span_equality" in names


def test_ideals_states_csv(tmp_path):
    out = tmp_path / "states.csv"
    assert run(["ideals", "states", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 17  # header + 16 states
    assert lines[1] == "nu,u,0,0"
    assert "e+,u,3,1" in lines
    assert "d_r,d,1,-1/3" in lines


def test_ideals_su3_and_casimir(tmp_path):
    out = tmp_path / "su3.json"
    assert run(["ideals", "su3", "--out", str(out)]) == 0
    rep = read_json(out)
    assert len(rep["nonzero"]) > 0
    f123 = [r for r in rep["nonzero"] if (r["a"], r["b"], r["c"]) == (1, 2, 3)]
    assert f123 and abs(abs(f123[0]["f"]) - 1.0) < 1e-9

    out2 = tmp_path / "cas.json"
    assert run(["ideals", "casimir", "--out", str(out2)]) == 0
    rep2 = read_json(out2)
    assert rep2["u"]["decomposition"] == "1+3bar+3+1"
    assert rep2["d"]["decomposition"] == "1+3+3bar+1"


def _measure_file(tmp_path):
    cfg = cfs.SystemConfig(f=2, n=1, kappa=0.2)
    x = cfs.validate_point(np.diag([1.0, 0.0]).astype(complex), cfg)
    y = cfs.validate_point(np.diag([0.0, 1.0]).astype(complex), cfg)
    m = cfs.DiscreteMeasure(points=cfs.validate_points(np.array([x.matrix, y.matrix]), cfg), weights=[0.5, 0.5])
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(cfs.measure_to_json(m, cfg)))
    return path


def test_cfs_action(tmp_path):
    path = _measure_file(tmp_path)
    out = tmp_path / "action.json"
    assert run(["cfs", "action", "--measure", str(path), "--out", str(out)]) == 0
    rep = read_json(out)
    assert abs(rep["volume"] - 1.0) < 1e-12
    assert abs(rep["trace"] - 1.0) < 1e-12
    assert abs(rep["action"] - (0.25 + 0.2 / 2)) < 1e-12


def test_cfs_classify(tmp_path):
    cfg = {"f": 2, "n": 1, "kappa": 0.1}
    points = [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    ]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"config": cfg, "points": points}))
    out = tmp_path / "cls.json"
    assert run(["cfs", "classify", "--pairs", str(path), "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["results"][0]["class"] == "timelike"


def test_cfs_classify_explicit_empty_pairs(tmp_path):
    point = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.1}, "points": [point] * 3, "pairs": []}))
    out = tmp_path / "cls.json"
    assert run(["cfs", "classify", "--pairs", str(path), "--out", str(out)]) == 0
    assert read_json(out)["results"] == []
    path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.1}, "points": [point] * 3, "pairs": None}))
    assert run(["cfs", "classify", "--pairs", str(path)]) == 2


def _geometry_pairs_file(tmp_path):
    cfg = {"f": 2, "n": 1, "kappa": 0.1}
    points = [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        [[[1.2, 0.0], [0.1, 0.0]], [[0.1, 0.0], [-0.9, 0.0]]],
        [[[0.9, 0.0], [0.0, 0.05]], [[0.0, -0.05], [-1.1, 0.0]]],
    ]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"config": cfg, "points": points}))
    return path


def test_cfs_classify_geometry(tmp_path):
    path = _geometry_pairs_file(tmp_path)
    out = tmp_path / "geo.json"
    assert run(["cfs", "classify", "--pairs", str(path), "--geometry", "--out", str(out)]) == 0
    rep = read_json(out)
    for entry in rep["results"]:
        assert entry["completeness_residual"] < 1e-10
        assert entry["closed_chain_trace_residual"] < 1e-10
        assert isinstance(entry["spin_connection_unitarity"], (float, str))
    assert rep["holonomy_012_loop_residual"] < 1e-7


def _random_pairs_file(tmp_path, count, pairs, f=16, n=2):
    cfg = cfs.SystemConfig(f=f, n=n, kappa=0.2)
    r = np.random.default_rng(5)
    points = [cfs.random_point(r, cfg).matrix for _ in range(count)]
    points = [np.stack([m.real, m.imag], -1).tolist() for m in points]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"config": {"f": f, "n": n, "kappa": 0.2}, "points": points, "pairs": pairs}))
    return path


@pytest.mark.parametrize("pairs, solved", [([[0, 1]], 1), ([], 0)])
def test_cfs_classify_solves_only_the_pairs_it_reports(tmp_path, monkeypatch, pairs, solved):
    path = _random_pairs_file(tmp_path, 40, pairs)
    eigvals, matrices = np.linalg.eigvals, []

    def spy(a):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    assert run(["cfs", "classify", "--pairs", str(path), "--out", str(tmp_path / "cls.json")]) == 0
    assert sum(matrices) == solved  # of the 820 pairs i <= j of the 40 points


def test_cfs_classify_reports_a_reversed_pair_like_the_pair(tmp_path):
    path = _random_pairs_file(tmp_path, 5, [[3, 1], [1, 3]], f=4)
    out = tmp_path / "cls.json"
    assert run(["cfs", "classify", "--pairs", str(path), "--out", str(out)]) == 0
    first, second = read_json(out)["results"]
    assert (first["pair"], second["pair"]) == ([3, 1], [1, 3])
    assert first["spectrum"] == second["spectrum"] and first["class"] == second["class"]


def test_cfs_classify_rejects_bad_pair_indices(tmp_path, capsys):
    cfg = {"f": 2, "n": 1, "kappa": 0.1}
    point = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    path = tmp_path / "pairs.json"
    for bad in ([0, 99], [-1, 0], [0]):
        path.write_text(json.dumps({"config": cfg, "points": [point] * 3, "pairs": [[0, 1], bad]}))
        assert run(["cfs", "classify", "--pairs", str(path)]) == 2
        assert repr(bad) in capsys.readouterr().err


def test_cfs_minimize_and_el_residual(tmp_path):
    fam = {"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": {"type": "mirror_pair"}}
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(fam))
    out = tmp_path / "min.json"
    assert run(["cfs", "minimize", "--family", str(fam_path), "--seed", "1", "--out", str(out)]) == 0
    rep = read_json(out)
    assert abs(rep["report"]["action"] - (0.25 + 0.1)) < 1e-6
    assert rep["report"]["converged"]

    # feed the optimized measure back through el-residual
    meas_path = tmp_path / "opt_measure.json"
    meas_path.write_text(json.dumps(rep["measure"]))
    out2 = tmp_path / "el.json"
    assert run([
        "cfs", "el-residual", "--measure", str(meas_path),
        "--s", str(rep["report"]["s_posthoc"]), "--out", str(out2),
    ]) == 0
    rep2 = read_json(out2)
    assert rep2["spread"] < 1e-5 * (1 + abs(rep["report"]["action"]))


def test_cfs_minimize_kappa_flag_overrides_file_config(tmp_path):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2, "s": 0.3},
                                    "family": {"type": "mirror_pair"}}))
    out = tmp_path / "min.json"
    assert run(["cfs", "minimize", "--family", str(fam_path), "--kappa", "0.5", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["measure"]["config"] == {"f": 2, "n": 1, "kappa": 0.5, "s": 0.3}
    assert abs(rep["report"]["action"] - (0.25 + 0.25)) < 1e-6


def test_cfs_minimize_causal_diagonal_family_is_pinned(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({"config": {"f": 4, "n": 2, "kappa": 0.2}, "family": {
        "type": "diagonal", "signs": [[1, 1, -1, -1], [-1, -1, 1, 1], [1, -1, 1, -1]]}}))
    outs = []
    for _ in range(2):
        assert run(["cfs", "minimize", "--family", str(fam_path), "--seed", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert abs(json.loads(outs[0])["report"]["action"] - 0.05625) <= 1e-10


def test_cfs_minimize_with_f_below_2n(tmp_path):
    # the off-support probe draws random points with at most f nonzero eigenvalues
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({"config": {"f": 2, "n": 2, "kappa": 0.2}, "family": {"type": "mirror_pair"}}))
    out = tmp_path / "min.json"
    assert run(["cfs", "minimize", "--family", str(fam_path), "--seed", "1", "--out", str(out)]) == 0
    assert abs(read_json(out)["report"]["trace"] - 1.0) < 1e-6


def test_cfs_minimize_rejects_bad_sign_templates(tmp_path, capsys):
    # a table of the wrong shape or values names the table; an entry that is not a JSON number is named by
    # cfs.json_array, as every numeric table's is
    fam_path = tmp_path / "family.json"
    cases = [(bad, f"signs must be a non-empty 2-D table of -1, 0 and 1, got {bad!r}")
             for bad in ([], [1, -1], [[1, 2]], [[1, -1], [1]], [[]])]
    cases += [([["a", "b"]], "family signs must be a JSON number, got 'a'"),
              ([[10**400, 1]], "family signs must be a finite real number, got an integer beyond the float range")]
    for bad, reason in cases:
        fam_path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2},
                                        "family": {"type": "diagonal", "signs": bad}}))
        assert run(["cfs", "minimize", "--family", str(fam_path)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot load family file {fam_path}: {reason}\n")


def test_json_booleans_and_numeric_strings_are_not_numbers(tmp_path, capsys):
    # numbers.Real counts a bool as a number, and numpy reads true and "1" as 1
    params = '{"mu2": true, "lambda1": 1.0, "lambda2": 3.0}'
    assert run(["potentials", "scan", "--tree", "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "mu2 must be a finite real number, got True" in captured.err
    fam_path = tmp_path / "family.json"
    for signs, bad in (([[True, -1], [-1, True]], "True"), ([["1", -1], [-1, 1]], "'1'")):
        fam_path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2},
                                        "family": {"type": "diagonal", "signs": signs}}))
        assert run(["cfs", "minimize", "--family", str(fam_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"family signs must be a JSON number, got {bad}" in captured.err


def test_cfs_minimize_family_that_is_not_an_object_exits_2(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    for bad, kind in (([1, 2], "list"), ("mirror_pair", "str"), (None, "NoneType")):
        fam_path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": bad}))
        assert run(["cfs", "minimize", "--family", str(fam_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot load family file {fam_path}: family must be a JSON object, got {kind}\n"


def test_malformed_input_files_exit_2_naming_what_is_wrong(tmp_path, capsys):
    # before, a top level or config that is not an object exited with Python's indexing text ("list indices must be
    # integers or slices, not str"), and a missing key with its bare repr
    measure = read_json(_measure_file(tmp_path))
    family = {"config": measure["config"], "family": {"type": "diagonal", "signs": [[1, -1], [-1, 1]]}}

    def without(obj, key):
        return {k: v for k, v in obj.items() if k != key}

    files = {"measure": measure, "pairs": without(measure, "weights"), "family": family}
    commands = {"measure": [["action", "--measure"], ["el-residual", "--measure"]], "pairs": [["classify", "--pairs"]],
                "family": [["minimize", "--family"]]}
    cases = [(kind, [], "top level must be a JSON object, got list") for kind in files]
    cases += [(kind, "x", "top level must be a JSON object, got str") for kind in files]
    cases += [(kind, {**obj, "config": []}, "config must be a JSON object, got list") for kind, obj in files.items()]
    cases += [(kind, {**obj, "config": without(obj["config"], "n")}, "missing key 'n'") for kind, obj in files.items()]
    cases += [("measure", without(measure, "points"), "missing key 'points'"),
              ("pairs", without(measure, "points"), "missing key 'points'"),
              ("measure", without(measure, "weights"), "missing key 'weights'"),
              ("family", without(family, "family"), "missing key 'family'"),
              ("family", {**family, "family": {"type": "diagonal"}}, "missing key 'signs'")]
    path = tmp_path / "input.json"
    for kind, obj, reason in cases:
        path.write_text(json.dumps(obj))
        for command in commands[kind]:
            assert run(["cfs", *command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: cannot load {kind} file {path}: {reason}\n")


def test_cfs_action_rejects_non_integer_dimensions(tmp_path, capsys):
    path = _measure_file(tmp_path)
    measure = read_json(path)
    for key, bad in (("f", 2.7), ("n", 1.5), ("f", 2.0), ("n", True)):
        path.write_text(json.dumps({**measure, "config": {**measure["config"], key: bad}}))
        assert run(["cfs", "action", "--measure", str(path)]) == 2
        assert f"config {key} must be a JSON integer, got {bad!r}" in capsys.readouterr().err


def test_files_reject_numbers_that_are_bools_or_strings(tmp_path, capsys):
    path = _measure_file(tmp_path)
    measure = read_json(path)
    point = measure["points"][0]
    bool_entry = [[[True, 0.0], *point[0][1:]], *point[1:]]
    huge = 10**400  # a JSON integer beyond the float range
    huge_entry = [[[huge, 0.0], *point[0][1:]], *point[1:]]
    cases = [({**measure, "config": {**measure["config"], "kappa": "0.2"}}, "config kappa", "0.2"),
             ({**measure, "config": {**measure["config"], "kappa": True}}, "config kappa", True),
             ({**measure, "config": {**measure["config"], "s": "0"}}, "config s", "0"),
             ({**measure, "config": {**measure["config"], "kappa": huge}}, "config kappa", huge),
             ({**measure, "config": {**measure["config"], "s": [0.0]}}, "config kappa and s", [0.0]),
             ({**measure, "weights": ["0.5", 0.5]}, "weight", "0.5"),
             ({**measure, "weights": [0.5, None]}, "weight", None),
             ({**measure, "weights": [huge, 0.5]}, "weight", huge),
             ({**measure, "points": [bool_entry, point]}, "point entry", True),
             ({**measure, "points": [huge_entry, point]}, "point entry", huge)]
    for obj, key, bad in cases:
        path.write_text(json.dumps(obj))
        commands = [["cfs", "action", "--measure", str(path)], ["cfs", "classify", "--pairs", str(path)]]
        for argv in commands[:1] if key == "weight" else commands:  # a pairs file's weights are not read
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot load {argv[2][2:]} file {path}: {key} must be " + (
                "a finite real number, got an integer beyond the float range\n" if bad is huge
                else "JSON numbers, not lists\n" if bad == [0.0] else f"a JSON number, got {bad!r}\n")
    fam_path = tmp_path / "family.json"
    for bad in ("1.2", False, huge):
        family = {"type": "mirror_pair", "init": [bad, 0.4, 0.1, -0.1]}
        fam_path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": family}))
        assert run(["cfs", "minimize", "--family", str(fam_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot load family file {fam_path}: family init must be " + (
            "a finite real number, got an integer beyond the float range\n" if bad is huge
            else f"a JSON number, got {bad!r}\n")


MALFORMED_POINT_TABLES = {  # (the file's points and weights, the reason both readers give)
    "ragged_row": ([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]] * 2, [0.5, 0.5],
                   "points must be a list of 2 x 2 tables of [re, im] pairs"),
    "triple": ([[[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]] * 2, [0.5, 0.5],
               "points must be a list of 2 x 2 tables of [re, im] pairs"),
    "bare_number": ([[[[1.0, 0.0], 0], [[0.0, 0.0], [-1.0, 0.0]]]] * 2, [0.5, 0.5],
                    "points must be a list of 2 x 2 tables of [re, im] pairs"),
    "points_a_number": (3, [0.5, 0.5], "points must be a list of 2 x 2 tables of [re, im] pairs"),
    "point_3x3": ([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                   [[[0.0, 0.0]] * 3] * 3], [0.5, 0.5], "point must be 2 x 2"),
    "weights_ragged": ([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], [[0.5], 0.5],
                       "weights must be a list of 2 numbers, one per point"),
    "weights_nested": ([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], [[0.5], [0.5]],
                       "weights must be a list of 2 numbers, one per point"),
}


@pytest.mark.parametrize("argv", [["action", "--measure"], ["classify", "--pairs"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("case", sorted(MALFORMED_POINT_TABLES))
def test_malformed_point_and_weight_tables_exit_2_naming_the_shape(tmp_path, capsys, case, argv):
    # each defect is named with the shape the reader expects, not left to Python's or numpy's own message
    points, weights, reason = MALFORMED_POINT_TABLES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.1}, "points": points, "weights": weights}))
    if case.startswith("weights") and argv[0] == "classify":
        assert run(["cfs", *argv, str(path)]) == 0  # a pairs file's weights are not read
        return
    assert run(["cfs", *argv, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot load {argv[1][2:]} file {path}: {reason}\n")


def test_cfs_minimize_init_with_underflowed_or_non_finite_logits(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    fam = {"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": {"type": "mirror_pair"}}
    fam["family"]["init"] = [1.2, 0.4, 800.0, 0.0]
    fam_path.write_text(json.dumps(fam))
    out = tmp_path / "min.json"
    assert run(["cfs", "minimize", "--family", str(fam_path), "--out", str(out)]) == 0
    assert read_json(out)["measure"]["weights"] == [1.0]
    fam["family"]["init"] = [1.2, 0.4, float("nan"), -0.1]
    fam_path.write_text(json.dumps(fam))
    assert run(["cfs", "minimize", "--family", str(fam_path)]) == 2
    assert capsys.readouterr().err.startswith("error: x0 must be finite")


def test_cfs_action_invalid_measure(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"config\": {\"f\": 2, \"n\": 1, \"kappa\": 0.1}, \"points\": [], }")
    assert run(["cfs", "action", "--measure", str(path)]) == 2


def test_vacuum_pipeline(tmp_path):
    vac = tmp_path / "vac.okn"
    assert run([
        "vacuum", "build", "--L", "8", "--T", "6", "--a", "0.5", "--eps", "1.0",
        "--masses", "0.5,0.7,0.9", "--neutrino-masses", "0.1,0.2,0.3",
        "--tau", "0.7", "--out", str(vac),
    ]) == 0
    assert vac.exists()

    res_out = tmp_path / "res.json"
    assert run(["vacuum", "residual", "--infile", str(vac), "--out", str(res_out)]) == 0
    rep = read_json(res_out)
    assert rep["residuals"]["nu_he"] == 0.0
    assert rep["max"] < 0.05

    loc_out = tmp_path / "loc.json"
    assert run(["vacuum", "localize", "--infile", str(vac), "--point", "2,3", "--out", str(loc_out)]) == 0
    rep = read_json(loc_out)
    assert rep["charged_sector"]["n_positive"] <= 2
    assert rep["charged_sector"]["n_negative"] <= 2
    assert rep["charged_sector"]["rank"] <= 4

    act_vac = tmp_path / "acted.okn"
    assert run(["vacuum", "act", "--infile", str(vac), "--op", "1", "--out", str(act_vac)]) == 0
    assert act_vac.exists()
    # an acted container keeps the seas, so its aux residuals are the built ones
    act_res = tmp_path / "act_res.json"
    assert run(["vacuum", "residual", "--infile", str(act_vac), "--out", str(act_res)]) == 0
    assert read_json(act_res)["residuals"] == read_json(res_out)["residuals"]


def test_vacuum_container_holds_six_seas_and_residuals_are_exact(tmp_path, capsys):
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "8", "--T", "6", "--tau", "0.7", "--out", str(vac)]) == 0
    built = json.loads(capsys.readouterr().out)
    assert len(built["sectors"]) == 33
    with zipfile.ZipFile(vac) as zf:
        assert sorted(zf.namelist()) == sorted(["header.json", "nu_1.npy", "nu_2.npy", "nu_3.npy",
                                                "c_1.npy", "c_2.npy", "c_3.npy"])
        header = json.loads(zf.read("header.json"))
    assert header["format"] == 2
    assert header["coefficients"] == [[[1.0, 0.0], [0.0, 0.0]]] + [[[0.0, 0.0], [1.0, 0.0]]] * 7
    out = tmp_path / "res.json"
    assert run(["vacuum", "residual", "--infile", str(vac), "--out", str(out)]) == 0
    residuals = read_json(out)["residuals"]
    spec = LatticeSpec(**built["lattice"])
    md = MassData(**built["masses"])
    seas, masses = list(vacuum_seas(md, spec)), md.neutrino_masses + md.charged_masses
    assert list(residuals) == sorted(AUX_SUMMANDS)
    for name, i in AUX_SUMMANDS.items():
        assert residuals[name] == (0.0 if i is None else dirac_residual_single(seas[i], masses[i]))
    csv_out = tmp_path / "res.csv"
    assert run(["vacuum", "residual", "--infile", str(vac), "--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines == ["summand,residual"] + [f"{name},{residuals[name]!r}" for name in AUX_SUMMANDS]


def one_sea_at_a_time(make, seen):
    """A stand-in for the sea stream `make` that fails when a sea it gave out is alive as the next one is made."""
    def stream(*args, **kwargs):
        seas = make(*args, **kwargs)
        while True:
            assert all(ref() is None for ref in seen), "a sea outlived its turn"
            sea = next(seas, None)  # makes or reads the next sea
            if sea is None:
                return
            seen.append(weakref.ref(sea))
            yield sea
            del sea
    return stream


def holds_one_sea_at_a_time(tmp_path, capsys, monkeypatch, command):
    """`vacuum <command>` on a built container reads one sea at a time and prints what it prints unpatched."""
    from octo_cfs import lattice

    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--tau", "0.7", "--out", str(vac)]) == 0
    capsys.readouterr()
    argv = ["vacuum", *command[:1], "--infile", str(vac), *command[1:]]
    assert run(argv) == 0
    unpatched = capsys.readouterr().out
    seen = []
    monkeypatch.setattr(lattice, "read_seas", one_sea_at_a_time(lattice.read_seas, seen))
    assert run(argv) == 0
    assert len(seen) == len(lattice.SEA_LABELS)
    assert capsys.readouterr().out == unpatched


def test_vacuum_residual_holds_one_sea_at_a_time(tmp_path, capsys, monkeypatch):
    holds_one_sea_at_a_time(tmp_path, capsys, monkeypatch, ["residual"])


def test_vacuum_localize_holds_one_sea_at_a_time(tmp_path, capsys, monkeypatch):
    holds_one_sea_at_a_time(tmp_path, capsys, monkeypatch, ["localize", "--point", "2,3"])


def test_vacuum_localize_peaks_at_about_one_sea(tmp_path, capsys):
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "128", "--T", "64", "--tau", "0.7", "--out", str(vac)]) == 0
    sea = (2 * 64 - 1) * 128 * 16 * 16
    argv = ["vacuum", "localize", "--infile", str(vac), "--point", "2,3"]
    assert run(argv) == 0  # a first run imports what the command needs
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sea being read, plus the reader's buffers; a second live sea would double it
    assert sea <= peak < 1.5 * sea, (peak, sea)


def test_vacuum_localize_reports_the_sectors_of_the_stored_coefficients(tmp_path, capsys):
    vac, acted = tmp_path / "vac.okn", tmp_path / "acted.okn"
    assert run(["vacuum", "build", "--L", "8", "--T", "6", "--tau", "0.7", "--out", str(vac)]) == 0
    assert run(["vacuum", "act", "--infile", str(vac), "--op", "1,2", "--out", str(acted)]) == 0
    capsys.readouterr()
    reports = []
    for path, point in ((vac, "2,3"), (vac, "5,0"), (acted, "2,3")):
        assert run(["vacuum", "localize", "--infile", str(path), "--point", point]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    built, moved, acted_rep = reports
    # the lattice is translation invariant: another point prints the same spectra, byte for byte
    assert json.dumps(moved["sectors"]) == json.dumps(built["sectors"])
    nu, ch = built["neutrino_sector"], built["charged_sector"]
    assert nu["eigenvalues"] != ch["eigenvalues"]
    for s in (nu, ch):
        assert (s["n_positive"], s["n_negative"], s["rank"]) == (2, 2, 4)
    assert built["sectors"] == {"e0": nu, **{f"e{i}": ch for i in range(1, 8)}}
    # the acted container keeps the seas, so the two bases are the built ones; each sector follows its row of C
    assert (acted_rep["neutrino_sector"], acted_rep["charged_sector"]) == (nu, ch)
    rows = (chain([1, 2]) @ VACUUM_COEFFICIENTS).real
    changed = [f"e{i}" for i in range(8) if not np.array_equal(rows[i], VACUUM_COEFFICIENTS[i].real)]
    assert changed == [e for e in built["sectors"] if acted_rep["sectors"][e] != built["sectors"][e]]
    assert acted_rep["sectors"]["e3"] == nu
    for i, (c0, c1) in enumerate(rows):
        base = nu if c0 else ch
        w = np.array(acted_rep["sectors"][f"e{i}"]["eigenvalues"])
        assert np.abs(w - np.sort((c0 + c1) * np.array(base["eigenvalues"]))).max() <= 1e-15 * np.abs(w).max()


def test_vacuum_localize_exits_2_on_a_truncated_sea_chunk(tmp_path, capsys):
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    with zipfile.ZipFile(vac) as zf:
        chunks = {name: zf.read(name) for name in zf.namelist()}
    chunks["c_2.npy"] = chunks["c_2.npy"][: len(chunks["c_2.npy"]) // 2]
    broken = tmp_path / "broken.okn"
    with zipfile.ZipFile(broken, "w") as zf:
        for name, data in chunks.items():
            zf.writestr(name, data)
    capsys.readouterr()
    assert run(["vacuum", "localize", "--infile", str(broken), "--point", "2,3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot load kernel container {broken}: ")


def test_vacuum_build_and_act_hold_one_sea_at_a_time(tmp_path, capsys, monkeypatch):
    from octo_cfs import lattice

    vac, acted = tmp_path / "vac.okn", tmp_path / "acted.okn"
    build = ["vacuum", "build", "--L", "4", "--T", "4", "--tau", "0.7", "--out", str(vac)]
    act = ["vacuum", "act", "--infile", str(vac), "--op", "1,2"]
    cases = (("vacuum_seas", build, vac), ("read_seas", act, None), ("read_seas", act + ["--out", str(acted)], acted))
    unpatched = []
    for _, argv, written in cases:
        assert run(argv) == 0
        unpatched.append((capsys.readouterr().out, written and written.read_bytes()))
    for (stream, argv, written), expected in zip(cases, unpatched):
        seen = []
        monkeypatch.setattr(lattice, stream, one_sea_at_a_time(getattr(lattice, stream), seen))
        assert run(argv) == 0
        monkeypatch.undo()
        assert len(seen) == len(lattice.SEA_LABELS)
        assert (capsys.readouterr().out, written and written.read_bytes()) == expected


def test_vacuum_containers_are_byte_identical_to_the_pinned_ones(tmp_path, capsys):
    # sha256 of the containers; their sea chunks are those the whole-list build and act wrote before the seas were
    # streamed. The header records the package version and the local correlation convention, so a change to either
    # changes both digests
    vac, acted = tmp_path / "vac.okn", tmp_path / "acted.okn"
    assert run(["vacuum", "build", "--L", "8", "--T", "6", "--tau", "0.7", "--out", str(vac)]) == 0
    assert run(["vacuum", "act", "--infile", str(vac), "--op", "1,2", "--out", str(acted)]) == 0
    assert hashlib.sha256(vac.read_bytes()).hexdigest() == (
        "d29ca8da06bc2e8c4f0c53f7b67b3883943530b6869b6c77f6c41509ec566f15")
    assert hashlib.sha256(acted.read_bytes()).hexdigest() == (
        "4539671fdf168d9132336b8c9e62cb36357df4b06b11121b29945e3d3387117e")


def test_failed_build_or_act_leaves_the_container_and_no_temporary_file(tmp_path, capsys, monkeypatch):
    from octo_cfs import lattice

    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    built = vac.read_bytes()
    sea_kernel, calls = lattice.sea_kernel, []

    def fails_on_the_fourth_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:
            raise MemoryError("no room for the fourth sea")
        return sea_kernel(*args, **kwargs)

    monkeypatch.setattr(lattice, "sea_kernel", fails_on_the_fourth_call)
    for out in (vac, tmp_path / "fresh.okn"):  # an existing container, then a path that had no file
        calls.clear()
        with pytest.raises(MemoryError, match="fourth sea"):
            run(["vacuum", "build", "--L", "6", "--T", "4", "--out", str(out)])
        assert len(calls) == 4
        assert vac.read_bytes() == built
        assert [p.name for p in tmp_path.iterdir()] == ["vac.okn"]
    monkeypatch.undo()
    read = lattice.read_seas

    def fails_after_three_seas(*args):
        seas = read(*args)
        yield from (next(seas) for _ in range(3))
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(lattice, "read_seas", fails_after_three_seas)
    capsys.readouterr()
    assert run(["vacuum", "act", "--infile", str(vac), "--op", "1,2", "--out", str(vac)]) == 2
    assert capsys.readouterr().err == f"error: cannot load kernel container {vac}: [Errno 5] Input/output error\n"
    assert vac.read_bytes() == built
    assert [p.name for p in tmp_path.iterdir()] == ["vac.okn"]


@pytest.mark.parametrize("dims, L, T", [("1+1", 64, 32), ("1+3", 6, 4)])
def test_build_peak_estimate_bounds_the_peak_of_build_and_act(tmp_path, capsys, dims, L, T):
    from octo_cfs import lattice

    vac = tmp_path / "vac.okn"
    estimate = lattice.build_peak_bytes(lattice.LatticeSpec(L=L, T=T, a=0.5, epsilon=1.0, dims=dims))
    for argv in (["vacuum", "build", "--dims", dims, "--L", str(L), "--T", str(T), "--tau", "0.7", "--out", str(vac)],
                 ["vacuum", "act", "--infile", str(vac), "--op", "1,2", "--out", str(tmp_path / "acted.okn")]):
        assert run(argv) == 0  # a first run imports what the command needs, which is not the command's memory
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate <= 1.5 * peak, (argv[1], peak, estimate)


def test_vacuum_build_size_guard_allocates_nothing(tmp_path, capsys):
    vac = tmp_path / "huge.okn"
    tracemalloc.start()
    t0 = time.perf_counter()
    code = run(["vacuum", "build", "--dims", "1+3", "--L", "1024", "--T", "1024", "--out", str(vac)])
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2
    assert elapsed < 5.0 and peak < 1_000_000
    assert not vac.exists()
    assert "bytes of kernels" in capsys.readouterr().err


def test_vacuum_commands_reject_old_format_container(tmp_path, capsys):
    old = tmp_path / "old.okn"
    header = {"lattice": {"L": 8, "T": 6, "a": 0.5, "epsilon": 1.0, "dims": "1+1"},
              "masses": {"charged_masses": [0.5, 0.7, 0.9], "neutrino_masses": [0.1, 0.2, 0.3]},
              "sectors": ["e0"]}
    with zipfile.ZipFile(old, "w") as zf:
        zf.writestr("header.json", json.dumps(header))
        zf.writestr("e0.npy", b"")
    with zipfile.ZipFile(headless := tmp_path / "headless.okn", "w") as zf:  # a zip that is no container at all
        zf.writestr("e0.npy", b"")
    for path in (old, headless):
        for cmd in (["residual"], ["localize", "--point", "2,3"], ["act", "--op", "1,2"]):
            assert run(["vacuum", cmd[0], "--infile", str(path), *cmd[1:]]) == 2
            assert "rebuild it with `vacuum build`" in capsys.readouterr().err


def test_vacuum_commands_reject_bad_point_and_op(tmp_path, capsys):
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    capsys.readouterr()
    # text that is not integers, or a letter outside 0..7, fails at parse time, naming the flag
    for cmd, reason in ((["localize", "--point", "2,x"], "--point: must be comma-separated integer coordinates"),
                        (["localize", "--point", ""], "--point: must be comma-separated integer coordinates"),
                        (["act", "--op", "1,99"], "--op: must be a comma-separated word of indices 0..7"),
                        (["act", "--op", "1,,2"], "--op: must be a comma-separated word of indices 0..7")):
        with pytest.raises(SystemExit) as exc:
            run(["vacuum", cmd[0], "--infile", str(vac), *cmd[1:]])
        assert exc.value.code == 2
        assert f"argument {reason}, got {cmd[2]!r}\n" in capsys.readouterr().err
    # the count and the bounds of a point need the lattice, so localize checks them
    off = "error: --point {} is off the lattice: need 0 <= t < 4 and 0 <= x_j < 4\n"
    for point, err in (("2,3,1", "error: --point needs 2 comma-separated integer coordinates\n"),
                       ("99,3", off.format("99,3")), ("2,-1", off.format("2,-1")), ("3,4", off.format("3,4"))):
        assert run(["vacuum", "localize", "--infile", str(vac), "--point", point]) == 2
        assert capsys.readouterr() == ("", err)


def test_vacuum_commands_reject_non_container(tmp_path):
    not_zip = tmp_path / "notes.md"
    not_zip.write_text("# not a kernel container\n")
    for cmd in (["residual"], ["localize", "--point", "2,3"], ["act", "--op", "1,2"]):
        assert run(["vacuum", cmd[0], "--infile", str(not_zip), *cmd[1:]]) == 2


def _python(*args, cwd=None):
    """`python *args` in a fresh interpreter that imports this octo_cfs: the completed process, as text."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(octo_cfs.__file__))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def _modules_after(statement):
    """The modules a fresh interpreter holds after `import octo_cfs.cli` and `statement` (lines of code).

    {"scipy": [...], "numpy": [...], "octo_cfs": [layer, ...]}: the scipy and numpy module names, and the
    octo_cfs modules besides the package and `cli` by their short names.
    """
    code = "\n".join([
        "import json, sys, octo_cfs.cli", statement,
        "top = lambda p: sorted(m for m in sys.modules if m.split('.')[0] == p)",
        "print(json.dumps({'scipy': top('scipy'), 'numpy': top('numpy'),",
        "                  'octo_cfs': [m[9:] for m in top('octo_cfs') if m not in ('octo_cfs', 'octo_cfs.cli')]}))",
    ])
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_the_process_entry_exits_and_prints_as_main(tmp_path, capsys):
    version = _python("-m", "octo_cfs.cli", "--version")
    assert (version.returncode, version.stdout) == (0, f"octo-cfs {octo_cfs.__version__}\n")
    unknown = _python("-m", "octo_cfs.cli", "clifford", "dim", "--bogus-flag")
    assert unknown.returncode == 2 and unknown.stdout == ""
    assert unknown.stderr.startswith("usage: octo-cfs [-h] [--version]")
    assert unknown.stderr.endswith("octo-cfs: error: unrecognized arguments: --bogus-flag\n")
    missing = _python("-m", "octo_cfs.cli", "cfs", "action", "--measure", "missing.json", cwd=tmp_path)
    assert missing.returncode == 2 and missing.stdout == ""
    assert missing.stderr == ("error: cannot load measure file missing.json: "
                              "[Errno 2] No such file or directory: 'missing.json'\n")
    assert _python("-m", "octo_cfs.cli", "octonion", "check", "--tol", "0").returncode == 1
    dim = _python("-m", "octo_cfs.cli", "clifford", "dim")
    assert run(["clifford", "dim"]) == 0
    assert (dim.returncode, dim.stdout, dim.stderr) == (0, capsys.readouterr().out, "")


def test_main_leaves_the_collector_as_it_found_it_and_run_keeps_it_out(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(["clifford", "dim"]) == 0
    with pytest.raises(SystemExit):
        run(["--version"])
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    # in a process of its own, `run` collects nothing during the call and freezes the heap at its end
    code = "\n".join([
        "import gc, json, sys, octo_cfs.cli",
        "collections = []",
        "gc.callbacks.append(lambda phase, info: collections.append(info['generation']))",
        "sys.argv = ['octo-cfs', 'clifford', 'dim']",
        "code = octo_cfs.cli.run()",
        "print(json.dumps([code, collections, gc.isenabled(), gc.get_freeze_count() > 0]), file=sys.stderr)",
    ])
    out = _python("-c", code)
    assert json.loads(out.stderr) == [0, [], False, True]


@pytest.mark.parametrize("command", ["cfs minimize", "vacuum act"])
def test_a_command_leaves_few_objects_for_the_cycle_collector(command, tmp_path):
    # `run` never collects, so a command that built reference cycles in a loop would grow without bound;
    # about 1.3k objects are left today, most of them the imports'
    family, vac = tmp_path / "family.json", tmp_path / "vac.okn"
    family.write_text(json.dumps({"config": {"f": 4, "n": 2, "kappa": 0.2}, "family": {
        "type": "diagonal", "signs": [[1, 1, -1, -1], [-1, -1, 1, 1], [1, -1, 1, -1]]}}))
    argv = ["cfs", "minimize", "--family", str(family), "--seed", "1"]
    if command == "vacuum act":
        assert run(["vacuum", "build", "--dims", "1+3", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
        argv = ["vacuum", "act", "--infile", str(vac), "--op", "1,2", "--out", str(tmp_path / "acted.okn")]
    code = "\n".join([
        "import contextlib, gc, io, sys",
        "gc.disable()",
        "import octo_cfs.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = octo_cfs.cli.main({argv!r})",
        "print(code, gc.collect())",
    ])
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    exit_code, unreachable = map(int, out.stdout.split())
    assert exit_code == 0 and unreachable <= 5000


def test_cli_import_loads_no_scipy():
    assert _modules_after("pass")["scipy"] == []


def test_cfs_classify_geometry_loads_no_scipy(tmp_path):
    argv = ["cfs", "classify", "--pairs", str(_geometry_pairs_file(tmp_path)), "--geometry",
            "--out", str(tmp_path / "geo.json")]
    loaded = _modules_after(f"assert octo_cfs.cli.main({argv!r}) == 0")
    assert loaded["scipy"] == [] and "numpy.ma" not in loaded["numpy"]
    assert "holonomy_012_loop_residual" in read_json(tmp_path / "geo.json")


def test_cfs_minimize_loads_no_scipy(tmp_path):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": {"type": "mirror_pair"}}))
    argv = ["cfs", "minimize", "--family", str(fam_path), "--out", str(tmp_path / "min.json")]
    assert _modules_after(f"assert octo_cfs.cli.main({argv!r}) == 0")["scipy"] == []
    assert read_json(tmp_path / "min.json")["report"]["converged"]


def test_cli_import_and_parse_errors_load_no_layer_and_no_numpy():
    assert _modules_after("pass") == {"scipy": [], "numpy": [], "octo_cfs": []}
    for argv in (["--version"], ["--help"], ["cfs", "--help"], ["bogus"], ["cfs", "action"],
                 ["octonion", "check", "--tol", "nan"], ["vacuum", "act", "--infile", "v.okn", "--op", "1,8"],
                 ["vacuum", "localize", "--infile", "v.okn", "--point", "2,x"]):
        call = f"try:\n    octo_cfs.cli.main({argv!r})\nexcept SystemExit as exc:\n    assert exc.code in (0, 2)"
        assert _modules_after(call) == {"scipy": [], "numpy": [], "octo_cfs": []}, argv


_LAYERS = {
    "octonion": ["octonion"],
    "clifford": ["mult_algebra", "octonion"],
    "ideals": ["mult_algebra", "octonion", "witt"],
    "cfs": ["cfs"],
    "cfs minimize": ["cfs", "minimize"],
    "vacuum": ["cfs", "gammas", "lattice"],
    "vacuum act": ["cfs", "gammas", "lattice", "mult_algebra", "octonion"],
    "majorana": ["cfs", "gammas", "lattice", "majorana"],
    "potentials": ["potentials"],
}


def _layers_argv(command, tmp_path):
    """A call of `command` (a key of _LAYERS) whose input files are written to tmp_path."""
    family, vac = tmp_path / "family.json", tmp_path / "vac.okn"
    family.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": {"type": "mirror_pair"}}))
    if command.startswith("vacuum"):
        assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    return {
        "octonion": ["octonion", "table"],
        "clifford": ["clifford", "dim"],
        "ideals": ["ideals", "casimir"],
        "cfs": ["cfs", "action", "--measure", str(_measure_file(tmp_path))],
        "cfs minimize": ["cfs", "minimize", "--family", str(family)],
        "vacuum": ["vacuum", "residual", "--infile", str(vac)],
        "vacuum act": ["vacuum", "act", "--infile", str(vac), "--op", "1,2"],
        "majorana": ["majorana", "check"],
        "potentials": ["potentials", "scan", "--tree", "--params", '{"mu2": 2.0, "lambda1": 1.0, "lambda2": 3.0}'],
    }[command]


@pytest.mark.parametrize("command", sorted(_LAYERS))
def test_each_command_loads_only_its_layers(command, tmp_path):
    argv = _layers_argv(command, tmp_path)
    assert _modules_after(f"assert octo_cfs.cli.main({argv!r}) == 0")["octo_cfs"] == _LAYERS[command]


@pytest.mark.parametrize("group, patched, raised", [
    ("clifford", "mult_algebra.span_dimension", "__import__('numpy').linalg.LinAlgError"),
    ("potentials", "potentials.tree_stationary_points", "__import__('numpy').linalg.LinAlgError"),
], ids=("LinAlgError-span_dimension", "LinAlgError"))
def test_numerical_failure_classes_exit_3_and_load_no_other_layer(group, patched, raised, tmp_path):
    argv = _layers_argv(group, tmp_path)
    module, _, name = patched.rpartition(".")
    statement = "\n".join([
        "import contextlib, importlib, io",
        f"layer = importlib.import_module('octo_cfs.{module}')",
        "def fail(*args, **kwargs):",
        f"    raise {raised}('forced')",
        f"setattr(layer, {name!r}, fail)",
        "err = io.StringIO()",
        "with contextlib.redirect_stderr(err):",
        f"    code = octo_cfs.cli.main({argv!r})",
        "assert (code, err.getvalue()) == (3, 'numerical failure: forced\\n'), (code, err.getvalue())",
    ])
    assert _modules_after(statement)["octo_cfs"] == _LAYERS[group]


def test_majorana_check(tmp_path):
    out = tmp_path / "maj.json"
    assert run(["majorana", "check", "--seed", "2", "--out", str(out)]) == 0
    rep = read_json(out)["report"]
    assert rep["clifford_residual_majorana"] == 0.0
    assert rep["derived_factorization_max_residual"] < 1e-12


def test_potentials_scan_tree_and_loop(tmp_path):
    out = tmp_path / "tree.json"
    params = json.dumps({"mu2": 2.0, "lambda1": 1.0, "lambda2": 3.0})
    assert run(["potentials", "scan", "--tree", "--params", params, "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["regime"] == "parity_violating"
    globals_ = [p for p in rep["stationary_points"] if p["is_global"]]
    assert all(p["kind"] == "axis" for p in globals_)

    out2 = tmp_path / "loop.json"
    params2 = json.dumps({"lambda1": 0.0063, "lambda2": 1.0, "g": 1.0, "M": 1.0})
    assert run(["potentials", "scan", "--loop", "--params", params2, "--out", str(out2)]) == 0
    rep2 = read_json(out2)
    assert rep2["vacuum"]["is_local_minimum"]

    assert run(["potentials", "scan", "--tree", "--params", "{bad"]) == 2


def test_potentials_scan_loop_exits_3_when_vr_squared_leaves_the_float_range(capsys):
    for g, M in ((1e-3, 1.0), (1e-100, 1.0), (1e-3, 1e200), (1.0, 1e200)):
        params = json.dumps({"lambda1": 0.0063, "lambda2": 1.0, "g": g, "M": M})
        assert run(["potentials", "scan", "--loop", "--params", params]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: v_R^2 = ") and "Warning" not in captured.err


def test_potentials_scan_loop_exits_3_when_the_symmetric_point_leaves_the_floats(capsys):
    # lambda2 = -1000 overflows s_sym, -3.47 overflows V(s_sym, s_sym), 1000 underflows s_sym to 0
    for lambda2 in (-1000, -3.47, 1000):
        params = json.dumps({"lambda1": 0.0063, "lambda2": lambda2, "g": 1.0, "M": 1.0})
        assert run(["potentials", "scan", "--loop", "--params", params]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ") and "Warning" not in captured.err


def test_exit_codes(tmp_path):
    import pytest

    # a tolerance of zero forces the randomized identity checks to fail
    assert run(["octonion", "check", "--tol", "0"]) == 1
    # unknown flags and subcommands are rejected by the parser with code 2
    with pytest.raises(SystemExit) as exc:
        run(["clifford", "dim", "--bogus-flag"])
    assert exc.value.code == 2


def test_negative_seed_exits_2_at_parse_time(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": {"type": "mirror_pair"}}))
    pairs = str(_measure_file(tmp_path))
    for argv in (["octonion", "check"], ["clifford", "identities"], ["cfs", "classify", "--pairs", pairs],
                 ["cfs", "minimize", "--family", str(family)], ["majorana", "check"]):
        with pytest.raises(SystemExit) as exc:  # the parser rejects it before the command runs
            run([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err


def test_tol_must_be_finite_and_non_negative(capsys):
    for command in (["octonion", "check"], ["clifford", "identities"]):
        for bad in ("nan", "-1", "inf"):
            with pytest.raises(SystemExit) as exc:
                run([*command, "--tol", bad])
            assert exc.value.code == 2
            assert f"argument --tol: must be a finite number >= 0, got '{bad}'" in capsys.readouterr().err
        assert build_parser().parse_args([*command, "--tol", "0"]).tol == 0.0


def test_reproducibility_byte_identical(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": {"type": "mirror_pair"}}))
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "8", "--T", "6", "--tau", "0.7", "--out", str(vac)]) == 0
    r = np.random.default_rng(5)
    cfg = cfs.SystemConfig(f=6, n=2, kappa=0.2)
    pts = [p for p in (cfs.random_point(r, cfg) for _ in range(8)) if p.matrix.any()][:5]
    meas_path = tmp_path / "measure.json"
    meas = cfs.DiscreteMeasure(points=cfs.validate_points(np.array([p.matrix for p in pts]), cfg),
                               weights=np.full(len(pts), 1.0 / len(pts)))
    meas_path.write_text(json.dumps(cfs.measure_to_json(meas, cfg)))
    for cmd_suffix in (
        ["octonion", "check", "--seed", "9"],
        ["clifford", "identities", "--seed", "9"],
        ["ideals", "su3"],
        ["majorana", "check", "--seed", "9"],
        ["cfs", "minimize", "--family", str(fam_path), "--seed", "1"],
        ["cfs", "action", "--measure", str(meas_path)],
        ["cfs", "el-residual", "--measure", str(meas_path), "--s", "0.3"],
        ["cfs", "classify", "--pairs", str(meas_path), "--geometry"],
        ["vacuum", "localize", "--infile", str(vac), "--point", "2,3"],
        ["vacuum", "residual", "--infile", str(vac)],
    ):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(cmd_suffix + ["--out", str(out1)]) == 0
        assert run(cmd_suffix + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    # `vacuum act --out` names the acted container; the report goes to stdout
    capsys.readouterr()
    reports = []
    for name in ("acted1.okn", "acted2.okn"):
        assert run(["vacuum", "act", "--infile", str(vac), "--op", "1,2", "--out", str(tmp_path / name)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1].replace("acted2.okn", "acted1.okn")
    assert (tmp_path / "acted1.okn").read_bytes() == (tmp_path / "acted2.okn").read_bytes()


def test_vacuum_act_in_place_matches_act_to_another_path(tmp_path, capsys):
    # act writes a sibling file and renames it onto --out when complete, so --out may name the --infile it streams
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "8", "--T", "6", "--tau", "0.7", "--out", str(vac)]) == 0
    same = tmp_path / "same.okn"
    same.write_bytes(vac.read_bytes())
    capsys.readouterr()
    assert run(["vacuum", "act", "--infile", str(vac), "--op", "1,2", "--out", str(tmp_path / "other.okn")]) == 0
    to_other = json.loads(capsys.readouterr().out)
    assert run(["vacuum", "act", "--infile", str(same), "--op", "1,2", "--out", str(same)]) == 0
    in_place = json.loads(capsys.readouterr().out)
    assert in_place["sector_norms"] == to_other["sector_norms"]
    assert in_place["meta"]["params"] == {**to_other["meta"]["params"], "infile": str(same), "out": str(same)}
    assert same.read_bytes() == (tmp_path / "other.okn").read_bytes()


def test_emit_maps_numpy_scalars_and_complex_to_json_values(capsys):
    from octo_cfs.cli import _emit

    obj = {
        "b": np.bool_(True), "f": np.float64(0.1), "f32": np.float32(0.5), "i": np.int64(7), "u": np.uint8(3),
        "z": np.complex128(1 - 2j), "c": 2 + 3j, "s": np.str_("x"), "a": np.array([[1.5, 2.0]]),
        "t": (np.False_, None, "y", 4, 0.25, True), "nested": [{"k": np.arange(2)}],
        "za": np.array([1j, 2.0]), "big": np.float64(1e300), "tiny": np.float64(5e-324),
    }
    args = build_parser().parse_args(["clifford", "dim"])
    assert _emit(args, obj) == 0
    text = capsys.readouterr().out
    plain = json.loads(text)
    assert plain.pop("meta")["command"] == "clifford dim"
    assert plain == {
        "b": True, "f": 0.1, "f32": 0.5, "i": 7, "u": 3, "z": [1.0, -2.0], "c": [2.0, 3.0], "s": "x",
        "a": [[1.5, 2.0]], "t": [False, None, "y", 4, 0.25, True], "nested": [{"k": [0, 1]}],
        "za": [[0.0, 1.0], [2.0, 0.0]], "big": 1e300, "tiny": 5e-324,
    }
    # numpy floats print as the Python float of the same value: float repr, not numpy's
    assert '"f": 0.1,' in text and '"big": 1e+300,' in text and '"tiny": 5e-324' in text
    for bad in (np.float64("nan"), np.float32("inf"), np.array([1.0, np.nan]), complex(np.inf, 0)):
        with pytest.raises(FloatingPointError):
            _emit(args, {"x": bad})
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        _emit(args, {"x": {1}})
    assert capsys.readouterr().out == ""


def test_cfs_flags_reject_non_finite_or_out_of_range_values(tmp_path, capsys):
    measure = str(_measure_file(tmp_path))
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2}, "family": {"type": "mirror_pair"}}))
    cases = [(["el-residual", "--measure", measure, "--s", v], "--s") for v in ("-1", "nan", "inf")]
    cases += [(["minimize", "--family", str(family), "--kappa", v], "--kappa") for v in ("0", "-0.5", "nan", "inf")]
    for argv, flag in cases:
        assert run(["cfs", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and "family file" not in err
    family.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": float("nan")}, "family": {"type": "mirror_pair"}}))
    assert run(["cfs", "minimize", "--family", str(family)]) == 2
    assert "cannot load family file" in capsys.readouterr().err


def test_unwritable_out_exits_2_with_path_and_reason(tmp_path, capsys):
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    missing = tmp_path / "missing"
    for argv, out in ((["cfs", "action", "--measure", str(_measure_file(tmp_path))], missing / "o.json"),
                      (["vacuum", "build", "--L", "4", "--T", "4"], missing / "v.okn"),
                      (["vacuum", "act", "--infile", str(vac), "--op", "1"], missing / "a.okn"),
                      (["octonion", "table"], tmp_path)):
        capsys.readouterr()
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --out {out}: ")
    assert not missing.exists()


# ---------------------------------------------------------------- the command table

#: The common flags each command reads; every other common flag exits 2.
COMMON_FLAGS = {"--out": "x.out", "--format": "csv", "--seed": "3", "--tol": "1e-9"}
READS = {
    ("octonion", "table"): ("--out", "--format"),
    ("octonion", "check"): ("--out", "--format", "--seed", "--tol"),
    ("clifford", "dim"): ("--out",),
    ("clifford", "identities"): ("--out", "--format", "--seed", "--tol"),
    ("ideals", "states"): ("--out", "--format"),
    ("ideals", "su3"): ("--out", "--format"),
    ("ideals", "casimir"): ("--out",),
    ("cfs", "action"): ("--out",),
    ("cfs", "classify"): ("--out", "--format", "--seed"),
    ("cfs", "minimize"): ("--out", "--seed"),
    ("cfs", "el-residual"): ("--out", "--format"),
    ("vacuum", "build"): ("--out",),
    ("vacuum", "residual"): ("--out", "--format"),
    ("vacuum", "localize"): ("--out",),
    ("vacuum", "act"): ("--out",),
    ("majorana", "check"): ("--out", "--seed"),
    ("potentials", "scan"): ("--out", "--format"),
}
REQUIRED = {
    ("cfs", "action"): ["--measure", "m.json"],
    ("cfs", "classify"): ["--pairs", "p.json"],
    ("cfs", "minimize"): ["--family", "f.json"],
    ("cfs", "el-residual"): ["--measure", "m.json"],
    ("vacuum", "residual"): ["--infile", "v.okn"],
    ("vacuum", "localize"): ["--infile", "v.okn", "--point", "2,3"],
    ("vacuum", "act"): ["--infile", "v.okn", "--op", "1"],
    ("potentials", "scan"): ["--tree", "--params", "{}"],
}


def _table(parser):
    """(group, verb) -> subparser, read back from a built parser."""
    import argparse

    def choices(p):
        return next(a for a in p._actions if isinstance(a, argparse._SubParsersAction)).choices

    return {(g, v): pv for g, pg in choices(parser).items() for v, pv in choices(pg).items()}


@pytest.mark.parametrize("command", sorted(READS), ids=" ".join)
def test_each_command_takes_only_the_common_flags_it_reads(command, capsys):
    argv = [*command, *REQUIRED.get(command, [])]
    for flag, value in COMMON_FLAGS.items():
        if flag in READS[command]:
            build_parser().parse_args([*argv, flag, value])
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*argv, flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], *([group, "--help"] for group in dict.fromkeys(g for g, _ in READS)),
                                  ["bogus"], ["octonion", "bogus"], ["cfs", "action"], ["octonion", "table", "--bogus"]],
                         ids=" ".join)
def test_main_parses_with_one_group_as_with_every_group(argv, capsys):
    # main parses with the one parser every caller builds: help exits 0 and a usage error 2, with the same output
    outcomes = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if "--help" in argv else 2)


def test_every_cmd_handler_is_reachable_through_the_parser():
    from octo_cfs import cli

    table = _table(build_parser())
    assert set(table) == set(READS) and sum(len(flags) for flags in READS.values()) == 33
    reached = {p.get_default("handler") for p in table.values()}
    assert reached == {f for name, f in vars(cli).items() if name.startswith("cmd_")}
    args = build_parser().parse_args(["ideals", "casimir"])
    assert args.handler is cli.cmd_ideals_casimir


def test_readme_command_lines_parse():
    import re
    import shlex
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    lines = [line for line in lines if line]
    assert len(lines) == 18 and all(line[0] == "octo-cfs" for line in lines)
    for line in lines:
        args = build_parser().parse_args(line[1:])
        assert (args.group, args.verb) in READS


def test_meta_seed_is_null_without_seed_flag(tmp_path):
    out = tmp_path / "dim.json"
    assert run(["clifford", "dim", "--out", str(out)]) == 0
    assert read_json(out)["meta"]["seed"] is None
    assert read_json(out)["meta"]["command"] == "clifford dim"


def test_vacuum_container_out_keeps_its_default_and_report_goes_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = build_parser().parse_args(["vacuum", "build"])
    assert args.container == "vacuum.okn" and not hasattr(args, "out")
    assert build_parser().parse_args(["vacuum", "act", "--infile", "v.okn", "--op", "1"]).container is None
    assert run(["vacuum", "build", "--L", "4", "--T", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["params"] == {"out": "vacuum.okn"}
    assert (tmp_path / "vacuum.okn").exists()


# ---------------------------------------------------------------- validation of inputs

def test_vacuum_build_checks_out_before_building(tmp_path, capsys, monkeypatch):
    from octo_cfs import lattice

    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    built = vac.read_bytes()
    calls = []

    def never(*args, **kwargs):
        calls.append(args)
        raise AssertionError("sea_kernel ran before --out was opened")

    monkeypatch.setattr(lattice, "sea_kernel", never)
    for out, reason in ((tmp_path / "missing" / "v.okn", "No such file or directory"), (tmp_path, "Is a directory")):
        capsys.readouterr()
        assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write --out {out}: {reason}\n"
        assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vac.okn"]
    # a build that fails after the check leaves an existing container as it was
    with pytest.raises(AssertionError, match="sea_kernel ran"):
        run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)])
    assert vac.read_bytes() == built


def test_non_finite_measure_input_exits_2(tmp_path, capsys):
    base = json.loads(_measure_file(tmp_path).read_text())
    nan_weight = {**base, "weights": [float("nan"), 1.0]}
    nan_point = json.loads(json.dumps(base))
    nan_point["points"][0][0][0] = [float("nan"), 0.0]
    (tmp_path / "w.json").write_text(json.dumps(nan_weight))
    (tmp_path / "p.json").write_text(json.dumps(nan_point))
    # a pairs file has no weights, so only the measure commands read the NaN weight
    cases = [("action", "--measure", "w.json", "measure file", "weights must be positive and finite"),
             ("action", "--measure", "p.json", "measure file", "point entries must be finite"),
             ("classify", "--pairs", "p.json", "pairs file", "point entries must be finite")]
    for verb, flag, name, what, reason in cases:
        path = tmp_path / name
        assert run(["cfs", verb, flag, str(path)]) == 2
        assert capsys.readouterr().err == f"error: cannot load {what} {path}: {reason}\n"


def test_non_finite_or_mistyped_parameters_exit_2(tmp_path, capsys):
    out = tmp_path / "v.okn"
    for flags, reason in ((["--a", "nan"], "a must be a finite real number"),
                          (["--eps", "inf"], "epsilon must be a finite real number"),
                          (["--masses", "nan,0.5,0.6"], "masses must be finite and non-negative"),
                          (["--masses", "1e-160,0.5,0.6"], "0 or >= 1e-150"),
                          (["--L", str(10**400)], f"L must be a finite real number, got {10**400}")):
        assert run(["vacuum", "build", "--L", "4", "--T", "4", *flags, "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
    for flag, value in (("--masses", "abc,1,2"), ("--masses", ""), ("--masses", "0.5,0.7"),
                        ("--neutrino-masses", "x"), ("--neutrino-masses", "0.1,0.2,0.3,0.4")):
        with pytest.raises(SystemExit) as exc:  # the parser rejects it before the command runs, naming the flag
            run(["vacuum", "build", "--L", "4", "--T", "4", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be three comma-separated numbers, got {value!r}\n" in capsys.readouterr().err
    assert not out.exists()
    tree = '{"mu2": %s, "lambda1": 1.0, "lambda2": 3.0}'
    loop = '{"lambda1": 0.0063, "lambda2": 1.0, "g": 1.0, "M": %s}'
    for mode, params, reason in (("--tree", tree % '"a"', "mu2 must be a finite real number, got 'a'"),
                                 ("--tree", tree % "NaN", "mu2 must be a finite real number, got nan"),
                                 ("--loop", loop % "NaN", "M must be a finite real number, got nan"),
                                 ("--tree", tree % 10**400, f"mu2 must be a finite real number, got {10**400}"),
                                 ("--tree", "[2.0, 1.0, 3.0]", "must be a JSON object, got [2.0, 1.0, 3.0]"),
                                 ("--loop", '"M"', 'must be a JSON object, got "M"'),
                                 ("--tree", '{"mu2": 2.0, "lambda1": 1.0}', "missing key 'lambda2'"),
                                 ("--loop", '{"lambda1": 0.0063, "g": 1.0, "M": 1.0}', "missing key 'lambda2'"),
                                 ("--tree", tree % '2.0, "x": 1', "unknown key 'x'"),
                                 ("--loop", loop % '1.0, "mu2": 2.0', "unknown key 'mu2'")):
        assert run(["potentials", "scan", mode, "--params", params]) == 2
        assert f"error: --params: {reason}\n" in capsys.readouterr().err


def _with_header(vac, path, edit):
    """Write at `path` the container `vac` with its header replaced by edit(header)."""
    with zipfile.ZipFile(vac) as zf:
        chunks = {name: zf.read(name) for name in zf.namelist()}
    chunks["header.json"] = json.dumps(edit(json.loads(chunks["header.json"]))).encode()
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in chunks.items():
            zf.writestr(name, data)
    return path


@pytest.mark.parametrize("cmd", [["localize", "--point", "2,3"], ["residual"], ["act", "--op", "1"]],
                         ids=lambda cmd: cmd[0])
def test_container_header_without_masses_exits_2(tmp_path, capsys, cmd):
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    broken = _with_header(vac, tmp_path / "broken.okn", lambda header: {k: header[k] for k in header if k != "masses"})
    capsys.readouterr()
    assert run(["vacuum", cmd[0], "--infile", str(broken), *cmd[1:]]) == 2
    assert capsys.readouterr().err == f"error: cannot load kernel container {broken}: missing key 'masses'\n"


def test_container_header_without_tau_reg_exits_2(tmp_path, capsys):
    # a missing tau_reg is not read as 1, which would print the tau = 1 spectrum of a tau = 0.7 container
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--tau", "0.7", "--out", str(vac)]) == 0

    def drop_tau(header):
        header["masses"].pop("tau_reg")
        return header

    broken = _with_header(vac, tmp_path / "broken.okn", drop_tau)
    capsys.readouterr()
    assert run(["vacuum", "localize", "--infile", str(broken), "--point", "2,3"]) == 2
    assert capsys.readouterr().err == f"error: cannot load kernel container {broken}: missing key 'tau_reg'\n"


def test_container_with_the_older_repeated_header_values_still_loads(tmp_path, capsys):
    # containers written before each header value was stored once also carry masses.m_ref and the top-level
    # epsilon and tau_reg; their readers ignore them
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--tau", "0.7", "--out", str(vac)]) == 0

    def older(header):
        header["masses"]["m_ref"] = 1.0
        return {**header, "epsilon": header["lattice"]["epsilon"], "tau_reg": header["masses"]["tau_reg"]}

    old = _with_header(vac, tmp_path / "old.okn", older)
    capsys.readouterr()
    for cmd in (["localize", "--point", "2,3"], ["residual"], ["act", "--op", "1"]):
        outputs = []
        for path in (vac, old):
            assert run(["vacuum", cmd[0], "--infile", str(path), *cmd[1:]]) == 0
            outputs.append({k: v for k, v in json.loads(capsys.readouterr().out).items() if k != "meta"})
        assert outputs[0] == outputs[1]


#: One value of a built header replaced, (object, key, value, the reason the readers give): C of shape 3 x 2 or
#: 8 x 3, ragged, not finite or with a bool in it, and lattice and mass values of the wrong JSON type or beyond
#: the float range.
MALFORMED_HEADERS = {
    "C_3x2": (None, "coefficients", [[[1.0, 0.0], [0.0, 0.0]]] * 3,
              "coefficients must be an 8 x 2 matrix of [re, im] pairs, got shape (3, 2, 2)"),
    "C_8x3": (None, "coefficients", [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 8,
              "coefficients must be an 8 x 2 matrix of [re, im] pairs, got shape (8, 3, 2)"),
    "C_bool": (None, "coefficients", [[[True, 0.0], [0.0, 0.0]]] + [[[0.0, 0.0], [1.0, 0.0]]] * 7,
               "coefficients must be a JSON number, got True"),
    "C_nan": (None, "coefficients", [[[1.0, 0.0], [0.0, 0.0]]] + [[[0.0, 0.0], [float("nan"), 0.0]]] * 7,
              "coefficients must be finite"),
    "C_inf": (None, "coefficients", [[[1.0, 0.0], [0.0, 0.0]]] + [[[0.0, float("inf")], [1.0, 0.0]]] * 7,
              "coefficients must be finite"),
    "C_ragged": (None, "coefficients", [[[1.0, 0.0], [0.0]]] + [[[0.0, 0.0], [1.0, 0.0]]] * 7,
                 "coefficients table is not rectangular"),
    "C_huge": (None, "coefficients", [[[10**400, 0.0], [0.0, 0.0]]] + [[[0.0, 0.0], [1.0, 0.0]]] * 7,
               "coefficients must be a finite real number, got an integer beyond the float range"),
    "L_huge": ("lattice", "L", 10**400, f"L must be a finite real number, got {10**400}"),
    "a_string": ("lattice", "a", "0.5", "a must be a finite real number, got '0.5'"),
    "L_string": ("lattice", "L", "4", "L must be a finite real number, got '4'"),
    "L_float": ("lattice", "L", 4.0, "L must be an integer, got 4.0"),
    "tau_reg_bool": ("masses", "tau_reg", True, "tau_reg must be a finite real number, got True"),
    "masses_strings": ("masses", "charged_masses", ["0.5", "0.7", "0.9"],
                       "charged_masses must be a JSON number, got '0.5'"),
    "masses_nested": ("masses", "neutrino_masses", [[0.1], [0.2], [0.3]],
                      "neutrino_masses must be three masses, got [[0.1], [0.2], [0.3]]"),
    "lattice_list": (None, "lattice", [], "lattice must be a JSON object, got list"),
    "masses_string": (None, "masses", "x", "masses must be a JSON object, got str"),
}


@pytest.mark.parametrize("cmd", [["residual"], ["localize", "--point", "1,1"], ["act", "--op", "1,2"]],
                         ids=lambda cmd: cmd[0])
@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_every_reader_rejects_a_malformed_header_naming_the_field(tmp_path, capsys, case, cmd):
    # each value is checked where its dataclass is built, and C against the vacuum's 8 x 2 shape: before, the
    # readers coerced "4", 4.0, "0.5", true and string masses, and ran on a C of any shape
    obj, key, value, reason = MALFORMED_HEADERS[case]
    vac = tmp_path / "vac.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0

    def edit(header):
        (header if obj is None else header[obj])[key] = value
        return header

    broken = _with_header(vac, tmp_path / "broken.okn", edit)
    capsys.readouterr()
    assert run(["vacuum", cmd[0], "--infile", str(broken), *cmd[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: cannot load kernel container {broken}: {reason}\n")


@pytest.mark.parametrize("cmd", [["residual"], ["localize", "--point", "1,1"], ["act", "--op", "1,2"]],
                         ids=lambda cmd: cmd[0])
def test_every_reader_names_a_missing_sea_member(tmp_path, capsys, cmd):
    # zipfile raises KeyError for an absent member, which is not a missing header key: load_header names the member
    vac, broken = tmp_path / "vac.okn", tmp_path / "broken.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    with zipfile.ZipFile(vac) as zf, zipfile.ZipFile(broken, "w") as bz:
        for name in zf.namelist():
            if name != "c_2.npy":
                bz.writestr(name, zf.read(name))
    capsys.readouterr()
    assert run(["vacuum", cmd[0], "--infile", str(broken), *cmd[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: cannot load kernel container {broken}: missing member 'c_2.npy'\n")


NON_FINITE = "numerical failure: the report holds NaN or an infinite number\n"


def test_a_report_that_is_not_finite_exits_3_and_writes_nothing(tmp_path, capsys):
    # the squared spectral spread of these points overflows: the action is inf and the ell spread NaN;
    # mu2 = 1e308 with lambda1 = 1e-308 puts the tree potential's stationary radius at inf
    measure = tmp_path / "huge.json"
    measure.write_text(json.dumps({"config": {"f": 2, "n": 1, "kappa": 0.2}, "weights": [0.5, 0.5],
                                   "points": [[[[1e90, 0], [0, 0]], [[0, 0], [-1e90, 0]]],
                                              [[[2e90, 0], [0, 0]], [[0, 0], [-1e90, 0]]]]}))
    tree = ["potentials", "scan", "--tree", "--params", '{"mu2": 1e308, "lambda1": 1e-308, "lambda2": 0}']
    out = tmp_path / "report"
    for argv in (["cfs", "action", "--measure", str(measure)], ["cfs", "el-residual", "--measure", str(measure)],
                 tree):
        for flags in ([], ["--out", str(out)], ["--format", "csv", "--out", str(out)]):
            if "--format" in flags and argv[1] == "action":
                continue  # cfs action emits no rows
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run(argv + flags) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == NON_FINITE
            assert not out.exists()


def test_vacuum_build_inputs_that_overflow_exit_and_leave_no_container(tmp_path, capsys):
    out = tmp_path / "v.okn"
    # the square of a mass above 1e150 overflows; a = 1e-160 puts the grid momenta beyond the floats
    for flags, code, err in ((["--masses", "1e200,0.7,0.9"], 2, "and <= 1e150 (a larger square overflows)\n"),
                             (["--a", "1e-160", "--eps", "1"], 3, "numerical failure: sea nu_1 is not finite\n")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["vacuum", "build", "--L", "4", "--T", "4", *flags, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(err)
        assert list(tmp_path.iterdir()) == []
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--masses", "1e150,0.7,0.9", "--out", str(out)]) == 0


def test_vacuum_commands_on_a_sea_that_is_not_finite_exit_3(tmp_path, capsys):
    vac, bad = tmp_path / "vac.okn", tmp_path / "bad.okn"
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(vac)]) == 0
    with zipfile.ZipFile(vac) as zf, zipfile.ZipFile(bad, "w") as bz:
        for name in zf.namelist():
            data = zf.read(name)
            if name == "c_2.npy":
                sea = np.load(io.BytesIO(data))
                sea[0, 0, 0, 0] = np.nan
                buf = io.BytesIO()
                np.save(buf, sea)
                data = buf.getvalue()
            bz.writestr(name, data)
    capsys.readouterr()
    for cmd, err in ((["residual"], NON_FINITE), (["act", "--op", "1"], NON_FINITE),
                     (["act", "--op", "1", "--out", str(tmp_path / "acted.okn")], "sea c_2 is not finite\n")):
        assert run(["vacuum", cmd[0], "--infile", str(bad), *cmd[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.okn", "vac.okn"]


@pytest.mark.parametrize("target", ["mode_onshell_residuals", "SectorKernel.hermiticity_residual"])
def test_vacuum_build_maxima_keep_a_nan(tmp_path, capsys, monkeypatch, target):
    # Python's max drops a NaN that is not its first argument; the report must hold it, and so exit 3
    from octo_cfs import lattice

    owner, name = (lattice.SectorKernel, "hermiticity_residual") if "." in target else (lattice, target)
    real, calls = getattr(owner, name), []

    def nan_on_the_second_call(*args):
        calls.append(args)
        value = real(*args)
        return value * np.nan if len(calls) == 2 else value

    monkeypatch.setattr(owner, name, nan_on_the_second_call)
    assert run(["vacuum", "build", "--L", "4", "--T", "4", "--out", str(tmp_path / "v.okn")]) == 3
    assert capsys.readouterr().err == NON_FINITE
