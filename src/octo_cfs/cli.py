"""Command-line interface: every derivation as a reproducible, seeded experiment.

Exit codes: 0 success, 1 a requested invariant check failed, 2 validation
error, 3 numerical failure. JSON is the canonical output (sorted keys, so
identical configs give byte-identical files); CSV is a convenience
projection of tabular results.

Each handler imports the layers it calls when it runs, so a command loads only
those; `--version`, `--help` and usage errors load no numpy at all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ValidationError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _raisable(*names) -> tuple:
    """The classes among `names` ("module.Class") whose module is loaded; an unloaded module raised none of them."""
    return tuple(getattr(sys.modules[m], c) for m, _, c in (n.rpartition(".") for n in names) if m in sys.modules)


def _json_value(obj):
    """The JSON value of what json cannot encode itself: a complex number as [re, im], a numpy array or scalar."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars: nested lists of Python values, or the Python value
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@contextlib.contextmanager
def _writing(path):
    """Scope that writes `path`; an OSError there exits 2 with the path and the OS reason."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _reading(what, path):
    """Scope that reads and parses `path`; a missing or malformed input exits 2 naming the file."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, *_raisable("zipfile.BadZipFile")) as exc:
        raise ValidationError(f"cannot load {what} {path}: {exc}") from exc


def _override(cfg, flag, value):
    """cfg with the value of --flag when given; a value SystemConfig rejects exits 2 naming the flag."""
    import dataclasses

    try:
        return cfg if value is None else dataclasses.replace(cfg, **{flag: value})
    except ValueError as exc:
        raise ValidationError(f"--{flag}: {exc}") from exc


def _emit(args, payload: dict, rows=None, fields=None, **params) -> int:
    """Write the report and return EXIT_OK: the payload with its `meta` (`params` the keyword arguments) as JSON,
    or a CSV projection of `rows` when --format csv; to --out or stdout. A number that is not finite anywhere in
    the report raises FloatingPointError (exit 3) before anything is written."""
    meta = {"command": f"{args.group} {args.verb}", "version": __version__, "seed": getattr(args, "seed", None),
            "tolerance": getattr(args, "tol", None), "params": params}
    try:
        text = json.dumps({**payload, "meta": meta}, indent=2, sort_keys=True, allow_nan=False,
                          default=_json_value) + "\n"
    except ValueError as exc:
        raise FloatingPointError("the report holds NaN or an infinite number") from exc
    if getattr(args, "format", "json") == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([fields, *rows])
        text = buf.getvalue()
    if getattr(args, "out", None):
        with _writing(args.out), open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _finish_checks(args, checks: list) -> int:
    passed = all(c["passed"] for c in checks)
    rows = [(c["name"], c["passed"], c["value"]) for c in checks]
    status = _emit(args, {"checks": checks, "all_passed": passed}, rows=rows, fields=("check", "passed", "value"))
    return status if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- octonion

def cmd_octonion_table(args) -> int:
    from .octonion import table_rows

    rows = table_rows()
    payload = {"basis": [f"e{i}" for i in range(8)], "table": rows}
    labeled = [[f"e{i}", *row] for i, row in enumerate(rows)]
    return _emit(args, payload, rows=labeled, fields=["", *(f"e{j}" for j in range(8))])


def cmd_octonion_check(args) -> int:
    import numpy as np

    from .octonion import (
        FANO_LINES,
        ComplexOctonion,
        Octonion,
        associator,
        conj,
        inv,
        mul,
        norm,
        projector,
        split,
        unsplit,
    )

    rng = np.random.default_rng(args.seed)
    tol = args.tol if args.tol is not None else 1e-12
    checks = []

    cyc = all(
        mul(Octonion.e(a), Octonion.e(b)) == Octonion.e(c)
        for line in FANO_LINES
        for a, b, c in (line, line[1:] + line[:1], line[2:] + line[:2])
    )
    checks.append({"name": "fano_lines_cyclic", "passed": cyc, "value": None})
    e = Octonion.e
    na = mul(e(4), mul(e(7), e(6))) == -e(5) and mul(mul(e(4), e(7)), e(6)) == e(5)
    checks.append({"name": "nonassociative_pair_e4_e7_e6", "passed": na, "value": None})
    # each battery draws its (x, y) pairs as one (samples, 2, 8) block: the stream of drawing them one by one
    x, y = (Octonion(c) for c in np.moveaxis(rng.standard_normal((1000, 2, 8)), 1, 0))
    nxy = norm(x) * norm(y)
    worst = float(np.max(np.abs(norm(mul(x, y)) - nxy) / np.maximum(1.0, nxy)))
    checks.append({"name": "norm_multiplicative_1000", "passed": worst < tol, "value": worst})
    x, y = (Octonion(c) for c in np.moveaxis(rng.standard_normal((200, 2, 8)), 1, 0))
    worst_a = float(np.abs(associator(x, x, y).coeffs).max())
    checks.append({"name": "alternativity_200", "passed": worst_a < tol * 100, "value": worst_a})
    x, y = (Octonion(c) for c in np.moveaxis(rng.standard_normal((100, 2, 8)), 1, 0))
    worst_inv = float(np.abs((mul(inv(x), x) - e(0)).coeffs).max())
    worst_split = float(np.abs(unsplit(split(x)).coeffs - x.coeffs).max())
    worst_conj = float(np.abs((mul(conj(x), conj(y)) - conj(mul(y, x))).coeffs).max())
    checks.append({"name": "inverse_100", "passed": worst_inv < tol * 100, "value": worst_inv})
    checks.append({"name": "split_round_trip_100", "passed": worst_split == 0.0, "value": worst_split})
    checks.append({"name": "conj_antiautomorphism_100", "passed": worst_conj < tol * 100, "value": worst_conj})
    rp, rm = projector(+1), projector(-1)
    proj_ok = (
        mul(rp, rp) == rp
        and mul(rm, rm) == rm
        and np.abs(mul(rp, rm).coeffs).max() == 0.0
        and np.abs((rp + rm).coeffs - ComplexOctonion.e(0).coeffs).max() == 0.0
    )
    checks.append({"name": "projectors_rho_pm", "passed": proj_ok, "value": None})
    return _finish_checks(args, checks)


# ---------------------------------------------------------------- clifford

def cmd_clifford_dim(args) -> int:
    from .mult_algebra import left_unit, span_dimension

    # the complex algebra of real generators is the complexification A (x) C, and dim_C (A (x) C) = dim_R A
    dim = span_dimension([left_unit(i) for i in range(1, 8)], field="real").dimension
    return _emit(args, {"real_dim": dim, "complex_dim": dim})


def cmd_clifford_identities(args) -> int:
    import numpy as np

    from .mult_algebra import chain, left_matrix, left_right_equality, quadratic_relation_check
    from .octonion import Octonion, norm

    rng = np.random.default_rng(args.seed)
    tol = args.tol if args.tol is not None else 1e-12
    checks = []
    ls = left_matrix(np.eye(8)[1:])  # L_1..L_7
    chain_dev = float(np.abs(chain([1, 2, 3, 4, 5, 6]) - ls[6]).max())
    checks.append({"name": "chain_l1..l6_equals_l7", "passed": chain_dev == 0.0, "value": chain_dev})
    prods = ls[:, None] @ ls  # every two-letter chain L_a L_b
    anti = prods + prods.swapaxes(0, 1)  # {L_a, L_b}, with diagonal 2 L_a^2
    sq = float(np.abs(prods[range(7), range(7)] + np.eye(8)).max())
    checks.append({"name": "squares_minus_identity", "passed": sq == 0.0, "value": sq})
    letters = float(np.abs(anti[~np.eye(7, dtype=bool)]).max())
    checks.append({"name": "letter_anticommutation", "passed": letters == 0.0, "value": letters})
    cl = float(np.abs(anti[:6, :6] + 2.0 * np.eye(6)[:, :, None, None] * np.eye(8)).max())  # Cl(0,6) on L_1..L_6
    checks.append({"name": "clifford_cl06_relations", "passed": cl == 0.0, "value": cl})
    x, y = (Octonion(c) for c in np.moveaxis(rng.standard_normal((200, 2, 8)), 1, 0))
    quad = float(np.max(quadratic_relation_check(x, y) / np.maximum(1.0, norm(x) * norm(y))))
    checks.append({"name": "quadratic_relation_200", "passed": quad < tol, "value": quad})
    rep = left_right_equality()
    checks.append({"name": "left_right_span_equality", "passed": rep["equal"], "value": rep["union_rank"]})
    return _finish_checks(args, checks)


# ---------------------------------------------------------------- ideals

def cmd_ideals_states(args) -> int:
    from . import witt

    states = witt.ideal_basis("u") + witt.ideal_basis("d")
    ch = witt.charges(states)
    rows = [(s.label, s.ideal, s.grade, str(ch[s.label])) for s in states]
    payload = {
        "states": [
            {"label": s.label, "ideal": s.ideal, "grade": s.grade, "charge": str(ch[s.label])}
            for s in states
        ],
    }
    return _emit(args, payload, rows=rows, fields=("label", "ideal", "grade", "charge"))


def cmd_ideals_su3(args) -> int:
    import numpy as np

    from . import witt

    gens = witt.su3_generators()
    f = witt.structure_constants(gens)
    rows = [(a + 1, b + 1, c + 1, round(float(f[a, b, c]), 12))
            for a, b, c in np.argwhere(np.abs(f) > 1e-12).tolist()]
    payload = {
        "convention": "[Lambda_a, Lambda_b] = 2i f_abc Lambda_c",
        "nonzero": [{"a": r[0], "b": r[1], "c": r[2], "f": r[3]} for r in rows],
    }
    return _emit(args, payload, rows=rows, fields=("a", "b", "c", "f_abc"))


def cmd_ideals_casimir(args) -> int:
    from . import witt

    payload = {
        "u": witt.classify_representation(states=witt.ideal_basis("u")),
        "d": witt.classify_representation(states=witt.ideal_basis("d")),
    }
    return _emit(args, payload)


# ---------------------------------------------------------------- cfs

def cmd_cfs_action(args) -> int:
    from . import cfs

    with _reading("measure file", args.measure), open(args.measure) as fh:
        measure, cfg = cfs.measure_from_json(json.load(fh))
    volume, trace = cfs.constraints(measure)
    payload = {
        "action": cfs.action(measure, cfg=cfg),
        "volume": volume,
        "trace": trace,
    }
    return _emit(args, payload, measure=args.measure)


def cmd_cfs_classify(args) -> int:
    import numpy as np

    from . import cfs

    with _reading("pairs file", args.pairs), open(args.pairs) as fh:
        obj = json.load(fh)
        points, cfg = cfs.points_from_json(obj)
        pairs = obj["pairs"] if "pairs" in obj else np.transpose(np.triu_indices(len(points), 1)).tolist()
        if not isinstance(pairs, list):
            raise ValueError(f"pairs {pairs!r} is not a list of index pairs")
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(i) is int and 0 <= i < len(points) for i in pair)):
                raise ValueError(f"pair {pair!r} is not two point indices in [0, {len(points)})")
    rng = np.random.default_rng(args.seed)
    frames = cfs.spin_frames(points, cfg)  # one eigendecomposition of the points for all three engines
    loop = [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)] if len(points) >= 3 else []
    i, j = np.array(pairs + loop, dtype=int).reshape(-1, 2).T
    p = len(pairs)
    spectra = cfs.chain_spectra(frames, i[:p], j[:p], cfg)
    classes = cfs.causal_classes(spectra)
    phi = rng.standard_normal((p, 2, cfg.f))
    chain_tr_dev, complete = cfs.kernel_residuals(frames, i[:p], j[:p], phi[:, 0] + 1j * phi[:, 1])
    conns, unitarity = cfs.spin_connections(frames, i, j) if args.geometry else ([], [])
    results = []
    for k, pair in enumerate(pairs):
        entry = {
            "pair": pair,
            "class": classes[k],
            "spectrum": [[z.real, z.imag] for z in spectra[k]],
            "closed_chain_trace_residual": float(chain_tr_dev[k]),
            "completeness_residual": float(complete[k]),
        }
        if args.geometry:
            bad = isinstance(conns[k], cfs.NotSpinConnectable)
            entry["spin_connection_unitarity"] = f"not spin-connectable: {conns[k]}" if bad else float(unitarity[k])
        results.append(entry)
    payload = {"results": results}
    if args.geometry and loop:
        d = conns[len(pairs):]  # D_01 D_12 D_20, then D_02 D_21 D_10: R(0,1,2) R(0,2,1) = I
        bad = [c for c in d if isinstance(c, cfs.NotSpinConnectable)]
        payload["holonomy_012_loop_residual"] = f"not spin-connectable: {bad[0]}" if bad else float(
            np.abs(d[0] @ d[1] @ d[2] @ d[3] @ d[4] @ d[5] - np.eye(len(d[0]))).max()
        )
    rows = [(*pair, c) for pair, c in zip(pairs, classes)]
    return _emit(args, payload, rows=rows, fields=("i", "j", "class"), pairs=args.pairs)


def cmd_cfs_minimize(args) -> int:
    import dataclasses

    from . import cfs, minimize

    with _reading("family file", args.family), open(args.family) as fh:
        spec = json.load(fh)
        cfg = _override(cfs.config_from_json(spec["config"]), "kappa", args.kappa)
        family, x0 = minimize.make_family(spec["family"], cfg)
    options = minimize.MinimizeOptions(seed=args.seed)
    try:
        measure, report = minimize.minimize(family, cfg, x0, options)
    except minimize.InfeasibleStart as exc:
        raise ValidationError(str(exc)) from exc
    except (minimize.LineSearchFailure, minimize.MaxIterations) as exc:
        raise CheckFailure(f"optimizer failed: {exc}") from exc
    payload = {
        "measure": cfs.measure_to_json(measure, cfg),
        "report": dataclasses.asdict(report),
    }
    return _emit(args, payload, family=args.family, kappa=cfg.kappa)


def cmd_cfs_el_residual(args) -> int:
    from . import cfs

    with _reading("measure file", args.measure), open(args.measure) as fh:
        measure, cfg = cfs.measure_from_json(json.load(fh))
    cfg = _override(cfg, "s", args.s)
    ells = cfs.ell(measure.points, measure, cfg).tolist()
    payload = {
        "ell": ells,
        "spread": max(ells) - min(ells) if ells else 0.0,
    }
    return _emit(args, payload, rows=list(enumerate(ells)), fields=("point", "ell"), measure=args.measure, s=cfg.s)


# ---------------------------------------------------------------- vacuum

def _parse_masses(text: str):
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 3:
        raise ValidationError(f"expected 3 comma-separated masses, got {text!r}")
    return tuple(vals)


def cmd_vacuum_build(args) -> int:
    import numpy as np

    from . import lattice

    try:
        spec = lattice.LatticeSpec(L=args.L, T=args.T, a=args.a, epsilon=args.eps, dims=args.dims)
        md = lattice.MassData(
            charged_masses=_parse_masses(args.masses),
            neutrino_masses=_parse_masses(args.neutrino_masses),
            tau_reg=args.tau,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    need, have = lattice.build_peak_bytes(spec), os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValidationError(f"the build would hold {need:.3g} bytes of kernels, above {have:.3g} bytes of memory")
    with _writing(args.container):  # a new --out fails before the build, when save_kernels opens its temporary file
        if os.path.exists(args.container):  # an unwritable file or a directory fails here; "a" keeps an old file
            open(args.container, "ab").close()
        bases = lattice.save_kernels(args.container, spec, md, lattice.vacuum_seas(md, spec),
                                     lattice.VACUUM_COEFFICIENTS)
    masses = set(md.charged_masses + md.neutrino_masses)
    payload = {
        "lattice": spec.to_json(),
        "masses": md.to_json(),
        "sectors": sorted([f"aux_{name}" for name in lattice.AUX_SUMMANDS] + [f"e{i}" for i in range(8)]),
        # np.max, not max: max drops a NaN that is not first
        "onshell_residual_max": float(np.max([lattice.mode_onshell_residuals(m, spec).max() for m in masses])),
        "hermiticity_residual_max": float(np.max([k.hermiticity_residual() for k in bases])),
    }
    return _emit(args, payload, out=args.container)


def _container(infile) -> tuple:
    """(spec, mass data, sector coefficients C, stream of the six seas) of a kernel container; bad input exits 2."""
    from . import cfs, lattice

    with _reading("kernel container", infile):
        header = lattice.load_header(infile)
        spec = lattice.LatticeSpec.from_json(header["lattice"])
        md = lattice.MassData.from_json(header["masses"])
        coefficients = cfs.complex_matrix_from_json(header["coefficients"])
    def seas():  # a malformed chunk exits 2 like the header, when the stream reaches it
        with _reading("kernel container", infile):
            yield from lattice.read_seas(infile, spec)
    return spec, md, coefficients, seas()


def cmd_vacuum_residual(args) -> int:
    from . import lattice

    _, md, _, seas = _container(args.infile)
    res = lattice.dirac_residual(seas, md)
    payload = {"residuals": res, "max": max(res.values())}
    return _emit(args, payload, rows=list(res.items()), fields=("summand", "residual"), infile=args.infile)


def cmd_vacuum_localize(args) -> int:
    from . import cfs, lattice

    spec, md, coefficients, seas = _container(args.infile)
    try:
        point = tuple(int(v) for v in args.point.split(","))
    except ValueError:
        point = ()
    bounds = (spec.T,) + (spec.L,) * spec.spatial_dims
    if len(point) != len(bounds):
        raise ValidationError(f"--point needs {len(bounds)} comma-separated integer coordinates")
    if not all(0 <= v < b for v, b in zip(point, bounds)):
        raise ValidationError(
            f"--point {args.point} is off the lattice: need 0 <= t < {spec.T} and 0 <= x_j < {spec.L}"
        )
    try:  # the two bases E_nu and E_c, then the sectors e0..e7
        spectra = lattice.local_spectra([(1, 0), (0, 1), *coefficients], seas, md.tau_reg)
    except cfs.SignatureViolation as exc:
        raise CheckFailure(f"local correlation violates the signature bound: {exc}") from exc
    def describe(w):  # ascending, exact zeros outside the rank
        return {"eigenvalues": w, "n_positive": (w > 0).sum(), "n_negative": (w < 0).sum(), "rank": (w != 0).sum()}
    payload = {
        "neutrino_sector": describe(spectra[0]),
        "charged_sector": describe(spectra[1]),
        "sectors": {f"e{i}": describe(w) for i, w in enumerate(spectra[2:])},
    }
    return _emit(args, payload, infile=args.infile, point=list(point))


def cmd_vacuum_act(args) -> int:
    from . import lattice
    from .mult_algebra import chain

    spec, md, coefficients, seas = _container(args.infile)
    try:
        word = [int(v) for v in args.op.split(",")]
        if not all(0 <= v <= 7 for v in word):
            raise ValueError(f"{args.op!r} has an index outside 0..7")
        op = chain(word).astype(complex)
    except ValueError as exc:
        raise ValidationError(f"--op must be a comma-separated word of indices 0..7: {exc}") from exc
    coefficients = op @ coefficients
    if args.container:
        with _writing(args.container):
            bases = lattice.save_kernels(args.container, spec, md, seas, coefficients)
    else:
        bases = lattice.sector_bases(seas, md.tau_reg)
    norms = lattice.sector_norms(coefficients, bases)
    payload = {
        "sector_norms": {f"e{i}": v for i, v in enumerate(norms)},
    }
    return _emit(args, payload, infile=args.infile, op=word, out=args.container)


# ---------------------------------------------------------------- majorana

def cmd_majorana_check(args) -> int:
    from . import majorana

    rep = majorana.check_report(seed=args.seed, variant=args.variant)
    status = _emit(args, {"report": rep}, variant=args.variant)
    ok = (
        rep["clifford_residual_majorana"] == 0.0
        and rep["reality_majorana"]["max_imag_overall"] == 0.0
        and rep["derived_factorization_max_residual"] < 1e-12
    )
    return status if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- potentials

def cmd_potentials_scan(args) -> int:
    from . import potentials

    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--params must be a JSON object: {exc}") from exc
    try:
        p = (potentials.TreeParams if args.tree else potentials.LoopParams)(**params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc
    if args.tree:
        fields = ("kind", "sL", "sR", "value", "classification", "is_global")
        rows = [tuple(getattr(q, k) for k in fields) for q in potentials.tree_stationary_points(p)]
        regime = (
            "parity_violating" if p.mu2 > 0 and p.lambda2 > 2 * p.lambda1
            else "symmetric" if p.mu2 > 0 else "unbroken"
        )
        payload = {"stationary_points": [dict(zip(fields, row)) for row in rows], "regime": regime}
    else:
        rep = potentials.one_loop_vacuum(p)
        fields, rows = ("quantity", "value"), sorted(rep.items())
        payload = {"vacuum": rep}
    return _emit(args, payload, rows=rows, fields=fields, mode="tree" if args.tree else "loop", params=params)


# ---------------------------------------------------------------- parser

def _bounded(convert, ok, bound: str):
    """argparse type: `convert` the text and reject a value outside `bound` at parse time (exit 2)."""
    def parse(text):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:  # not a number of that type
            pass
        raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
    return parse


def build_parser(group=None) -> argparse.ArgumentParser:
    """The CLI, declared once: (group, verb) -> the handler and exactly the flags it reads.

    A flag is (name, add_argument keywords); a tuple of names is a required choice of one of them.
    The table is built per call, so it holds the module's current cmd_* functions. When `group`
    names a group, only its verbs are built; the other groups stay bare parsers, so usage lines and
    errors read as with every verb built. Any other `group` builds no verb, and no `group` every verb.
    """
    out = ("--out", {})
    fmt = ("--format", {"choices": ("json", "csv"), "default": "json"})
    seed = ("--seed", {"type": _bounded(int, lambda v: v >= 0, "a non-negative integer"), "default": 0})
    tol = ("--tol", {"type": _bounded(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")})
    infile = ("--infile", {"required": True})
    commands = {
        ("octonion", "table"): (cmd_octonion_table, out, fmt),
        ("octonion", "check"): (cmd_octonion_check, out,
                                fmt,
                                seed,
                                tol),
        ("clifford", "dim"): (cmd_clifford_dim, out),
        ("clifford", "identities"): (cmd_clifford_identities, out,
                                     fmt,
                                     seed,
                                     tol),
        ("ideals", "states"): (cmd_ideals_states, out, fmt),
        ("ideals", "su3"): (cmd_ideals_su3, out, fmt),
        ("ideals", "casimir"): (cmd_ideals_casimir, out),
        ("cfs", "action"): (cmd_cfs_action, out, ("--measure", {"required": True})),
        ("cfs", "classify"): (cmd_cfs_classify, out,
                              fmt,
                              seed,
                              ("--pairs", {"required": True}),
                              ("--geometry", {"action": "store_true",
                                              "help": "add spin-connection and holonomy residuals"})),
        ("cfs", "minimize"): (cmd_cfs_minimize, out,
                              seed,
                              ("--family", {"required": True}),
                              ("--kappa", {"type": float})),
        ("cfs", "el-residual"): (cmd_cfs_el_residual, out,
                                 fmt,
                                 ("--measure", {"required": True}),
                                 ("--s", {"type": float})),
        # the --out of `vacuum build` and `vacuum act` names the kernel container; reports go to stdout
        ("vacuum", "build"): (cmd_vacuum_build, ("--out", {"dest": "container", "default": "vacuum.okn"}),
                              ("--L", {"type": int, "default": 8}),
                              ("--T", {"type": int, "default": 8}),
                              ("--a", {"type": float, "default": 0.5}),
                              ("--eps", {"type": float, "default": 1.0}),
                              ("--dims", {"choices": ("1+1", "1+3"), "default": "1+1"}),
                              ("--masses", {"default": "0.5,0.7,0.9"}),
                              ("--neutrino-masses", {"default": "0.1,0.2,0.3"}),
                              ("--tau", {"type": float, "default": 1.0})),
        ("vacuum", "residual"): (cmd_vacuum_residual, out,
                                 fmt,
                                 infile),
        ("vacuum", "localize"): (cmd_vacuum_localize, out,
                                 infile,
                                 ("--point", {"required": True})),
        ("vacuum", "act"): (cmd_vacuum_act, ("--out", {"dest": "container"}),
                            infile,
                            ("--op", {"required": True})),
        ("majorana", "check"): (cmd_majorana_check, out,
                                seed,
                                ("--variant", {"choices": ("paper", "derived", "both"), "default": "both"})),
        ("potentials", "scan"): (cmd_potentials_scan, out,
                                 fmt,
                                 (("--tree", "--loop"), {"action": "store_true"}),
                                 ("--params", {"required": True})),
    }
    parser = argparse.ArgumentParser(
        prog="octo-cfs",
        description="Octonion multiplication algebras, Clifford ideals, and causal fermion systems",
    )
    parser.add_argument("--version", action="version", version=f"octo-cfs {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)
    verbs = {name: groups.add_parser(name).add_subparsers(dest="verb", required=True)
             for name in dict.fromkeys(name for name, _ in commands)}
    for (name, verb), (handler, *flags) in commands.items():
        if group is not None and name != group:
            continue
        p = verbs[name].add_parser(verb)
        p.set_defaults(handler=handler)
        for names, kwargs in flags:
            if isinstance(names, str):
                p.add_argument(names, **kwargs)
            else:
                choice = p.add_mutually_exclusive_group(required=True)
                for name in names:
                    choice.add_argument(name, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (*_raisable("octo_cfs.cfs.EigensolverError", "numpy.linalg.LinAlgError"), FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
