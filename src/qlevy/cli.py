"""Configuration-driven experiment runner.

`qlevy check <config.json>` validates a configuration (schema + structural
residual checks) and exits 0/1; `qlevy run <config.json>` executes the
configured experiment and writes a CSV table plus a JSON summary; CSV
numbers use 17 significant digits and outputs are byte-deterministic for a
fixed config and seed (the JSON summary additionally records the wall
time).  Complex values are serialized as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bialg import _c2j
from .errors import ParseError, QLevyError, SchemaError

DEFAULT_SEED = 20080131

EXPERIMENTS = ("axioms", "convexp", "gns", "sweep", "reverse",
               "fock-unitary", "azema-wiener", "trotter")
BUILDERS = ("azema", "azema-primitive", "unitary")
CHAINS = ("identity", "grouplike", "azema-to-primitive", "primitive-to-azema")


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

@functools.cache
def _validator():
    """The config schema's validator, its schema checked once per process."""
    import jsonschema

    path = Path(__file__).with_name("config_schema.json")
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_config(config_path):
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as e:
        raise SchemaError(f"cannot read config: {e}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    from jsonschema.exceptions import best_match

    # the error jsonschema.validate would raise
    error = best_match(_validator().iter_errors(cfg))
    if error is not None:
        pointer = "/" + "/".join(str(p) for p in error.absolute_path)
        raise SchemaError(f"{pointer}: {error.message}")
    return cfg


def _fmt(x):
    return format(float(x), ".17g")


def _carr(obj):
    """Nested lists whose innermost entries are [re, im] -> complex ndarray."""
    import numpy as np

    a = np.asarray(obj, dtype=float)
    if a.shape[-1] != 2:
        raise SchemaError("complex arrays must have innermost [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


# ---------------------------------------------------------------------------
# object construction from a config
# ---------------------------------------------------------------------------

def build_objects(cfg):
    """Bialgebra, companion structures and generator functional for cfg."""
    from .bialg import LinearFunctional
    from .constructions import make_azema, make_unitary_bialgebra
    from .ncpoly import NcPoly

    spec = cfg["bialgebra"]
    builder = spec["builder"]
    ctx = {}
    if builder in ("azema", "azema-primitive"):
        q = spec.get("q", 2.0)
        azema, primitive, psi = make_azema(q)
        ctx["azema"] = azema
        ctx["primitive"] = primitive
        ctx["azema_psi"] = psi
        B = azema if builder == "azema" else primitive
    else:
        B = make_unitary_bialgebra(spec.get("d", 1))
    corrupt = spec.get("corrupt_delta")
    if corrupt:
        idx = B.algebra.index(corrupt["generator"])
        B.delta_on_gen[idx] = B.delta_on_gen[idx].scale(corrupt["scale"])

    gen_cfg = cfg.get("generator", {})
    psi = None
    if "table" in gen_cfg:
        # psi is read on normal words only: an entry on another word is never read
        table = {}
        for mono, pair in gen_cfg["table"].items():
            word = tuple(B.algebra.index(nm) for nm in mono.split())
            nf = B.algebra.word_normal_form(word)
            if nf != {word: 1.0}:
                raise SchemaError(f"/generator/table/{mono}: not a normal word, its normal "
                                  f"form is {NcPoly(nf).pretty(B.algebra)}")
            table[word] = complex(pair[0], pair[1])
        psi = LinearFunctional("psi[table]", lambda w: table.get(w, 0.0),
                               hermitian=gen_cfg.get("hermitian", True))
    elif gen_cfg.get("builtin") == "zero":
        psi = LinearFunctional("psi[zero]", lambda w: 0.0, hermitian=True)
    elif gen_cfg.get("builtin") == "azema-psi" or ("builtin" not in gen_cfg
                                                   and "azema_psi" in ctx):
        psi = ctx.get("azema_psi")
        if psi is None:
            raise SchemaError(
                "/generator/builtin: azema-psi requires an azema builder")
    return B, psi, ctx


def _chain_name(cfg):
    default = "grouplike" if cfg["experiment"] == "reverse" else "identity"
    return cfg.get("morphism", {}).get("chain", default)


def _build_chain(cfg, B, ctx):
    """(kappa, kappa_tilde or None, c, d, gens) for sweep / reverse experiments;
    gens are source keys of kappa generating what the experiment maps."""
    from .constructions import Morphism, make_grouplike
    from .gram import identity_morphism
    from .ncpoly import NcPoly, parse_poly

    chain = _chain_name(cfg)
    cap = cfg.get("morphism", {}).get("degree_cap", 6)
    c_text = cfg.get("element", "x")
    d_text = cfg.get("element_d", c_text)
    c_poly = parse_poly(c_text, B.algebra)
    d_poly = parse_poly(d_text, B.algebra)
    if chain == "identity":
        return identity_morphism(B), None, c_poly, d_poly, ()
    if chain == "grouplike":
        G, kappa, kappa_tilde = make_grouplike(B, cap)
        if cfg.get("lift", True):
            c = kappa_tilde.apply(c_poly)
            d = kappa_tilde.apply(d_poly)
        else:
            c, d = G.hat(c_poly), G.hat(d_poly)
        return kappa, kappa_tilde, c, d, [*c.terms, *d.terms]
    if chain in ("azema-to-primitive", "primitive-to-azema"):
        if "azema" not in ctx:
            raise SchemaError(f"/morphism/chain: {chain} requires an azema builder")
        pair = (ctx["azema"], ctx["primitive"])
        src, tgt = pair if chain == "azema-to-primitive" else pair[::-1]
        kappa = Morphism(src, tgt, "algebra-homomorphism",
                         key_map=lambda k: NcPoly.word(k), name=chain)
        return kappa, None, c_poly, d_poly, [(g,) for g in range(src.algebra.ngen())]
    raise SchemaError(f"/morphism/chain: unknown chain {chain!r}")


def _check_bialgebra_matches_experiment(cfg):
    """fock-unitary builds U<d> at unitary.d, and azema-wiener runs on the
    config's Azema objects with the Azema psi.  The config's bialgebra,
    which check_defs certifies, must be that one, and its psi Azema's."""
    spec, experiment = cfg["bialgebra"], cfg["experiment"]
    want = {"fock-unitary": "unitary", "azema-wiener": "azema"}.get(experiment)
    if want is not None and spec["builder"] != want:
        raise SchemaError(f"/bialgebra/builder: {experiment} runs the {want!r} "
                          f"bialgebra, not {spec['builder']!r}")
    gen = cfg.get("generator", {})
    foreign = "table" in gen or gen.get("builtin", "azema-psi") != "azema-psi"
    if experiment == "azema-wiener" and foreign:
        raise SchemaError(f"/generator: azema-wiener runs the Azema psi, not {gen}")
    d = cfg.get("unitary", {}).get("d")
    if experiment == "fock-unitary" and d is not None and spec.get("d", 1) != d:
        raise SchemaError(f"/bialgebra/d: fock-unitary runs U<{d}> (unitary.d), "
                          f"not U<{spec.get('d', 1)}>")


class _Run:
    """A loaded config, its objects and its bialgebra's certificate, built once per run."""

    def __init__(self, cfg):
        from .bialg import certify_bialgebra

        _check_bialgebra_matches_experiment(cfg)
        self.cfg = cfg
        self.B, self.psi, self.ctx = build_objects(cfg)
        self.chain = None
        if cfg["experiment"] in ("sweep", "reverse"):
            self.chain = _build_chain(cfg, self.B, self.ctx)
        self.certificate = certify_bialgebra(self.B)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def check_defs(config_path, built=None):
    """Validation report for a config: schema, bialgebra certificate, counit preservation.

    `built` is the config already loaded and built by the caller; without
    it the config is loaded and built here.  The bialgebra is checked by
    bialg.certify_bialgebra, exactly and in order: the rewriting system is
    confluent (else InvalidParameter naming the ambiguous word), Delta, the
    counit and the involution respect every rule, and then the coalgebra
    and involution laws hold on each generator, which proves them on the
    whole bialgebra.  Its residuals are the `axioms/...` checks, `where`
    names the rule or generator of each nonzero one, and the confluence
    report (critical pairs and their worst relative gap) sits beside them.
    `morphism/counit_preservation` is exact: the residual of the sweep or
    reverse homomorphism on the generating keys _build_chain returns.  No
    check draws a random sample; the config's `samples` reach none of them.
    """
    from .constructions import counit_residual
    from .ncpoly import NcPoly

    run = built if built is not None else _Run(load_config(config_path))
    cfg, psi, cert = run.cfg, run.psi, run.certificate
    tol = cfg.get("tolerances", {}).get("axioms", 1e-9)
    checks = {f"axioms/{k}": v for k, v in cert["residuals"].items()}
    if _chain_name(cfg) != "identity" and run.chain is not None:
        kappa, *_rest, gens = run.chain
        checks["morphism/counit_preservation"] = counit_residual(kappa, gens)
    if psi is not None and psi.hermitian:
        checks["generator/psi_unit"] = abs(psi(NcPoly.one()))
    worst = max(checks.values())
    return {
        "config": cfg["name"],
        "checks": checks,
        "where": {f"axioms/{k}": v for k, v in cert["where"].items()},
        "confluence": cert["confluence"],
        "max_residual": worst,
        "tolerance": tol,
        "ok": bool(worst <= tol),
    }


# ---------------------------------------------------------------------------
# experiments (each returns header, rows, assertions, extra-summary)
# ---------------------------------------------------------------------------

FOCK_HEADER = ["mesh", "n", "quantity", "value_re", "value_im",
               "target_re", "target_im", "defect"]
SWEEP_HEADER = ["mesh", "n", "norm_sq", "re_cross", "im_cross",
                "defect", "bound"]


def _partition_ns(cfg, default=(2, 4, 8, 16, 32, 64)):
    part = cfg.get("partition", {})
    if "ns" in part:
        return list(part["ns"])
    if "n" in part:
        return [part["n"]]
    return list(default)


def _interval(cfg):
    s, t = cfg.get("interval", [0.0, 1.0])
    if not t > s:
        raise SchemaError("/interval: must be increasing")
    return float(s), float(t)


def _exp_axioms(run, rng):
    report = run.certificate
    tol = run.cfg.get("tolerances", {}).get("axioms", 1e-9)
    rows = [[check, _fmt(res)] for check, res in sorted(report["residuals"].items())]
    assertions = {"max_residual_within_tol": bool(report["max_residual"] <= tol)}
    return ["check", "residual"], rows, assertions, {"report": report}


def _exp_convexp(run, rng):
    from .ncpoly import random_poly
    from .subcoalg import conv_exp, conv_exp_series

    cfg, B, psi = run.cfg, run.B, run.psi
    tol = cfg.get("tolerances", {}).get("convexp", 1e-10)
    ts = cfg.get("ts", [0.1, 1.0, 2.0])
    n_samples = cfg.get("samples", 50)
    degree = cfg.get("caps", {}).get("degree_cap", 4)
    rows = []
    worst = 0.0
    for i in range(n_samples):
        p = random_poly(B.algebra, rng, degree, n_terms=3)
        for t in ts:
            val = conv_exp(psi, t, p, B)
            series, _terms = conv_exp_series(psi, t, p, B)
            defect = abs(val - series)
            worst = max(worst, defect)
            rows.append([str(i), _fmt(t), _fmt(val.real), _fmt(val.imag),
                         _fmt(series.real), _fmt(series.imag), _fmt(defect)])
    header = ["index", "t", "value_re", "value_im",
              "series_re", "series_im", "defect"]
    assertions = {"oracle_equivalence": bool(worst <= tol)}
    return header, rows, assertions, {"max_defect": worst}


def _exp_gns(run, rng):
    from .gns import gns_construct, levy_triple_residuals

    cfg, B, psi = run.cfg, run.B, run.psi
    tol = cfg.get("tolerances", {}).get("gns", 1e-10)
    cap = cfg.get("caps", {}).get("degree_cap", 3)
    triple = gns_construct(psi, B, degree_cap=cap)
    rep = levy_triple_residuals(triple, n_samples=cfg.get("samples", 40),
                                sample_degree=cap, rng=rng)
    rows = [[check, _fmt(res)] for check, res in sorted(rep.items())]
    assertions = {"triple_residuals_within_tol": bool(rep["max_residual"] <= tol)}
    return ["check", "residual"], rows, assertions, \
        {"triple": triple.to_json(), "residuals": rep}


def _exp_sweep(run, rng):
    from .gram import convergence_sweep

    cfg = run.cfg
    kappa, _kt, c, d, _gens = run.chain
    s, t = _interval(cfg)
    ns = _partition_ns(cfg)
    rows_obj = convergence_sweep(c, d, kappa, run.psi, s, t, ns)
    rows = [[_fmt(r.mesh), str(r.n), _fmt(r.norm_sq), _fmt(r.cross.real),
             _fmt(r.cross.imag), _fmt(r.defect), _fmt(r.bound)]
            for r in rows_obj]
    defects = [r.defect for r in rows_obj]
    floor = cfg.get("tolerances", {}).get("defect_floor", 1e-12)
    live = [x for x in defects if x > floor]
    assertions = {
        "defect_nonincreasing": bool(all(b <= a + floor for a, b in
                                         zip(defects, defects[1:]))),
        "defect_quarter": bool(defects[-1] <= max(defects[0] / 4.0, floor)),
    }
    if live:
        # only meaningful when the chain has a genuine discretization defect
        assertions["defect_strictly_decreasing"] = bool(
            len(live) == len(defects)
            and all(b < a for a, b in zip(defects, defects[1:])))
    else:
        assertions["defect_identically_zero"] = True
    return SWEEP_HEADER, rows, assertions, \
        {"defects": defects, "limit_degenerate": not live}


def _exp_reverse(run, rng):
    from .gram import reverse_check
    from .ncpoly import parse_poly

    cfg, B, psi = run.cfg, run.B, run.psi
    if _chain_name(cfg) != "grouplike":
        raise SchemaError("/morphism/chain: reverse requires the grouplike chain")
    _kappa, kappa_tilde, *_rest = run.chain
    b = parse_poly(cfg.get("element", "x"), B.algebra)
    d = parse_poly(cfg.get("element_d", cfg.get("element", "x")), B.algebra)
    s, t = _interval(cfg)
    ns = _partition_ns(cfg)
    rows_obj = reverse_check(b, d, kappa_tilde, psi, s, t, ns)
    rows = [[_fmt(r.mesh), str(r.n), _fmt(r.norm_sq), _fmt(r.cross.real),
             _fmt(r.cross.imag), _fmt(r.defect), _fmt(r.bound)]
            for r in rows_obj]
    tol = cfg.get("tolerances", {}).get("reverse", 1e-2)
    assertions = {"final_defect_within_tol": bool(rows_obj[-1].defect <= tol)}
    return SWEEP_HEADER, rows, assertions, \
        {"defects": [r.defect for r in rows_obj]}


def _exp_fock_unitary(run, rng):
    import numpy as np
    import scipy.linalg

    from .fock import unitary_product_evolution
    from .gns import UnitaryTripleParams
    from .partition import Partition

    cfg = run.cfg
    u = cfg.get("unitary")
    if u is None:
        raise SchemaError("/unitary: required for the fock-unitary experiment")
    params = UnitaryTripleParams(u["d"], _carr(u["W"]), _carr(u["L"]),
                                 _carr(u["H"]))
    s, t = _interval(cfg)
    ns = _partition_ns(cfg, default=(4, 8, 16, 32))
    cap = cfg.get("caps", {}).get("particle_cap", 8)
    ll = np.einsum("ikm,ilm->kl", params.L.conj(), params.L)
    target = scipy.linalg.expm((t - s) * (1j * params.H - 0.5 * ll))
    rows = []
    amp_defects, uni_defects = [], []
    for n in ns:
        evo, defect = unitary_product_evolution(
            params, params.d, Partition.uniform(s, t, n), cap)
        amp = evo.vacuum_amplitude()
        amp_defect = float(np.abs(amp - target).max())
        amp_defects.append(amp_defect)
        uni_defects.append(defect)
        mesh = (t - s) / n
        rows.append([_fmt(mesh), str(n), "vacuum_amplitude_00",
                     _fmt(amp[0, 0].real), _fmt(amp[0, 0].imag),
                     _fmt(target[0, 0].real), _fmt(target[0, 0].imag),
                     _fmt(amp_defect)])
        rows.append([_fmt(mesh), str(n), "unitarity_defect",
                     _fmt(defect), "0", "0", "0", _fmt(defect)])
    tol = cfg.get("tolerances", {}).get("amplitude", 1e-3)
    assertions = {
        "amplitude_defect_within_tol": bool(amp_defects[-1] <= tol),
        "amplitude_defect_decreasing": bool(
            all(b < a for a, b in zip(amp_defects, amp_defects[1:]))),
        "unitarity_defect_decreasing": bool(
            all(b <= a for a, b in zip(uni_defects, uni_defects[1:]))),
    }
    return FOCK_HEADER, rows, assertions, \
        {"amplitude_defects": amp_defects, "unitarity_defects": uni_defects}


def _exp_azema_wiener(run, rng):
    from .fock import azema_wiener_mesh
    from .gns import gns_construct
    from .partition import Partition

    cfg, B, psi = run.cfg, run.B, run.psi
    q = cfg["bialgebra"].get("q", 2.0)
    s, t = _interval(cfg)
    ns = _partition_ns(cfg, default=(2, 4, 8, 16))
    cap = cfg.get("caps", {}).get("particle_cap", 5)
    # B and psi are the run's Azema objects (_check_bialgebra_matches_experiment)
    triple = gns_construct(psi, B, degree_cap=3)
    rows = []
    reports = []
    for n in ns:
        rep = azema_wiener_mesh(q, B, run.ctx["primitive"], psi, triple,
                                Partition.uniform(s, t, n), cap)
        reports.append(rep)
        for name, target, defect in (("wiener_norm_sq", "wiener_target", "wiener_defect"),
                                     ("azema_norm_sq", "azema_target", "azema_defect"),
                                     ("x_vacuum_norm_sq", None, "x_vacuum_norm_sq"),
                                     ("qsde_residual", None, "qsde_residual")):
            rows.append([_fmt(rep["mesh"]), str(n), name, _fmt(rep[name]), "0",
                         _fmt(rep[target]) if target else "0", "0", _fmt(rep[defect])])
    assertions = {
        "wiener_exact": all(r["wiener_defect"] <= 1e-10 for r in reports),
        "x_kills_vacuum": all(r["x_vacuum_norm_sq"] <= 1e-20 for r in reports),
        "qsde_residual_small": all(r["qsde_residual"] <= 1e-6 for r in reports),
        "azema_defect_nonincreasing": all(b["azema_defect"] <= a["azema_defect"] + 1e-12
                                          for a, b in zip(reports, reports[1:])),
    }
    return FOCK_HEADER, rows, assertions, {"final": reports[-1]}


def _exp_trotter(run, rng):
    import numpy as np

    from .partition import Partition
    from .subcoalg import ProductFamilySpec, banach_product_check

    cfg = run.cfg
    t_cfg = cfg.get("trotter", {})
    kind = t_cfg.get("kind", "nilpotent")
    size = t_cfg.get("size", 4)
    draws = t_cfg.get("draws", 20)
    s, t = _interval(cfg)
    ns = _partition_ns(cfg, default=(2, 4, 8, 16))
    g = np.zeros((size, size), dtype=complex)
    # index-2 nilpotent baseline: rows 0, 2, ... feed from odd columns only
    for i in range(0, size, 2):
        for j in range(1, size, 2):
            g[i, j] = complex(rng.normal(), rng.normal())
    if kind == "nilpotent":
        spec = ProductFamilySpec("matrix-family", g, remainder=None, R=t - s)
    else:
        c = t_cfg.get("C", 1.0)

        def remainder(r, mu):
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            m = m / np.linalg.norm(m, 2)
            return (r * r * c * c / 2.0) * m

        spec = ProductFamilySpec("matrix-family", g, remainder=remainder,
                                 n_choices=8, R=t - s, C=c)
    rows = []
    all_passed = True
    exact = True
    for n in ns:
        rep = banach_product_check(spec, Partition.uniform(s, t, n),
                                   draws=draws, rng=rng)
        all_passed = all_passed and rep["passed"]
        exact = exact and rep["lhs_max"] <= 1e-13
        rows.append([_fmt(rep["mesh"]), str(n), _fmt(rep["lhs_max"]),
                     _fmt(rep["bound"]), _fmt(rep["lhs_max"])])
    assertions = {"lhs_within_bound": bool(all_passed)}
    if kind == "nilpotent":
        assertions["exactness"] = bool(exact)
    return ["mesh", "n", "lhs_max", "bound", "defect"], rows, assertions, {}


_DISPATCH = {
    "axioms": _exp_axioms,
    "convexp": _exp_convexp,
    "gns": _exp_gns,
    "sweep": _exp_sweep,
    "reverse": _exp_reverse,
    "fock-unitary": _exp_fock_unitary,
    "azema-wiener": _exp_azema_wiener,
    "trotter": _exp_trotter,
}


def run_experiment(config_path, out_dir="."):
    """Run the configured experiment; returns (csv_path, json_path, summary)."""
    import numpy as np

    run = _Run(load_config(config_path))
    report = check_defs(config_path, run)
    if not report["ok"]:
        raise QLevyError(
            f"config checks failed (max residual {report['max_residual']:.3e})")
    cfg = run.cfg
    seed = cfg.get("rng_seed", DEFAULT_SEED)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    header, rows, assertions, extra = _DISPATCH[cfg["experiment"]](run, rng)
    wall = time.perf_counter() - start

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = cfg.get("output", {})
    csv_path = out / names.get("csv", f"{cfg['name']}.csv")
    json_path = out / names.get("json", f"{cfg['name']}.json")
    lines = [",".join(header)] + [",".join(r) for r in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "config": cfg,
        "library_version": __version__,
        "rng_seed": seed,
        "assertions": assertions,
        "results": _jsonable(extra),
        "check_report": _jsonable(report),
        "wall_time_s": wall,
    }
    json_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")
    return str(csv_path), str(json_path), summary


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return _c2j(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    return str(obj)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def builtin_configs():
    cdir = Path(__file__).with_name("configs")
    return sorted(p.name for p in cdir.glob("*.json")) if cdir.is_dir() else []


def builtin_config_path(name):
    return Path(__file__).with_name("configs") / name


def main(argv=None):
    threads = os.environ.get("QLEVY_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = threads

    ap = argparse.ArgumentParser(
        prog="qlevy",
        description="bialgebra Levy process experiment runner")
    sub = ap.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="validate a config")
    p_check.add_argument("config")
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".", help="output directory")
    sub.add_parser("list-builtins", help="list builders and shipped configs")
    args = ap.parse_args(argv)

    if args.command == "list-builtins":
        print("experiments: " + ", ".join(EXPERIMENTS))
        print("bialgebra builders: " + ", ".join(BUILDERS))
        print("morphism chains: " + ", ".join(CHAINS))
        print("generators: azema-psi, zero, table")
        print("shipped configs (" + str(builtin_config_path("")) + "):")
        for name in builtin_configs():
            print("  " + name)
        return 0

    config = args.config
    if not Path(config).exists():
        for cand in (config, config + ".json"):
            if builtin_config_path(cand).exists():
                config = str(builtin_config_path(cand))
                break

    try:
        if args.command == "check":
            report = check_defs(config)
            for check, res in sorted(report["checks"].items()):
                at = report["where"].get(check)
                print(f"{check}: {res:.3e}" + (f" at {at}" if at else ""))
            conf = report["confluence"]
            print(f"confluence: {conf['critical_pairs']} critical pairs, "
                  f"worst gap {conf['worst_gap']:.3e}")
            status = "OK" if report["ok"] else "FAIL"
            print(f"{status} (max residual {report['max_residual']:.3e}, "
                  f"tolerance {report['tolerance']:g})")
            return 0 if report["ok"] else 1
        csv_path, json_path, summary = run_experiment(config, args.out)
        print(f"wrote {csv_path}")
        print(f"wrote {json_path}")
        for name, ok in sorted(summary["assertions"].items()):
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        return 0 if all(summary["assertions"].values()) else 1
    except QLevyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
