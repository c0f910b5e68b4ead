"""Configuration-driven experiment runner.

`qlevy check <config.json>` validates a configuration (field types, pre-flight,
bialgebra certificate) and exits 0/1; `qlevy run <config.json>` runs the same
validation, executes the configured experiment and writes a CSV table plus a
JSON summary, writing nothing unless the summary serializes; CSV
numbers use 17 significant digits and outputs are byte-deterministic for a
fixed config and seed (the JSON summary additionally records the wall
time).  Complex values are serialized as [re, im] pairs.  FIELDS is the
config contract: each field's type, default and the runs that read it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import InvalidParameter, ParseError, QLevyError, SchemaError

DEFAULT_SEED = 20080131
WIENER_TOL = 1e-10     # absolute: largest azema-wiener Wiener defect of an exact run
X_VACUUM_TOL = 1e-20   # absolute: largest vacuum norm of x, which kills the vacuum
QSDE_TOL = 1e-6        # absolute: largest discrete QSDE residual of an azema-wiener run


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def load_config(config_path):
    """The JSON config at config_path, refused with a SchemaError unless FIELDS admits it."""
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as e:
        raise SchemaError(f"cannot read config: {e}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    every = _fields(FIELDS)
    _check_fields(cfg, every, "any run")
    for pointer, (_type, default) in every.items():
        needed = pointer in FIELDS or _value(cfg, pointer.rsplit("/", 1)[0], None) is not None
        if default is ... and needed and _value(cfg, pointer, None) is None:
            raise SchemaError(f"{pointer}: required")
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
# the config fields each run reads
# ---------------------------------------------------------------------------

def _kind(what, test, item=None):
    """A field type: check(x, at) is x (an array's items resolved by the type
    item) if test(x) holds and each item of x is of type item, else a SchemaError."""
    def check(x, at):
        if not test(x):
            raise SchemaError(f"{at or 'the config'}: must be {what}, not {json.dumps(x)}")
        pairs = () if item is None else x.items() if isinstance(x, dict) else enumerate(x)
        items = [item(v, f"{at}/{k}") for k, v in pairs]
        return items if item and isinstance(x, list) else x
    return check


def _integer(least):
    # draft-07's integer (no fractional part), read as an int; type(x), as True is an int
    check = _kind(f"an integer >= {least}",
                  lambda x: type(x) in (int, float) and x % 1 == 0 and x >= least)
    return lambda x, at: int(check(x, at))


def _array(least, most=math.inf):
    return lambda x: isinstance(x, list) and least <= len(x) <= most


def _typed(kind, x, at):
    """x at pointer at, resolved by kind: a _kind, or an enum's names (a tuple, or a dict)."""
    check = kind if callable(kind) else _kind(
        "one of " + ", ".join(kind), lambda x: isinstance(x, str) and x in kind)
    return check(x, at)


# The fields a run reads, by JSON pointer, each with its type and default:
# every run's, then those the value of each enum field adds (the builder's,
# the experiment's, a sweep's morphism chain's, a trotter run's kind's).  A
# default is a value or a function of the fields resolved before it; None is
# no value (a generator holds a builtin or a table), and ... no default: every
# config gives the run's own such fields, and each /unitary its W, L and H.
# config_schema.json documents this contract; a test holds it to FIELDS.
_NUMBER, _COUNT = _kind("a number", lambda x: type(x) in (int, float)), _integer(1)
_STRING = _kind("a string", lambda x: isinstance(x, str))
_OBJECT = _kind("an object", lambda x: isinstance(x, dict))
_PAIR = _kind("a pair of numbers", _array(2, 2), _NUMBER)
_NS = _kind("a non-empty array of integers >= 1", _array(1), _COUNT)
_AZEMA = {"/bialgebra/q": (
    _kind("a nonzero number", lambda x: type(x) in (int, float) and x != 0), 2.0)}
_PSI = {"/generator/builtin": (("azema-psi", "zero"), "azema-psi"), "/generator/table": (
    _kind("an object of [re, im] pairs", lambda x: isinstance(x, dict), _PAIR), None)}
_INTERVAL = {"/interval": (_PAIR, (0.0, 1.0))}
_GRAM = {**_PSI, **_INTERVAL, "/element": (_STRING, "x"),
         "/element_d": (_STRING, lambda f: f["/element"]),
         "/partition/ns": (_NS, (2, 4, 8, 16, 32, 64))}
_GROUPLIKE = {"/morphism/degree_cap": (_COUNT, 6)}
_CHAINS = {"identity": {}, "grouplike": {
    **_GROUPLIKE, "/lift": (_kind("true or false", lambda x: isinstance(x, bool)), True)},
    "azema-to-primitive": {}, "primitive-to-azema": {}}
_KINDS = {"nilpotent": {}, "perturbed": {
    "/trotter/C": (_kind("a number >= 0", lambda x: type(x) in (int, float) and not x < 0), 1.0)}}
_EXPERIMENTS = {
    "axioms": {},
    "convexp": {**_PSI, "/samples": (_COUNT, 50), "/caps/degree_cap": (_COUNT, 4),
                "/ts": (_kind("a non-empty array of numbers", _array(1), _NUMBER), (0.1, 1.0, 2.0)),
                "/tolerances/convexp": (_NUMBER, 1e-10)},
    "gns": {**_PSI, "/samples": (_COUNT, 40), "/caps/degree_cap": (_COUNT, 3),
            "/tolerances/gns": (_NUMBER, 1e-10)},
    "sweep": {**_GRAM, "/morphism/chain": (_CHAINS, "identity")},
    "reverse": {**_GRAM, **_GROUPLIKE, "/tolerances/reverse": (_NUMBER, 1e-2)},
    "fock-unitary": {**_INTERVAL, **dict.fromkeys(("/unitary/W", "/unitary/L", "/unitary/H"),
                                                  (_kind("an array", _array(0)), ...)),
                     "/partition/ns": (_NS, (4, 8, 16, 32)), "/caps/particle_cap": (_COUNT, 8),
                     "/tolerances/amplitude": (_NUMBER, 1e-3)},
    "azema-wiener": {**_INTERVAL, "/partition/ns": (_NS, (2, 4, 8, 16)),
                     "/caps/particle_cap": (_COUNT, 5)},
    "trotter": {**_INTERVAL, "/trotter/kind": (_KINDS, "nilpotent"),
                "/trotter/size": (_integer(2), 4), "/trotter/draws": (_COUNT, 20),
                "/partition/ns": (_NS, (2, 4, 8, 16))},
}
FIELDS = {
    "/name": (_kind("a non-empty string", lambda x: isinstance(x, str) and x != ""), ...),
    "/bialgebra/builder": ({"azema": _AZEMA, "azema-primitive": _AZEMA,
                            "unitary": {"/bialgebra/d": (_COUNT, 1)}}, ...),
    "/experiment": (_EXPERIMENTS, ...),
    "/rng_seed": (_integer(0), DEFAULT_SEED),
    "/tolerances/axioms": (_NUMBER, 1e-9),
    "/output/csv": (_STRING, lambda f: f"{f['/name']}.csv"),
    "/output/json": (_STRING, lambda f: f"{f['/name']}.json"),
}


def _fields(fields, cfg=None):
    """fields, then those of the entry that each enum field's value in cfg
    selects, or of every entry when cfg is None."""
    out = dict(fields)
    for pointer, (kind, default) in fields.items():
        if isinstance(kind, dict):
            for name in (kind if cfg is None else [_value(cfg, pointer, default)]):
                out |= _fields(kind[name], cfg)
    return out


def _value(cfg, pointer, default):
    """cfg's value at a JSON pointer, else default."""
    try:
        return functools.reduce(operator.getitem, pointer.split("/")[1:], cfg)
    except KeyError:
        return default


def _check_fields(node, fields, where, pointer=""):
    """Raise SchemaError naming the first pointer under node that is neither in
    fields nor above one, whose value is not of its type (an object above one),
    or whose number is not finite (JSON takes NaN); fields None admits any."""
    if isinstance(node, float) and not math.isfinite(node):
        raise SchemaError(f"{pointer} must be finite, got {node}")
    if fields is not None:
        _OBJECT(node, pointer)
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            at = f"{pointer}/{key}"
            leaf = fields is not None and at in fields
            if leaf:
                _typed(fields[at][0], child, at)
            elif fields is not None and not any(p.startswith(at + "/") for p in fields):
                raise SchemaError(f"{at}: not read by {where}")
            _check_fields(child, None if leaf else fields, where, at)


def _preflight(cfg):
    """The fields cfg's run reads (FIELDS), each the config's value resolved
    by its type or its default, after every check of a config load_config
    accepts that needs no built object; each failure is a SchemaError naming
    its JSON pointer.  The bialgebra that check_defs certifies must be the
    one the experiment runs: fock-unitary runs U<d>, azema-wiener Azema with
    the Azema psi.  An experiment that reads psi needs one (U<d> has none).
    """
    entry = _fields(FIELDS, cfg)
    f = {}
    for pointer, (kind, default) in entry.items():
        value = _value(cfg, pointer, None)
        if value is None and default is ...:
            raise SchemaError(f"{pointer}: required by the {f['/experiment']} experiment")
        f[pointer] = ((default(f) if callable(default) else default) if value is None
                      else _typed(kind, value, pointer))
    experiment, builder = f["/experiment"], f["/bialgebra/builder"]
    where = f"the {experiment} experiment" + "".join(
        f" ({p.rsplit('/', 1)[1]} {f[p]})" for p, (kind, _default) in entry.items()
        if isinstance(kind, dict) and p not in FIELDS)
    _check_fields(cfg, entry, f"{where} on the {builder} builder")
    if len(cfg.get("generator", {})) > 1:
        raise SchemaError("/generator: give a builtin or a table, not both")
    if "/interval" in f and not f["/interval"][1] > f["/interval"][0]:
        raise SchemaError("/interval: must be increasing")
    want = {"fock-unitary": "unitary", "azema-wiener": "azema"}.get(experiment)
    if want is not None and builder != want:
        raise SchemaError(f"/bialgebra/builder: {experiment} runs the {want!r} "
                          f"bialgebra, not {builder!r}")
    if builder == "unitary":
        if f.get("/generator/builtin") == "azema-psi" and f["/generator/table"] is None:
            raise SchemaError(f"/generator: {experiment} reads a psi, and the unitary "
                              "builder has none; give a table or builtin zero")
        if f.get("/morphism/chain") in ("azema-to-primitive", "primitive-to-azema"):
            raise SchemaError(f"/morphism/chain: {f['/morphism/chain']} requires an azema builder")
    return f


# ---------------------------------------------------------------------------
# object construction from a config
# ---------------------------------------------------------------------------

def build_objects(f):
    """Bialgebra, companion structures and generator functional for the
    fields f of a run (_preflight)."""
    from .bialg import LinearFunctional
    from .constructions import make_azema, make_unitary_bialgebra
    from .ncpoly import NcPoly

    builder = f["/bialgebra/builder"]
    ctx = {}
    if builder == "unitary":
        B = make_unitary_bialgebra(f["/bialgebra/d"])
    else:
        azema, primitive, psi = make_azema(f["/bialgebra/q"])
        ctx = {"azema": azema, "primitive": primitive, "azema_psi": psi}
        B = azema if builder == "azema" else primitive

    # a generator is one builtin or one table (_preflight); only the
    # experiments that read psi take one, the others run the builder's psi
    if f.get("/generator/table") is not None:
        # psi is read on normal words only: an entry on another word is never read
        table = {}
        for mono, pair in f["/generator/table"].items():
            word = tuple(B.algebra.index(nm) for nm in mono.split())
            nf = B.algebra.word_normal_form(word)
            if nf != {word: 1.0}:
                raise SchemaError(f"/generator/table/{mono}: not a normal word, its normal "
                                  f"form is {NcPoly(nf).pretty(B.algebra)}")
            table[word] = complex(pair[0], pair[1])
        psi = LinearFunctional("psi[table]", lambda w: table.get(w, 0.0))
    elif f.get("/generator/builtin") == "zero":
        psi = LinearFunctional("psi[zero]", lambda w: 0.0)
    else:
        # None on U<d>, which _preflight admits only where no psi is read
        psi = ctx.get("azema_psi")
    return B, psi, ctx


def _parse_element(f, pointer, alg):
    """The polynomial of a sweep or reverse element; an error names its field."""
    from .ncpoly import parse_poly

    try:
        return parse_poly(f[pointer], alg)
    except QLevyError as e:
        raise SchemaError(f"{pointer}: {e}") from None


def _build_chain(chain, lift, f, B, ctx, c_poly, d_poly):
    """(kappa, kappa_tilde or None, c, d, gens) for sweep / reverse experiments
    on the parsed elements c_poly and d_poly; gens are source keys of kappa
    generating what the experiment maps."""
    from .constructions import Morphism, make_grouplike
    from .ncpoly import NcPoly

    if chain == "identity":
        from .gram import identity_morphism

        return identity_morphism(B), None, c_poly, d_poly, ()
    if chain == "grouplike":
        G, kappa, kappa_tilde = make_grouplike(B, f["/morphism/degree_cap"])
        if lift:
            c = kappa_tilde.apply(c_poly)
            d = kappa_tilde.apply(d_poly)
        else:
            c = G.hat(c_poly)
            d = G.hat(d_poly)
        return kappa, kappa_tilde, c, d, [*c.terms, *d.terms]
    # _preflight admits these two chains on the Azema builders only
    pair = (ctx["azema"], ctx["primitive"])
    src, tgt = pair if chain == "azema-to-primitive" else pair[::-1]
    kappa = Morphism(src, tgt, "algebra-homomorphism",
                     key_map=lambda k: NcPoly.word(k), name=chain)
    return kappa, None, c_poly, d_poly, [(g,) for g in range(src.algebra.ngen())]


class _Run:
    """A config judged whole (_preflight, fock-unitary's W, L and H), then its
    objects, elements, bialgebra certificate and check report, built once.
    `fields` holds the values the run reads, by JSON pointer."""

    def __init__(self, cfg):
        from .bialg import certify_bialgebra
        from .constructions import counit_residual
        from .ncpoly import NcPoly

        f = self.fields = _preflight(cfg)
        self.cfg, self.unitary = cfg, None
        experiment = f["/experiment"]
        if experiment == "fock-unitary":
            from .gns import UnitaryTripleParams

            try:
                self.unitary = UnitaryTripleParams(
                    f["/bialgebra/d"], *(_carr(f[f"/unitary/{k}"]) for k in "WLH"))
            except (ValueError, QLevyError) as e:
                raise SchemaError(f"/unitary: {e}") from None
        self.B, self.psi, self.ctx = build_objects(f)
        self.chain = self.elements = chain = None
        if experiment in ("sweep", "reverse"):
            self.elements = [_parse_element(f, p, self.B.algebra)
                             for p in ("/element", "/element_d")]
            if experiment == "sweep":
                chain, lift = f["/morphism/chain"], f.get("/lift")
            else:   # reverse runs the lifted grouplike chain
                chain, lift = "grouplike", True
            self.chain = _build_chain(chain, lift, f, self.B, self.ctx, *self.elements)
        cert = self.certificate = certify_bialgebra(self.B)
        checks = {f"axioms/{k}": v for k, v in cert["residuals"].items()}
        if chain not in (None, "identity"):
            kappa, *_rest, gens = self.chain
            checks["morphism/counit_preservation"] = counit_residual(kappa, gens)
        if self.psi is not None:
            checks["generator/psi_unit"] = abs(self.psi(NcPoly.one()))
        worst = max(checks.values())
        self.report = {
            "config": f["/name"],
            "checks": checks,
            "where": {f"axioms/{k}": v for k, v in cert["where"].items()},
            "confluence": cert["confluence"],
            "max_residual": worst,
            "tolerance": f["/tolerances/axioms"],
            "ok": bool(worst <= f["/tolerances/axioms"]),
        }


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def check_defs(config_path):
    """Validation report for a config, from the checks `qlevy run` applies first.

    load_config, then _preflight and fock-unitary's (W, L, H), each failure a
    SchemaError naming its JSON pointer; only then is anything built.  The
    bialgebra is checked by bialg.certify_bialgebra, exactly and in order:
    the rewriting system is confluent (else InvalidParameter naming the
    ambiguous word), Delta, the counit and the involution respect every
    rule, and then the coalgebra and involution laws hold on each
    generator, which proves them on the whole bialgebra.  Its residuals
    are the `axioms/...` checks, `where` names the rule or generator of
    each nonzero one, and the confluence report (critical pairs and their
    worst relative gap) sits beside them.
    `morphism/counit_preservation` is exact: the residual of the sweep or
    reverse homomorphism on the generating keys _build_chain returns.  No
    check draws a random sample.
    """
    return _Run(load_config(config_path)).report


# ---------------------------------------------------------------------------
# experiments (each returns header, rows, assertions, extra-summary)
# ---------------------------------------------------------------------------

FOCK_HEADER = ["mesh", "n", "quantity", "value_re", "value_im",
               "target_re", "target_im", "defect"]
SWEEP_HEADER = ["mesh", "n", "norm_sq", "re_cross", "im_cross",
                "defect", "bound"]


def _gram_rows(rows_obj):
    """CSV rows (SWEEP_HEADER) of gram's sweep or reverse rows."""
    return [[_fmt(r.mesh), str(r.n), _fmt(r.norm_sq), _fmt(r.cross.real),
             _fmt(r.cross.imag), _fmt(r.defect), _fmt(r.bound)] for r in rows_obj]


def _exp_axioms(run, rng):
    report = run.certificate
    rows = [[check, _fmt(res)] for check, res in sorted(report["residuals"].items())]
    assertions = {"max_residual_within_tol":
                  bool(report["max_residual"] <= run.fields["/tolerances/axioms"])}
    return ["check", "residual"], rows, assertions, {"report": report}


def _exp_convexp(run, rng):
    from .ncpoly import random_poly
    from .subcoalg import conv_exp, conv_exp_series

    f, B, psi = run.fields, run.B, run.psi
    rows = []
    worst = 0.0
    for i in range(f["/samples"]):
        p = random_poly(B.algebra, rng, f["/caps/degree_cap"], n_terms=3)
        for t in f["/ts"]:
            val = conv_exp(psi, t, p, B)
            series, _terms = conv_exp_series(psi, t, p, B)
            defect = abs(val - series)
            worst = max(worst, defect)
            rows.append([str(i), _fmt(t), _fmt(val.real), _fmt(val.imag),
                         _fmt(series.real), _fmt(series.imag), _fmt(defect)])
    header = ["index", "t", "value_re", "value_im",
              "series_re", "series_im", "defect"]
    assertions = {"oracle_equivalence": bool(worst <= f["/tolerances/convexp"])}
    return header, rows, assertions, {"max_defect": worst}


def _exp_gns(run, rng):
    from .gns import gns_construct, levy_triple_residuals

    f = run.fields
    cap = f["/caps/degree_cap"]
    triple = gns_construct(run.psi, run.B, degree_cap=cap)
    rep = levy_triple_residuals(triple, n_samples=f["/samples"], sample_degree=cap, rng=rng)
    rows = [[check, _fmt(res)] for check, res in sorted(rep.items())]
    assertions = {"triple_residuals_within_tol":
                  bool(rep["max_residual"] <= f["/tolerances/gns"])}
    return ["check", "residual"], rows, assertions, \
        {"triple": triple.to_json(), "residuals": rep}


def _exp_sweep(run, rng):
    from .gram import DEFECT_FLOOR, convergence_sweep

    kappa, _kt, c, d, _gens = run.chain
    s, t = run.fields["/interval"]
    rows_obj = convergence_sweep(c, d, kappa, run.psi, s, t, run.fields["/partition/ns"])
    defects = [r.defect for r in rows_obj]
    live = [x for x in defects if x > DEFECT_FLOOR]
    assertions = {
        "defect_nonincreasing": bool(all(b <= a + DEFECT_FLOOR for a, b in
                                         zip(defects, defects[1:]))),
        "defect_quarter": bool(defects[-1] <= max(defects[0] / 4.0, DEFECT_FLOOR)),
    }
    if live:
        # only meaningful when the chain has a genuine discretization defect
        assertions["defect_strictly_decreasing"] = bool(
            len(live) == len(defects)
            and all(b < a for a, b in zip(defects, defects[1:])))
    else:
        assertions["defect_identically_zero"] = True
    return SWEEP_HEADER, _gram_rows(rows_obj), assertions, \
        {"defects": defects, "limit_degenerate": not live}


def _exp_reverse(run, rng):
    from .gram import reverse_check

    f, (b, d) = run.fields, run.elements
    _kappa, kappa_tilde, *_rest = run.chain   # the grouplike chain (_Run)
    s, t = f["/interval"]
    rows_obj = reverse_check(b, d, kappa_tilde, run.psi, s, t, f["/partition/ns"])
    assertions = {"final_defect_within_tol":
                  bool(rows_obj[-1].defect <= f["/tolerances/reverse"])}
    return SWEEP_HEADER, _gram_rows(rows_obj), assertions, \
        {"defects": [r.defect for r in rows_obj]}


def _exp_fock_unitary(run, rng):
    import numpy as np

    from .fock import unitary_product_evolution
    from .partition import Partition
    from .subcoalg import _routed_exp

    f, params = run.fields, run.unitary
    s, t = f["/interval"]
    ll = np.einsum("ikm,ilm->kl", params.L.conj(), params.L)
    # diagonal at d = 1, so exp of the entry, as expm computes it
    target = _routed_exp(np.eye(params.d, dtype=complex), 1j * params.H - 0.5 * ll, t - s)
    rows = []
    amp_defects, uni_defects = [], []
    for n in f["/partition/ns"]:
        evo, defect = unitary_product_evolution(
            params, params.d, Partition.uniform(s, t, n), f["/caps/particle_cap"])
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
    assertions = {
        "amplitude_defect_within_tol": bool(amp_defects[-1] <= f["/tolerances/amplitude"]),
        "amplitude_defect_decreasing": bool(
            all(b < a for a, b in zip(amp_defects, amp_defects[1:]))),
        "unitarity_defect_decreasing": bool(
            all(b <= a for a, b in zip(uni_defects, uni_defects[1:]))),
    }
    return FOCK_HEADER, rows, assertions, \
        {"amplitude_defects": amp_defects, "unitarity_defects": uni_defects}


def _exp_azema_wiener(run, rng):
    from .fock import azema_wiener_mesh
    from .gns import azema_triple
    from .gram import DEFECT_FLOOR
    from .partition import Partition

    f, B, psi = run.fields, run.B, run.psi
    s, t = f["/interval"]
    # B and psi are the run's Azema objects (_preflight), so the triple is q's
    triple = azema_triple(f["/bialgebra/q"], B, psi)
    rows = []
    reports = []
    for n in f["/partition/ns"]:
        rep = azema_wiener_mesh(f["/bialgebra/q"], B, run.ctx["primitive"], psi, triple,
                                Partition.uniform(s, t, n), f["/caps/particle_cap"])
        reports.append(rep)
        for name, target, defect in (("wiener_norm_sq", "wiener_target", "wiener_defect"),
                                     ("azema_norm_sq", "azema_target", "azema_defect"),
                                     ("x_vacuum_norm_sq", None, "x_vacuum_norm_sq"),
                                     ("qsde_residual", None, "qsde_residual")):
            rows.append([_fmt(rep["mesh"]), str(n), name, _fmt(rep[name]), "0",
                         _fmt(rep[target]) if target else "0", "0", _fmt(rep[defect])])
    assertions = {
        "wiener_exact": all(r["wiener_defect"] <= WIENER_TOL for r in reports),
        "x_kills_vacuum": all(r["x_vacuum_norm_sq"] <= X_VACUUM_TOL for r in reports),
        "qsde_residual_small": all(r["qsde_residual"] <= QSDE_TOL for r in reports),
        "azema_defect_nonincreasing": all(b["azema_defect"] <= a["azema_defect"] + DEFECT_FLOOR
                                          for a, b in zip(reports, reports[1:])),
    }
    return FOCK_HEADER, rows, assertions, {"final": reports[-1]}


def _exp_trotter(run, rng):
    import numpy as np

    from .gram import DEFECT_FLOOR
    from .partition import Partition
    from .subcoalg import ProductFamilySpec, banach_product_check

    f = run.fields
    kind, size = f["/trotter/kind"], f["/trotter/size"]
    s, t = f["/interval"]
    g = np.zeros((size, size), dtype=complex)
    # index-2 nilpotent baseline: rows 0, 2, ... feed from odd columns only
    for i in range(0, size, 2):
        for j in range(1, size, 2):
            g[i, j] = complex(rng.normal(), rng.normal())
    if kind == "nilpotent":
        spec = ProductFamilySpec("matrix-family", g, remainder=None, R=t - s)
    else:
        c = f["/trotter/C"]

        def remainder(r, mu):
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            m = m / np.linalg.norm(m, 2)
            return (r * r * c * c / 2.0) * m

        spec = ProductFamilySpec("matrix-family", g, remainder=remainder,
                                 n_choices=8, R=t - s, C=c)
    ns = f["/partition/ns"]
    reports = [banach_product_check(spec, Partition.uniform(s, t, n),
                                    draws=f["/trotter/draws"], rng=rng) for n in ns]
    rows = [[_fmt(rep["mesh"]), str(n), _fmt(rep["lhs_max"]), _fmt(rep["bound"]),
             _fmt(rep["lhs_max"])] for n, rep in zip(ns, reports)]
    assertions = {"lhs_within_bound": all(rep["passed"] for rep in reports)}
    if kind == "nilpotent":
        assertions["exactness"] = all(rep["lhs_max"] <= DEFECT_FLOOR for rep in reports)
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
    report = run.report
    if not report["ok"]:
        raise QLevyError(
            f"config checks failed (max residual {report['max_residual']:.3e})")
    f = run.fields
    seed = f["/rng_seed"]
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    header, rows, assertions, extra = _DISPATCH[f["/experiment"]](run, rng)
    wall = time.perf_counter() - start

    summary = {
        "config": run.cfg,
        "library_version": __version__,
        "rng_seed": seed,
        "assertions": assertions,
        "results": extra,
        "check_report": report,
        "wall_time_s": wall,
    }
    try:
        text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        raise InvalidParameter(f"{f['/name']}: the summary does not serialize, "
                               f"so nothing is written ({e})") from None
    for i, row in enumerate(rows, 1):
        for column, cell in zip(header, row):
            if cell.lstrip("-") in ("inf", "nan"):
                raise InvalidParameter(f"{f['/name']}: CSV row {i}, column {column} is "
                                       f"{cell}, so nothing is written")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f["/output/csv"]
    json_path = out / f["/output/json"]
    lines = [",".join(header)] + [",".join(r) for r in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    json_path.write_text(text, encoding="utf-8")
    return str(csv_path), str(json_path), summary


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
        every = _fields(FIELDS)
        for label, pointer, more in (("experiments", "/experiment", []),
                                     ("bialgebra builders", "/bialgebra/builder", []),
                                     ("morphism chains", "/morphism/chain", []),
                                     ("generators", "/generator/builtin", ["table"])):
            print(f"{label}: " + ", ".join([*every[pointer][0], *more]))
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
