"""The benchmark's workloads: seeded inputs, one round of tasks each, and the
correctness gate every task output must pass.

Inputs are plain Python data drawn from the seed with `random.Random`, so a
seed gives the same inputs on every platform, and qlevy only ever receives
the generated configs and elements.  The seed draws coefficients and samples
only; sizes are fixed per workload, so every seed costs the same, except
that the shipped configs' own samplers draw polynomial degrees from the
`rng_seed` the seed gives them.

Every task builds fresh bialgebras and functionals.  qlevy's module caches
are keyed by `id()` of those objects, so no task is served from an earlier
task's work.  The benchmark calls qlevy through module attributes (never
names bound at import time), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("shipped-configs", "gram-ladder", "subcoalg-ladder", "fock-trotter")

# correctness gate
FLOOR = 1e-12               # slack for quantities that vanish identically
REVERSE_TOL = 1e-2          # tolerance of the shipped reverse_azema_x config
CONVEXP_REL_TOL = 1e-10     # conv_exp against its oracle, relative
SLOPE_TOL = 0.10            # group-like sweep: defect * n constant within 10 %
CROSS_PATH_FACTOR = 10.0    # cross-path defect <= 10 * bound + FLOOR
AMPLITUDE_TOL = 1e-3        # criterion 09: vacuum amplitude defect
UNITARITY_TOL = 1e-4        # criterion 09: unitarity defect

CONVEXP_TS = (0.1, 1.0, 2.0)
X, XS = 0, 1                # Azema generators x and x*


@dataclass
class Task:
    """One unit of work: `run()` returns its output, `check(output)` returns
    None when the output passes the gate, else the reason it fails."""

    name: str
    run: Callable[[], tuple]
    check: Callable[[tuple], "str | None"]


@dataclass
class Workload:
    tasks: list             # one round, run in this order
    top: str                # designated costliest task
    warmup: Task            # untimed, part of set-up
    # known defects, run once in the traced run and reported, not gated
    probes: list = field(default_factory=list)
    ladder: list = field(default_factory=list)   # (task name, n) reverse rungs


def import_qlevy():
    """Import every qlevy module the workloads and the tracer use."""
    import qlevy.bialg
    import qlevy.cli
    import qlevy.constructions
    import qlevy.fock
    import qlevy.gns
    import qlevy.gram
    import qlevy.ncpoly
    import qlevy.partition
    import qlevy.subcoalg  # noqa: F401


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _coeff(rng):
    """A complex coefficient with modulus in [0.5, 1] and a random phase."""
    z = cmath.rect(rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * math.pi))
    return [z.real, z.imag]


def _gauss(rng, count):
    return [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(count)]


def make_inputs(workload, seed):
    """Plain-data inputs of a workload for a seed (JSON-serializable)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "shipped-configs":
        from qlevy import cli

        configs = []
        for name in cli.builtin_configs():
            cfg = json.loads(cli.builtin_config_path(name).read_text(encoding="utf-8"))
            cfg["rng_seed"] = rng.randrange(2 ** 31)
            configs.append(cfg)
        return {"configs": configs}
    if workload == "gram-ladder":
        return {"c": _coeff(rng)}
    if workload == "subcoalg-ladder":
        return {"azema_c": _coeff(rng), "unitary": _unitary_draws(rng)}
    return {"cross_c": _coeff(rng), "unitary": _unitary_draws(rng),
            "family": {"g": _gauss(rng, 16), "C": rng.uniform(0.2, 1.5),
                       "rng_seed": rng.randrange(2 ** 31)}}


def _unitary_draws(rng):
    """Raw draws for a U<2> triple (W, L, H) and a coefficient."""
    return {"K": _gauss(rng, 4), "L": _gauss(rng, 4), "H": _gauss(rng, 4),
            "c": _coeff(rng)}


def _cplx(pair):
    return complex(pair[0], pair[1])


def _unitary_params(draws):
    """W = expm(0.3 i K), |L| = 0.2, ||H|| = 0.2 from seeded directions.

    The magnitudes are fixed, so every seed stays inside the criterion-09
    thresholds at n = 1024; only the directions are random.
    """
    import numpy as np
    import scipy.linalg
    from qlevy import gns

    def mat(pairs):
        return np.array([_cplx(p) for p in pairs]).reshape(2, 2)

    k = mat(draws["K"])
    k = k + k.conj().T
    h = mat(draws["H"])
    h = h + h.conj().T
    lv = mat(draws["L"]).reshape(2, 2, 1)
    return gns.UnitaryTripleParams(
        2, scipy.linalg.expm(0.3j * k / np.linalg.norm(k, 2)),
        0.2 * lv / np.linalg.norm(lv), 0.2 * h / np.linalg.norm(h, 2))


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------

def build(workload, inputs, out_dir, smoke=False):
    """The Workload for generated inputs; `smoke` shrinks every size."""
    builder = {
        "shipped-configs": _shipped_configs,
        "gram-ladder": _gram_ladder,
        "subcoalg-ladder": _subcoalg_ladder,
        "fock-trotter": _fock_trotter,
    }[workload]
    return builder(inputs, Path(out_dir), smoke)


def _first_failure(checks):
    """The message of the first failing (message, ok) pair, or None."""
    for message, ok in checks:
        if not ok:
            return message
    return None


# -- shipped-configs ---------------------------------------------------------

SMOKE_CONFIGS = ("gns_azema_q2", "fock_unitary_d1", "trotter_nilpotent")


def _shipped_configs(inputs, out_dir, smoke):
    from qlevy import cli

    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = {}
    for cfg in inputs["configs"]:
        if smoke and cfg["name"] not in SMOKE_CONFIGS:
            continue
        path = out_dir / f"{cfg['name']}.config.json"
        path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")

        def run(path=path):
            csv_path, _json_path, summary = cli.run_experiment(str(path), str(out_dir))
            csv_text = Path(csv_path).read_text(encoding="utf-8")
            return csv_text, tuple(sorted(summary["assertions"].items()))

        def check(out):
            failing = [name for name, ok in out[1] if not ok]
            return f"assertions failed: {failing}" if failing else None

        tasks[cfg["name"]] = Task(cfg["name"], run, check)
    return Workload(list(tasks.values()),
                    top="trotter_nilpotent" if smoke else "reverse_azema_x",
                    warmup=tasks["gns_azema_q2"])


# -- gram-ladder -------------------------------------------------------------

def _gram_ladder(inputs, out_dir, smoke):
    c = _cplx(inputs["c"])
    reverse_ns = (4, 8, 12) if smoke else (24, 48, 72)
    id_n = 16 if smoke else 256
    grouplike_ns = (16, 32) if smoke else (256, 512)
    reverse = {n: _reverse_task(c, n) for n in reverse_ns}
    tasks = [reverse[n] for n in reverse_ns[:2]]
    tasks += [_identity_sweep_task(c, id_n), _grouplike_sweep_task(c, grouplike_ns),
              reverse[reverse_ns[2]]]
    return Workload(tasks, top=reverse[reverse_ns[2]].name,
                    warmup=_reverse_task(c, reverse_ns[0]),
                    ladder=[(reverse[n].name, n) for n in reverse_ns])


def _rows_output(rows):
    return tuple((r.n, r.norm_sq, r.cross, r.defect) for r in rows)


def _rows_check(what):
    """Gate for sweep rows: defects within REVERSE_TOL, Gram norms >= -FLOOR."""
    def check(out):
        return _first_failure([
            (f"{what} defect above {REVERSE_TOL}",
             all(d <= REVERSE_TOL for _n, _ns, _x, d in out)),
            ("negative Gram norm", all(ns >= -FLOOR for _n, ns, _x, _d in out)),
        ])

    return check


def _reverse_task(c, n):
    from qlevy import constructions, gram, ncpoly

    def run():
        B, _prim, psi = constructions.make_azema(2.0)
        _G, _kappa, kappa_tilde = constructions.make_grouplike(B, 6)
        b = ncpoly.NcPoly.word((X,), c)
        return _rows_output(gram.reverse_check(b, b, kappa_tilde, psi, 0.0, 1.0, [n]))

    return Task(f"reverse_n{n}", run, _rows_check("reverse"))


def _identity_sweep_task(c, n):
    from qlevy import constructions, gram, ncpoly

    def run():
        B, _prim, psi = constructions.make_azema(2.0)
        x = ncpoly.NcPoly.word((X,), c)
        return _rows_output(gram.convergence_sweep(
            x, x, gram.identity_morphism(B), psi, 0.0, 1.0, [n]))

    return Task(f"sweep_identity_n{n}", run, _rows_check("identity-sweep"))


def _grouplike_sweep_task(c, ns):
    from qlevy import constructions, gram, ncpoly

    def run():
        B, _prim, psi = constructions.make_azema(2.0)
        _G, kappa, kappa_tilde = constructions.make_grouplike(B, 6)
        cs = kappa_tilde.apply(ncpoly.NcPoly.word((XS,), c))
        return _rows_output(gram.convergence_sweep(cs, cs, kappa, psi, 0.0, 1.0, list(ns)))

    def check(out):
        scaled = [n * d for n, _ns, _x, d in out]
        return _first_failure([
            ("group-like defect vanished", all(d > FLOOR for _n, _ns, _x, d in out)),
            (f"defect * n not constant within {SLOPE_TOL:.0%}",
             max(scaled) - min(scaled) <= SLOPE_TOL * min(scaled)),
            ("negative Gram norm", all(ns >= -FLOOR for _n, ns, _x, _d in out)),
        ])

    return Task(f"sweep_grouplike_n{ns[-1]}", run, check)


# -- subcoalg-ladder ---------------------------------------------------------

def _subcoalg_ladder(inputs, out_dir, smoke):
    c = _cplx(inputs["azema_c"])
    draws = inputs["unitary"]
    q2_ks = (1, 2) if smoke else (1, 2, 3)
    tasks = [_azema_convexp_task(c, 2.0, k) for k in q2_ks]
    tasks += [_azema_convexp_task(c, q, 1) for q in (1e-3, 1e3)]
    tasks += [_unitary_convexp_task(draws, word) for word in UNITARY_WORDS]
    probes = [] if smoke else [_azema_convexp_task(c, q, 2) for q in (1e-3, 1e3)]
    return Workload(tasks, top=tasks[len(q2_ks) - 1].name,
                    warmup=_azema_convexp_task(c, 2.0, 1), probes=probes)


def _convexp_check(out):
    values, oracle = out
    worst = max(abs(v - o) / max(1.0, abs(o)) for v, o in zip(values, oracle))
    if not worst <= CONVEXP_REL_TOL:
        return f"conv_exp off its oracle by {worst:.3e} (relative)"
    return None


def _azema_convexp_task(c, q, k):
    """conv_exp of c (x x*)^k + 1 against conv_exp_series, cold extraction."""
    from qlevy import constructions, ncpoly, subcoalg

    def run():
        B, _prim, psi = constructions.make_azema(q)
        p = ncpoly.NcPoly({(X, XS) * k: c, (): 1.0})
        values = tuple(subcoalg.conv_exp(psi, t, p, B) for t in CONVEXP_TS)
        oracle = tuple(subcoalg.conv_exp_series(psi, t, p, B)[0] for t in CONVEXP_TS)
        return values, oracle

    return Task(f"azema_q{q:g}_k{k}", run, _convexp_check)


# Words of U<2> in the parser's syntax.  The series oracle would need more
# than the term budget here (the arity-n Sweedler expansion of a degree-3
# word has 8^(n-1) legs), so these tasks use the corepresentation oracle.
UNITARY_WORDS = ("x11 x21^*", "x12 x22^* x21")


def _corep_oracle(psi, B, letters, t):
    """e_*^{t psi}(u_{i1 j1} ... u_{ir jr}) from the tensor corepresentation.

    Products of matrix coefficients of u or u-bar form a corepresentation
    of dimension 2^r, on which the convolution exponential is the matrix
    exponential of the matrix of psi values.  No subcoalgebra is extracted.
    """
    import numpy as np
    import scipy.linalg
    from qlevy import ncpoly

    alg = B.algebra
    rows = list(itertools.product((1, 2), repeat=len(letters)))
    m = np.zeros((len(rows), len(rows)), dtype=complex)
    for a, row in enumerate(rows):
        for b, col in enumerate(rows):
            names = [f"x{i}{j}" + ("^*" if star else "")
                     for (_n, star), i, j in zip(letters, row, col)]
            m[a, b] = psi(ncpoly.parse_poly(" ".join(names), alg))
    row = tuple(i for (i, _j), _s in letters)
    col = tuple(j for (_i, j), _s in letters)
    return complex(scipy.linalg.expm(t * m)[rows.index(row), rows.index(col)])


def _unitary_convexp_task(draws, word):
    """conv_exp of c w + 1 on U<2> against the corepresentation oracle."""
    from qlevy import gns, ncpoly, subcoalg

    c = _cplx(draws["c"])
    letters = [((int(nm[1]), int(nm[2])), nm.endswith("^*")) for nm in word.split()]

    def run():
        triple = gns.unitary_triple(_unitary_params(draws))
        B, psi = triple.B, triple.psi
        p = ncpoly.parse_poly(word, B.algebra).scale(c).add(ncpoly.NcPoly.one())
        values = tuple(subcoalg.conv_exp(psi, t, p, B) for t in CONVEXP_TS)
        oracle = tuple(c * _corep_oracle(psi, B, letters, t) + 1.0 for t in CONVEXP_TS)
        return values, oracle

    return Task(f"unitary2_deg{len(letters)}", run, _convexp_check)


# -- fock-trotter ------------------------------------------------------------

def _fock_trotter(inputs, out_dir, smoke):
    # cross-path reports stop at n = 32: at n = 48 one costs as much as the
    # top task and halves the rounds a run fits
    aw_ns, cross_ns = ((4, 8, 12), (2, 4, 8)) if smoke else ((16, 32, 48), (8, 16, 32))
    aw = [_azema_wiener_task(n) for n in aw_ns]
    cross = [_cross_path_task(_cplx(inputs["cross_c"]), n) for n in cross_ns]
    unitary = [_unitary_task(inputs["unitary"], n)
               for n in ((1024,) if smoke else (1024, 2048))]
    tasks = aw + cross + unitary + [_banach_task(inputs["family"], 50 if smoke else 1000)]
    # the discrete QSDE residual is erratic in n: above 1e-6 at these sizes
    probes = [] if smoke else [_azema_wiener_task(n) for n in (24, 28, 40)]
    return Workload(tasks, top=aw[-1].name,
                    warmup=_azema_wiener_task(aw_ns[0]), probes=probes)


def _azema_wiener_task(n):
    from qlevy import fock, partition

    keys = ("wiener_defect", "azema_defect", "azema_target", "x_vacuum_norm_sq",
            "qsde_residual")

    def run():
        rep = fock.azema_wiener_experiment(2.0, partition.Partition.uniform(0.0, 1.0, n), 5)
        return tuple(rep[k] for k in keys)

    def check(out):
        wiener, azema, target, x_vac, qsde = out
        return _first_failure([
            ("Wiener norm off its target", wiener <= 1e-10),
            ("Azema norm off its target", azema <= 1e-10 * max(1.0, abs(target))),
            ("x does not kill the vacuum", x_vac <= 1e-20),
            ("QSDE residual above 1e-6", qsde <= 1e-6),
        ])

    return Task(f"azema_wiener_n{n}", run, check)


def _cross_path_task(c, n):
    from qlevy import constructions, fock, gns, ncpoly, partition

    def run():
        B, _prim, psi = constructions.make_azema(2.0)
        triple = gns.gns_construct(psi, B, degree_cap=3)
        rep = fock.cross_path_report(triple, ncpoly.NcPoly.word((XS,), c), B, psi,
                                     partition.Partition.uniform(0.0, 1.0, n), 5)
        return rep["fock_value"], rep["gram_value"], rep["defect"], rep["bound"]

    def check(out):
        _f, _g, defect, bound = out
        if not defect <= CROSS_PATH_FACTOR * bound + FLOOR:
            return f"cross-path defect {defect:.3e} above 10 x bound {bound:.3e}"
        return None

    return Task(f"cross_path_n{n}", run, check)


def _unitary_task(draws, n):
    import numpy as np
    import scipy.linalg
    from qlevy import fock, partition

    span = 0.4

    def run():
        params = _unitary_params(draws)
        evo, defect = fock.unitary_product_evolution(
            params, 2, partition.Partition.uniform(0.0, span, n), 8)
        amp = evo.vacuum_amplitude()
        ll = np.einsum("ikm,ilm->kl", params.L.conj(), params.L)
        target = scipy.linalg.expm(span * (1j * params.H - 0.5 * ll))
        return tuple(amp.ravel()), float(np.abs(amp - target).max()), defect

    def check(out):
        _amp, amp_defect, defect = out
        return _first_failure([
            (f"vacuum amplitude defect above {AMPLITUDE_TOL}", amp_defect <= AMPLITUDE_TOL),
            (f"unitarity defect not below {UNITARITY_TOL}", defect < UNITARITY_TOL),
        ])

    return Task(f"unitary2_n{n}", run, check)


def _banach_task(family, calls):
    """Criterion-05-shaped product-formula checks on a seeded 4x4 family."""
    import numpy as np
    from qlevy import partition, subcoalg

    g = np.array([_cplx(p) for p in family["g"]]).reshape(4, 4)
    g = g / np.linalg.norm(g, 2)
    c = family["C"]

    def run():
        rng = np.random.default_rng(family["rng_seed"])

        def remainder(r, mu):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = m / np.linalg.norm(m, 2)
            return (r * r * c * c / 2.0) * float(rng.uniform(0.0, 1.0)) * m

        spec = subcoalg.ProductFamilySpec("matrix-family", g, remainder=remainder,
                                          n_choices=4, R=1.0, C=c)
        part = partition.Partition.uniform(0.0, 1.0, 8)
        reps = [subcoalg.banach_product_check(spec, part, draws=1, rng=rng)
                for _ in range(calls)]
        return tuple((rep["lhs_max"], rep["bound"], rep["passed"]) for rep in reps)

    def check(out):
        failing = sum(1 for _l, _b, passed in out if not passed)
        return f"{failing} product bounds violated" if failing else None

    return Task(f"banach_x{calls}", run, check)
