import copy
import functools
import json
import operator
import os
from pathlib import Path

import numpy as np
import pytest

from qlevy.cli import (
    builtin_config_path,
    builtin_configs,
    check_defs,
    load_config,
    main,
    run_experiment,
)
from qlevy.errors import InvalidParameter, ParseError, QLevyError, SchemaError


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def test_shipped_configs_present_and_valid():
    names = builtin_configs()
    assert "azema_q2.json" in names
    assert len(names) >= 8
    for name in names:
        load_config(builtin_config_path(name))


def test_schema_rejects_q_zero(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "name": "bad", "experiment": "axioms",
        "bialgebra": {"builder": "azema", "q": 0},
    })
    with pytest.raises(SchemaError) as exc:
        load_config(path)
    assert "/bialgebra/q" in str(exc.value)


def _schema():
    with open(builtin_config_path("").with_name("config_schema.json"), encoding="utf-8") as fh:
        return json.load(fh)


_DROP = object()


def _edits(schema, node, value, path=()):
    """(path, new value or _DROP) of one-fault edits at and below value, the
    part of a config that the schema's node describes: a wrong type, a value
    below the minimum or outside the enum, an array of the wrong length, an
    unknown key, a missing required key, and an integer written as a float
    with and without a fractional part."""
    if "$ref" in node:
        node = schema["definitions"][node["$ref"].rsplit("/", 1)[1]]
    yield from ((path, v) for v in (True, "1"))
    if "enum" in node:
        yield path, "frobnicate"
    if "minimum" in node:
        yield path, node["minimum"] - 1
    if "not" in node:
        yield path, node["not"]["const"]
    if "minLength" in node:
        yield path, ""
    if node.get("type") == "integer":
        yield from ((path, v) for v in (float(value), value + 0.5))
    if isinstance(value, list):
        yield path, value[:node.get("minItems", 1) - 1]
        yield path, value + value[:1]
        if value and "items" in node:
            yield from _edits(schema, node["items"], value[0], (*path, 0))
    if isinstance(value, dict):
        yield (*path, "bogus"), 1
        yield from (((*path, key), _DROP) for key in node.get("required", ()))
        for key, child in value.items():
            sub = node.get("properties", {}).get(key, node.get("additionalProperties"))
            yield from _edits(schema, sub, child, (*path, key))


def _edited(cfg, path, value):
    if not path:
        return value
    out = copy.deepcopy(cfg)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, out)
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    return out


def test_schema_errors_name_the_best_match(tmp_path):
    # config_schema.json is the oracle of FIELDS: for each one-fault edit of
    # each shipped config, a top-level array and a few configs with several
    # faults, load_config and jsonschema agree on accept or reject, and a
    # SchemaError begins with best_match's pointer (jsonschema names the
    # object above an unknown or missing key)
    import jsonschema
    from jsonschema.exceptions import best_match

    schema = _schema()
    validator = jsonschema.Draft7Validator(schema)
    configs = [
        {"name": "bad", "experiment": "axioms", "bialgebra": {"builder": "azema", "q": 0}},
        {"name": "bad", "experiment": "frobnicate", "bialgebra": {"builder": "azema"}},
        {"experiment": "axioms"},
        {"name": 3, "experiment": "sweep", "bialgebra": {"builder": "nope"}, "extra": 1},
    ]
    for name in builtin_configs():
        cfg = json.loads(builtin_config_path(name).read_text(encoding="utf-8"))
        configs += [_edited(cfg, at, value) for at, value in _edits(schema, schema, cfg)]
        configs.append([cfg])
    path, refused = tmp_path / "edited.json", 0
    for edited in configs:
        path.write_text(json.dumps(edited), encoding="utf-8")
        want = best_match(validator.iter_errors(edited))
        if want is None:
            load_config(path)
            continue
        with pytest.raises(SchemaError) as got:
            load_config(path)
        pointer = "".join(f"/{p}" for p in want.absolute_path)
        assert str(got.value).startswith(pointer), (edited, want.message)
        refused += 1
    assert refused > 400


def test_schema_rejects_unknown_experiment(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "name": "bad", "experiment": "frobnicate",
        "bialgebra": {"builder": "azema"},
    })
    with pytest.raises(SchemaError) as exc:
        load_config(path)
    assert "/experiment" in str(exc.value)


def test_schema_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "name": "bad", "experiment": "axioms",
        "bialgebra": {"builder": "azema"}, "bogus": 1,
    })
    with pytest.raises(SchemaError):
        load_config(path)


def test_schema_rejects_dim_cap(tmp_path):
    # no code reads a dim_cap from a config, so one must not be accepted
    cfg = json.loads(builtin_config_path("convexp_azema_q2.json").read_text(encoding="utf-8"))
    cfg["caps"]["dim_cap"] = 1
    with pytest.raises(SchemaError, match="/caps"):
        load_config(_write(tmp_path, "dim_cap.json", cfg))


def test_qlevy_threads_overrides_blas_variables(monkeypatch):
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.setenv(var, "4")
    monkeypatch.setenv("QLEVY_THREADS", "1")
    assert main(["list-builtins"]) == 0
    assert [os.environ[var] for var in blas] == ["1", "1", "1"]


def test_parse_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x",,}', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_config(str(p))
    assert exc.value.position == 13


def test_check_defs_ok():
    report = check_defs(builtin_config_path("azema_q2.json"))
    assert report["ok"]
    assert report["max_residual"] <= report["tolerance"]


def test_check_defs_reports_confluence_beside_the_checks(tmp_path, capsys):
    report = check_defs(builtin_config_path("azema_q2.json"))
    assert report["confluence"] == {"critical_pairs": 0, "worst_gap": 0.0}
    assert "confluence" not in report["checks"]
    path = _write(tmp_path, "unitary2.json", {
        "name": "unitary2", "experiment": "axioms",
        "bialgebra": {"builder": "unitary", "d": 2},
    })
    report = check_defs(path)
    assert report["ok"]
    assert report["confluence"]["critical_pairs"] == 8
    assert report["confluence"]["worst_gap"] <= 1e-15
    assert main(["check", path]) == 0
    assert "confluence: 8 critical pairs, worst gap" in capsys.readouterr().out


def _corrupt_delta(monkeypatch, generator, scale):
    # every Azema bialgebra a run builds gets Delta(generator) scaled
    import qlevy.constructions

    make_azema = qlevy.constructions.make_azema

    def corrupted(q):
        azema, primitive, psi = make_azema(q)
        idx = azema.algebra.index(generator)
        azema.delta_on_gen[idx] = {k: scale * c for k, c in azema.delta_on_gen[idx].items()}
        return azema, primitive, psi

    monkeypatch.setattr(qlevy.constructions, "make_azema", corrupted)


def test_check_defs_catches_corrupt_coproduct(monkeypatch):
    _corrupt_delta(monkeypatch, "y", 1.01)
    report = check_defs(builtin_config_path("azema_q2.json"))
    assert not report["ok"]
    assert report["max_residual"] > report["tolerance"]


def test_check_names_where_the_certificate_fails(monkeypatch, capsys):
    # Delta(x) scaled by 1.5: (eps (x) id) Delta(x) = 1.5 x, relative gap 1/3
    _corrupt_delta(monkeypatch, "x", 1.5)
    assert main(["check", "azema_q2"]) == 1
    out = capsys.readouterr().out
    assert "axioms/counit_law: 3.333e-01 at generator 'x'" in out
    assert "axioms/rule_delta: 0.000e+00\n" in out


def test_axioms_csv_is_the_certificate_whatever_the_samples(tmp_path):
    # the axioms experiment writes certify_bialgebra's residuals and draws no
    # samples, so a config's samples field is refused, not ignored
    from qlevy.bialg import certify_bialgebra
    from qlevy.constructions import make_azema

    with open(builtin_config_path("azema_q2.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    csv_path, _, summary = run_experiment(_write(tmp_path, "azema_q2.json", cfg),
                                          str(tmp_path / "out"))
    assert summary["assertions"] == {"max_residual_within_tol": True}
    cfg["samples"] = 30
    with pytest.raises(SchemaError, match="^/samples: not read by the axioms experiment"):
        run_experiment(_write(tmp_path, "azema_q2_30.json", cfg), str(tmp_path / "30"))
    assert not (tmp_path / "30").exists()
    rows = [line.split(",") for line in open(csv_path, encoding="utf-8").read().splitlines()]
    residuals = certify_bialgebra(make_azema(2.0)[0])["residuals"]
    assert rows == [["check", "residual"]] + [[k, "0"] for k in sorted(residuals)]
    assert set(residuals.values()) == {0.0}


@pytest.mark.parametrize("experiment, edit, field", [
    ("fock_unitary_d1", {"builder": "azema", "q": 2.0}, "/bialgebra/builder"),
    ("azema_wiener_q2", {"builder": "unitary"}, "/bialgebra/builder"),
], ids=["fock-unitary-on-azema", "azema-wiener-on-unitary"])
def test_config_bialgebra_must_be_the_one_the_experiment_runs(tmp_path, capsys,
                                                              experiment, edit, field):
    # fock-unitary builds U<bialgebra.d> and azema-wiener Azema at bialgebra.q;
    # check_defs certifies the config's bialgebra, so the two must agree
    with open(builtin_config_path(f"{experiment}.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["bialgebra"] = edit
    path = _write(tmp_path, "mismatch.json", cfg)
    for call in (check_defs, lambda p: run_experiment(p, str(tmp_path))):
        with pytest.raises(SchemaError, match=field):
            call(path)
    assert main(["check", path]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("generator", [
    {"table": {"x x*": [1.0, 0.0]}},
    {"builtin": "zero"},
    {"builtin": "azema-psi"},
], ids=["table", "zero", "azema-psi"])
def test_azema_wiener_generator_must_be_the_azema_psi(tmp_path, capsys, generator):
    # azema-wiener runs the Azema psi against Azema targets and the Azema
    # QSDE operator, so it reads no generator: any is an error, not ignored
    with open(builtin_config_path("azema_wiener_q2.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["generator"] = generator
    path = _write(tmp_path, "foreign_psi.json", cfg)
    for call in (check_defs, lambda p: run_experiment(p, str(tmp_path))):
        with pytest.raises(SchemaError, match="/generator"):
            call(path)
    assert main(["check", path]) == 1
    assert "/generator" in capsys.readouterr().err


def test_azema_wiener_builds_its_objects_once(tmp_path, monkeypatch):
    # one make_azema (build_objects') and one closed-form triple serve every
    # mesh, no GNS quotient is taken, and each mesh's report is the public
    # experiment's, bit for bit
    import qlevy.constructions
    import qlevy.fock
    import qlevy.gns
    from qlevy.fock import azema_wiener_experiment
    from qlevy.partition import Partition

    cfg = load_config(builtin_config_path("azema_wiener_q2.json"))
    ns = cfg["partition"]["ns"]
    public = [azema_wiener_experiment(2.0, Partition.uniform(0, 1, n), 5) for n in ns]
    calls = {"make_azema": 0, "azema_triple": 0, "gns_construct": 0}
    reports = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    mesh = qlevy.fock.azema_wiener_mesh

    def recorded(*args):
        reports.append(mesh(*args))
        return reports[-1]

    counted(qlevy.constructions, "make_azema")
    counted(qlevy.gns, "azema_triple")
    counted(qlevy.gns, "gns_construct")
    monkeypatch.setattr(qlevy.fock, "azema_wiener_mesh", recorded)
    _, _, summary = run_experiment(builtin_config_path("azema_wiener_q2.json"), str(tmp_path))
    assert calls == {"make_azema": 1, "azema_triple": 1, "gns_construct": 0}
    assert all(summary["assertions"].values())
    assert reports == public


_UNIT = [0.0, 1.0]


@pytest.mark.parametrize("q, ns, interval", [
    (1000.0, [2, 4, 8, 16], _UNIT), (2.0, [16, 32, 64, 128], _UNIT),
    (3.7, [2, 4, 8, 16, 24, 32, 40, 48], _UNIT), (1000.0, [16, 64], _UNIT),
    (2.0, [2, 4, 8, 16], [0.0, 1e308]),
], ids=["q1000", "q2_n128", "q3.7_n48", "q1000_n64", "span1e308"])
def test_azema_wiener_passes_at_wide_q_and_fine_meshes(tmp_path, q, ns, interval):
    # azema_wiener_q2 with its q, ns and interval edited; a GNS triple, one
    # ulp off in rho(y), failed qsde_residual_small in the first three (8.7e23
    # at q = 1000, 330 at n = 128, 0.018 at q = 3.7); the closed-form triple
    # reads exactly 0.  In the last two the residual's last slot is 0 and
    # the powers of the others overflow: a doubled product that formed them
    # read inf * 0 = NaN, and the summary did not serialize
    with open(builtin_config_path("azema_wiener_q2.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["bialgebra"]["q"] = q
    cfg["partition"]["ns"] = ns
    cfg["interval"] = interval
    csv_path, _, summary = run_experiment(_write(tmp_path, "edited.json", cfg),
                                          str(tmp_path / "out"))
    assert all(summary["assertions"].values()), summary["assertions"]
    rows = [line.split(",") for line in open(csv_path, encoding="utf-8").read().splitlines()]
    assert [r[3] for r in rows if r[2] == "qsde_residual"] == ["0"] * len(ns)


def test_check_defs_draws_no_random_sample(monkeypatch):
    # every check is exact: with random polynomials unavailable, each shipped
    # config still checks clean
    import qlevy.bialg
    import qlevy.ncpoly

    def no_draw(*args, **kwargs):
        raise AssertionError("check_defs drew a random polynomial")

    for module in (qlevy.ncpoly, qlevy.bialg):
        monkeypatch.setattr(module, "random_poly", no_draw)
    names = builtin_configs()
    assert len(names) == 9
    for name in names:
        assert check_defs(builtin_config_path(name))["ok"], name


def test_check_defs_reverse_without_chain_checks_its_morphism(tmp_path):
    # reverse runs the grouplike chain, whatever its morphism fields
    with open(builtin_config_path("reverse_azema_x.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    del cfg["morphism"]
    report = check_defs(_write(tmp_path, "reverse.json", cfg))
    assert "morphism/counit_preservation" in report["checks"]


def test_run_experiment_writes_outputs(tmp_path):
    csv_path, json_path, summary = run_experiment(
        builtin_config_path("trotter_nilpotent.json"), str(tmp_path))
    lines = open(csv_path, encoding="utf-8").read().splitlines()
    assert lines[0] == "mesh,n,lhs_max,bound,defect"
    assert len(lines) > 1
    parsed = json.load(open(json_path, encoding="utf-8"))
    assert parsed["assertions"] == summary["assertions"]
    assert all(summary["assertions"].values())


def test_trotter_nilpotent_defects_zero(tmp_path):
    csv_path, _, summary = run_experiment(
        builtin_config_path("trotter_nilpotent.json"), str(tmp_path))
    assert summary["assertions"]["exactness"]
    for line in open(csv_path, encoding="utf-8").read().splitlines()[1:]:
        assert float(line.split(",")[-1]) <= 1e-13


def test_sweep_grouplike_strictly_decreasing(tmp_path):
    csv_path, _, summary = run_experiment(
        builtin_config_path("sweep_grouplike_xstar.json"), str(tmp_path))
    assert summary["assertions"]["defect_strictly_decreasing"]
    rows = open(csv_path, encoding="utf-8").read().splitlines()[1:]
    defects = [float(r.split(",")[5]) for r in rows]
    assert len(defects) == 6
    assert all(b < a for a, b in zip(defects, defects[1:]))


def test_degenerate_sweep_flagged(tmp_path):
    _, _, summary = run_experiment(
        builtin_config_path("sweep_azema_x.json"), str(tmp_path))
    assert summary["assertions"]["defect_identically_zero"]
    assert summary["results"]["limit_degenerate"] is True


@pytest.mark.parametrize("name", ["azema_q2.json", "gns_azema_q2.json",
                                  "sweep_grouplike_xstar.json"])
def test_run_experiment_builds_objects_once(name, tmp_path, monkeypatch):
    from qlevy import cli

    calls = []
    build = cli.build_objects

    def counted(fields):
        calls.append(fields["/name"])
        return build(fields)

    monkeypatch.setattr(cli, "build_objects", counted)
    run_experiment(builtin_config_path(name), str(tmp_path))
    assert len(calls) == 1


def _assert_matches_golden(name, tmp_path):
    # every cell equal to tests/golden/<name>.csv within 1e-12 relative
    csv_path, _, _ = run_experiment(builtin_config_path(f"{name}.json"), str(tmp_path))
    got = [line.split(",") for line in open(csv_path, encoding="utf-8").read().splitlines()]
    golden = Path(__file__).parent / "golden" / f"{name}.csv"
    want = [line.split(",") for line in golden.read_text(encoding="utf-8").splitlines()]
    assert got[0] == want[0]
    assert [len(row) for row in got] == [len(row) for row in want]
    for row, ref in zip(got[1:], want[1:]):
        for cell, expected in zip(row, ref):
            if cell == expected:   # also labels: quantities, checks
                continue
            x, y = float(cell), float(expected)
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


_GRAM_DRIVEN = ["sweep_azema_x", "sweep_grouplike_xstar", "reverse_azema_x", "azema_wiener_q2"]


@pytest.mark.parametrize("name", _GRAM_DRIVEN)
def test_gram_driven_configs_match_golden_csvs(name, tmp_path):
    # tests/golden holds these CSVs as written by term-by-term pairings: of
    # whole-mesh Sweedler expansions for the sweep and reverse configs, of
    # Fock elementary tensors for the azema_wiener_q2 norm rows; its qsde rows
    # are exactly 0, each last-slot operator being its QSDE operator
    _assert_matches_golden(name, tmp_path)


@pytest.mark.parametrize("name", [Path(n).stem for n in builtin_configs()
                                  if Path(n).stem not in _GRAM_DRIVEN])
def test_other_shipped_configs_match_golden_snapshots(name, tmp_path):
    # with the test above, every shipped CSV is compared; these goldens are
    # snapshots of the program's own output, not independent oracles, and
    # only show that the CSVs did not move
    _assert_matches_golden(name, tmp_path)


@pytest.mark.parametrize("name", [Path(n).stem for n in builtin_configs()])
def test_outputs_deterministic(name, tmp_path):
    # the summary is written as the experiments return it: two runs agree
    # byte for byte on the CSV and value for value on the JSON
    cfg = builtin_config_path(f"{name}.json")
    a = tmp_path / "a"
    b = tmp_path / "b"
    csv_a, json_a, _ = run_experiment(cfg, str(a))
    csv_b, json_b, _ = run_experiment(cfg, str(b))
    assert open(csv_a, "rb").read() == open(csv_b, "rb").read()
    sa = json.load(open(json_a, encoding="utf-8"))
    sb = json.load(open(json_b, encoding="utf-8"))
    sa.pop("wall_time_s")
    sb.pop("wall_time_s")
    assert sa == sb


def test_main_check_exit_codes(tmp_path, capsys):
    assert main(["check", str(builtin_config_path("azema_q2.json"))]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert main(["check", str(tmp_path / "missing.json")]) == 1


def test_main_resolves_bare_builtin_names(capsys):
    assert main(["check", "azema_q2"]) == 0
    capsys.readouterr()
    assert main(["check", "azema_q2.json"]) == 0


def test_main_run(tmp_path, capsys):
    code = main(["run", "trotter_nilpotent", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out
    assert "pass" in out
    assert (tmp_path / "trotter_nilpotent.csv").exists()


def test_main_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    assert "experiments:" in out
    assert "azema_q2.json" in out
    # each listed vocabulary is the schema's enum, in its order
    props = _schema()["properties"]
    listed = dict(line.split(": ") for line in out.splitlines()[:4])
    assert listed == {
        "experiments": ", ".join(props["experiment"]["enum"]),
        "bialgebra builders": ", ".join(props["bialgebra"]["properties"]["builder"]["enum"]),
        "morphism chains": ", ".join(props["morphism"]["properties"]["chain"]["enum"]),
        "generators": ", ".join(props["generator"]["properties"]["builtin"]["enum"] + ["table"]),
    }


def test_complex_serialization_roundtrip():
    from qlevy.gns import _c2j
    from qlevy.cli import _carr

    assert _c2j(1.5 - 2j) == [1.5, -2.0]
    arr = _carr([[[1.0, 2.0], [0.0, -1.0]]])
    assert arr.shape == (1, 2)
    assert arr[0, 0] == 1.0 + 2.0j
    assert arr[0, 1] == -1.0j


def test_run_names_a_non_finite_q(tmp_path, capsys):
    # JSON takes a NaN literal, and draft-07 cannot exclude it
    path = _write(tmp_path, "nan_q.json", {
        "name": "nan_q", "experiment": "axioms",
        "bialgebra": {"builder": "azema", "q": float("nan")},
    })
    assert "NaN" in Path(path).read_text(encoding="utf-8")
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    assert "q must be finite, got nan" in capsys.readouterr().err


def test_run_experiment_certifies_the_bialgebra_once(tmp_path, monkeypatch):
    # check_defs and the axioms experiment read one certificate per run
    import qlevy.bialg

    calls = []
    certify = qlevy.bialg.certify_bialgebra

    def counted(B):
        calls.append(B.name)
        return certify(B)

    monkeypatch.setattr(qlevy.bialg, "certify_bialgebra", counted)
    _, _, summary = run_experiment(builtin_config_path("azema_q2.json"), str(tmp_path))
    assert len(calls) == 1
    checks = summary["check_report"]["checks"]
    assert summary["results"]["report"]["residuals"] == {
        k[len("axioms/"):]: v for k, v in checks.items() if k.startswith("axioms/")}


_NOT_UNITARY = {"W": [[[0.5, 0.0]]], "L": [[[[0.3, 0.0]]]], "H": [[[0.5, 0.0]]]}
_FLAT_W = dict(_NOT_UNITARY, W=[[1.0, 0.0]])   # one [re, im] pair, not a matrix
_NAN = float("nan")


@pytest.mark.parametrize("name, edit, pointer", [
    ("reverse_azema_x", {"morphism": {"chain": "identity"}}, "/morphism/chain"),
    ("fock_unitary_d1", {"unitary": None}, "/unitary"),
    ("fock_unitary_d1", {"unitary": _NOT_UNITARY}, "/unitary: W must be unitary"),
    ("fock_unitary_d1", {"unitary": _FLAT_W}, "/unitary: W must be square"),
    ("sweep_azema_x", {"interval": [1.0, 0.0]}, "/interval"),
    ("convexp_azema_q2", {"bialgebra": {"builder": "unitary", "d": 1}, "generator": None},
     "/generator"),
    ("azema_q2", {"tolerances": {"axioms": float("inf")}}, "/tolerances/axioms"),
    ("fock_unitary_d1", {"unitary": dict(_NOT_UNITARY, W=[[[_NAN, 0.0]]])},
     "/unitary/W/0/0/0 must be finite"),
    ("trotter_nilpotent", {"trotter": {"kind": "perturbed", "size": 4, "draws": 5, "C": _NAN}},
     "/trotter/C must be finite"),
    ("convexp_azema_q2", {"ts": [_NAN]}, "/ts/0 must be finite"),
    ("sweep_azema_x", {"interval": [0.0, float("inf")]}, "/interval/1 must be finite"),
    ("convexp_azema_q2", {"generator": {"table": {"x x*": [_NAN, 0.0]}}},
     "/generator/table/x x*/0 must be finite"),
    ("azema_q2", {"tolerances": {"axiom": 1e-9}}, "/tolerances"),
    ("sweep_grouplike_xstar", {"tolerances": {"defect_floor": 1e-12}}, "/tolerances"),
    ("azema_wiener_q2", {"samples": 7}, "/samples: not read"),
    ("azema_wiener_q2", {"caps": {"particle_cap": 5, "degree_cap": 1}},
     "/caps/degree_cap: not read"),
    ("sweep_grouplike_xstar", {"samples": 3}, "/samples: not read"),
    ("sweep_grouplike_xstar", {"caps": {"degree_cap": 1}}, "/caps: not read"),
    ("azema_q2", {"samples": 4}, "/samples: not read"),
    ("azema_q2", {"bialgebra": {"builder": "azema", "q": 2.0, "d": 1}}, "/bialgebra/d: not read"),
    ("convexp_azema_q2", {"generator": {"builtin": "zero", "table": {"x x*": [1.0, 0.0]}}},
     "/generator: give a builtin or a table, not both"),
    ("convexp_azema_q2", {"bialgebra": {"builder": "unitary", "d": 1},
                          "generator": {"builtin": "azema-psi", "table": {}}},
     "/generator: give a builtin or a table, not both"),
    # fields read by one morphism chain or trotter kind only
    ("sweep_azema_x", {"lift": False}, "/lift: not read by the sweep experiment (chain identity)"),
    ("sweep_azema_x", {"morphism": {"chain": "identity", "degree_cap": 1}},
     "/morphism/degree_cap: not read"),
    ("trotter_nilpotent", {"trotter": {"kind": "nilpotent", "size": 4, "draws": 5, "C": 7}},
     "/trotter/C: not read by the trotter experiment (kind nilpotent)"),
    # an element that does not parse, names an unknown generator, overflows or
    # underflows, or whose terms sum to an overflow
    ("sweep_azema_x", {"element": "x ^"}, "/element: expected generator name (offset 2)"),
    ("sweep_azema_x", {"element": "w"}, "/element: unknown generator 'w'"),
    ("sweep_azema_x", {"element": "1e400 x"}, "/element: number '1e400' is not finite"),
    ("sweep_azema_x", {"element": "1e-400 x"},
     "/element: number '1e-400' underflows to 0 (offset 0)"),
    ("sweep_azema_x", {"element": "1e308 x + 1e308 x"},
     "/element: azema(q=2): the coefficient of 'x' overflows"),
    ("reverse_azema_x", {"element_d": "x +"}, "/element_d: expected generator name (offset 3)"),
], ids=["reverse-identity-chain", "fock-unitary-no-unitary", "fock-unitary-w-not-unitary",
        "fock-unitary-w-flat", "decreasing-interval", "unitary-convexp-no-psi",
        "infinite-tolerance", "nan-unitary-w", "nan-trotter-c", "nan-ts", "infinite-interval-end",
        "nan-generator-table", "unknown-tolerance-axiom", "unknown-tolerance-defect-floor",
        "azema-wiener-samples", "azema-wiener-degree-cap", "sweep-samples", "sweep-degree-cap",
        "axioms-samples", "azema-d", "generator-builtin-and-table",
        "unitary-azema-psi-and-table", "identity-chain-lift", "identity-chain-degree-cap",
        "nilpotent-trotter-c", "element-malformed", "element-unknown-generator",
        "element-overflow", "element-underflow", "element-sum-overflow",
        "element-d-malformed"])
def test_check_and_run_refuse_before_building(tmp_path, capsys, name, edit, pointer):
    # qlevy check applies the pre-flight qlevy run applies: each config is
    # refused by both, with its JSON pointer, and nothing is written; a field
    # the experiment does not read is refused, not ignored
    with open(builtin_config_path(f"{name}.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key, value in edit.items():
        if value is None:
            del cfg[key]
        else:
            cfg[key] = value
    path = _write(tmp_path, f"{name}.json", cfg)
    out = tmp_path / "out"
    for argv in (["check", path], ["run", path, "--out", str(out)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert pointer in captured.err
        assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("name, edit", [
    ("convexp_azema_q2", {"samples": 2.0}),
    ("azema_q2", {"rng_seed": 7.0}),
    ("sweep_azema_x", {"partition": {"ns": [2.0, 4.0]}}),
    ("trotter_nilpotent", {"trotter": {"kind": "nilpotent", "size": 4.0, "draws": 3.0}}),
    ("gns_azema_q2", {"caps": {"degree_cap": 2.0}}),
], ids=["samples", "rng-seed", "partition-ns", "trotter-size-draws", "degree-cap"])
def test_integer_fields_read_a_float_with_no_fraction_as_an_int(tmp_path, name, edit):
    # draft-07's integer is any number whose fractional part is zero, so
    # check passes 2.0; run reads it as 2 and writes the same CSV
    with open(builtin_config_path(f"{name}.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    csvs = []
    for as_int in (False, True):
        cfg.update(json.loads(json.dumps(edit), parse_float=lambda t: int(float(t)))
                   if as_int else edit)
        csv_path, _, _ = run_experiment(_write(tmp_path, f"{name}.json", cfg),
                                        str(tmp_path / str(as_int)))
        csvs.append(Path(csv_path).read_bytes())
    assert csvs[0] == csvs[1]


def test_run_writes_nothing_unless_the_summary_serializes(tmp_path, monkeypatch):
    # an experiment whose summary holds a NaN, which JSON cannot hold: the
    # run fails typed and leaves no partial CSV
    import qlevy.cli

    experiment = qlevy.cli._DISPATCH["azema-wiener"]

    def with_nan(run, rng):
        header, rows, assertions, extra = experiment(run, rng)
        return header, rows, assertions, {**extra, "nan": float("nan")}

    monkeypatch.setitem(qlevy.cli._DISPATCH, "azema-wiener", with_nan)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(QLevyError, match="azema_wiener_q2: .*not JSON compliant"):
        run_experiment(builtin_config_path("azema_wiener_q2.json"), str(out))
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_run_writes_nothing_unless_every_csv_cell_is_finite(tmp_path):
    # at interval [0, 1000] the trotter product bound overflows to inf in
    # every row while the summary holds no number: the CSV is checked too
    with open(builtin_config_path("trotter_nilpotent.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["interval"] = [0, 1000]
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(InvalidParameter,
                       match="^trotter_nilpotent: CSV row 1, column bound is inf, so nothing"):
        run_experiment(_write(tmp_path, "wide.json", cfg), str(out))
    assert list(out.iterdir()) == []


def test_shipped_configs_check_with_a_seed(tmp_path):
    # the benchmark stamps every shipped config with an rng_seed, and a
    # refused config would fail every one of its tasks
    for name in builtin_configs():
        cfg = json.loads(builtin_config_path(name).read_text(encoding="utf-8"))
        cfg["rng_seed"] = 12345
        assert check_defs(_write(tmp_path, name, cfg))["ok"], name


def _schema_leaves(node, pointer=""):
    if "properties" not in node:
        return {pointer: node}
    return functools.reduce(operator.or_, (_schema_leaves(child, f"{pointer}/{key}")
                                           for key, child in node["properties"].items()))


def test_schema_and_field_table_name_the_same_fields():
    # every settable field is read by some run, and every field a run reads
    # is settable; each default is written in the table, none in the schema;
    # each enum is the names of its FIELDS entries, or the schema's enum
    from qlevy.cli import _DISPATCH, FIELDS, _fields

    schema = _schema()
    leaves, every = _schema_leaves(schema), _fields(FIELDS)
    assert set(leaves) == set(every)
    assert "default" not in json.dumps(schema)
    for pointer, (kind, _default) in every.items():
        if "enum" in leaves[pointer]:
            assert list(kind) == leaves[pointer]["enum"], pointer
        else:
            assert not isinstance(kind, (tuple, dict)), pointer
    assert list(_DISPATCH) == leaves["/experiment"]["enum"]
    # a field with no default is one the schema requires
    required = {f"{p}/{key}" for p, node in [("", schema), *(
        (f"/{k}", v) for k, v in schema["properties"].items())] for key in node.get("required", ())}
    assert required == {"/bialgebra"} | {p for p, (_k, d) in every.items() if d is ...}


def test_check_reads_psi_unit_on_every_psi(tmp_path, capsys):
    # psi(1) = 1 is not a generator; no config field turns that check off
    cfg = {"name": "table_unit", "experiment": "convexp",
           "bialgebra": {"builder": "azema", "q": 2.0},
           "generator": {"table": {"": [1.0, 0.0], "x x*": [1.0, 0.0]}}, "samples": 1}
    assert main(["check", _write(tmp_path, "table_unit.json", cfg)]) == 1
    assert "generator/psi_unit: 1.000e+00" in capsys.readouterr().out
    cfg["generator"]["hermitian"] = False
    assert main(["check", _write(tmp_path, "table_unit.json", cfg)]) == 1
    assert "/generator/hermitian: not read by any run" in capsys.readouterr().err


def test_generator_table_rejects_a_non_normal_word(tmp_path, capsys):
    # y x rewrites to q^-1 x y, and psi is read on normal words only, so the
    # entry would never be read
    cfg = {"name": "table_yx", "experiment": "convexp",
           "bialgebra": {"builder": "azema", "q": 2.0},
           "generator": {"table": {"y x": [1.0, 0.0]}}, "samples": 1}
    path = _write(tmp_path, "table_yx.json", cfg)
    for call in (check_defs, lambda p: run_experiment(p, str(tmp_path))):
        with pytest.raises(SchemaError, match=r"^/generator/table/y x: .* \(\+0\.5\+0i\)\*x y$"):
            call(path)
    assert main(["check", path]) == 1
    assert "/generator/table/y x" in capsys.readouterr().err


# -- config fields that no shipped config sets: one small run each --

def _sweep(tmp_path, name, **fields):
    cfg = {"name": name, "experiment": "sweep", "bialgebra": {"builder": "azema", "q": 2.0},
           "morphism": {"chain": "grouplike", "degree_cap": 6}, "element": "x^*",
           "interval": [0.0, 1.0], "partition": {"ns": [2, 4]}}
    cfg.update(fields)
    csv_path, _, summary = run_experiment(_write(tmp_path, f"{name}.json", cfg),
                                          str(tmp_path))
    rows = [line.split(",") for line in open(csv_path, encoding="utf-8").read().splitlines()]
    assert rows[0] == ["mesh", "n", "norm_sq", "re_cross", "im_cross", "defect", "bound"]
    return [{k: float(v) for k, v in zip(rows[0], row)} for row in rows[1:]], summary


def test_lift_false_takes_the_group_like_hat(tmp_path):
    # hat(1 + x*) is one group-like key; lifted, 1 + x* is kappa-tilde(1 + x*),
    # whose norm is 1 lower at every n, with the same defect
    lifted, _ = _sweep(tmp_path, "lifted", element="1 + x^*")
    hat, _ = _sweep(tmp_path, "hat", element="1 + x^*", lift=False)
    assert [r["n"] for r in hat] == [2, 4]
    for a, b in zip(lifted, hat):
        assert b["norm_sq"] - a["norm_sq"] == pytest.approx(1.0, abs=1e-12)
        assert b["defect"] == a["defect"]


def test_element_d_is_the_right_argument(tmp_path):
    rows, _ = _sweep(tmp_path, "element_d", element_d="0.5 x^*")
    for r in rows:
        assert r["re_cross"] == pytest.approx(0.5 * r["norm_sq"], rel=1e-12)
        assert r["im_cross"] == 0.0


def test_generator_table_is_psi(tmp_path):
    # psi(x x*) = 2 and 0 on every other normal word: on the identity chain
    # the Gram value is e_*^{psi}(x x*) = 2 (the shipped psi gives 1) at every n
    rows, summary = _sweep(tmp_path, "table", morphism={"chain": "identity"},
                           generator={"table": {"x x*": [2.0, 0.0]}})
    assert [r["norm_sq"] for r in rows] == [pytest.approx(2.0, rel=1e-12)] * 2
    assert all(summary["assertions"].values())


def test_generator_builtin_zero_is_the_counit(tmp_path):
    # e_*^{t 0} is the counit, whatever t
    from qlevy.constructions import make_azema
    from qlevy.ncpoly import random_poly

    cfg = {"name": "zero", "experiment": "convexp", "bialgebra": {"builder": "azema", "q": 2.0},
           "generator": {"builtin": "zero"}, "samples": 3, "caps": {"degree_cap": 2},
           "rng_seed": 5}
    csv_path, _, summary = run_experiment(_write(tmp_path, "zero.json", cfg), str(tmp_path))
    assert summary["assertions"] == {"oracle_equivalence": True}
    B = make_azema(2.0)[0]
    rng = np.random.default_rng(5)
    counits = [B.counit(random_poly(B.algebra, rng, 2, n_terms=3)) for _ in range(3)]
    rows = [line.split(",") for line in open(csv_path, encoding="utf-8").read().splitlines()[1:]]
    assert len(rows) == 9
    for index, _t, re, im, *_ in rows:
        assert complex(float(re), float(im)) == pytest.approx(counits[int(index)], abs=1e-15)


def test_trotter_perturbed_checks_the_bound_only(tmp_path):
    # a perturbed family has a genuine remainder, so only the bound is asserted
    cfg = {"name": "perturbed", "experiment": "trotter",
           "bialgebra": {"builder": "azema", "q": 2.0},
           "trotter": {"kind": "perturbed", "size": 4, "draws": 3},
           "partition": {"ns": [2, 4]}}
    csv_path, _, summary = run_experiment(_write(tmp_path, "perturbed.json", cfg),
                                          str(tmp_path))
    assert summary["assertions"] == {"lhs_within_bound": True}
    lines = open(csv_path, encoding="utf-8").read().splitlines()
    assert lines[0] == "mesh,n,lhs_max,bound,defect"
    assert [line.split(",")[1] for line in lines[1:]] == ["2", "4"]


def test_output_names_the_files(tmp_path):
    with open(builtin_config_path("trotter_nilpotent.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["output"] = {"csv": "table.csv", "json": "summary.json"}
    csv_path, json_path, _ = run_experiment(_write(tmp_path, "named.json", cfg),
                                            str(tmp_path / "out"))
    assert (csv_path, json_path) == (str(tmp_path / "out" / "table.csv"),
                                     str(tmp_path / "out" / "summary.json"))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["summary.json", "table.csv"]
