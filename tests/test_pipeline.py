import copy
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from geodesica import cli, eulerclass
from geodesica.errors import BadArgument, BadCensus, NoComplexPlace, NotARepresentation
from geodesica.eulerclass import CENSUS, Fact, Hypotheses, euler_tuple, obstruction_verdict
from geodesica.knotgroup import MAX_TWO_BRIDGE_P, evaluate_word
from geodesica.numfield import is_prime
from geodesica.pipeline import (
    ALL_CHECKS,
    get_knot,
    load_census,
    pretzel_chain_clines,
    run,
    strip_74_clines,
    summarize,
)
from geodesica.polycore import RatPoly
from geodesica.pretzel import MAX_PRETZEL_K


TWO_BRIDGE_TABLE_ROWS = [
    "7_3", "7_5", "8_4", "8_6", "8_14", "9_3", "9_4", "9_6", "9_7", "9_8",
    "9_9", "9_10", "9_12", "9_13", "9_15", "9_18", "9_21", "9_23",
]


class TestLoad:
    def test_bundled_census_loads(self, census_records):
        names = [r.name for r in census_records]
        for expected in TWO_BRIDGE_TABLE_ROWS + ["7_4", "P(3,3,3)", "P(5,5,5)", "P(7,7,7)"]:
            assert expected in names

    def test_representations_verified_eagerly(self, census_records):
        # test_stubs_marked pins the rows without a representation
        for r in census_records:
            if r.rep is not None:
                assert r.irreducibility in ("irreducible", "certified", "assumed")

    def test_stubs_marked(self, census_records):
        stubs = [r.name for r in census_records if r.rep is None]
        assert set(stubs) == {"8_15", "9_16", "9_25", "9_38", "9_39", "9_49"}

    def test_corrupted_minpoly_rejected(self, tmp_path):
        bad = {
            "schema": 1,
            "knots": [
                {
                    "name": "7_3_broken",
                    "kind": "two_bridge",
                    "p": 13,
                    "q": 9,
                    "genus": 2,
                    "fibered": False,
                    # wrong cubic: does not divide the Riley polynomial
                    "minpoly": ["-1", "0", "0", "1"],
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(NotARepresentation):
            load_census(path)

    def test_even_q_row_loads_as_the_mirror(self, tmp_path):
        # 4 = -9 mod 13, so 13/4 is the mirror of 7_3 (13/9): 7_3's sextic
        # divides its Riley polynomial and the Euler numbers change sign
        row = _row("7_3", q=4,
                   expected={"euler": [-3, -1], "verdict": "NoTGS_euler_bound"})
        row["name"] = "7_3_mirror"
        records = _load_rows(tmp_path, [row])
        report = run(records, checks=("euler",))
        assert report.exit_status == 0
        assert report.payload["knots"][0]["euler"]["euler"] == [-3, -1]

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(BadCensus) as info:
            _load_rows(tmp_path, [_row("7_3"), _row("7_4"), _row("7_3")])
        assert str(info.value) == (
            "7_3: field 'name' invalid (knots[0] and knots[2] share it)"
        )

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "nokinds.json"
        path.write_text(json.dumps({"knots": [{"name": "x", "kind": "nope"}]}))
        with pytest.raises(BadCensus):
            load_census(path)


class TestRun:
    def test_empty_checks(self, census_records):
        report = run(census_records, checks=())
        assert report.exit_status == 0
        assert report.payload["checks"] == []

    def test_unknown_check_rejected(self, census_records):
        with pytest.raises(ValueError):
            run(census_records, checks=("flurble",))

    def test_slopes_subset(self, census_records):
        report = run(
            census_records, checks=("slopes",), names=["7_4", "P(3,3,3)"]
        )
        assert report.exit_status == 0
        by_name = {k["name"]: k for k in report.payload["knots"]}
        assert by_name["7_4"]["slopes"]["slopes"] == ["-2", "2"]
        assert by_name["P(3,3,3)"]["slopes"]["slopes"] == ["0"]

    def test_uniqueness_subset(self, census_records):
        report = run(
            census_records, checks=("uniqueness",), names=["7_4", "P(3,3,3)"]
        )
        assert report.exit_status == 0
        for entry in report.payload["knots"]:
            if "uniqueness" in entry:
                assert entry["uniqueness"]["all_excluded"]

    def test_byte_identical_reports(self):
        # fresh loads both times: determinism must not depend on cache state
        r1 = run(load_census(), checks=("slopes", "uniqueness"), names=["7_4", "P(3,3,3)"])
        r2 = run(load_census(), checks=("slopes", "uniqueness"), names=["7_4", "P(3,3,3)"])
        assert r1.to_json_bytes() == r2.to_json_bytes()

    def test_worker_pool_matches_serial(self, census_records):
        names = ["7_4", "P(3,3,3)", "P(5,5,5)"]
        serial = run(census_records, checks=("slopes", "uniqueness"), names=names)
        pooled = run(
            census_records, checks=("slopes", "uniqueness"), names=names, workers=2
        )
        assert serial.to_json_bytes() == pooled.to_json_bytes()

    def test_uniqueness_theorem_assembled(self, census_records):
        from geodesica.pipeline import uniqueness_check

        for name in ("7_4", "P(3,3,3)"):
            record = get_knot(census_records, name)
            rec = uniqueness_check(record)["theorem"]
            assert rec["unique_surface_confirmed"]
            assert rec["coverage"]["ok"]

    def test_uniqueness_coverage_is_the_knots_own(self, tmp_path):
        # 9_23 tagged known-unique, with 7_4's cases: it has no boundary
        # configuration, so 7_4's lift-pair crossing cannot cover it
        cases = _row("7_4")["uniqueness_cases"]
        row = _row("9_23", known_unique=True, uniqueness_cases=cases)
        records = _load_rows(tmp_path, [row])
        entry = run(records, checks=("uniqueness",)).payload["knots"][0]["uniqueness"]
        assert entry["theorem"]["coverage"] == {"kind": "none", "ok": False}
        assert entry["theorem"]["unique_surface_confirmed"] is False
        assert [c["label"] for c in entry["cases"]] == [c["label"] for c in cases]

    def test_configuration_follows_the_representation_not_the_name(self, tmp_path):
        # a row called 7_4 that carries 9_23's representation has no strip,
        # and the 15/11 row under another name keeps it
        donor = _row("9_23")
        row = _row("7_4", p=donor["p"], q=donor["q"], minpoly=donor["minpoly"])
        assert row["known_unique"] and row["uniqueness_cases"]
        entry = run(_load_rows(tmp_path, [row]), checks=("uniqueness", "render")
                    ).payload["knots"][0]
        assert "render" not in entry
        assert entry["uniqueness"]["theorem"]["coverage"] == {"kind": "none", "ok": False}
        row = _row("7_4")
        row["name"] = "K15_11"
        entry = run(_load_rows(tmp_path, [row]), checks=("uniqueness", "render")).payload["knots"][0]
        assert entry["render"]["config"] == "74-strip"
        assert entry["uniqueness"]["theorem"]["unique_surface_confirmed"]

    def test_null_case_verdict_anchors_nothing(self, tmp_path):
        cases = [dict(c, verdict=None) for c in _row("7_4")["uniqueness_cases"]]
        records = _load_rows(tmp_path, [_row("7_4", uniqueness_cases=cases)])
        report = run(records, checks=("uniqueness",))
        assert report.anchor_mismatches == 0 and report.exit_status == 0
        for case in report.payload["knots"][0]["uniqueness"]["cases"]:
            assert "verdict_expected" not in case and "verdict_matches" not in case

    def test_summarize_runs(self, census_records):
        report = run(census_records, checks=("slopes",), names=["7_4"])
        text = summarize(report)
        assert "7_4" in text

    def test_every_verdict_cites_its_rule(self, census_records):
        report = run(census_records, checks=("euler",), names=["7_3", "7_4", "P(5,5,5)"])
        for entry in report.payload["knots"]:
            e = entry["euler"]
            assert e["verdict"]
            assert len(e["justification"]) > 10

    def test_anchor_mismatch_flips_exit_status(self, tmp_path):
        row = {
            "name": "7_4",
            "kind": "two_bridge",
            "p": 15,
            "q": 11,
            "genus": 1,
            "fibered": False,
            "known_unique": True,
            "minpoly": ["1", "4", "-4", "1"],
            "expected": {"euler": [5]},  # deliberately wrong anchor
        }
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema": 1, "knots": [row]}))
        report = run(load_census(path), checks=("euler",))
        assert report.anchor_mismatches == 1
        assert report.exit_status == 1


def _conjugated_73_census(rep_73, tmp_path):
    """A census of one explicit row: the 13/9 representation conjugated so
    its meridian image is not upper triangular."""
    from geodesica.knotgroup import Mat2

    K = rep_73.field
    z = K.gen()
    g = Mat2(K.one() + 2 * z, z, K.rational(2), K.one())
    assert g.det() == K.one()
    ginv = g.inverse()
    conj = [g * img * ginv for img in rep_73.images]
    pres = rep_73.presentation
    assert not evaluate_word(conj, pres.meridian).c.is_zero()
    names = pres.generator_names
    row = {
        "name": "7_3_explicit",
        "kind": "explicit",
        "genus": 2,
        "fibered": False,
        "minpoly": K.minpoly.to_json(),
        "generators": list(names),
        "relators": [r.to_string(names) for r in pres.relators],
        "meridian": pres.meridian.to_string(names),
        "longitude": pres.longitude.to_string(names),
        "images": [
            [[str(c) for c in e.coeffs] for e in m.entries()] for m in conj
        ],
        "manual_field_flags": {"no_real_subfield": True,
                               "no_quadratic_subfield": True},
        "expected": {"euler": [3, 1], "verdict": "NoTGS_euler_bound"},
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps({"schema": 1, "knots": [row]}))
    return path


class TestExplicitRepresentations:
    def test_conjugated_explicit_rep_round_trips(self, rep_73, tmp_path):
        # feed a deliberately conjugated copy of the 13/9 representation
        # through the explicit-knot interface: the loader must re-normalize
        # the peripheral elements and reproduce the same Euler data
        path = _conjugated_73_census(rep_73, tmp_path)
        records = load_census(path)
        report = run(records, checks=("euler",))
        assert report.exit_status == 0
        entry = report.payload["knots"][0]
        assert entry["euler"]["euler"] == [3, 1]
        assert entry["euler"]["verdict"] == "NoTGS_euler_bound"

    def test_a_conjugated_row_multiplies_each_relator_out_once(
        self, rep_73, tmp_path, monkeypatch
    ):
        # conjugation fixes +-I, so the normalized rep takes the relator
        # signs the loader's first verification found
        from geodesica.knotgroup import MatrixRep

        path = _conjugated_73_census(rep_73, tmp_path)
        products = []
        factor_product = MatrixRep.factor_product

        def counted(self, factors):
            products.append(factors)
            return factor_product(self, factors)

        monkeypatch.setattr(MatrixRep, "factor_product", counted)
        (record,) = load_census(path)
        assert record.rep.word_matrix(record.rep.presentation.meridian).c.is_zero()
        assert products == [((r, 1),) for r in rep_73.presentation.relators]

    def test_normalize_peripheral_restores_triangular_form(self, rep_73):
        from geodesica.knotgroup import Mat2, normalize_peripheral
        from geodesica.knotgroup import MatrixRep

        K = rep_73.field
        z = K.gen()
        g = Mat2(K.one(), K.zero(), z, K.one())
        ginv = g.inverse()
        twisted = MatrixRep(
            presentation=rep_73.presentation,
            field=K,
            images=tuple(g * img * ginv for img in rep_73.images),
        )
        mer = evaluate_word(twisted.images, twisted.presentation.meridian)
        assert not mer.c.is_zero()
        fixed = normalize_peripheral(twisted)
        mer2 = evaluate_word(fixed.images, fixed.presentation.meridian)
        assert mer2.c.is_zero()
        assert fixed.longitude_matrix().c.is_zero()


class TestRenderConfigs:
    def test_pretzel_chain_counts(self, pretzel_1):
        clines = pretzel_chain_clines(pretzel_1)
        # H_tau, s1(H_tau), C_1, C_2, D_1, D_2
        assert len(clines) == 6

    def test_strip_74(self, census_records):
        record = get_knot(census_records, "7_4")
        clines = strip_74_clines(record)
        assert len(clines) == 4


class TestCLI:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "geodesica.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_pretzel_command(self):
        res = self._run("pretzel", "--k", "1", "--check", "recursion")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["lambda"] == ["-1", "3", "-1", "1"]
        assert payload["closed_form_matches"]

    def test_euler_command(self):
        res = self._run("euler", "--knot", "7_4", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["euler"] == [1]

    def test_slopes_command(self):
        res = self._run("slopes", "--knot", "7_4", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["slopes"] == ["-2", "2"]

    def test_render_command(self, tmp_path):
        out = tmp_path / "chain.svg"
        res = self._run(
            "render", "--knot", "P(3,3,3)", "--out", str(out),
        )
        assert res.returncode == 0
        text = out.read_text()
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert text.count("<circle") == 4
        assert text.count("<line") == 2

    def test_slopes_prints_the_report_entry(self, census_records, capsys):
        assert cli.main(["slopes", "--knot", "7_4", "--json"]) == 0
        report = run(census_records, checks=("slopes",), names=["7_4"])
        entry = json.loads(report.to_json_bytes())["knots"][0]
        assert json.loads(capsys.readouterr().out) == {"knot": "7_4", **entry["slopes"]}

    def test_pretzel_prints_the_report_entry(self, census_records, capsys):
        assert cli.main(["pretzel", "--k", "1", "--check", "all"]) == 0
        report = run(census_records, checks=("pretzel",), names=["P(3,3,3)"])
        entry = json.loads(report.to_json_bytes())["knots"][0]
        lam = ["-1", "3", "-1", "1"]
        printed = {**entry["pretzel"], "lambda": lam, "irreducibility": entry["irreducibility"]}
        assert json.loads(capsys.readouterr().out) == printed

    def test_euler_prints_the_report_entry(self, census_records, capsys):
        assert cli.main(["euler", "--knot", "7_3", "--json"]) == 0
        report = run(census_records, checks=("euler",), names=["7_3"])
        entry = json.loads(report.to_json_bytes())["knots"][0]
        assert json.loads(capsys.readouterr().out) == {"knot": "7_3", **entry["euler"]}
        assert cli.main(["euler", "--knot", "7_3"]) == 0
        assert capsys.readouterr().out == "7_3: e = (3, 1) verdict=NoTGS_euler_bound\n"

    @pytest.mark.parametrize("knot", ["7_4", "P(5,5,5)"])
    def test_render_draws_the_report_figure(self, census_records, knot, tmp_path):
        out = tmp_path / "figure.svg"
        assert cli.main(["render", "--knot", knot, "--out", str(out)]) == 0
        entry = run(census_records, checks=("render",), names=[knot]).payload["knots"][0]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["render"]["svg_sha256"]

    def test_report_command(self, tmp_path):
        out = tmp_path / "report.json"
        res = self._run(
            "report", "--checks", "slopes", "--knot", "7_4",
            "--json", str(out),
        )
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 2


# ---------------------------------------------------------------------------
# Report bytes, pool inputs, census schema and input validation
# ---------------------------------------------------------------------------

# sha256 of the bundled-census report with every check at the default start
# (schema 1 hashed to 382c5732...bf96)
GOLDEN_REPORT_SHA256 = "ed45498a1e6a191bb72587f84dd5a730de9bf3ae1e8840060c7f8cc781831cf8"
# sha256 of that report's schema-1 projection without the euler entries'
# euler_residual_max and precision_bits, computed with the interval Euler
# engine (whose full report hashed to 9baf4622...bf2c): the exact winding
# count changed only those keys
GOLDEN_PROJECTION_SHA256 = "87b7cf569bfa6eac82a7509e1c5bee39353062a9b0627859b6825cd4bc3244ca"


def _schema_1_projection(data: bytes) -> bytes:
    """The schema-1 report a schema-2 report states, without the euler
    entries' precision_bits: each key schema 2 dropped is rebuilt from the
    fact it repeated, or is the constant it always was."""
    payload = json.loads(data)
    payload.update(schema=1, precision_bits=128)
    for knot in payload["knots"]:
        euler = knot.get("euler")
        if euler is not None:
            facts = euler.pop("hypotheses")
            value = {key: fact["value"] for key, fact in facts.items()}
            del euler["precision_bits"]
            euler.update(name=knot["name"], genus=value["genus"], fibered=value["fibered"], field={
                "degree": value["degree"],
                "odd_degree": value["degree"] % 2 == 1,
                "no_real_subfield": value["no_real_subfield"],
                "no_real_subfield_certified": facts["no_real_subfield"]["source"] != CENSUS,
                "no_quadratic_subfield": value["no_quadratic_subfield"],
                "integral_traces": value["integral_traces"],
            })
        pretzel = knot.get("pretzel")
        if pretzel is not None:
            pretzel["recursion_matches_closed_form"] = pretzel.pop("closed_form_matches")
            pretzel["irreducibility"] = knot["irreducibility"]
            pretzel["root_census"]["right_half_moduli_exceed_one"] = True
        theorem = knot.get("uniqueness", {}).get("theorem")
        if theorem is not None:
            theorem["all_cases_excluded"] = knot["uniqueness"]["all_excluded"]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def test_golden_report_bytes_serial_and_pool():
    records = load_census()
    for workers in (1, 2, 3):  # 3 splits the 28 knots into uneven shares
        data = run(records, ALL_CHECKS, workers=workers).to_json_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_REPORT_SHA256, workers
        projection = _schema_1_projection(data)
        assert hashlib.sha256(projection).hexdigest() == GOLDEN_PROJECTION_SHA256, workers


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name through every geodesica namespace that
    binds it (``from .x import y`` copies the reference)."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "geodesica" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_full_run_solves_each_case_and_builds_each_holonomy_once(monkeypatch):
    from geodesica import mobius, pretzel

    holonomies = _count_calls(monkeypatch, pretzel, "pretzel_holonomy")
    systems = _count_calls(monkeypatch, mobius, "uniqueness_system")
    chains = _count_calls(monkeypatch, pretzel, "tangency_chain")
    records = load_census()
    run(records, ALL_CHECKS)
    assert len(holonomies) == sum(r.kind == "pretzel" for r in records) == 3
    # the pretzel check and the uniqueness theorem share one chain per row
    prime = [r for r in records if r.pretzel and is_prime(2 * r.pretzel.k + 1)]
    assert len(chains) == len(prime) == 3
    cases = sum(len(r.uniqueness_cases) for r in records if r.rep is not None)
    assert len(systems) == cases == 4


def test_full_run_realizes_the_strip_once(monkeypatch):
    # the render check and the uniqueness coverage share the record's clines
    from geodesica import pipeline

    strips = _count_calls(monkeypatch, pipeline, "strip_74_clines")
    run(load_census(), ALL_CHECKS)
    assert len(strips) == 1


def test_full_run_evaluates_each_word_of_each_representation_once(monkeypatch):
    # every check reads a representation's words from its one table; calls
    # keeps each images tuple alive, so no two of them share an id
    from geodesica import knotgroup

    calls = _count_calls(monkeypatch, knotgroup, "evaluate_word")
    run(load_census(), ALL_CHECKS)
    seen = Counter((id(images), w) for images, w in calls)
    repeats = [w for (_, w), n in seen.items() if n > 1]
    assert calls and not repeats, repeats


def test_euler_and_uniqueness_share_one_hypotheses_record_per_knot(monkeypatch):
    # the uniqueness check reads known_unique from the record the euler
    # verdict reads, so the two checks decide each knot's facts once
    calls = _count_calls(monkeypatch, eulerclass, "closed_surface_obstruction")
    records = load_census()
    run(records, ("uniqueness",))
    assert sorted(rep.presentation.name for rep, _ in calls) == ["7_4", "P(3,3,3)"]
    run(records, ("euler", "uniqueness"))
    knots = Counter(rep.presentation.name for rep, _ in calls)
    assert knots == Counter(r.name for r in records if r.rep is not None)


def test_a_flipped_known_unique_changes_the_verdict_and_the_theorem(tmp_path):
    for known, verdict in ((True, "KnownUniqueSurface"), (False, "NoClosedTGS_arithmetic")):
        (record,) = _load_rows(tmp_path, [_row("7_4", known_unique=known, expected=None)])
        assert record.hypotheses.known_unique == Fact(known, CENSUS)
        entry = run([record], ("euler", "uniqueness")).payload["knots"][0]
        assert entry["euler"]["verdict"] == verdict
        assert ("theorem" in entry["uniqueness"]) is known


def test_census_sources_give_the_same_verdicts(census_records):
    # a source changes the justification's wording, never a verdict
    verdicts = {}
    for record in census_records:
        if record.rep is None:
            continue
        facts = record.hypotheses
        as_census = Hypotheses(*(Fact(fact.value, CENSUS) for fact in facts))
        results = euler_tuple(record.rep)
        verdict = obstruction_verdict(record.name, as_census, results).verdict
        assert verdict == obstruction_verdict(record.name, facts, results).verdict
        verdicts[record.name] = verdict
    assert len(verdicts) == 22
    assert verdicts == {name: get_knot(census_records, name).expected["verdict"]
                        for name in verdicts}
    certified = [r.name for r in census_records
                 if r.rep is not None and r.hypotheses.no_real_subfield.source != CENSUS]
    assert "7_4" in certified and "P(7,7,7)" in certified


def test_euler_entry_states_each_fact_once_with_its_source(census_records):
    report = run(census_records, ("euler",), names=["7_3", "P(5,5,5)"])
    entries = {entry["name"]: entry["euler"] for entry in report.payload["knots"]}
    for name, entry in entries.items():
        facts = get_knot(census_records, name).hypotheses
        assert entry["hypotheses"] == {
            key: {"value": fact.value, "source": fact.source}
            for key, fact in zip(Hypotheses._fields, facts)
        }
        assert not {"name", "field", "genus", "fibered", "euler_residual_max"} & set(entry)
    # 7_3's sextic field takes the census flag; P(5,5,5)'s quintic certifies it
    assert entries["7_3"]["hypotheses"]["no_real_subfield"] == {
        "value": True, "source": "census"}
    assert entries["P(5,5,5)"]["hypotheses"]["no_real_subfield"] == {
        "value": True, "source": "odd prime degree"}


def test_a_false_closed_form_is_a_mismatch(monkeypatch, census_records):
    # the key ends in _matches, so the report's count and the benchmark
    # gate's false-flag scan both see it
    from geodesica import pipeline

    monkeypatch.setattr(pipeline, "lambda_closed_formula", lambda k: RatPoly([1, 1]))
    report = run(census_records, ("pretzel",), names=["P(3,3,3)"])
    assert report.payload["knots"][0]["pretzel"]["closed_form_matches"] is False
    assert report.anchor_mismatches == 1 and report.exit_status == 1
    assert "pretzel-checks=MISMATCH" in summarize(report)


def test_duplicate_check_names_run_once(monkeypatch, census_records, tmp_path):
    from geodesica import pipeline

    applies, compute = pipeline.CHECKS["euler"]
    calls = []

    def counted(record):
        calls.append(record)
        return compute(record)

    monkeypatch.setitem(pipeline.CHECKS, "euler", (applies, counted))
    report = run(census_records, checks=("euler", "euler"), names=["7_4"])
    assert len(calls) == 1 and report.payload["checks"] == ["euler"]
    out = tmp_path / "report.json"
    argv = ["report", "--checks", "euler,euler", "--knot", "7_4", "--json", str(out)]
    assert cli.main(argv) == 0
    assert len(calls) == 2 and json.loads(out.read_text())["checks"] == ["euler"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the package's records are NamedTuples and plain classes, so a cold
    # command imports no module that generates class code; the --workers
    # fan-out forks directly, so it imports no process-pool machinery
    code = ("import sys, geodesica.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    code = ("import contextlib, io, sys; from geodesica import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['report', '--checks', 'slopes', '--workers', '2'])\n"
            "print(status, sorted({'concurrent.futures', 'multiprocessing', 'pickle'}"
            " & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 []"


def test_pool_computes_on_the_records_passed_in(census_records):
    # anchors changed by the caller must reach the workers unchanged
    names = ["7_4", "P(3,3,3)"]
    changed = []
    for r in census_records:
        if r.name in names:
            r = copy.copy(r)
            r.expected = {**r.expected, "slopes": ["7"]}
        changed.append(r)
    serial = run(changed, checks=("slopes",), names=names)
    pooled = run(changed, checks=("slopes",), names=names, workers=2)
    assert serial.anchor_mismatches == pooled.anchor_mismatches == 2
    assert serial.to_json_bytes() == pooled.to_json_bytes()


def test_pool_is_no_wider_than_the_knot_list(monkeypatch, census_records):
    # the fan-out forks one child per share but its own, and no more shares
    # than knots
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    names = ["7_4", "P(3,3,3)"]
    pooled = run(census_records, checks=("slopes",), names=names, workers=10**6)
    assert len(forks) == 1
    serial = run(census_records, checks=("slopes",), names=names, workers=1)
    assert len(forks) == 1
    assert pooled.to_json_bytes() == serial.to_json_bytes()


def _fault_at(monkeypatch, name, fault):
    """Make the slopes check call fault() on the knot called name."""
    from geodesica import pipeline

    applies, compute = pipeline.CHECKS["slopes"]

    def faulty(record):
        if record.name == name:
            fault()
        return compute(record)

    monkeypatch.setitem(pipeline.CHECKS, "slopes", (applies, faulty))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _injected():
    raise RuntimeError("injected fault")


@pytest.mark.parametrize("knot, where", [("7_4", ""), ("P(3,3,3)", " (in a forked worker)")])
def test_a_fault_in_either_share_names_the_knot_and_leaves_no_child(
    monkeypatch, census_records, knot, where
):
    # with two workers, 7_4 (first in census order) is this process's share
    # and P(3,3,3) the child's
    _fault_at(monkeypatch, knot, _injected)
    expected = f"{knot}: RuntimeError: injected fault{where}"
    with pytest.raises(RuntimeError) as exc:
        run(census_records, checks=("slopes",), names=["7_4", "P(3,3,3)"], workers=2)
    assert str(exc.value) == expected
    _assert_no_child_left()


def test_a_child_that_dies_without_a_result_names_its_exit_status(monkeypatch, census_records):
    _fault_at(monkeypatch, "P(3,3,3)", lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exit status 3 before sending its knots"):
        run(census_records, checks=("slopes",), names=["7_4", "P(3,3,3)"], workers=2)
    _assert_no_child_left()


def test_an_empty_census_with_workers_gives_the_serial_report(tmp_path):
    path = tmp_path / "census.json"
    path.write_text(json.dumps({"knots": []}))
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"report-{workers}.json"
        argv = ["report", "--census", str(path), "--workers", workers, "--json", str(out)]
        assert cli.main(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] and json.loads(outs[1])["knots"] == []
    _assert_no_child_left()


def _bundled_rows():
    text = resources.files("geodesica").joinpath("data/census.json").read_text()
    return json.loads(text)["knots"]


def _load_rows(tmp_path, knots):
    path = tmp_path / "census.json"
    path.write_text(json.dumps({"schema": 1, "knots": knots}))
    return load_census(path)


def _row(name, **changes):
    row = copy.deepcopy(next(r for r in _bundled_rows() if r["name"] == name))
    for key, value in changes.items():
        if value is None:
            row.pop(key)
        else:
            row[key] = value
    return row


@pytest.mark.parametrize("row, field_name", [
    (_row("7_4", p="15"), "p"),
    (_row("7_4", minpoly=["1/0", "4", "-4", "1"]), "minpoly"),
    (_row("7_4", minpoly=5), "minpoly"),
    (_row("7_4", minpoly=["2", "4", "-4", "2"]), "minpoly"),
    (_row("7_4", p=14), "p/q"),
    (_row("P(3,3,3)", k=0), "k"),
    (_row("8_15", images=[[["1"], ["1"], ["0"], ["1"]]], minpoly=None), "minpoly"),
    (_row("7_4", genus="1"), "genus"),
    (_row("7_4", expected={"slopes": ["x"]}), "expected.slopes"),
    (_row("7_4", uniqueness_cases=[{"label": "c", "word": "q", "direction": ["1"]}]),
     "uniqueness_cases[0].word"),
    (_row("7_4", uniqueness_cases=[{"label": "c", "word": "b a b", "direction": ["0"]}]),
     "uniqueness_cases[0].direction"),
])
def test_malformed_row_raises_bad_census(tmp_path, row, field_name):
    with pytest.raises(BadCensus) as info:
        _load_rows(tmp_path, [row])
    assert row["name"] in str(info.value)
    assert repr(field_name) in str(info.value)


@pytest.mark.parametrize("row, field_name, bound", [
    (_row("7_4", p=10**30 + 1), "p/q", MAX_TWO_BRIDGE_P),
    (_row("P(3,3,3)", k=10**9), "k", MAX_PRETZEL_K),
])
def test_oversized_family_parameter_is_refused_at_once(tmp_path, row, field_name, bound):
    t0 = time.perf_counter()
    with pytest.raises(BadCensus) as info:
        _load_rows(tmp_path, [row])
    assert time.perf_counter() - t0 < 1.0
    assert row["name"] in str(info.value) and repr(field_name) in str(info.value)
    assert str(bound) in str(info.value)


@pytest.mark.parametrize("data", [{"knots": 5}, {"knots": [5]}, [], "text"])
def test_malformed_census_raises_bad_census(tmp_path, data):
    path = tmp_path / "census.json"
    path.write_text(json.dumps(data))
    with pytest.raises(BadCensus):
        load_census(path)


def test_unreadable_census_raises_bad_census(tmp_path):
    with pytest.raises(BadCensus):
        load_census(tmp_path / "missing.json")
    (tmp_path / "broken.json").write_text("{")
    with pytest.raises(BadCensus):
        load_census(tmp_path / "broken.json")


# values that are wrong for every census field they replace
JUNK = st.sampled_from(
    [None, True, 0, -3, 1.5, "x", "1/0", "", [], [None], ["x"], [[]], {}, {"x": 1}]
)


def _paths(value, prefix=()):
    """The key path of every position inside a row, outer positions first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# rows cheap to load, one of each kind; the fuzz mutates one position of one row
FUZZ_ROWS = ["7_3", "7_4", "9_23", "P(3,3,3)", "8_15", "9_49"]


@given(st.sampled_from(FUZZ_ROWS), st.data())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_row_loads_or_raises_bad_census(tmp_path, name, data):
    row = _row(name)
    path = data.draw(st.sampled_from(list(_paths(row))))
    parent = row
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JUNK)
    try:
        _load_rows(tmp_path, [row])
    except BadCensus as exc:
        row_name = row.get("name")
        assert (isinstance(row_name, str) and row_name in str(exc)) or "knots[0]" in str(exc)
        assert str(path[0]) in str(exc)


def _parser_refuses(argv, capsys) -> str:
    """Run the CLI on argv, which argparse must refuse; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestInputValidation:
    REPORT = ["report", "--knot", "7_4", "--checks", "euler"]

    # every decision escalates until it certifies, render draws the knot's own
    # configuration and euler prints every place, so neither --precision-bits
    # nor --config nor --place exists: the parser refuses them whatever their
    # value

    def test_zero_precision_bits(self, capsys):
        err = _parser_refuses(self.REPORT + ["--precision-bits", "0"], capsys)
        assert "unrecognized arguments: --precision-bits 0" in err

    def test_negative_precision_bits(self, capsys):
        err = _parser_refuses(self.REPORT + ["--precision-bits", "-8"], capsys)
        assert "unrecognized arguments: --precision-bits -8" in err

    @pytest.mark.parametrize("argv", [
        ["euler", "--knot", "7_4", "--precision-bits", "128"],
        ["render", "--knot", "7_4", "--precision-bits", "128"],
        ["render", "--knot", "7_4", "--config", "74-strip"],
        ["euler", "--knot", "7_4", "--place", "0"],
    ])
    def test_precision_and_config_options_are_gone(self, argv, tmp_path, capsys):
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "x.svg")]
        assert "unrecognized arguments" in _parser_refuses(argv, capsys)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one(self, workers, capsys):
        assert cli.main(self.REPORT + ["--workers", workers]) == 2
        assert "workers must be a positive integer" in capsys.readouterr().err

    def test_ladder_failure_names_the_knot_and_place(self, monkeypatch, capsys):
        # 8_4's only real place needs a 16-bit root enclosure; the ladder
        # starts at 4 bits here, so a cap of 8 is passed
        monkeypatch.setattr(eulerclass, "PRECISION_CAP", 8)
        low_start = functools.partial(eulerclass.euler_number, precision_bits=4)
        monkeypatch.setattr(eulerclass, "euler_number", low_start)
        assert cli.main(["euler", "--knot", "8_4"]) == 2
        err = capsys.readouterr().err
        assert "PrecisionExhausted: 8_4: euler number at place 0 failed up to 8 bits" in err

    def test_pretzel_k_above_the_bound(self, capsys):
        t0 = time.perf_counter()
        assert cli.main(["pretzel", "--k", str(10**9)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert f"BadArgument: k must be from 1 to {MAX_PRETZEL_K}, got {10**9}" in err

    def test_pretzel_at_the_bound_finishes(self, capsys):
        # certified complex roots took the psi census past 100 s at k = 60;
        # the remainder-chain counts take the command about a second
        t0 = time.perf_counter()
        assert cli.main(["pretzel", "--k", "60", "--check", "census"]) == 0
        assert time.perf_counter() - t0 < 10.0
        assert json.loads(capsys.readouterr().out)["root_census"]["per_quadrant"] == [60] * 4

    def test_cap_below_start_says_no_rung_ran(self, monkeypatch, capsys):
        monkeypatch.setattr(eulerclass, "PRECISION_CAP", 64)
        assert cli.main(["euler", "--knot", "7_4"]) == 2
        err = capsys.readouterr().err
        assert "no rung ran" in err and "None" not in err

    @pytest.mark.parametrize("argv", [
        ["pretzel", "--k", "0", "--check", "relators"],
        ["pretzel", "--k", "4", "--check", "tangency"],  # 2k+1 = 9 is not prime
        ["render", "--knot", "7_4", "--config", "74-strip", "--precision-bits", "8"],
        ["pretzel", "--k", "2", "--precision-bits", "0"],
        ["pretzel", "--k", "2", "--precision-bits", "-5"],
    ])
    def test_out_of_range_subcommand_arguments(self, argv, tmp_path, capsys):
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "strip.svg")]
        if "--precision-bits" in argv:
            assert "unrecognized arguments" in _parser_refuses(argv, capsys)
        else:
            assert cli.main(argv) == 2
            assert "BadArgument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["euler", "--knot", "nope"],
        ["slopes", "--knot", "nope"],
        ["render", "--knot", "nope"],
    ])
    def test_unknown_knot_name(self, argv, tmp_path, capsys):
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "strip.svg")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "BadArgument" in err and "'nope'" in err

    @pytest.mark.parametrize("argv, flag", [
        (["report", "--knot", "7_4", "--checks", "", "--json"], "--json"),
        (["render", "--knot", "7_4", "--out"], "--out"),
    ])
    def test_unwritable_output_path(self, argv, flag, tmp_path, capsys):
        path = str(tmp_path / "missing" / "out")
        assert cli.main(argv + [path]) == 2
        err = capsys.readouterr().err
        assert f"error: BadArgument: {flag} {path}: cannot write" in err

    def test_report_with_unknown_knot_names(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["report", "--knot", "nope", "--knot", "7_4", "--knot", "nada",
                "--checks", "euler", "--json", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadArgument: ")
        assert "'nope'" in err and "'nada'" in err and "'7_4'" not in err
        assert not out.exists()

    def test_run_with_unknown_knot_names(self, census_records):
        with pytest.raises(BadArgument, match="'nope'"):
            run(census_records, checks=("euler",), names=["nope"])
        with pytest.raises(BadArgument, match="'nope'.*'nada'"):
            run(census_records, checks=(), names=["7_4", "nope", "nada"])

    @pytest.mark.parametrize("argv, knot", [
        (["slopes", "--knot", "7_3", "--json"], "7_3"),  # refused before any output
        (["euler", "--knot", "8_15"], "8_15"),  # stub awaiting data
        (["slopes", "--knot", "7_3"], "7_3"),  # no slope cases
        (["render", "--knot", "7_3"], "7_3"),  # no boundary configuration
    ])
    def test_bad_subcommand_argument_names_the_knot(self, argv, knot, tmp_path, capsys):
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "out.svg")]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: BadArgument: ") and knot in err
        assert out == ""
        assert not (tmp_path / "out.svg").exists()

    def test_field_without_complex_place(self, tmp_path, capsys):
        # z + 1 has no root off the real axis, so no geometric embedding; no
        # 15/11 field lacks one, so the trefoil row reaches the strip only
        # when called by hand, and its name does not give it a configuration
        census = tmp_path / "census.json"
        census.write_text(json.dumps({"knots": [{
            "name": "7_4", "kind": "two_bridge", "p": 3, "q": 1, "minpoly": ["1", "1"],
            "genus": 1, "fibered": True,
        }]}))
        (record,) = load_census(census)
        with pytest.raises(NoComplexPlace) as info:
            strip_74_clines(record)
        assert str(info.value).startswith("Q(z_7_4): ") and "at 128 bits" in str(info.value)
        out = tmp_path / "x.svg"
        argv = ["render", "--census", str(census), "--knot", "7_4", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadArgument: 7_4: no boundary configuration")
        assert not out.exists()
        report = tmp_path / "report.json"
        argv = ["report", "--census", str(census), "--checks", "render", "--json", str(report)]
        assert cli.main(argv) == 0
        (entry,) = json.loads(report.read_text())["knots"]
        assert entry["status"] == "ok" and "render" not in entry

    def test_library_entry_points_validate(self, census_records):
        with pytest.raises(BadArgument):
            run(census_records, checks=("slopes",), names=["7_4"], workers=0)


# ---------------------------------------------------------------------------
# The process exit path: cli.entry flushes, then ends the process by os._exit
# ---------------------------------------------------------------------------


def _cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "geodesica.cli", *args],
                          capture_output=True, timeout=600, **kwargs)


def _wrong_anchor_census(tmp_path):
    """A census of the bundled 7_4 row with a false Euler and slope anchor."""
    row = _row("7_4", expected={"euler": [5], "slopes": ["0"]})
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"schema": 1, "knots": [row]}))
    return path


def test_printed_report_is_the_json_file_and_the_summary_reaches_stderr(tmp_path):
    # entry flushes stdout before os._exit, so a report printed to a pipe
    # arrives whole
    out = tmp_path / "report.json"
    checks = ",".join(ALL_CHECKS)
    printed = _cli("report", "--checks", checks)
    written = _cli("report", "--checks", checks, "--json", str(out))
    assert printed.returncode == written.returncode == 0, printed.stderr
    assert printed.stdout == out.read_bytes()
    assert hashlib.sha256(printed.stdout).hexdigest() == GOLDEN_REPORT_SHA256
    assert b"-- 28 knots, 0 anchor mismatches, 0 errors, " in printed.stderr
    assert written.stdout == b""


@pytest.mark.parametrize("args, status", [
    (["report", "--checks", "slopes"], 0),
    (["report", "--census", "WRONG", "--checks", "euler,slopes"], 1),
    (["report", "--checks", "slopes", "--bogus"], 2),
    (["euler", "--knot", "nope"], 2),
])
def test_entry_keeps_the_exit_statuses(tmp_path, args, status):
    args = [str(_wrong_anchor_census(tmp_path)) if a == "WRONG" else a for a in args]
    res = _cli(*args)
    assert res.returncode == status, res.stderr
    assert b"Traceback" not in res.stderr


def test_main_in_process_returns_the_status(capsys):
    status = cli.main(["slopes", "--knot", "7_4"])
    assert type(status) is int and status == 0
    assert capsys.readouterr().out == "7_4: slopes {-2, 2} (exhaustive: True)\n"


def test_the_console_script_is_entry():
    tomllib = pytest.importorskip("tomllib")
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"geodesica": "geodesica.cli:entry"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("args", [
    ["report", "--checks", "slopes"],
    ["slopes", "--knot", "7_4", "--json"],
])
def test_a_full_stdout_is_a_named_error(args, unbuffered):
    # buffered, the write fails at the final flush; unbuffered, in main
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        res = subprocess.run([sys.executable, "-m", "geodesica.cli", *args], stdout=full,
                             stderr=subprocess.PIPE, env=env, timeout=600)
    err = res.stderr.decode()
    assert res.returncode == 2, err
    assert "error: BadArgument: stdout: cannot write: No space left on device" in err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.count("error: ") == 1


@pytest.mark.parametrize("args", [
    ["report", "--checks", "slopes"],
    ["euler", "--knot", "7_4"],
])
def test_a_closed_stdout_is_a_named_error(args):
    # python starts with sys.stdout None when descriptor 1 is closed
    res = subprocess.run([sys.executable, "-m", "geodesica.cli", *args],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=600,
                         preexec_fn=lambda: os.close(1))
    err = res.stderr.decode()
    assert res.returncode == 2, err
    assert "error: BadArgument: stdout: cannot write: it is closed" in err
    assert "Traceback" not in err


def test_subcommands_exit_1_on_a_false_anchor(monkeypatch, tmp_path, capsys):
    from geodesica import pipeline

    path = str(_wrong_anchor_census(tmp_path))
    assert cli.main(["euler", "--census", path, "--knot", "7_4", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["euler_matches"] is False
    assert cli.main(["slopes", "--census", path, "--knot", "7_4"]) == 1
    assert capsys.readouterr().out.startswith("7_4: slopes {-2, 2}")
    monkeypatch.setattr(pipeline, "lambda_closed_formula", lambda k: RatPoly([1, 1]))
    assert cli.main(["pretzel", "--k", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["closed_form_matches"] is False
    assert cli.main(["pretzel", "--k", "1", "--check", "census"]) == 0


def test_a_cold_load_imports_no_hashlib():
    # only the render check hashes, so it alone imports hashlib
    code = ("import sys, geodesica.cli; geodesica.cli.load_census(); "
            "print('hashlib' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
