"""Mutated census rows end in a report or a named error, never a traceback.

Each example takes a bundled row of small size (p <= 47, k <= 3 after a
step), may null its uniqueness cases' verdicts, applies one to three
mutations -- drop a key or list entry, swap a value for one of another type,
edit or append a list entry, move p, q or k by a small step -- and runs
every check serially on it.  Some examples list the row twice, which no
census may do.
"""

import copy
import json
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from geodesica.errors import GeodesicaError
from geodesica.pipeline import ALL_CHECKS, load_census, run, summarize

BASES = ("7_4", "7_3", "9_23", "P(3,3,3)", "P(5,5,5)", "8_15")
ROWS = {
    row["name"]: row
    for row in json.loads(
        resources.files("geodesica").joinpath("data/census.json").read_text()
    )["knots"]
    if row["name"] in BASES
}
# values of every JSON type, a few of them well-formed in some field
VALUES = (None, True, False, 0, 1, -1, 2, 1.5, "", "x", "0", "1", "-1", "1/2", "1/0",
          "b a b", [], ["0"], ["1", "0"], {}, {"label": "c"})


def _containers(value):
    """Every dict and list inside value, value first."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


def _value(draw):
    return copy.deepcopy(draw(st.sampled_from(VALUES)))


@st.composite
def mutated_rows(draw):
    row = copy.deepcopy(ROWS[draw(st.sampled_from(BASES))])
    if draw(st.booleans()):
        for case in row.get("uniqueness_cases", []):
            case["verdict"] = None  # anchors nothing
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "swap", "append", "step")))
        if op == "step":
            key = draw(st.sampled_from(("p", "q", "k")))
            if isinstance(row.get(key), int) and not isinstance(row[key], bool):
                row[key] += draw(st.integers(-2, 2 if key != "k" else 3 - row[key]))
            continue
        target = draw(st.sampled_from(list(_containers(row))))
        if op == "append" and isinstance(target, list):
            target.append(_value(draw))
            continue
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                   else range(len(target))))
        if op == "drop":
            del target[key]
        else:
            target[key] = _value(draw)
    return row


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row=mutated_rows(), twice=st.sampled_from((False, False, False, True)))
def test_mutated_row_ends_in_a_report_or_a_named_error(tmp_path, row, twice):
    path = tmp_path / "census.json"
    path.write_text(json.dumps({"schema": 1, "knots": [row, row] if twice else [row]}))
    if twice:
        with pytest.raises(GeodesicaError):
            load_census(path)
        return
    try:
        report = run(load_census(path), checks=ALL_CHECKS)
    except GeodesicaError:
        return
    json.loads(report.to_json_bytes())
    assert summarize(report)
