"""Correctness gate for geodesica census reports.

A non-stub knot fails when its entry is missing or has status ``error``,
when any ``*_matches``/``*_match`` flag is false, when a value differs from
the census ``expected`` anchors (Euler tuple, verdict, slopes, uniqueness
verdicts), or when it differs from a reference entry for the same knot (the
serial report, when the run under test used the process pool).  A lost stub
row, or a report that is not valid JSON, fails every knot.
"""

from __future__ import annotations

import json

STUB_STATUS = "awaiting_representation_data"


def is_stub(row: dict) -> bool:
    return row["kind"] == "explicit" and not row.get("images")


def _false_flags(obj, path=""):
    """Paths of every ``*_matches``/``*_match`` key that is not True."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key.endswith(("_matches", "_match")) and value is not True:
                yield f"{path}{key}"
            else:
                yield from _false_flags(value, f"{path}{key}.")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _false_flags(value, f"{path}{i}.")


def _anchor_errors(row: dict, entry: dict, checks) -> list[str]:
    expected = row.get("expected", {})
    errors = []
    if "euler" in checks:
        euler = entry.get("euler")
        if euler is None:
            return ["euler check missing"]
        if "euler" in expected and euler.get("euler") != expected["euler"]:
            errors.append(f"euler {euler.get('euler')} != {expected['euler']}")
        if "verdict" in expected and euler.get("verdict") != expected["verdict"]:
            errors.append(f"verdict {euler.get('verdict')} != {expected['verdict']}")
    if "slopes" in checks and row.get("slope_cases") and "slopes" in expected:
        got = entry.get("slopes", {}).get("slopes")
        if got is None or sorted(got) != sorted(expected["slopes"]):
            errors.append(f"slopes {got} != {expected['slopes']}")
    if "uniqueness" in checks and row.get("uniqueness_cases"):
        got = {c.get("label"): c.get("verdict")
               for c in entry.get("uniqueness", {}).get("cases", [])}
        for case in row["uniqueness_cases"]:
            if "verdict" in case and got.get(case["label"]) != case["verdict"]:
                errors.append(f"uniqueness {case['label']}: {got.get(case['label'])}")
    return errors


def check_report(report_bytes: bytes, rows: list[dict], checks, reference=None) -> dict[str, list[str]]:
    """Map each non-stub knot name to the reasons it failed (empty if it passed).

    ``reference`` maps knot names to entries the report must reproduce."""
    knots = [r["name"] for r in rows if not is_stub(r)]
    try:
        payload = json.loads(report_bytes)
        entries = {e["name"]: e for e in payload["knots"]}
    except (ValueError, KeyError, TypeError) as exc:
        return {k: [f"unreadable report: {exc}"] for k in knots}
    lost = [r["name"] for r in rows
            if is_stub(r) and entries.get(r["name"], {}).get("status") != STUB_STATUS]
    if lost:
        return {k: [f"stub rows lost: {lost}"] for k in knots}
    if payload.get("checks") != sorted(checks):
        return {k: [f"report checks {payload.get('checks')} != {sorted(checks)}"] for k in knots}
    out = {}
    for row in rows:
        if is_stub(row):
            continue
        name = row["name"]
        entry = entries.get(name)
        if entry is None:
            out[name] = ["entry missing"]
            continue
        errors = []
        if entry.get("status") != "ok":
            errors.append(f"status {entry.get('status')}: {entry.get('errors')}")
        errors += [f"{flag} is false" for flag in _false_flags(entry)]
        errors += _anchor_errors(row, entry, checks)
        if reference is not None and entry != reference.get(name):
            errors.append("differs from the serial reference entry")
        out[name] = errors
    return out


def entries_by_name(report_bytes: bytes) -> dict[str, dict]:
    return {e["name"]: e for e in json.loads(report_bytes)["knots"]}
