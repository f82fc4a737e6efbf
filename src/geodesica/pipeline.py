"""Census ingestion, orchestration, and reporting.

The bundled census covers the two-bridge knots of the published Euler-number
table, the 15/11 knot, and the first three balanced pretzels; non-two-bridge
rows ship as stubs awaiting explicit representation data.  The loader parses
each row once into a ``KnotRecord``: typed slope and uniqueness cases, the
verified representation, and the boundary configuration that representation
carries (the chain for a pretzel, the strip for the 15/11 presentation),
whose clines are realized at most once per record.  ``CHECKS`` maps each
check name to when it applies and what it computes; ``run`` applies it per
knot.  Reports are deterministic: identical inputs produce byte-identical
JSON (volatile timing lives only in the human-readable summary, never in the
JSON payload).
"""

from __future__ import annotations

import json
import marshal
import os
import time
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .errors import (
    BadArgument,
    BadCensus,
    BadFraction,
    GeodesicaError,
    require_positive_int,
)
from .eulerclass import Hypotheses, closed_surface_obstruction, euler_tuple, obstruction_verdict
from .knotgroup import (
    KnotPresentation,
    Mat2,
    MatrixRep,
    Word,
    build_representation,
    normalize_peripheral,
    two_bridge_presentation,
)
from .mobius import (
    ExactCline,
    INF,
    excludes_surface,
    render_svg,
    uniqueness_system,
)
from .mobius import tangency as mobius_tangency
from .numfield import START_BITS, FieldElement, NumberField, is_prime
from .polycore import RatPoly, irreducibility_certificate
from .pretzel import (
    MAX_PRETZEL_K,
    PretzelData,
    lambda_closed_formula,
    pretzel_holonomy,
    psi_root_census,
    relator_factorization_check,
)
from .slopes import SlopeCase, slope_set_for_knot


class UniquenessCase(NamedTuple):
    label: str
    word: Word
    direction: FieldElement
    verdict: Optional[str]  # the anchored verdict; None anchors nothing


class KnotRecord:
    """One census row, parsed; the loader sets the exact data it builds."""

    def __init__(self, name: str, kind: str, census: dict, expected: dict,
                 slope_cases: tuple[SlopeCase, ...] = ()):
        self.name, self.kind = name, kind  # kind: "two_bridge" | "pretzel" | "explicit"
        self.census, self.expected = census, expected  # census: the row's value of each fact
        self.slope_cases = slope_cases
        self.uniqueness_cases: tuple[UniquenessCase, ...] = ()
        self.rep: Optional[MatrixRep] = None
        self.pretzel: Optional[PretzelData] = None  # the loader's holonomy, for pretzel rows
        self.configuration: Optional[str] = None  # "pretzel-chain" | "74-strip" | None
        self.irreducibility: Optional[str] = None

    @cached_property
    def clines(self) -> list:
        """The boundary configuration's clines at the geometric place, shared
        by the render check, the uniqueness coverage and ``geodesica render``."""
        if self.configuration == "pretzel-chain":
            return pretzel_chain_clines(self.pretzel)
        if self.configuration == "74-strip":
            return strip_74_clines(self)
        raise BadArgument(f"{self.name}: no boundary configuration to render")

    @cached_property
    def hypotheses(self) -> Hypotheses:
        """Every fact the euler verdict and the uniqueness check read, each
        with its source, decided once on first use."""
        return closed_surface_obstruction(self.rep, self.census)


def _require(cond: bool, name: str, field_name: str, msg: str = ""):
    if not cond:
        raise BadCensus(f"{name}: field {field_name!r} invalid {msg}".strip())


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _rationals(value, name: str, field_name: str) -> list[Fraction]:
    """A list of "num" / "num/den" strings, parsed."""
    _require(
        isinstance(value, list) and all(isinstance(s, str) for s in value),
        name, field_name, "(expected a list of rational strings)",
    )
    try:
        return [Fraction(s) for s in value]
    except (ValueError, ZeroDivisionError):
        raise BadCensus(
            f"{name}: field {field_name!r} invalid (not a rational string)"
        ) from None


def _minpoly(row: dict, name: str) -> RatPoly:
    _require("minpoly" in row, name, "minpoly", "(missing)")
    m = RatPoly(_rationals(row["minpoly"], name, "minpoly"))
    _require(
        m.degree >= 1 and m.den == 1 and m.num[-1] == 1,
        name, "minpoly", "(expected a monic integer polynomial of degree >= 1)",
    )
    return m


def _word(text, names: Sequence[str], name: str, field_name: str) -> Word:
    _require(isinstance(text, str), name, field_name, "(expected a word string)")
    try:
        return Word.from_string(text, names)
    except ValueError as exc:
        raise BadCensus(f"{name}: field {field_name!r} invalid ({exc})") from None


def _check_metadata(row: dict, name: str) -> tuple[SlopeCase, ...]:
    """Types of the fields every kind shares, checked before any exact work;
    returns the row's slope cases."""
    genus = row.get("genus")
    _require(genus is None or (_is_int(genus) and genus >= 1), name, "genus",
             "(expected a positive integer or null)")
    for key in ("fibered", "known_unique"):
        _require(row.get(key) is None or isinstance(row[key], bool), name, key,
                 "(expected true, false or null)")
    flags = row.get("manual_field_flags", {})
    _require(isinstance(flags, dict), name, "manual_field_flags", "(expected an object)")
    for key in ("no_real_subfield", "no_quadratic_subfield"):
        _require(key not in flags or isinstance(flags[key], bool), name,
                 f"manual_field_flags.{key}", "(expected true or false)")
    expected = row.get("expected", {})
    _require(isinstance(expected, dict), name, "expected", "(expected an object)")
    if "euler" in expected:
        e = expected["euler"]
        _require(isinstance(e, list) and all(_is_int(n) for n in e), name,
                 "expected.euler", "(expected a list of integers)")
    if "slopes" in expected:
        slopes = expected["slopes"]
        _require(isinstance(slopes, list), name, "expected.slopes", "(expected a list)")
        _rationals([s for s in slopes if s != "inf"], name, "expected.slopes")
    if "verdict" in expected:
        _require(isinstance(expected["verdict"], str), name, "expected.verdict",
                 "(expected a string)")
    for key in ("slope_cases", "uniqueness_cases"):
        cases = row.get(key, [])
        _require(isinstance(cases, list) and all(isinstance(c, dict) for c in cases),
                 name, key, "(expected a list of objects)")
    slope_cases = []
    for i, c in enumerate(row.get("slope_cases", [])):
        where = f"slope_cases[{i}]"
        _require(isinstance(c.get("label"), str), name, f"{where}.label", "(expected a string)")
        weight = _rationals(c.get("weight"), name, f"{where}.weight")
        _require(any(weight), name, f"{where}.weight", "(expected a nonzero weight)")
        pq = c.get("fixed_pq")
        _require(pq is None or (isinstance(pq, list) and len(pq) == 2
                                and all(_is_int(n) for n in pq) and any(pq)),
                 name, f"{where}.fixed_pq", "(expected null or a nonzero [p, q])")
        slope_cases.append(SlopeCase(c["label"], tuple(weight), tuple(pq) if pq else None))
    for i, c in enumerate(row.get("uniqueness_cases", [])):
        where = f"uniqueness_cases[{i}]"
        for key in ("label", "word"):
            _require(isinstance(c.get(key), str), name, f"{where}.{key}", "(expected a string)")
        _require(c.get("verdict") is None or isinstance(c["verdict"], str), name,
                 f"{where}.verdict", "(expected a string)")
        _require(any(_rationals(c.get("direction"), name, f"{where}.direction")), name,
                 f"{where}.direction", "(expected a nonzero direction)")
    return tuple(slope_cases)


def _load_record(row, index: int) -> KnotRecord:
    _require(isinstance(row, dict), f"knots[{index}]", "row", "(expected an object)")
    name = row.get("name")
    _require(isinstance(name, str) and bool(name), f"knots[{index}]", "name",
             "(expected a nonempty string)")
    kind = row.get("kind")
    _require(kind in ("two_bridge", "pretzel", "explicit"), name, "kind")
    slope_cases = _check_metadata(row, name)
    flags = row.get("manual_field_flags", {})
    census = {key: row.get(key) for key in ("genus", "fibered", "known_unique")}
    census.update({key: flags.get(key) for key in ("no_real_subfield", "no_quadratic_subfield")})
    record = KnotRecord(name, kind, census, row.get("expected", {}), slope_cases)
    if kind == "two_bridge":
        for key in ("p", "q"):
            _require(_is_int(row.get(key)), name, key, "(expected an integer)")
        minpoly = _minpoly(row, name)
        try:
            pres = two_bridge_presentation(row["p"], row["q"], name=name)
        except BadFraction as exc:
            raise BadCensus(f"{name}: field 'p/q' invalid ({exc})") from None
        record.rep = build_representation(pres, minpoly, name=f"Q(z_{name})")
        record.irreducibility = irreducibility_certificate(minpoly).status
        if (row["p"], row["q"]) == (15, 11):  # the strip's words are this presentation's
            record.configuration = "74-strip"
    elif kind == "pretzel":
        k = row.get("k")
        _require(_is_int(k) and 1 <= k <= MAX_PRETZEL_K, name, "k",
                 f"(expected an integer from 1 to {MAX_PRETZEL_K})")
        data = pretzel_holonomy(k, name=name)
        record.pretzel = data
        record.rep = data.rep
        record.configuration = "pretzel-chain"
        record.irreducibility = data.irreducibility
    else:  # explicit
        images = row.get("images")
        _require(images is None or isinstance(images, list), name, "images",
                 "(expected a list or null)")
        entries = []
        for i, mat in enumerate(images or ()):
            _require(isinstance(mat, list) and len(mat) == 4, name, f"images[{i}]",
                     "(expected four entries)")
            entries.append([_rationals(e, name, f"images[{i}]") for e in mat])
        minpoly = _minpoly(row, name) if images or "minpoly" in row else None
        if images:
            K = NumberField(minpoly, f"Q(z_{name})")
            names = row.get("generators")
            _require(
                isinstance(names, list) and bool(names)
                and all(isinstance(g, str) and g.isidentifier() for g in names)
                and len(set(names)) == len(names),
                name, "generators", "(expected distinct generator names)",
            )
            names = tuple(names)
            _require(len(images) == len(names), name, "images",
                     "(expected one matrix per generator)")
            relators = row.get("relators")
            _require(isinstance(relators, list), name, "relators", "(expected a list)")
            try:
                pres = KnotPresentation(
                    name=name,
                    generator_names=names,
                    relators=tuple(
                        _word(r, names, name, f"relators[{i}]")
                        for i, r in enumerate(relators)
                    ),
                    meridian=_word(row.get("meridian"), names, name, "meridian"),
                    longitude=_word(row.get("longitude"), names, name, "longitude"),
                )
            except ValueError as exc:
                raise BadCensus(f"{name}: field 'longitude' invalid ({exc})") from None
            mats = tuple(Mat2(*(K.element(e) for e in mat)) for mat in entries)
            record.rep = normalize_peripheral(MatrixRep(presentation=pres, field=K, images=mats))
            record.irreducibility = irreducibility_certificate(minpoly).status
    if record.rep is not None:
        names = record.rep.presentation.generator_names
        record.uniqueness_cases = tuple(
            UniquenessCase(
                label=c["label"],
                word=_word(c["word"], names, name, f"uniqueness_cases[{i}].word"),
                direction=record.rep.field.element(c["direction"]),
                verdict=c.get("verdict"),
            )
            for i, c in enumerate(row.get("uniqueness_cases", []))
        )
    return record


def load_census(path: Optional[str | Path] = None) -> list[KnotRecord]:
    """Parse and validate the census; representation verification runs
    eagerly so a bad row fails at load with a named error.  Schema
    violations raise BadCensus naming the row and the field."""
    try:
        if path is None:
            text = resources.files("geodesica").joinpath("data/census.json").read_text()
        else:
            text = Path(path).read_text()
        data = json.loads(text)
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise BadCensus(f"census: cannot read {path or 'bundled census'} ({exc})") from None
    _require(isinstance(data, dict) and isinstance(data.get("knots"), list),
             "census", "knots", "(expected a list of rows)")
    records, rows = [], {}
    for i, row in enumerate(data["knots"]):
        record = _load_record(row, i)
        first = rows.setdefault(record.name, i)
        _require(first == i, record.name, "name",
                 f"(knots[{first}] and knots[{i}] share it)")
        records.append(record)
    return records


def get_knot(records: Sequence[KnotRecord], name: str) -> KnotRecord:
    for r in records:
        if r.name == name:
            return r
    raise BadArgument(f"knot {name!r} not in census")


# ---------------------------------------------------------------------------
# Per-knot checks
# ---------------------------------------------------------------------------


def euler_check(record: KnotRecord) -> dict:
    """The knot's Euler tuple and verdict, with every fact the verdict read
    as its value and source."""
    results = euler_tuple(record.rep)
    report = obstruction_verdict(record.name, record.hypotheses, results)
    out = {
        "hypotheses": {key: fact._asdict() for key, fact in record.hypotheses._asdict().items()},
        "euler": list(report.euler),
        "verdict": report.verdict,
        "justification": report.justification,
        "precision_bits": max((r.precision_bits for r in results), default=START_BITS),
    }
    expected = record.expected
    if "euler" in expected:
        out["euler_expected"] = list(expected["euler"])
        out["euler_matches"] = out["euler"] == list(expected["euler"])
    if "verdict" in expected:
        out["verdict_expected"] = expected["verdict"]
        out["verdict_matches"] = report.verdict == expected["verdict"]
    return out


def slopes_check(record: KnotRecord) -> dict:
    res = slope_set_for_knot(record.rep, record.slope_cases)
    out = {
        "slopes": [str(s) for s in res["slopes"]],
        "exhaustive": res["exhaustive"],
        "cases": [
            {
                "label": c["label"],
                "equations": [list(e) for e in c["equations"]],
                "pairs": c["pairs"],
            }
            for c in res["cases"]
        ],
    }
    if "slopes" in record.expected:
        out["slopes_expected"] = list(record.expected["slopes"])
        out["slopes_match"] = sorted(out["slopes"]) == sorted(record.expected["slopes"])
    return out


def uniqueness_check(record: KnotRecord) -> dict:
    """Solve each endpoint system of the knot's uniqueness cases once; for
    a knot with a known unique surface, assemble the theorem from them."""
    out_cases = []
    all_excluded = True
    for case in record.uniqueness_cases:
        system, verdict = uniqueness_system(case.word, case.direction, record.rep, case.label)
        excluded = excludes_surface(verdict)
        all_excluded = all_excluded and excluded
        entry = {
            "label": case.label,
            "rows": [[str(x) for x in row] for row in system.rows],
            "verdict": verdict,
            "excluded": excluded,
        }
        if case.verdict is not None:
            entry["verdict_expected"] = case.verdict
            entry["verdict_matches"] = verdict == case.verdict
        out_cases.append(entry)
    out = {"cases": out_cases, "all_excluded": all_excluded}
    if record.hypotheses.known_unique.value and out_cases:
        out["theorem"] = _uniqueness_theorem(record, all_excluded)
    return out


def _uniqueness_theorem(record: KnotRecord, all_cases_excluded: bool) -> dict:
    """Assembled uniqueness verification for a knot with pinned case data.

    Two ingredients: (1) a candidate vertical lift cannot avoid the known
    surface's lifts -- for the 15/11 knot the two hemispherical lifts cross
    (certified Secant), for the pretzel the chain identities hold exactly --
    and (2) every endpoint system excludes a transverse geodesic (the
    verdicts ``uniqueness_check`` has just computed), so no candidate
    surface distinct from the known one exists.  The coverage comes from
    the knot's own boundary configuration; a knot without one has no
    coverage and is not confirmed.
    """
    if record.configuration == "pretzel-chain":
        coverage = {"kind": "chain_identities", "ok": all(record.pretzel.chain.values())}
    elif record.configuration == "74-strip":
        t = mobius_tangency(record.clines[2], record.clines[3])
        coverage = {"kind": "lift_pair_crossing", "classification": t.kind,
                    "ok": t.kind == "Secant"}
    else:
        coverage = {"kind": "none", "ok": False}
    return {"coverage": coverage, "unique_surface_confirmed": coverage["ok"] and all_cases_excluded}


def pretzel_check(data: PretzelData) -> dict:
    """The pretzel check on the holonomy the loader (or ``pretzel --k``)
    built: recursion, entry identities, root census and tangency chain."""
    k = data.k
    out = {"k": k}
    out["closed_form_matches"] = data.lam == lambda_closed_formula(k)
    out["degree"] = data.lam.degree
    out["entry_identities"] = relator_factorization_check(k)
    census = psi_root_census(k)
    out["root_census"] = {
        "real_roots": census.real_count,
        "per_quadrant": list(census.per_quadrant),
    }
    if is_prime(2 * k + 1):
        out["tangency_chain"] = data.chain
    return out


def pretzel_chain_clines(data: PretzelData):
    """The chain configuration: boundary lines of H_tau and s1(H_tau), and
    the circles C_1..C_2k, D_1..D_2k, realized at the geometric embedding."""
    K, rep = data.field, data.rep
    tau = rep.longitude_translation()
    h_tau = ExactCline((K.zero(), tau, INF))
    place = K.geometric_place()
    clines = [h_tau, h_tau.apply(rep.images[0])]
    for j in range(1, 2 * data.k + 1):
        for fam in ("g", "h"):
            word = data.words[f"{fam}{j}"]
            clines.append(h_tau.apply(rep.word_matrix(word)))
    return [c.realize(place) for c in clines]


def strip_74_clines(record: KnotRecord):
    """The 15/11 configuration: H, x(H), C1 = y(H), C2 = x y^-1 (H)."""
    rep = record.rep
    K = rep.field
    H = ExactCline((K.zero(), rep.longitude_translation() + K.rational(2), INF))
    place = K.geometric_place()
    x, y = rep.images[0], rep.images[1]
    configs = [H, H.apply(x), H.apply(y), H.apply(x * y.inverse())]
    return [c.realize(place) for c in configs]


def _render_check(record: KnotRecord) -> dict:
    import hashlib  # only here, so a run without this check never loads it

    svg = render_svg(record.clines)
    return {
        "config": record.configuration,
        "cline_count": len(record.clines),
        "svg_sha256": hashlib.sha256(svg.encode()).hexdigest(),
    }


# each check: whether it applies to a record, and the entry it computes
CHECKS = {
    "euler": (lambda record: True, euler_check),
    "slopes": (lambda record: bool(record.slope_cases), slopes_check),
    "uniqueness": (lambda record: bool(record.uniqueness_cases), uniqueness_check),
    "pretzel": (lambda record: record.pretzel is not None,
                lambda record: pretzel_check(record.pretzel)),
    "render": (lambda record: record.configuration is not None, _render_check),
}
ALL_CHECKS = tuple(CHECKS)


# ---------------------------------------------------------------------------
# Run and report
# ---------------------------------------------------------------------------


class RunReport(NamedTuple):
    payload: dict
    elapsed_seconds: float
    anchor_mismatches: int
    hard_errors: int

    @property
    def exit_status(self) -> int:
        return 1 if (self.anchor_mismatches or self.hard_errors) else 0

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.payload, indent=2, sort_keys=True) + "\n"
        ).encode()


def _knot_entry(record: KnotRecord, checks: Sequence[str]) -> dict:
    """Entry for one knot, its hard errors listed under "errors".  Pure
    given the record, so it can run in a forked child."""
    entry: dict = {"name": record.name, "kind": record.kind}
    if record.rep is None:
        entry["status"] = "awaiting_representation_data"
        return entry
    entry["status"] = "ok"
    entry["irreducibility"] = record.irreducibility
    for check in checks:
        applies, compute = CHECKS[check]
        if not applies(record):
            continue
        try:
            entry[check] = compute(record)
        except GeodesicaError as exc:
            entry["status"] = "error"
            entry.setdefault("errors", []).append(
                {"check": check, "type": type(exc).__name__, "message": str(exc)}
            )
    return entry


def _share(selected: Sequence[KnotRecord], checks: Sequence[str], j: int, width: int,
           faults: type = Exception) -> list:
    """The entries of knots j, j + width, ...; a fault in a knot's checks
    becomes a RuntimeError naming the knot, the fault's type and message."""
    out = []
    for record in selected[j::width]:
        try:
            out.append(_knot_entry(record, checks))
        except faults as exc:
            raise RuntimeError(f"{record.name}: {type(exc).__name__}: {exc}") from exc
    return out


def _entries(selected: Sequence[KnotRecord], checks: Sequence[str], width: int) -> list:
    """The entries of the selected knots, knot i from share i mod width:
    share 0 from this process, each other share from a forked child (the
    checks are CPU-bound Python, which threads would serialize) that sends
    it back with ``marshal``.  Every child is reaped before this returns."""
    pids, fds, blobs = [], [], []
    try:
        for j in range(1, width):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:  # leave by os._exit only, never through the parent's code
                status = 1
                try:
                    try:
                        out, status = _share(selected, checks, j, width, BaseException), 0
                    except RuntimeError as exc:
                        out = str(exc)
                    with open(fds[-1], "wb") as pipe:
                        pipe.write(marshal.dumps(out))
                finally:
                    os._exit(status)
            os.close(fds.pop())  # the write end
            pids.append(pid)
        results = [None] * len(selected)
        results[::width] = _share(selected, checks, 0, width)
        for fd in fds:
            with open(fd, "rb", closefd=False) as pipe:
                blobs.append(pipe.read())
    finally:
        for fd in fds:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for j, (blob, code) in enumerate(zip(blobs, codes), start=1):
        if not blob:
            raise RuntimeError(f"a forked worker ended with exit status {code} before "
                               "sending its knots")
        share = marshal.loads(blob)
        if code:
            raise RuntimeError(f"{share} (in a forked worker)")
        results[j::width] = share
    return results


def run(
    records: Sequence[KnotRecord],
    checks: Sequence[str] = ("euler",),
    names: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> RunReport:
    """Execute the selected checks per knot, each once however often it is
    named, and assemble the report.

    Anchor comparisons come from each record's `expected` block; any
    mismatch or hard error makes the exit status nonzero.  With workers > 1
    the run forks min(workers, knots) - 1 children that compute on the
    records passed in, and this process takes a share; assembly stays a
    single reduction in census order.  Without ``os.fork`` it runs serially.
    """
    t0 = time.perf_counter()
    checks = tuple(dict.fromkeys(checks))
    bad = [c for c in checks if c not in ALL_CHECKS]
    if bad:
        raise BadArgument(f"unknown checks: {bad}; valid: {ALL_CHECKS}")
    require_positive_int(workers, "workers")
    known = {r.name for r in records}
    unknown = [n for n in names or () if n not in known]
    if unknown:
        raise BadArgument(f"knots not in census: {', '.join(map(repr, unknown))}")
    selected = [r for r in records if not names or r.name in names]

    width = max(1, min(workers, len(selected))) if hasattr(os, "fork") else 1
    knots_out = _entries(selected, checks, width)
    payload = {
        "schema": 2,
        "checks": sorted(checks),
        "knots": knots_out,
    }
    return RunReport(
        payload=payload,
        elapsed_seconds=time.perf_counter() - t0,
        anchor_mismatches=count_mismatches(knots_out),
        hard_errors=sum(len(entry.get("errors", ())) for entry in knots_out),
    )


def count_mismatches(obj) -> int:
    """The anchor comparisons that failed: every ``*_match``/``*_matches``
    key in the entry whose value is False."""
    if isinstance(obj, list):
        return sum(map(count_mismatches, obj))
    if not isinstance(obj, dict):
        return 0
    return sum(
        value is False if key.endswith(("_match", "_matches")) else count_mismatches(value)
        for key, value in obj.items()
    )


def summarize(report: RunReport) -> str:
    lines = []
    for entry in report.payload["knots"]:
        name = entry["name"]
        if entry["status"] == "awaiting_representation_data":
            lines.append(f"{name:12s} SKIP  (awaiting representation data)")
            continue
        bits = []
        if "euler" in entry:
            e = entry["euler"]
            mark = ""
            if "euler_matches" in e:
                mark = " ok" if e["euler_matches"] else " MISMATCH"
            bits.append(f"e={tuple(e['euler'])}{mark} verdict={e['verdict']}")
        if "slopes" in entry:
            s = entry["slopes"]
            mark = " ok" if s.get("slopes_match", True) else " MISMATCH"
            bits.append(f"slopes={{{', '.join(s['slopes'])}}}{mark}")
        if "uniqueness" in entry:
            u = entry["uniqueness"]
            bits.append(
                "uniqueness=" + ("excluded" if u["all_excluded"] else "NOT-EXCLUDED")
            )
        if "pretzel" in entry:
            ok = entry["pretzel"]["closed_form_matches"]
            bits.append("pretzel-checks=" + ("ok" if ok else "MISMATCH"))
        if "render" in entry:
            bits.append(f"svg={entry['render']['svg_sha256'][:12]}")
        status = entry["status"].upper() if entry["status"] != "ok" else "ok"
        lines.append(f"{name:12s} {status:5s} " + "; ".join(bits))
    lines.append(
        f"-- {len(report.payload['knots'])} knots, "
        f"{report.anchor_mismatches} anchor mismatches, "
        f"{report.hard_errors} errors, {report.elapsed_seconds:.1f}s"
    )
    return "\n".join(lines)
