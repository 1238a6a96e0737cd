"""Command-line interface: one subcommand per invariant plus the corpus driver.

All commands read JSON files, emit JSON to standard output (or aligned text
tables with ``--pretty``), and exit with 0 on success, 1 when a verification
or structural check fails (witnesses included in the output), and 2 on
malformed input.
"""

from __future__ import annotations

import json
import pathlib

import click

from .biquandle import Biquandle, enumerate_colorings, read_biquandle
from .bracket import bracket_from_json, bracket_invariant, bracket_values, read_bracket
from .cocycle import canonical_cocycle, read_cocycle, z_invariant_multiset
from .corpus import check_all, load_manifest, report_to_json
from .diagram import DiagramError, parse_diagram
from .homology import bh_multiset, check_colorings, khovanov_classical

INPUT_ERROR = 2
CHECK_FAILED = 1


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as exc:
        raise click.exceptions.Exit(_input_error(f"cannot read {path}: {exc}"))


def _input_error(message: str) -> int:
    click.echo(f"error: {message}", err=True)
    return INPUT_ERROR


def _emit(data, pretty_lines=None, pretty: bool = False):
    if pretty and pretty_lines is not None:
        click.echo("\n".join(pretty_lines))
    else:
        click.echo(json.dumps(data, indent=2, default=str))


def _emit_report(out: dict, lines: list, pretty: bool):
    """Emit a check's output, then exit 1 if it failed."""
    _emit(out, lines, pretty)
    if not out["ok"]:
        raise click.exceptions.Exit(CHECK_FAILED)


def _table(headers, rows) -> list:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def _failure_table(report) -> list:
    rows = [(f.axiom, list(f.witness), f.detail) for f in report.failures]
    return _table(("axiom", "witness", "detail"), rows) if rows else []


def _homology_rows(table):
    return [
        (e["i"], e["degree"], e["rank"], ",".join(map(str, e["torsion"])) or "-")
        for e in table.to_json()["entries"]
    ]


def _parse(path: str, what: str, parse):
    """``parse`` of the JSON in ``path``; exits 2 with ``bad <what> <path>: ...`` when it rejects it.

    Input errors are ``ValueError`` (``DiagramError`` and ``RingError`` among
    them), or the ``KeyError`` or ``TypeError`` of JSON of the wrong shape.
    """
    data = _load_json(path)
    try:
        return parse(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise click.exceptions.Exit(_input_error(f"bad {what} {path}: {exc}"))


def _delta_w(beta) -> tuple:
    """A bracket's delta and w: their JSON fields and their printed lines."""
    ring = beta.ring
    fields = {"delta": ring.element_to_json(beta.delta), "w": ring.element_to_json(beta.w)}
    return fields, [f"delta: {ring.element_str(beta.delta)}", f"w: {ring.element_str(beta.w)}"]


def _computed(compute, *args):
    """``compute(*args)``; exits 2 when it refuses a diagram as too large."""
    try:
        return compute(*args)
    except DiagramError as exc:
        raise click.exceptions.Exit(_input_error(str(exc)))


pretty_option = click.option("--pretty", is_flag=True, help="Render aligned tables instead of JSON.")


@click.group()
def main():
    """Biquandle brackets, canonical 2-cocycles, and bracket cohomology."""


@main.command("verify-biquandle")
@click.argument("file", type=click.Path())
@pretty_option
def verify_biquandle_cmd(file, pretty):
    """Check the biquandle axioms for the tables in FILE."""
    report, _ = _parse(file, "biquandle", read_biquandle)
    _emit_report(report.to_json(), [f"ok: {report.ok}"] + _failure_table(report), pretty)


@main.command("verify-bracket")
@click.argument("file", type=click.Path())
@click.option(
    "--literal-axioms",
    is_flag=True,
    help="Check the published form of axiom (iii), including its asymmetric fourth equation.",
)
@pretty_option
def verify_bracket_cmd(file, literal_axioms, pretty):
    """Check the bracket axioms for the (ring, biquandle, A, B) data in FILE."""
    report, beta = _parse(file, "bracket", lambda data: read_bracket(data, literal_axioms))
    out = report.to_json()
    lines = [f"ok: {report.ok}"]
    if beta is not None:
        fields, more = _delta_w(beta)
        out.update(fields)
        lines += more
    _emit_report(out, lines + _failure_table(report), pretty)


@main.command("verify-cocycle")
@click.argument("file", type=click.Path())
@pretty_option
def verify_cocycle_cmd(file, pretty):
    """Check the 2-cocycle conditions for the presentation matrix in FILE."""
    report, _ = _parse(file, "cocycle", read_cocycle)
    _emit_report(report.to_json(), [f"ok: {report.ok}"] + _failure_table(report), pretty)


@main.command("colorings")
@click.argument("biquandle_file", type=click.Path())
@click.argument("diagram_file", type=click.Path())
@pretty_option
def colorings_cmd(biquandle_file, diagram_file, pretty):
    """Enumerate X-colorings of a diagram and report the counting invariant."""
    X = _parse(biquandle_file, "biquandle", Biquandle.from_json)
    D = _parse(diagram_file, "diagram", parse_diagram)
    colorings = _computed(enumerate_colorings, X, D)
    out = {"count": len(colorings), "colorings": [f.to_json() for f in colorings]}
    rows = [(i, json.dumps(f.to_json())) for i, f in enumerate(colorings)]
    _emit(out, [f"count: {len(colorings)}"] + _table(("#", "arc colors"), rows), pretty)


def _bracket_command(name: str):
    """Register ``run(beta, D, pretty)`` as command ``name`` on BRACKET_FILE and DIAGRAM_FILE, with its docstring as help."""

    def register(run):
        @main.command(name, help=run.__doc__)
        @click.argument("bracket_file", type=click.Path())
        @click.argument("diagram_file", type=click.Path())
        @pretty_option
        def command(bracket_file, diagram_file, pretty):
            beta = _parse(bracket_file, "bracket", bracket_from_json)
            run(beta, _parse(diagram_file, "diagram", parse_diagram), pretty)

        return run

    return register


@_bracket_command("bracket-value")
def bracket_value_cmd(beta, D, pretty):
    """Evaluate the bracket state sum for every coloring of a diagram."""
    ring = beta.ring
    colorings = _computed(enumerate_colorings, beta.biquandle, D)
    values = [
        {"coloring": f.to_json(), "value": ring.element_to_json(value)}
        for f, value in zip(colorings, bracket_values(beta, D, colorings))
    ]
    fields, lines = _delta_w(beta)
    rows = [(json.dumps(v["coloring"]), v["value"]) for v in values]
    _emit({**fields, "values": values}, lines + _table(("coloring", "value"), rows), pretty)


@_bracket_command("bracket-invariant")
def bracket_invariant_cmd(beta, D, pretty):
    """The multiset of bracket values over all colorings."""
    ring = beta.ring
    multiset = _computed(bracket_invariant, beta, D)
    fields, lines = _delta_w(beta)
    out = {**fields, "multiset": [{"value": ring.element_to_json(v), "multiplicity": m} for v, m in multiset]}
    rows = [(ring.element_str(v), m) for v, m in multiset]
    _emit(out, lines + _table(("value", "multiplicity"), rows), pretty)


@main.command("canonical-cocycle")
@click.argument("bracket_file", type=click.Path())
@pretty_option
def canonical_cocycle_cmd(bracket_file, pretty):
    """The canonical 2-cocycle phi_beta of a bracket, with its group G."""
    beta = _parse(bracket_file, "bracket", bracket_from_json)
    G = beta.G
    phi = canonical_cocycle(beta)
    out = {"G": G.to_json(), "order_G": len(G.elements), "cocycle": phi.to_json()}
    rows = [
        (x + 1, y + 1, phi.target.element_str(phi.phi[x][y]))
        for x in range(beta.biquandle.n)
        for y in range(beta.biquandle.n)
    ]
    lines = [
        "G: {%s}" % ", ".join(beta.ring.element_str(g) for g in G.sorted_elements()),
        f"|G|: {len(G.elements)}",
    ]
    _emit(out, lines + _table(("x", "y", "phi(x,y)"), rows), pretty)


@_bracket_command("z-invariant")
def z_invariant_cmd(beta, D, pretty):
    """The multiset of Z_beta cosets over all colorings of a diagram."""
    G = beta.G
    cosets = _computed(z_invariant_multiset, beta, D)
    out = {
        "G": G.to_json(),
        "order_G": len(G.elements),
        "multiset": [{"coset": c.to_json(), "multiplicity": m} for c, m in cosets],
    }
    rows = [(beta.ring.element_str(c.canonical) + "*G", m) for c, m in cosets]
    _emit(out, [f"|G|: {len(G.elements)}"] + _table(("coset", "multiplicity"), rows), pretty)


@main.command("khovanov")
@click.argument("diagram_file", type=click.Path())
@pretty_option
def khovanov_cmd(diagram_file, pretty):
    """Classical integer-graded Khovanov homology of a diagram."""
    D = _parse(diagram_file, "diagram", parse_diagram)
    table = _computed(khovanov_classical, D)
    _emit(table.to_json(), _table(("i", "j", "rank", "torsion"), _homology_rows(table)), pretty)


@_bracket_command("bh")
def bh_cmd(beta, D, pretty):
    """Bracket cohomology tables over all colorings of a diagram."""
    multiset = _computed(bh_multiset, beta, D)
    out = {
        "multiset": [
            {"table": table.to_json(), "multiplicity": m} for table, m in multiset
        ]
    }
    lines = []
    for idx, (table, m) in enumerate(multiset):
        lines.append(f"table {idx} (multiplicity {m}):")
        lines += ["  " + l for l in _table(("i", "degree", "rank", "torsion"), _homology_rows(table))]
    _emit(out, lines, pretty)


def _run_checks(beta, D, pretty, details, label):
    """One report per coloring: its coloring, then ``details`` of its ``check_colorings`` entry."""
    colorings = _computed(enumerate_colorings, beta.biquandle, D)
    checks = check_colorings(beta, D, colorings, _computed(khovanov_classical, D))
    reports = [{"coloring": f.to_json(), **details(check, beta.ring)} for f, check in zip(colorings, checks)]
    ok = all(r["ok"] for r in reports)
    out = {"ok": ok, "checked": len(reports), "reports": reports}
    rows = [(json.dumps(r["coloring"]), r["ok"]) for r in reports]
    lines = [f"{label}: {'pass' if ok else 'FAIL'} ({len(reports)} colorings)"]
    _emit_report(out, lines + _table(("coloring", "ok"), rows), pretty)


def _theorem_details(check, ring) -> dict:
    """The theorem check with Bh(f), the Khovanov table folded at Z_beta(f) and G."""
    tables = {"bh": check.bh.to_json(), "predicted_from_classical": check.predicted.to_json()}
    return {"ok": check.theorem, **tables, "z_shift": check.z.to_json(), "G": check.z.subgroup.to_json()}


def _euler_details(check, ring) -> dict:
    """The Euler check with its two sides, chi(Bh(f)) evaluated in R and (sum of G) * beta(f)."""
    chi, expected = ring.element_to_json(check.chi), ring.element_to_json(check.expected)
    return {"ok": check.euler, "euler_evaluated": chi, "gdim_times_bracket": expected}


@_bracket_command("check-theorem")
def check_theorem_cmd(beta, D, pretty):
    """Check Bh(f) = classical Khovanov folded into R^x and shifted by Z_beta(f)."""
    _run_checks(beta, D, pretty, _theorem_details, "theorem")


@_bracket_command("check-euler")
def check_euler_cmd(beta, D, pretty):
    """Check chi(Bh(f)) evaluates to (sum over G) * bracket value."""
    _run_checks(beta, D, pretty, _euler_details, "euler identity")


@main.command("check-all")
@click.option("--manifest", "manifest_path", type=click.Path(), default=None, help="Manifest file (defaults to the bundled corpus).")
@pretty_option
def check_all_cmd(manifest_path, pretty):
    """Run every structural check over the bundled (or given) corpus."""
    try:
        manifest = load_manifest(manifest_path)
        base = None if manifest_path is None else str(pathlib.Path(manifest_path).parent)
        results = check_all(manifest, base)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise click.exceptions.Exit(_input_error(f"corpus error: {exc}"))
    out = report_to_json(results)
    rows = [(r.name, "ok" if r.ok else "FAIL", r.details["detail"]) for r in results if not r.ok]
    lines = [f"{'pass' if out['ok'] else 'FAIL'}: {out['total'] - len(out['failed'])}/{out['total']} checks"]
    if rows:
        lines += _table(("check", "status", "detail"), rows)
    _emit_report(out, lines, pretty)


if __name__ == "__main__":
    main()
