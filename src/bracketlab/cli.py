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


@click.group()
def main():
    """Biquandle brackets, canonical 2-cocycles, and bracket cohomology."""


def _command(name: str, *params):
    """Register ``run`` as command ``name``, with its docstring as help and a ``--pretty`` flag.

    Each of ``params`` is a FILE argument, as an ``(ARGUMENT, what, reader)``
    triple whose file ``run`` gets read through ``_parse`` in order, or a
    click argument or option, which ``run`` gets by keyword. ``run`` returns
    ``(out, lines)``: the command prints ``out`` as JSON, or ``lines`` under
    ``--pretty``, and exits 1 when ``out`` holds ``"ok": false`` and 2 with
    the message when ``run`` refuses a diagram with ``DiagramError``. Readers
    are lambdas so that, like every other call here, they look their
    function up in this module when the command runs.
    """
    files = [p for p in params if isinstance(p, tuple)]
    decorators = [click.argument(p[0].lower(), type=click.Path()) if isinstance(p, tuple) else p for p in params]
    decorators.append(click.option("--pretty", is_flag=True, help="Render aligned tables instead of JSON."))

    def register(run):
        def command(pretty, **options):
            inputs = [_parse(options.pop(arg.lower()), what, reader) for arg, what, reader in files]
            try:
                out, lines = run(*inputs, **options)
            except DiagramError as exc:
                raise click.exceptions.Exit(_input_error(str(exc)))
            click.echo("\n".join(lines) if pretty else json.dumps(out, indent=2, default=str))
            if out.get("ok") is False:
                raise click.exceptions.Exit(CHECK_FAILED)

        for decorate in reversed(decorators):
            command = decorate(command)
        main.command(name, help=run.__doc__)(command)
        return run

    return register


_BIQUANDLE = ("BIQUANDLE_FILE", "biquandle", lambda data: Biquandle.from_json(data))
_BRACKET = ("BRACKET_FILE", "bracket", lambda data: bracket_from_json(data))
_DIAGRAM = ("DIAGRAM_FILE", "diagram", lambda data: parse_diagram(data))


@_command("verify-biquandle", ("FILE", "biquandle", lambda data: read_biquandle(data)))
def verify_biquandle_cmd(read):
    """Check the biquandle axioms for the tables in FILE."""
    report, _ = read
    return report.to_json(), [f"ok: {report.ok}"] + _failure_table(report)


@_command(
    "verify-bracket",
    click.argument("file", type=click.Path()),
    click.option(
        "--literal-axioms",
        is_flag=True,
        help="Check the published form of axiom (iii), including its asymmetric fourth equation.",
    ),
)
def verify_bracket_cmd(file, literal_axioms):
    """Check the bracket axioms for the (ring, biquandle, A, B) data in FILE."""
    report, beta = _parse(file, "bracket", lambda data: read_bracket(data, literal_axioms))
    out = report.to_json()
    lines = [f"ok: {report.ok}"]
    if beta is not None:
        fields, more = _delta_w(beta)
        out.update(fields)
        lines += more
    return out, lines + _failure_table(report)


@_command("verify-cocycle", ("FILE", "cocycle", lambda data: read_cocycle(data)))
def verify_cocycle_cmd(read):
    """Check the 2-cocycle conditions for the presentation matrix in FILE."""
    report, _ = read
    return report.to_json(), [f"ok: {report.ok}"] + _failure_table(report)


@_command("colorings", _BIQUANDLE, _DIAGRAM)
def colorings_cmd(X, D):
    """Enumerate X-colorings of a diagram and report the counting invariant."""
    colorings = enumerate_colorings(X, D)
    out = {"count": len(colorings), "colorings": [f.to_json() for f in colorings]}
    rows = [(i, json.dumps(f.to_json())) for i, f in enumerate(colorings)]
    return out, [f"count: {len(colorings)}"] + _table(("#", "arc colors"), rows)


@_command("bracket-value", _BRACKET, _DIAGRAM)
def bracket_value_cmd(beta, D):
    """Evaluate the bracket state sum for every coloring of a diagram."""
    ring = beta.ring
    colorings = enumerate_colorings(beta.biquandle, D)
    values = [
        {"coloring": f.to_json(), "value": ring.element_to_json(value)}
        for f, value in zip(colorings, bracket_values(beta, D, colorings))
    ]
    fields, lines = _delta_w(beta)
    rows = [(json.dumps(v["coloring"]), v["value"]) for v in values]
    return {**fields, "values": values}, lines + _table(("coloring", "value"), rows)


@_command("bracket-invariant", _BRACKET, _DIAGRAM)
def bracket_invariant_cmd(beta, D):
    """The multiset of bracket values over all colorings."""
    ring = beta.ring
    multiset = bracket_invariant(beta, D)
    fields, lines = _delta_w(beta)
    out = {**fields, "multiset": [{"value": ring.element_to_json(v), "multiplicity": m} for v, m in multiset]}
    rows = [(ring.element_str(v), m) for v, m in multiset]
    return out, lines + _table(("value", "multiplicity"), rows)


@_command("canonical-cocycle", _BRACKET)
def canonical_cocycle_cmd(beta):
    """The canonical 2-cocycle phi_beta of a bracket, with its group G."""
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
    return out, lines + _table(("x", "y", "phi(x,y)"), rows)


@_command("z-invariant", _BRACKET, _DIAGRAM)
def z_invariant_cmd(beta, D):
    """The multiset of Z_beta cosets over all colorings of a diagram."""
    G = beta.G
    cosets = z_invariant_multiset(beta, D)
    out = {
        "G": G.to_json(),
        "order_G": len(G.elements),
        "multiset": [{"coset": c.to_json(), "multiplicity": m} for c, m in cosets],
    }
    rows = [(beta.ring.element_str(c.canonical) + "*G", m) for c, m in cosets]
    return out, [f"|G|: {len(G.elements)}"] + _table(("coset", "multiplicity"), rows)


@_command("khovanov", _DIAGRAM)
def khovanov_cmd(D):
    """Classical integer-graded Khovanov homology of a diagram."""
    table = khovanov_classical(D)
    return table.to_json(), _table(("i", "j", "rank", "torsion"), _homology_rows(table))


@_command("bh", _BRACKET, _DIAGRAM)
def bh_cmd(beta, D):
    """Bracket cohomology tables over all colorings of a diagram."""
    multiset = bh_multiset(beta, D)
    out = {
        "multiset": [
            {"table": table.to_json(), "multiplicity": m} for table, m in multiset
        ]
    }
    lines = []
    for idx, (table, m) in enumerate(multiset):
        lines.append(f"table {idx} (multiplicity {m}):")
        lines += ["  " + l for l in _table(("i", "degree", "rank", "torsion"), _homology_rows(table))]
    return out, lines


def _run_checks(beta, D, details, label):
    """One report per coloring: its coloring, then ``details`` of its ``check_colorings`` entry."""
    colorings = enumerate_colorings(beta.biquandle, D)
    checks = check_colorings(beta, D, colorings, khovanov_classical(D))
    reports = [{"coloring": f.to_json(), **details(check, beta.ring)} for f, check in zip(colorings, checks)]
    ok = all(r["ok"] for r in reports)
    out = {"ok": ok, "checked": len(reports), "reports": reports}
    rows = [(json.dumps(r["coloring"]), r["ok"]) for r in reports]
    return out, [f"{label}: {'pass' if ok else 'FAIL'} ({len(reports)} colorings)"] + _table(("coloring", "ok"), rows)


def _theorem_details(check, ring) -> dict:
    """The theorem check with Bh(f), the Khovanov table folded at Z_beta(f) and G."""
    tables = {"bh": check.bh.to_json(), "predicted_from_classical": check.predicted.to_json()}
    return {"ok": check.theorem, **tables, "z_shift": check.z.to_json(), "G": check.z.subgroup.to_json()}


def _euler_details(check, ring) -> dict:
    """The Euler check with its two sides, chi(Bh(f)) evaluated in R and (sum of G) * beta(f)."""
    chi, expected = ring.element_to_json(check.chi), ring.element_to_json(check.expected)
    return {"ok": check.euler, "euler_evaluated": chi, "gdim_times_bracket": expected}


@_command("check-theorem", _BRACKET, _DIAGRAM)
def check_theorem_cmd(beta, D):
    """Check Bh(f) = classical Khovanov folded into R^x and shifted by Z_beta(f)."""
    return _run_checks(beta, D, _theorem_details, "theorem")


@_command("check-euler", _BRACKET, _DIAGRAM)
def check_euler_cmd(beta, D):
    """Check chi(Bh(f)) evaluates to (sum over G) * bracket value."""
    return _run_checks(beta, D, _euler_details, "euler identity")


@_command(
    "check-all",
    click.option("--manifest", "manifest_path", type=click.Path(), default=None, help="Manifest file (defaults to the bundled corpus)."),
)
def check_all_cmd(manifest_path):
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
    return out, lines


if __name__ == "__main__":
    main()
