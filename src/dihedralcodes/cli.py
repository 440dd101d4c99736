"""Command-line front end.

Subcommands: field-check, idempotents, wedderburn, construct, analyze,
sweep, example.  Validation failures exit with status 2 and print a
diagnostic naming the violated precondition, as does a command that runs
out of memory (error[OutOfMemory]); identical argument lists produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .codes import (
    DEFAULT_CAP,
    FAMILIES,
    CodeFamily,
    LinearCode,
    construct_code,
    generator_matrix_presentation,
    left_ideal_closure_ok,
    load_code,
    presentation_rows,
    require_odd_n,
)
from .dihedral import DihedralAlgebra
from .errors import DihedralCodesError, ReducibleError
from .gf import (
    element_order,
    make_field,
    parse_element,
    parse_field_spec,
    poly_text,
    primitive_nth_root,
)
from .idempotents import _central, cyclic_family
from .wedderburn import wedderburn_inverse, wedderburn_map

_BUILTIN_CODES = {
    ZeroDivisionError: "DivisionByZero",
    IndexError: "IndexOutOfRange",
    OSError: "FileAccess",  # reading analyze --in, writing construct --out
}


def _diag_code(exc: BaseException) -> str:
    for t, code in _BUILTIN_CODES.items():
        if isinstance(exc, t):
            return code
    if isinstance(exc, DihedralCodesError):
        name = type(exc).__name__
        return name[:-5] if name.endswith("Error") else name
    return "InvalidArgument"


def _emit(doc, as_json: bool, text: str):
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_field_check(args) -> int:
    ctx = parse_field_spec(args.field)
    gen = ctx.generator()
    doc = {
        "ok": True,
        "p": ctx.p,
        "m": ctx.m,
        "q": ctx.q,
        "modulus": list(ctx.modulus),
        "spec": ctx.spec(),
        "generator": gen.to_list(),
    }
    text = (
        f"ok: p={ctx.p} m={ctx.m} q={ctx.q} "
        f"modulus={poly_text(ctx.modulus)} generator={gen.text()}"
    )
    _emit(doc, args.format == "json", text)
    return 0


def cmd_idempotents(args) -> int:
    """Print both families, the central one from the cyclic one; text prints
    each line as it is made, and only --format json builds the document."""
    ctx = parse_field_spec(args.field)
    cyc = cyclic_family(ctx, args.n)
    central = _central(cyc)
    if args.format == "json":
        doc = {
            "field": ctx.spec(),
            "n": args.n,
            "xi": cyc.xi.to_list(),
            "cyclic": [{**m.to_json(), "text": m.text()} for m in cyc],
            "central": [{**m.to_json(), "text": m.text()} for m in central],
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"field {ctx.spec()}  n={args.n}  xi={cyc.xi.text()}")
    for name, family in (("e", cyc), ("central", central)):
        for i, m in enumerate(family):
            print(f"{name}_{i} = {m.text()}")
    return 0


def cmd_wedderburn(args) -> int:
    trials = args.check
    if trials < 0:
        raise ValueError(f"--check must be a trial count >= 0, got {trials}")
    ctx = parse_field_spec(args.field)
    algebra = DihedralAlgebra(ctx, args.n)
    rng = random.Random(args.seed)
    product_ok = sum_ok = 0
    for _ in range(trials):
        u = algebra.random_element(rng)
        v = algebra.random_element(rng)
        pu, pv = wedderburn_map(u), wedderburn_map(v)
        if wedderburn_map(u * v) == pu * pv:
            product_ok += 1
        if wedderburn_map(u + v) == pu + pv:
            sum_ok += 1
    total, roundtrip_ok = 2 * args.n, 0  # the monomials, made one at a time
    for reflected in (False, True):
        for i in range(args.n):
            g = algebra.monomial(reflected, i)
            roundtrip_ok += wedderburn_inverse(wedderburn_map(g)) == g
    failures = (trials - product_ok) + (trials - sum_ok) + (total - roundtrip_ok)
    doc = {
        "field": ctx.spec(),
        "n": args.n,
        "trials": trials,
        "product_ok": product_ok,
        "sum_ok": sum_ok,
        "roundtrip_ok": roundtrip_ok,
        "roundtrip_total": total,
        "result": "PASS" if failures == 0 else "FAIL",
    }
    text = "\n".join(
        [
            f"wedderburn check: field={ctx.spec()} n={args.n} trials={trials}",
            f"product: {product_ok}/{trials} ok",
            f"sum: {sum_ok}/{trials} ok",
            f"roundtrip: {roundtrip_ok}/{total} ok",
            f"result: {doc['result']}",
        ]
    )
    _emit(doc, args.format == "json", text)
    return 0 if failures == 0 else 1


# stands in a document for the matrix entries _write_document writes row by row
_ENTRIES = "\0entries"


def _write_document(fh, doc: dict, form, rows) -> None:
    """Write json.dumps(doc, indent=2) and a newline to fh, where doc holds
    _ENTRIES once, as a matrix's "entries", and rows, an iterable of the
    matrix's rows in form (FieldCtx.form), gives them.

    The text around the entries is json.dumps's own.  Each row is written
    as one string, joined from its entries' texts, and the text of each
    distinct value, its coefficient list at the entries' depth, is made
    once, when a row first holds it.  So the writer never holds the
    document string, the matrix or a per-entry list: a row, and a text per
    distinct value, at most q.
    """
    head, tail = json.dumps(doc, indent=2).split(json.dumps(_ENTRIES))
    key = head.rsplit("\n", 1)[1]
    pad = key[:len(key) - len(key.lstrip())]  # the depth of "entries"; rows at pad + 2
    row_start, between = f"{pad}  [\n{pad}    ", f",\n{pad}    "
    texts, sep = {}, "[\n"
    fh.write(head)
    for row in rows:
        new = list(set(row).difference(texts))
        texts.update(zip(new, (json.dumps(c, indent=2).replace("\n", "\n" + pad + "    ")
                               for c in form.coeffs(new))))
        fh.write(sep + row_start + between.join(map(texts.__getitem__, row)) + f"\n{pad}  ]")
        sep = ",\n"
    fh.write(("[]" if sep == "[\n" else f"\n{pad}]") + tail + "\n")


def _write_code(fh, code: LinearCode, style: str) -> None:
    """Write a constructed code's document, its generator in this style,
    as json.dumps(doc, indent=2) and a newline, row by row (_write_document)."""
    rows = presentation_rows(code, style)
    prov = code.provenance
    doc = {
        "field": prov.ctx.spec(),
        "n": prov.n,
        "family": prov.tag,
        "s": prov.s,
        "beta": prov.beta.to_list(),
        "style": style,
        "length": code.length,
        "k": code.k,
        "generator": {"rows": code.k, "cols": code.length, "field": prov.ctx.spec(), "entries": _ENTRIES},
    }
    _write_document(fh, doc, code.ctx.form, rows)


def cmd_construct(args) -> int:
    ctx = parse_field_spec(args.field)
    beta = parse_element(ctx, args.beta) if args.beta is not None else None
    code = construct_code(ctx, args.n, CodeFamily(tag=args.family, s=args.s, beta=beta))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_code(fh, code, args.style)
        print(f"wrote [{code.length},{code.k}] code to {args.out}")
    else:
        _write_code(sys.stdout, code, args.style)
    return 0


def cmd_analyze(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{args.infile} is not JSON: {exc}") from None
    code = load_code(doc)
    d = code.min_distance(method=args.method, cap=args.cap)
    out = {
        "length": code.length,
        "k": code.k,
        "d": d,
        "mds": d == code.singleton_bound,
    }
    print(json.dumps(out, indent=2))
    return 0


def _sweep_rows(ctx, n: int):
    """Yield sweep's row of each family at each coprime twist, as it is made."""
    for s in range(1, (n - 1) // 2 + 1):
        if math.gcd(s, n) != 1:
            continue
        for family in FAMILIES:
            entry = {"family": family, "s": s}
            try:
                code = construct_code(ctx, n, CodeFamily(tag=family, s=s))
                d = code.min_distance(method="dual")
                entry.update(
                    {
                        "length": code.length,
                        "k": code.k,
                        "d": d,
                        "mds": d == code.singleton_bound,
                        "status": "ok",
                    }
                )
            except DihedralCodesError as exc:
                entry.update({"status": _diag_code(exc), "detail": str(exc)})
            yield entry


def cmd_sweep(args) -> int:
    """The text form prints the header, then each row as it is made; --format
    json collects every row, since its document holds them."""
    ctx = parse_field_spec(args.field)
    n = args.n
    require_odd_n(n)  # one refusal, not one row per family
    beta = ctx.generator()
    beta_order = element_order(beta)
    rows = _sweep_rows(ctx, n)
    if args.format == "json":
        doc = {"field": ctx.spec(), "n": n, "beta": beta.to_list(), "beta_order": beta_order, "rows": list(rows)}
        print(json.dumps(doc, indent=2))
        return 0
    print(f"sweep field={ctx.spec()} n={n} beta={beta.text()} (order {beta_order})")
    print(f"{'family':<12} {'s':<3} {'length':<7} {'k':<3} {'d':<3} {'mds':<4} status")
    for r in rows:
        if r["status"] == "ok":
            print(
                f"{r['family']:<12} {r['s']:<3} {r['length']:<7} {r['k']:<3} "
                f"{r['d']:<3} {'yes' if r['mds'] else 'no':<4} ok"
            )
        else:
            print(f"{r['family']:<12} {r['s']:<3} {'-':<7} {'-':<3} {'-':<3} {'-':<4} {r['status']}")
    return 0


_EXAMPLE_FAMILY = {"I1": "2n-2", "I2": "2n-3-plus"}


def cmd_example(args) -> int:
    note_lines = []
    try:
        make_field(5, [1, 0, 1])
    except ReducibleError as exc:
        note_lines.append(
            f"note: x^2+1 is not usable as a modulus over GF(5): {exc}; "
            f"using the irreducible modulus x^2+2 instead"
        )
    ctx = make_field(5, [2, 0, 1])
    n = 3
    eta = ctx.generator()
    xi = primitive_nth_root(ctx, n)
    variants = ["I1", "I2"] if args.variant == "both" else [args.variant]
    results, matrices = [], []
    for name in variants:
        family = _EXAMPLE_FAMILY[name]
        code = construct_code(ctx, n, CodeFamily(tag=family))
        # the dual engine answers, so example never imports numpy; criterion 1
        # of tests/test_acceptance.py keeps the exhaustive check of both codes
        d = code.min_distance(method="dual")
        matrices.append(generator_matrix_presentation(code, "paper"))
        results.append(
            {
                "variant": name,
                "family": family,
                "length": code.length,
                "k": code.k,
                "d": d,
                "mds": d == code.singleton_bound,
                "ideal_closure": left_ideal_closure_ok(code),
                "generator": matrices[-1].to_json(),
            }
        )
    doc = {
        "note": note_lines,
        "field": ctx.spec(),
        "n": n,
        "eta": eta.to_list(),
        "eta_order": element_order(eta),
        "xi": xi.to_list(),
        "variants": results,
    }
    lines = list(note_lines)
    lines.append(f"field: {ctx.spec()} (q={ctx.q})")
    lines.append(
        f"n={n}, eta={eta.text()} (order {doc['eta_order']}), xi={xi.text()}"
    )
    for r, matrix in zip(results, matrices):
        lines.append(
            f"variant {r['variant']}: family={r['family']} "
            f"parameters=[{r['length']},{r['k']},{r['d']}] "
            f"mds={'yes' if r['mds'] else 'no'} "
            f"ideal_closure={'ok' if r['ideal_closure'] else 'FAIL'}"
        )
        lines.append("generator (style=paper):")
        lines.append(matrix.text())
    _emit(doc, args.format == "json", "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dihedralcodes",
        description="Construct and verify MDS group codes in dihedral group algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("field-check", help="validate a field spec string")
    p.add_argument("--field", required=True, help='e.g. "p=5;mod=[2,0,1]"')
    add_format(p)
    p.set_defaults(func=cmd_field_check)

    p = sub.add_parser("idempotents", help="list cyclic and central idempotent families")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("wedderburn", help="randomized homomorphism self-check")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", type=int, default=100, metavar="N", help="number of random trials")
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_wedderburn)

    p = sub.add_parser("construct", help="build a code family and emit its JSON document")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--beta", default=None, help='field element, e.g. "x+1" or "[1,1]"')
    p.add_argument("--style", choices=("rref", "paper"), default="rref")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="compute [length,k,d] and the MDS verdict of a code JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=("auto", "exhaustive", "dual"), default="auto")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="all coprime twist indices for every family")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("example", help="the corrected GF(25), n=3 worked example")
    p.add_argument("--variant", choices=("I1", "I2", "both"), default="both")
    add_format(p)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        DihedralCodesError,
        ZeroDivisionError,
        IndexError,
        ValueError,
        KeyError,
        OSError,
    ) as exc:
        print(f"error[{_diag_code(exc)}]: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an in-domain n too large for this machine; the unwinding frees it
        print(f"error[OutOfMemory]: {args.command} ran out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
