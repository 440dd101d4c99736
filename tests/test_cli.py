import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dihedralcodes.cli as cli
from dihedralcodes.cli import _ENTRIES, _write_code, _write_document, main
from dihedralcodes.codes import (
    FAMILIES,
    CodeFamily,
    LinearCode,
    construct_code,
    generator_matrix_presentation,
    left_ideal_closure_ok,
    load_code,
)
from dihedralcodes.dihedral import AlgebraElement
from dihedralcodes.gf import make_field, parse_field_spec
from dihedralcodes.linalg import MatrixGF
from dihedralcodes.wedderburn import IdealSpec, code_from_ideal_spec, plus_piece, row, zero


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_field_check_ok(capsys):
    rc, out, err = run(capsys, "field-check", "--field", "p=5;mod=[2,0,1]")
    assert rc == 0
    assert "q=25" in out
    assert "modulus=x^2+2" in out


def test_field_check_json(capsys):
    rc, out, _ = run(capsys, "field-check", "--field", "p=13", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == 13
    assert doc["generator"] == [2]


def test_field_check_reducible_exits_2(capsys):
    rc, out, err = run(capsys, "field-check", "--field", "p=5;mod=[1,0,1]")
    assert rc == 2
    assert "error[Reducible]" in err
    assert "root 2" in err


def test_idempotents_lists_e0(capsys):
    rc, out, _ = run(capsys, "idempotents", "--field", "p=13;mod=[0,1]", "--n", "3")
    assert rc == 0
    assert "e_0 = 9 + 9*a + 9*a^2" in out
    assert "central_2 = 5 + 4*a + 4*a^2" in out


def test_idempotents_json(capsys):
    rc, out, _ = run(
        capsys, "idempotents", "--field", "p=13;mod=[0,1]", "--n", "3",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["xi"] == [3]
    assert doc["cyclic"][0]["alpha"] == [[9], [9], [9]]
    assert len(doc["central"]) == 3


def test_idempotents_root_unavailable(capsys):
    rc, _, err = run(capsys, "idempotents", "--field", "p=13;mod=[0,1]", "--n", "5")
    assert rc == 2
    assert "error[RootUnavailable]" in err


def test_wedderburn_check(capsys):
    rc, out, _ = run(
        capsys, "wedderburn", "--field", "p=13;mod=[0,1]", "--n", "3", "--check", "25"
    )
    assert rc == 0
    assert "product: 25/25 ok" in out
    assert "result: PASS" in out


def test_wedderburn_refuses_a_negative_check(capsys):
    argv = ("wedderburn", "--field", "p=13", "--n", "3", "--check")
    rc, out, err = run(capsys, *argv, "-1")
    assert (rc, out) == (2, "")
    assert err == "error[InvalidArgument]: --check must be a trial count >= 0, got -1\n"
    rc, out, _ = run(capsys, *argv, "0")
    assert rc == 0
    assert "product: 0/0 ok" in out and "result: PASS" in out


# sha256 of each command's stdout as it was when every command built both of
# its output forms and wedderburn held all 2n monomials: the streamed text
# and the forms built on demand keep these bytes
STDOUT_SHA256 = [
    ("idempotents", "p=13", 3, "text", "656120f5f8e72f9e9366ec2a2d255aeceb880005eed3fdddd752d4808eb9344f"),
    ("idempotents", "p=13", 3, "json", "dfce5ab640d887db924237d26ed3ed88682437194edb7bbc432aa6c16db0a6f5"),
    ("idempotents", "p=607", 101, "text", "ead364b13bf79ae5a41f91658098c843f1cf1e43e78f09fb3ddebfbe1ecd0feb"),
    ("idempotents", "p=607", 101, "json", "55c0fba9545ca77db8a57b3aa323612f463ebd2f5837097beadb6c68ca896251"),
    ("idempotents", "p=13;mod=[2,0,1]", 21, "text", "44e57e8c5de702feb41dcce6577708d9d4d15fd744e348c26916599d3447e83c"),
    ("idempotents", "p=13;mod=[2,0,1]", 21, "json", "ccbf80fe48cdebe14fefe9af3baf339f8da94ae18bb1729b006f91e94d8dcb96"),
    ("idempotents", "p=3;mod=[1,2,0,1]", 13, "text", "aaef13080c8fb39734bd7f5c2fb9e90aaba9a0b04c250ad9f4e289037b51ee08"),
    ("idempotents", "p=3;mod=[1,2,0,1]", 13, "json", "1f6878f214ff17b09736d7ee3e716a8119a51b336f8b35f70bc0b9fad2837b1c"),
    ("wedderburn", "p=13", 3, "text", "da537165bdf517f07bfec408a3c70a1e9c544215092e62b29706638e75634395"),
    ("wedderburn", "p=13", 3, "json", "392f79a97576dea93f1d029522da711294bd16b5e637ab42ec9ced3b32910f7d"),
    ("wedderburn", "p=607", 101, "text", "1deaa49b79636888cdf3338150c0f36874ac3c273958e4d4ed8259886b202f44"),
    ("wedderburn", "p=607", 101, "json", "49be8401ae1fa072e7e81ed9aae8ac59a55aa15ed2dd1f472ae49e1526871df7"),
    ("wedderburn", "p=13;mod=[2,0,1]", 21, "text", "fa8c0214b990b190d639a7b3e41c5d81648099ece296f5b2848b2d2225e151ae"),
    ("wedderburn", "p=13;mod=[2,0,1]", 21, "json", "d1dbc1b6a85572ead0b715e7d29057a41ddd8d46801fb1f63570345a73010717"),
    ("wedderburn", "p=3;mod=[1,2,0,1]", 13, "text", "ea6cb6b8b2df2bd1bab1a371ec58bb2a0d1e75063fa9f33df70f85352cd24d55"),
    ("wedderburn", "p=3;mod=[1,2,0,1]", 13, "json", "054c9c0dacbbee46cdd89f475d9ac51e08ab78d1d152f07771051d6586c4cd80"),
    ("sweep", "p=43", 7, "text", "5a729149a9407a5ca0a39efc1bf933d29e07ce85acac653290806c1888643ead"),
    ("sweep", "p=43", 7, "json", "93e13f4ddde79b6409b2954d99085dc19ff4caece1db342cc6dbc72877daaded"),
    ("sweep", "p=61", 15, "text", "0d9a916269d54f43cb034a992b428cd70523c6389a96731308d5934ca0773c13"),
    ("sweep", "p=61", 15, "json", "6e39e404edcde48b41f5fb20f0586d38e9bb7dae2e2054b5398c6cf286d1088e"),
    ("sweep", "p=3;mod=[1,2,0,0,0,1]", 121, "text", "d15c32531e3e4d74167bc1aba650ffe1df5479c32f038d101b678b3760050380"),
    ("sweep", "p=3;mod=[1,2,0,0,0,1]", 121, "json", "6673930b8e8c170a8b1979083ca94c281492778e48bec8082899b452e99acfbb"),
]


@pytest.mark.parametrize("command, field, n, fmt, digest", STDOUT_SHA256)
def test_stdout_bytes_are_unchanged(capsys, command, field, n, fmt, digest):
    check = ("--check", "3") if command == "wedderburn" else ()
    rc, out, _ = run(capsys, command, "--field", field, "--n", str(n), "--format", fmt, *check)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_idempotents_text_makes_each_member_text_once(capsys, monkeypatch):
    # the text form builds no JSON document, and no member's text twice
    made = []
    text = AlgebraElement.text

    def count(self):
        made.append(id(self))
        return text(self)

    def refuse(self):
        raise AssertionError("the text form built a JSON member")

    monkeypatch.setattr(AlgebraElement, "text", count)
    monkeypatch.setattr(AlgebraElement, "to_json", refuse)
    rc, out, _ = run(capsys, "idempotents", "--field", "p=13;mod=[2,0,1]", "--n", "21")
    assert rc == 0
    assert len(made) == len(set(made)) == 21 + 2 + 10 == len(out.splitlines()) - 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_idempotents_builds_each_family_once(capsys, monkeypatch, fmt):
    # the central family is placed from the cyclic one by coordinates: 21
    # cyclic idempotents, one root and no group product for both families
    import dihedralcodes.gf as gf
    import dihedralcodes.idempotents as idempotents

    calls = {"cyclic": 0, "root": 0}
    cyclic, root = idempotents.cyclic_idempotent, gf.primitive_nth_root

    def count_cyclic(*args):
        calls["cyclic"] += 1
        return cyclic(*args)

    def count_root(*args):
        calls["root"] += 1
        return root(*args)

    def refuse(self, other):
        raise AssertionError("a group product was taken")

    monkeypatch.setattr(idempotents, "cyclic_idempotent", count_cyclic)
    for module in (gf, cli):
        monkeypatch.setattr(module, "primitive_nth_root", count_root)
    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    rc, out, _ = run(capsys, "idempotents", "--field", "p=13;mod=[2,0,1]", "--n", "21", "--format", fmt)
    assert rc == 0
    assert calls == {"cyclic": 21, "root": 1}
    digests = {(c, f, n, fm): d for c, f, n, fm, d in STDOUT_SHA256}
    assert hashlib.sha256(out.encode()).hexdigest() == digests["idempotents", "p=13;mod=[2,0,1]", 21, fmt]


def test_wedderburn_memory_grows_at_most_linearly_in_n(capsys):
    # the round trip makes its 2n monomials one at a time: from n = 9 to n = 63
    # the peak grows by about 12 KB, where a list of all 2n monomials, 2n
    # tuples of 2n coordinates, grows it by about 130 KB
    def peak(n):
        gc.collect()
        tracemalloc.start()
        try:
            rc, out, _ = run(capsys, "wedderburn", "--field", "p=631", "--n", str(n), "--check", "0")
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0 and f"roundtrip: {2 * n}/{2 * n} ok" in out
        return top

    run(capsys, "wedderburn", "--field", "p=631", "--n", "3", "--check", "0")  # warm caches
    small, large = peak(9), peak(63)
    assert large - small < 1024 * (63 - 9)


def test_construct_stdout_json(capsys):
    rc, out, _ = run(
        capsys, "construct", "--field", "p=13;mod=[0,1]", "--n", "3",
        "--family", "2n-2",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["k"] == 4
    assert doc["length"] == 6
    assert doc["beta"] == [2]
    assert doc["generator"]["rows"] == 4


def dense_code_document(code, style):
    """construct's document by the dense route: the presentation matrix's
    FieldElements, one coefficient list each."""
    matrix, prov = generator_matrix_presentation(code, style), code.provenance
    return {"field": prov.ctx.spec(), "n": prov.n, "family": prov.tag, "s": prov.s,
            "beta": prov.beta.to_list(), "style": style, "length": code.length, "k": code.k,
            "generator": {"rows": matrix.rows, "cols": matrix.cols, "field": prov.ctx.spec(),
                          "entries": [[e.to_list() for e in r] for r in matrix.data]}}


@pytest.mark.parametrize("field, n", [("p=43", 7), ("p=13;mod=[2,0,1]", 21), ("p=3;mod=[1,2,0,1]", 13)])
@pytest.mark.parametrize("style", ["rref", "paper"])
def test_construct_writes_the_bytes_of_json_dumps(tmp_path, capsys, field, n, style):
    # the writer's rows give json.dumps(doc, indent=2)'s bytes, on stdout and in --out
    for family in ("2n-2", "2n-3-minus", "2n-3-plus"):
        args = ["construct", "--field", field, "--n", str(n), "--family", family, "--s", "2", "--style", style]
        rc, out, err = run(capsys, *args)
        if "error[BadOrder]" in err:  # over GF(27), beta = x has order 2n
            assert field.endswith("0,1]") and family != "2n-3-plus"
            continue
        code = construct_code(parse_field_spec(field), n, CodeFamily(family, s=2))
        assert rc == 0 and out == json.dumps(dense_code_document(code, style), indent=2) + "\n"
        path = tmp_path / f"{family}.json"
        assert run(capsys, *args, "--out", str(path))[0] == 0
        assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("p, modulus", [(13, [0, 1]), (5, [2, 0, 1]), (3, [1, 2, 0, 1])])
def test_writer_matches_json_dumps_on_small_matrices(p, modulus):
    # 0 to 3 rows, at two depths, with keys after the entries too
    ctx = make_field(p, modulus)
    for rows in range(4):
        m = MatrixGF.from_rows(ctx, [[(3 * i + 5 * j + 1) % ctx.q for j in range(4)] for i in range(rows)])
        matrix = m.to_json()
        for wrap in (lambda g: g, lambda g: {"generator": g, "after": [1]}):
            out = io.StringIO()
            _write_document(out, wrap({**matrix, "entries": _ENTRIES}), ctx.form, m.entries)
            assert out.getvalue() == json.dumps(wrap(matrix), indent=2) + "\n", rows


class Digest:
    """A file-like sink that keeps the sha256 and the size of what it is given."""

    def __init__(self):
        self.hash, self.size = hashlib.sha256(), 0

    def write(self, text):
        data = text.encode()
        self.hash.update(data)
        self.size += len(data)


def test_writer_memory_stays_below_the_document(capsys):
    # the (3011, 301) document is 11.9 MB; the writer holds a row and a text
    # per distinct value.  The digest is json.dumps(doc, indent=2) + "\n" of
    # the dense document, as construct --out wrote it
    code = construct_code(make_field(3011, [0, 1]), 301, CodeFamily("2n-3-plus"))
    sink = Digest()
    tracemalloc.start()
    try:
        _write_code(sink, code, "rref")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 11_914_346
    assert sink.hash.hexdigest() == "4bc8974630696af28db62654bc2b93654eae9672bb1346a98e72ad3a72151884"
    assert peak < sink.size // 20, peak


def test_construct_is_deterministic(capsys):
    argv = ["construct", "--field", "p=13;mod=[0,1]", "--n", "3", "--family", "2n-2"]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_construct_bad_order_diagnostic(capsys):
    rc, _, err = run(
        capsys, "construct", "--field", "p=13;mod=[0,1]", "--n", "3",
        "--family", "2n-2", "--beta", "3",
    )
    assert rc == 2
    assert "error[BadOrder]: ord(beta)=3 <= 2n=6" in err


def test_construct_reducible_field_diagnostic(capsys):
    rc, _, err = run(
        capsys, "construct", "--field", "p=5;mod=[1,0,1]", "--n", "3",
        "--family", "2n-2",
    )
    assert rc == 2
    assert "error[Reducible]" in err


def test_construct_then_analyze(tmp_path, capsys):
    path = tmp_path / "code.json"
    rc, out, _ = run(
        capsys, "construct", "--field", "p=13;mod=[0,1]", "--n", "3",
        "--family", "2n-2", "--out", str(path),
    )
    assert rc == 0
    assert "wrote [6,4] code" in out
    rc, out, _ = run(capsys, "analyze", "--in", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"length": 6, "k": 4, "d": 3, "mds": True}


def test_analyze_paper_style_document(tmp_path, capsys):
    path = tmp_path / "code.json"
    run(
        capsys, "construct", "--field", "p=13;mod=[0,1]", "--n", "3",
        "--family", "2n-3-plus", "--style", "paper", "--out", str(path),
    )
    rc, out, _ = run(capsys, "analyze", "--in", str(path), "--method", "dual")
    doc = json.loads(out)
    assert doc == {"length": 6, "k": 3, "d": 4, "mds": True}


def test_analyze_cap_exceeded(tmp_path, capsys):
    # a [14,3,10] ideal code at n = 7, beta = 1, so no arc.  Its a/b
    # symmetry lets the dual engine key the columns modulo column 0 alone;
    # with columns 0 and 1 swapped it is no ideal, and the generator side
    # keys them modulo 10 of the 14 columns, more than 9 subsets
    ctx = make_field(29, [0, 1])
    spec = IdealSpec((plus_piece(), row(ctx.one(), ctx.one()), zero(), zero()))
    doc = LinearCode(code_from_ideal_spec(ctx, 7, spec)).to_json()
    ideal, swapped = tmp_path / "ideal.json", tmp_path / "swapped.json"
    ideal.write_text(json.dumps(doc))
    for r in doc["generator"]["entries"]:
        r[0], r[1] = r[1], r[0]
    assert not left_ideal_closure_ok(load_code(doc))
    swapped.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "analyze", "--in", str(swapped), "--method", "dual", "--cap", "9")
    assert (rc, out) == (2, "")
    assert err.startswith("error[CapExceeded]: dual engine, generator side")
    for path, cap in ((swapped, ()), (ideal, ("--cap", "9"))):
        rc, out, _ = run(capsys, "analyze", "--in", str(path), "--method", "dual", *cap)
        assert rc == 0
        assert json.loads(out) == {"length": 14, "k": 3, "d": 10, "mds": False}


def test_analyze_refuses_a_negative_cap(tmp_path, capsys):
    # the [14,11,4] code at (43, 7): its dual walk never leaves depths 0 and 1
    path = tmp_path / "code.json"
    run(
        capsys, "construct", "--field", "p=43", "--n", "7",
        "--family", "2n-3-plus", "--out", str(path),
    )
    for method in ("auto", "exhaustive", "dual"):
        rc, out, err = run(capsys, "analyze", "--in", str(path), "--method", method, "--cap", "-1")
        assert (rc, out) == (2, "")
        assert err == "error[InvalidArgument]: cap must be a count >= 0, got -1\n"


def test_file_errors_name_their_stage(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc, out, err = run(capsys, "analyze", "--in", str(missing))
    assert (rc, out) == (2, "")
    assert err.startswith("error[FileAccess]: ") and str(missing) in err
    unwritable = tmp_path / "no-such-dir" / "code.json"
    rc, out, err = run(
        capsys, "construct", "--field", "p=13", "--n", "3",
        "--family", "2n-2", "--out", str(unwritable),
    )
    assert (rc, out) == (2, "")
    assert err.startswith("error[FileAccess]: ") and str(unwritable) in err



def test_analyze_names_a_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("not a code\n")
    rc, out, err = run(capsys, "analyze", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err == (
        f"error[InvalidArgument]: {path} is not JSON: Expecting value: line 1 column 1 (char 0)\n"
    )


MALFORMED_ENTRIES = [
    # (entries of a 1 x 2 generator over GF(13), what the diagnostic names)
    ([[1, 2.5]], "matrix entry [0][1] is 2.5, not an integer, a list of integers or an element's text\n"),
    ([[None, 1]], "matrix entry [0][0] is null,"),
    ([[[2.5], 1]], "matrix entry [0][0] is [2.5],"),
    ([[True, 1]], "matrix entry [0][0] is true,"),
]


@pytest.mark.parametrize(
    "entries, named", MALFORMED_ENTRIES, ids=["float", "null", "float-coefficient", "true"]
)
def test_analyze_refuses_a_malformed_entry(tmp_path, capsys, entries, named):
    # no traceback, and no silent int(): 2.5 and true are not read as 2 and 1
    path = tmp_path / "code.json"
    generator = {"rows": 1, "cols": 2, "field": "p=13;mod=[0,1]", "entries": entries}
    path.write_text(json.dumps({"generator": generator}))
    rc, out, err = run(capsys, "analyze", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error[InvalidArgument]: " + named)


@pytest.mark.parametrize(
    "header, named",
    [({"field": 13}, "matrix field is 13,"),
     ({"rows": 0, "cols": "abc", "entries": []}, 'matrix cols is "abc",'),
     ({"rows": 2}, "matrix JSON shape mismatch")],
    ids=["field-not-a-string", "cols-not-an-integer", "rows-not-the-entries"],
)
def test_analyze_refuses_a_malformed_matrix_header(tmp_path, capsys, header, named):
    # a diagnostic, not a TypeError traceback
    path = tmp_path / "code.json"
    generator = {"rows": 1, "cols": 2, "field": "p=13;mod=[0,1]", "entries": [[1, 2]], **header}
    path.write_text(json.dumps({"generator": generator}))
    rc, out, err = run(capsys, "analyze", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error[InvalidArgument]: " + named)


@pytest.mark.parametrize(
    "beta, named", [("[2.5]", "2.5"), ("[true]", "True"), ('["3"]', "'3'")],
    ids=["float", "true", "string"],
)
def test_construct_refuses_a_beta_coefficient_that_is_not_an_integer(capsys, beta, named):
    # not read as 2, 1 and 3
    rc, out, err = run(
        capsys, "construct", "--field", "p=13", "--n", "3", "--family", "2n-3-plus", "--beta", beta
    )
    assert (rc, out) == (2, "")
    assert err == f"error[InvalidArgument]: coefficient {named} is not an integer\n"


def test_construct_refuses_a_malformed_beta_text(capsys):
    # not read as beta = 3
    rc, out, err = run(
        capsys, "construct", "--field", "p=13", "--n", "3", "--family", "2n-3-plus", "--beta", "3-"
    )
    assert (rc, out, err) == (2, "", "error[InvalidArgument]: cannot parse element '3-'\n")


@pytest.mark.parametrize(
    "beta, why", [("[4,", "Expecting value"), ("[4,3] x", "Extra data")], ids=["open", "trailing"]
)
def test_construct_names_a_beta_list_that_is_not_json(capsys, beta, why):
    # json's own message alone named neither the text nor what it was read as
    rc, out, err = run(
        capsys, "construct", "--field", "p=13", "--n", "3", "--family", "2n-3-plus", "--beta", beta
    )
    assert (rc, out) == (2, "")
    assert err == f"error[InvalidArgument]: {beta!r} is not a field element: {why}\n"


@pytest.mark.parametrize(
    "text, why", [("[4,", "Expecting value"), ("[4,3] x", "Extra data")], ids=["open", "trailing"]
)
def test_analyze_names_a_list_entry_that_is_not_json(tmp_path, capsys, text, why):
    path = tmp_path / "code.json"
    generator = {"rows": 1, "cols": 2, "field": "p=5;mod=[2,0,1]", "entries": [[1, text]]}
    path.write_text(json.dumps({"generator": generator}))
    rc, out, err = run(capsys, "analyze", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err == (
        f"error[InvalidArgument]: matrix entry [0][1] is {json.dumps(text)}, "
        f"{text!r} is not a field element: {why}\n"
    )


def test_analyze_refuses_a_malformed_text_entry(tmp_path, capsys):
    # not read as x
    path = tmp_path / "code.json"
    generator = {"rows": 1, "cols": 2, "field": "p=5;mod=[2,0,1]", "entries": [["x+", 1]]}
    path.write_text(json.dumps({"generator": generator}))
    rc, out, err = run(capsys, "analyze", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err == 'error[InvalidArgument]: matrix entry [0][0] is "x+", cannot parse element \'x+\'\n'


def test_field_check_refuses_a_modulus_coefficient_that_is_not_an_integer(capsys):
    # not read as x^2+2
    rc, out, err = run(capsys, "field-check", "--field", "p=5;mod=[2.5,0,1]")
    assert (rc, out) == (2, "")
    assert err == "error[InvalidArgument]: coefficient 2.5 is not an integer\n"


def test_analyze_refuses_a_document_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text("[[1, 2]]")
    rc, out, err = run(capsys, "analyze", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err == "error[InvalidArgument]: code document must be a JSON object, got list\n"


@pytest.mark.parametrize(
    "doc, named",
    [({}, 'code document has no "generator" key'),
     ({"generator": {"field": "p=13", "rows": 1, "cols": 2}}, 'matrix JSON has no "entries" key'),
     ({"generator": [[1, 2]]}, "matrix JSON must be an object, got list")],
    ids=["no-generator", "no-entries", "generator-not-an-object"],
)
def test_analyze_names_a_missing_key(tmp_path, capsys, doc, named):
    # not the bare KeyError text, 'generator' or 'entries', nor a TypeError
    # on a generator that is not an object
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "analyze", "--in", str(path))
    assert (rc, out, err) == (2, "", f"error[InvalidArgument]: {named}\n")


def test_dual_only_commands_never_import_numpy(tmp_path):
    # a fresh interpreter, since this one may have numpy or dataclasses loaded
    # already; at (43, 7) q^k - 1 exceeds the default cap, so analyze's auto
    # is dual, and example answers with the dual engine
    script = f"""
import sys
import dihedralcodes, dihedralcodes.cli as cli
path = {str(tmp_path / "code.json")!r}
construct = ["construct", "--field", "p=43", "--n", "7", "--family", "2n-2", "--out", path]
assert cli.main(construct) == 0
assert cli.main(["analyze", "--in", path]) == 0
assert cli.main(["sweep", "--field", "p=43", "--n", "7"]) == 0
assert cli.main(["example"]) == 0
assert cli.main(["example", "--format", "json"]) == 0
assert "numpy" not in sys.modules, "dual-only work imported numpy"
assert "dataclasses" not in sys.modules, "a command imported dataclasses"
from dihedralcodes import CodeFamily, construct_code, make_field
code = construct_code(make_field(5, [2, 0, 1]), 3, CodeFamily(tag="2n-3-plus"))
assert code.min_distance("exhaustive") == code.min_distance("dual") == 4
assert "numpy" in sys.modules
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"d": 3,' in proc.stdout  # analyze's [14,12,3]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the probe needs an RLIMIT_AS the kernel enforces, as Linux does")
def test_out_of_memory_is_a_named_refusal():
    # (2^31 - 1, 2^30 - 1) is in the domain, but xi's powers do not fit in
    # 256 MB of address space, set on the child alone: main names the
    # MemoryError, with the command, and exits 2 with no traceback
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "dihedralcodes.cli", "construct", "--field", "p=2147483647",
         "--n", "1073741823", "--family", "2n-3-plus"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error[OutOfMemory]: construct ran out of memory\n"


def test_sweep_text(capsys):
    rc, out, _ = run(capsys, "sweep", "--field", "p=31;mod=[0,1]", "--n", "5")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("2n-")]
    assert len(lines) == 6  # s in {1, 2} x three families
    assert all(" yes " in l for l in lines)


def test_sweep_skips_twists_not_coprime_to_n(capsys):
    # n = 15: s runs over 1..7, and 3, 5 and 6 share a factor with 15
    rc, out, _ = run(capsys, "sweep", "--field", "p=61", "--n", "15")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [(r[0], int(r[1])) for r in rows] == [(f, s) for s in (1, 2, 4, 7) for f in FAMILIES]
    assert all(r[-2:] == ["yes", "ok"] for r in rows)


def test_sweep_prints_each_row_as_it_is_made(capsys, monkeypatch):
    # the header and every earlier row are written before the last code is built
    seen = []
    build = cli.construct_code

    def spy(ctx, n, family):
        seen.append(capsys.readouterr().out)
        return build(ctx, n, family)

    monkeypatch.setattr(cli, "construct_code", spy)
    rc, out, _ = run(capsys, "sweep", "--field", "p=61", "--n", "15")
    assert rc == 0
    lines = "".join(seen + [out]).splitlines(keepends=True)
    assert len(seen) == 12 and len(lines) == 14
    assert ["".join(seen[: i + 1]) for i in range(12)] == ["".join(lines[: i + 2]) for i in range(12)]


def test_sweep_json_boundary_field(capsys):
    # q = 7, n = 3: the ord(beta) > 2n families cannot exist
    rc, out, _ = run(
        capsys, "sweep", "--field", "p=7;mod=[0,1]", "--n", "3", "--format", "json"
    )
    assert rc == 0
    doc = json.loads(out)
    by_family = {r["family"]: r for r in doc["rows"]}
    assert by_family["2n-2"]["status"] == "BadOrder"
    assert by_family["2n-3-minus"]["status"] == "BadOrder"
    assert by_family["2n-3-plus"]["status"] == "ok"
    assert by_family["2n-3-plus"]["mds"] is True


def test_sweep_above_former_table_limit(capsys):
    rc, out, _ = run(capsys, "sweep", "--field", "p=4099;mod=[0,1]", "--n", "3")
    assert rc == 0
    lines = [l.split() for l in out.splitlines() if l.startswith("2n-")]
    assert len(lines) == 3
    assert all(cells[-2:] == ["yes", "ok"] for cells in lines)


@pytest.mark.parametrize(
    "n, code",
    [("2", "EvenN"), ("4", "EvenN"), ("0", "EvenN"),
     ("1", "InvalidArgument"), ("-3", "InvalidArgument")],
)
def test_sweep_refuses_n_like_construct(capsys, n, code):
    # one refusal before any row, with construct's diagnostic, not an empty table
    rc, out, err = run(capsys, "sweep", "--field", "p=13", "--n", n)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error[{code}]")
    rc, _, construct_err = run(
        capsys, "construct", "--field", "p=13", "--n", n, "--family", "2n-2"
    )
    assert rc == 2 and construct_err == err


def test_example_reports_parameters(capsys):
    rc, out, _ = run(capsys, "example")
    assert rc == 0
    assert "x^2+1" in out and "x^2+2" in out  # documents the substitution
    assert "parameters=[6,4,3]" in out
    assert "parameters=[6,3,4]" in out
    assert "mds=yes" in out
    assert "ideal_closure=ok" in out


def test_example_single_variant_json(capsys):
    rc, out, _ = run(capsys, "example", "--variant", "I2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["eta"] == [1, 1]
    assert doc["eta_order"] == 24
    assert len(doc["variants"]) == 1
    v = doc["variants"][0]
    assert (v["length"], v["k"], v["d"], v["mds"]) == (6, 3, 4, True)


def test_example_bytes_match_the_benchmark_digest(capsys):
    # the dual engine answers example; its bytes are those the benchmark recorded
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    rc, out, _ = run(capsys, "example")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == json.loads(digests.read_text())["cli"]["example"]
    ctx = make_field(5, [2, 0, 1])
    exhaustive = {
        name: construct_code(ctx, 3, CodeFamily(tag=family)).min_distance("exhaustive")
        for name, family in (("I1", "2n-2"), ("I2", "2n-3-plus"))
    }
    for variant in ("both", "I1", "I2"):
        rc, out, _ = run(capsys, "example", "--variant", variant, "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert {v["variant"]: v["d"] for v in doc["variants"]} == {
            name: d for name, d in exhaustive.items() if variant in ("both", name)
        }


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
