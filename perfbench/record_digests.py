"""Record the reference bytes that the benchmark's answers are checked against.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: the sha256 of the JSON document of every
code the families workload can build, and of the stdout (and written code
file) of every CLI command the cli workload can run, except the ones the
library refuses.  Record only from a library commit whose output is known
to be right; the committed file comes from the unoptimised seed library
(commit e86c049).
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from dihedralcodes import codes, gf  # noqa: E402


def families_digests() -> dict[str, str]:
    out = {}
    for field, n, every in wl.FAMILY_GRID:
        ctx = gf.parse_field_spec(field)
        for family in codes.FAMILIES:
            for s in wl.family_twists(n, every):
                code = codes.construct_code(ctx, n, codes.CodeFamily(tag=family, s=s))
                out[wl.family_label(field, n, family, s)] = wl.sha256(wl.code_json_bytes(code))
    return out


def cli_digests() -> dict[str, str]:
    out = {}
    out_dir = HERE.parent / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=out_dir) as tmp:
        runner = wl.Cli(0, Path(tmp))
        for family in codes.FAMILIES:
            for s in wl.TWISTS_43_7:
                for op in wl.cli_ops(family, s):
                    if op.known_defect or op.label in out:
                        continue
                    result = runner.run(op)
                    out[op.label] = wl.sha256(result.stdout)
                    if result.out_file is not None:
                        out[op.label + "|file"] = wl.sha256(result.out_file)
    return out


def main() -> None:
    doc = {"families": families_digests(), "cli": cli_digests()}
    wl.DIGESTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['families'])} families and {len(doc['cli'])} cli digests "
          f"to {wl.DIGESTS_PATH.name}")


if __name__ == "__main__":
    main()
