"""Command-line interface: exit codes, flags, workspace, stable output."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfly.cli import main
from bfly.serialize import loads


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws")
    assert main(["catalog", "generate", "--workspace", str(ws)]) == 0
    return ws


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_generate_writes_manifest(workspace):
    assert (workspace / "manifest.json").exists()
    docs = sorted(p.name for p in workspace.glob("*.cmodule.json"))
    assert "z2-z2-a0.cmodule.json" in docs
    assert len(docs) == 22


def test_catalog_manifest_is_byte_stable(tmp_path):
    """The catalog's documents are pinned by the sha256 of their manifest."""
    assert main(["catalog", "generate", "--workspace", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
    assert digest == "ae411bdf57682a2096eef1d78591333061c8812f311edc488d94bea6fee77bb3"


def test_validate_good_document(capsys, workspace):
    code, out, _ = run(capsys, "validate", "z2-z2-a0.cmodule.json",
                       "--workspace", str(workspace))
    assert code == 0
    assert "valid" in out


def test_validate_broken_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind":"group","order":2,"table":[[0,1],[1,1]]}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "inverse" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 1
    assert err


def test_directory_path_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path))
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err


def _cochain_file(workspace, tmp_path, degree, values):
    module = json.loads((workspace / "z2-z2-a0.cmodule.json").read_text())
    del module["kind"]
    path = tmp_path / "f.cochain.json"
    path.write_text(json.dumps({"kind": "cochain", "degree": degree,
                                "module": module, "values": values}))
    return str(path)


def test_valid_cochain_document(capsys, workspace, tmp_path):
    doc = _cochain_file(workspace, tmp_path, 2, {"1,1": 1})
    assert run(capsys, "validate", doc)[0] == 0
    code, out, _ = run(capsys, "oracle", "bridge", "--cocycle", doc)
    assert code == 0 and loads(out).middle.order == 4


@pytest.mark.parametrize("degree, values", [
    (2, {"1,1": 7}),        # not an element of Z2
    (2, {"1,1": -1}),       # would index Z2 from the end
    (2, {"1,1": True}),
    (2, {"1,1": 2 ** 70}),
    (0, {}),
    (True, {}),
    (4, {}),
], ids=["value-7", "value-minus-1", "value-true", "value-2^70", "degree-0", "degree-true", "degree-4"])
def test_malformed_cochain_exits_1(capsys, workspace, tmp_path, degree, values):
    doc = _cochain_file(workspace, tmp_path, degree, values)
    for argv in (["validate", doc], ["oracle", "bridge", "--cocycle", doc]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out, argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_global_flags_accepted_in_both_positions(capsys, workspace):
    args = ["oracle", "cohomology", "--module", "z2-z2-a0.cmodule.json",
            "--degree", "2"]
    pre = run(capsys, "--json", "--workspace", str(workspace), *args)
    post = run(capsys, *args, "--json", "--workspace", str(workspace))
    assert pre == post == (0, '{"degree":2,"factors":[2],"order":2}\n', "")


def test_workspace_env_var(capsys, workspace, monkeypatch):
    monkeypatch.setenv("BFLY_WORKSPACE", str(workspace))
    code, out, _ = run(capsys, "oracle", "z1", "--module",
                       "z2-z3-a1.cmodule.json", "--json")
    assert code == 0
    assert json.loads(out)["order"] == 3


def test_h2_unit_emits_parseable_extension(capsys, workspace):
    code, out, _ = run(capsys, "h2", "unit", "--module", "z2-z2-a0.cmodule.json",
                       "--workspace", str(workspace), "--json")
    assert code == 0
    ext = loads(out)
    assert ext.middle.order == 4


def test_oracle_class_of_catalog_xext(capsys, workspace):
    name = next(p.name for p in workspace.glob("*.xext.json") if "splice" in p.name)
    code, out, _ = run(capsys, "oracle", "class", "--in", name,
                       "--workspace", str(workspace), "--json")
    assert code == 0
    assert "coords" in json.loads(out)


def test_butterfly_identity_and_beta(capsys, workspace, tmp_path):
    name = sorted(p.name for p in workspace.glob("*.xext.json"))[0]
    code, out, _ = run(capsys, "butterfly", "identity", "--in", name,
                       "--workspace", str(workspace), "--json")
    assert code == 0
    loads(out)  # a valid butterfly document
    bf_path = tmp_path / "ident.butterfly.json"
    bf_path.write_text(out)
    code, out, _ = run(capsys, "butterfly", "beta", "--in", str(bf_path))
    assert code == 0
    assert "beta" in out or "identity" in out


def test_verify_suite_json_is_byte_stable(capsys):
    one = run(capsys, "verify", "h2-pi1", "--json")
    two = run(capsys, "verify", "h2-pi1", "--json")
    assert one == two
    assert one[0] == 0
    report = json.loads(one[1])
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_text_has_pass_lines(capsys):
    code, out, _ = run(capsys, "verify", "h2-pi1")
    assert code == 0
    assert out.count("PASS") >= 22


def test_unknown_suite_exits_1(capsys):
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 1


def test_cap_is_scoped_to_one_call(capsys, tmp_path):
    from bfly.groups import get_order_cap

    z4 = tmp_path / "z4.group.json"
    z4.write_text(json.dumps({"kind": "group", "order": 4,
                              "table": [[(a + b) % 4 for b in range(4)] for a in range(4)]}))
    before = get_order_cap()
    code, _, err = run(capsys, "validate", str(z4), "--cap", "3")
    assert code == 1 and "exceeds cap 3" in err
    assert get_order_cap() == before
    code, out, _ = run(capsys, "validate", str(z4))
    assert code == 0 and "valid" in out


def test_broken_law_fails_under_optimize():
    """Law checks are not asserts: python -O must still report a failure."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "from bfly import verify\n"
        "assert False, 'asserts are on'\n"   # stripped by -O, so the run goes on
        "verify.fibre_morphisms = lambda e1, e2: []\n"   # |Aut| reads 0
        "results = verify.run_suite('h2-pi1')\n"
        "print(sys.flags.optimize, sum(not r.passed for r in results), len(results))\n"
        "print(results[0].detail)\n"
    )
    src = str(Path(main.__code__.co_filename).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, detail = proc.stdout.splitlines()
    optimize, failed, total = map(int, first.split())
    assert optimize == 1 and failed == total == 22
    assert detail.startswith("|Aut| 0 != |Z1| ")


Z2_DOC = {"order": 2, "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("doc", [
    {"kind": "group", "order": 1, "table": [[2 ** 70]]},
    {"kind": "group", "order": 2, "table": [[0, 1], [1, 0.5]]},
    {"kind": "group", "order": True, "table": [[0]]},
    {"kind": "group", "order": 2, "table": [[0, 1], [1, False]]},
    {"kind": "hom", "dom": Z2_DOC, "cod": Z2_DOC, "map": [0, True]},
    {"kind": "hom", "dom": Z2_DOC, "cod": Z2_DOC, "map": [0, 1.0]},
    {"kind": "action", "actor": Z2_DOC, "object": Z2_DOC, "act": [[0, 1], [0, True]]},
], ids=["entry-2^70", "entry-0.5", "order-true", "entry-false", "map-true",
        "map-1.0", "act-true"])
def test_non_integer_tables_exit_1(capsys, tmp_path, doc):
    """Only plain integers are accepted: no bool, float or out-of-range value."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def fuzz_docs(workspace):
    """Every catalog document, one butterfly and one cochain, as JSON values."""
    from bfly.butterflies import identity_butterfly
    from bfly.serialize import document, load_document

    docs = {p.name: json.loads(p.read_text()) for p in sorted(workspace.glob("*.*.json"))}
    module = dict(docs["z2-z2-a0.cmodule.json"])
    del module["kind"]
    docs["f.cochain.json"] = {"kind": "cochain", "degree": 2, "module": module,
                              "values": {"1,1": 1}}
    xext = load_document(workspace / "z2-z2-a0-spliced-nontrivial.xext.json")
    docs["id.butterfly.json"] = document(identity_butterfly(xext))
    return docs


def _paths(value, prefix=()):
    """The path of every value inside a JSON document, depth first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


MUTATIONS = {"float": 0.5, "integral-float": 1.0, "true": True, "false": False,
             "minus-1": -1, "2^70": 2 ** 70, "string": "0", "drop": None}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_0_or_1(fuzz_docs, tmp_path_factory, data):
    """A catalog document with one value replaced or dropped never gives a traceback."""
    import copy
    import io
    from contextlib import redirect_stderr, redirect_stdout

    name = data.draw(st.sampled_from(sorted(fuzz_docs)))
    doc = copy.deepcopy(fuzz_docs[name])
    paths = list(_paths(doc))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    mutation = data.draw(st.sampled_from(sorted(MUTATIONS)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = MUTATIONS[mutation]
    target = tmp_path_factory.mktemp("fuzz") / name
    target.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(target)])
    assert code in (0, 1), (name, path, mutation)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert out.getvalue().startswith("valid ")
