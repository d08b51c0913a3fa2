"""JSON interchange: roundtrips, schema errors, manifests, byte stability."""

import json

import pytest

from bfly.actions import build_action, build_cmodule
from bfly.bridges import extension_from_2cocycle
from bfly.butterflies import identity_butterfly, unit_xext
from bfly.catalog import nontrivial_class_xext
from bfly.cohomology import build_cochain
from bfly.errors import SchemaError
from bfly.serialize import (
    check_manifest,
    document,
    dumps,
    load_document,
    loads,
    save_document,
    write_manifest,
)


def samples(z2_z2_triv, z2_z3_inv):
    e = nontrivial_class_xext()
    return [
        z2_z3_inv.base,
        z2_z3_inv.action,
        z2_z3_inv,
        e.xm,
        extension_from_2cocycle(build_cochain(z2_z2_triv, 2, [[0, 0], [0, 1]])),
        e,
        identity_butterfly(unit_xext(z2_z2_triv)),
        build_cochain(z2_z2_triv, 2, [[0, 0], [0, 1]]),
    ]


def test_document_roundtrips(z2_z2_triv, z2_z3_inv):
    for obj in samples(z2_z2_triv, z2_z3_inv):
        text = dumps(document(obj))
        back = loads(text)
        assert back == obj
        assert dumps(document(back)) == text


def test_cochain_document_bytes(z3_z3_triv):
    # nonzero values keyed in row-major order of their tuples
    f = build_cochain(z3_z3_triv, 2, [[0, 0, 0], [0, 1, 2], [0, 0, 1]])
    doc = dumps(document(f))
    assert doc.endswith('"values":{"1,1":1,"1,2":2,"2,2":1}}\n')
    assert loads(doc) == f


def test_dumps_is_byte_stable(z2_z2_triv):
    doc = document(z2_z2_triv)
    assert dumps(doc) == dumps(json.loads(dumps(doc)))
    assert dumps(doc).endswith("\n")
    assert " " not in dumps(doc).split('"table"')[0]  # compact separators


def test_kind_is_first_key(z2_z2_triv):
    text = dumps(document(z2_z2_triv))
    assert text.startswith('{"kind":')


def test_schema_errors_carry_pointers():
    with pytest.raises(SchemaError) as exc:
        loads('{"kind":"group"}')
    assert "order" in str(exc.value)
    with pytest.raises(SchemaError):
        loads('{"kind":"wat"}')
    with pytest.raises(SchemaError):
        loads('{"no":"kind"}')
    with pytest.raises(SchemaError):
        loads('[1,2,3]')


def test_invalid_table_is_reported_with_module_error():
    from bfly.errors import BflyError

    with pytest.raises(BflyError):
        loads('{"kind":"group","table":[[0,1],[1,1]]}')


def test_save_load_and_manifest(tmp_path, z2_z2_triv, z2_z3_inv):
    for i, obj in enumerate(samples(z2_z2_triv, z2_z3_inv)):
        save_document(tmp_path / f"doc{i}.json", obj)
    path = write_manifest(tmp_path)
    assert path.name == "manifest.json"
    assert check_manifest(tmp_path) == []
    # tampering is detected
    victim = tmp_path / "doc0.json"
    victim.write_text(victim.read_text().replace('"order":2', '"order":3'))
    problems = check_manifest(tmp_path)
    assert problems and "doc0.json" in problems[0]
