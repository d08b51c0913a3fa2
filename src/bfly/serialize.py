"""Byte-stable JSON interchange for every document kind.

Every document is a JSON object whose first key is "kind"; serialization
uses a fixed key order and compact separators so identical values always
produce identical bytes.  Deserialization routes through the module
constructors, so a loaded document is always a validated object.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .actions import (
    CModule,
    GroupAction,
    build_action,
    build_cmodule,
)
from .butterflies import (
    Butterfly,
    CrossedExtension,
    build_butterfly,
    build_crossed_extension,
)
from .cohomology import Cochain, build_cochain
from .crossed import CrossedModule, build_crossed_module
from .errors import BflyError, SchemaError
from .extensions import AbelianExtension, build_extension
from .groups import FiniteGroup, GroupHom, build_group, build_hom

KINDS = (
    "group",
    "hom",
    "action",
    "cmodule",
    "xmod",
    "extension",
    "xext",
    "butterfly",
    "cochain",
)


# --- to JSON values -------------------------------------------------------


def group_doc(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": g.table.tolist()}


def hom_doc(f: GroupHom) -> dict:
    return {
        "dom": group_doc(f.dom),
        "cod": group_doc(f.cod),
        "map": f.map.tolist(),
    }


def action_doc(a: GroupAction) -> dict:
    return {
        "actor": group_doc(a.actor),
        "object": group_doc(a.object),
        "act": a.act.tolist(),
    }


def cmodule_doc(m: CModule) -> dict:
    return {
        "base": group_doc(m.base),
        "coeff": group_doc(m.coeff),
        "act": m.action.act.tolist(),
    }


def xmod_doc(x: CrossedModule) -> dict:
    return {"boundary": hom_doc(x.boundary), "action": action_doc(x.action)}


def extension_doc(e: AbelianExtension) -> dict:
    return {
        "kernel": hom_doc(e.kernel_arrow),
        "quotient": hom_doc(e.quotient_arrow),
    }


def xext_doc(e: CrossedExtension) -> dict:
    return {
        "j": hom_doc(e.j),
        "boundary": hom_doc(e.xm.boundary),
        "action": action_doc(e.xm.action),
        "p": hom_doc(e.p),
    }


def butterfly_doc(b: Butterfly) -> dict:
    return {
        "dom": xext_doc(b.dom),
        "cod": xext_doc(b.cod),
        "F": group_doc(b.f_group),
        "kappa": hom_doc(b.kappa),
        "iota": hom_doc(b.iota),
        "delta": hom_doc(b.delta),
        "gamma": hom_doc(b.gamma),
    }


def cochain_doc(f: Cochain) -> dict:
    values = {
        ",".join(str(i) for i in t): int(f.values[tuple(t)])
        for t in np.argwhere(f.values)
    }
    return {
        "degree": f.degree,
        "module": cmodule_doc(f.module),
        "values": values,
    }


_TO_DOC = {
    FiniteGroup: ("group", group_doc),
    GroupHom: ("hom", hom_doc),
    GroupAction: ("action", action_doc),
    CModule: ("cmodule", cmodule_doc),
    CrossedModule: ("xmod", xmod_doc),
    AbelianExtension: ("extension", extension_doc),
    CrossedExtension: ("xext", xext_doc),
    Butterfly: ("butterfly", butterfly_doc),
    Cochain: ("cochain", cochain_doc),
}


def document(obj) -> dict:
    """Wrap a library value as a kinded JSON document."""
    for cls, (kind, enc) in _TO_DOC.items():
        if isinstance(obj, cls):
            return {"kind": kind, **enc(obj)}
    raise SchemaError("/", f"cannot serialize values of type {type(obj).__name__}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


# --- from JSON values -----------------------------------------------------


def _expect(doc, key: str, ptr: str, typ=None):
    if not isinstance(doc, dict):
        raise SchemaError(ptr, "expected an object")
    if key not in doc:
        raise SchemaError(f"{ptr}/{key}", "missing key")
    val = doc[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"{ptr}/{key}", f"expected {typ.__name__}")
    return val


def _int(doc, key: str, ptr: str) -> int:
    val = _expect(doc, key, ptr)
    if type(val) is not int:        # bool is an int subclass; reject it too
        raise SchemaError(f"{ptr}/{key}", "expected an integer")
    return val


def _int_array(val, ptr: str, ndim: int) -> np.ndarray:
    """A list (ndim 1) or a list of rows (ndim 2) of plain integers, not coerced."""
    what = "an integer matrix" if ndim == 2 else "a flat integer list"
    rows = val if ndim == 2 and type(val) is list else [val]
    if not all(type(r) is list and set(map(type, r)) <= {int} for r in rows):
        raise SchemaError(ptr, f"expected {what}")
    try:
        arr = np.asarray(val, dtype=np.int64)
    except OverflowError as exc:
        raise SchemaError(ptr, "integer outside the int64 range") from exc
    except ValueError as exc:
        raise SchemaError(ptr, f"expected {what}") from exc
    if arr.ndim != ndim:
        raise SchemaError(ptr, f"expected {what}")
    return arr


def parse_group(doc, ptr: str = "") -> FiniteGroup:
    order = _int(doc, "order", ptr)
    table = _int_array(_expect(doc, "table", ptr), f"{ptr}/table", 2)
    if table.shape != (order, order):
        raise SchemaError(f"{ptr}/table", "shape does not match order")
    return build_group(table)


def parse_hom(doc, ptr: str = "") -> GroupHom:
    dom = parse_group(_expect(doc, "dom", ptr), f"{ptr}/dom")
    cod = parse_group(_expect(doc, "cod", ptr), f"{ptr}/cod")
    mapping = _int_array(_expect(doc, "map", ptr), f"{ptr}/map", 1)
    return build_hom(dom, cod, mapping)


def parse_action(doc, ptr: str = "") -> GroupAction:
    actor = parse_group(_expect(doc, "actor", ptr), f"{ptr}/actor")
    obj = parse_group(_expect(doc, "object", ptr), f"{ptr}/object")
    act = _int_array(_expect(doc, "act", ptr), f"{ptr}/act", 2)
    return build_action(actor, obj, act)


def parse_cmodule(doc, ptr: str = "") -> CModule:
    base = parse_group(_expect(doc, "base", ptr), f"{ptr}/base")
    coeff = parse_group(_expect(doc, "coeff", ptr), f"{ptr}/coeff")
    act = _int_array(_expect(doc, "act", ptr), f"{ptr}/act", 2)
    return build_cmodule(base, coeff, act)


def parse_xmod(doc, ptr: str = "") -> CrossedModule:
    boundary = parse_hom(_expect(doc, "boundary", ptr), f"{ptr}/boundary")
    action = parse_action(_expect(doc, "action", ptr), f"{ptr}/action")
    return build_crossed_module(boundary, action)


def parse_extension(doc, ptr: str = "") -> AbelianExtension:
    kernel = parse_hom(_expect(doc, "kernel", ptr), f"{ptr}/kernel")
    quotient = parse_hom(_expect(doc, "quotient", ptr), f"{ptr}/quotient")
    return build_extension(kernel, quotient)


def parse_xext(doc, ptr: str = "") -> CrossedExtension:
    j = parse_hom(_expect(doc, "j", ptr), f"{ptr}/j")
    boundary = parse_hom(_expect(doc, "boundary", ptr), f"{ptr}/boundary")
    action = parse_action(_expect(doc, "action", ptr), f"{ptr}/action")
    p = parse_hom(_expect(doc, "p", ptr), f"{ptr}/p")
    xm = build_crossed_module(boundary, action)
    return build_crossed_extension(j, xm, p)


def parse_butterfly(doc, ptr: str = "") -> Butterfly:
    dom = parse_xext(_expect(doc, "dom", ptr), f"{ptr}/dom")
    cod = parse_xext(_expect(doc, "cod", ptr), f"{ptr}/cod")
    f_group = parse_group(_expect(doc, "F", ptr), f"{ptr}/F")
    kappa = parse_hom(_expect(doc, "kappa", ptr), f"{ptr}/kappa")
    iota = parse_hom(_expect(doc, "iota", ptr), f"{ptr}/iota")
    delta = parse_hom(_expect(doc, "delta", ptr), f"{ptr}/delta")
    gamma = parse_hom(_expect(doc, "gamma", ptr), f"{ptr}/gamma")
    return build_butterfly(dom, cod, f_group, kappa, iota, delta, gamma)


def parse_cochain(doc, ptr: str = "") -> Cochain:
    degree = _int(doc, "degree", ptr)
    if degree not in (1, 2, 3):
        raise SchemaError(f"{ptr}/degree", "expected an integer in 1..3")
    module = parse_cmodule(_expect(doc, "module", ptr), f"{ptr}/module")
    values = _expect(doc, "values", ptr, dict)
    nc = module.base.order
    arr = np.zeros((nc,) * degree, dtype=object)
    for key, v in values.items():
        try:
            t = tuple(int(s) for s in key.split(","))
        except ValueError as exc:
            raise SchemaError(f"{ptr}/values/{key}", "bad tuple key") from exc
        if len(t) != degree or any(not 0 <= i < nc for i in t):
            raise SchemaError(f"{ptr}/values/{key}", "tuple out of range")
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError(f"{ptr}/values/{key}", "expected an integer")
        arr[t] = v
    return build_cochain(module, degree, arr)


_PARSERS = {
    "group": parse_group,
    "hom": parse_hom,
    "action": parse_action,
    "cmodule": parse_cmodule,
    "xmod": parse_xmod,
    "extension": parse_extension,
    "xext": parse_xext,
    "butterfly": parse_butterfly,
    "cochain": parse_cochain,
}


def parse_document(doc, ptr: str = ""):
    kind = _expect(doc, "kind", ptr, str)
    if kind not in _PARSERS:
        raise SchemaError(f"{ptr}/kind", f"unknown kind {kind!r}")
    return _PARSERS[kind](doc, ptr)


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    return parse_document(doc)


def load_document(path: str | Path):
    return loads(Path(path).read_text())


def save_document(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(document(obj)))


# --- workspace manifests --------------------------------------------------


def sha256_file(path: Path) -> str:
    import hashlib     # only manifests need it; most commands never do

    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(workspace: str | Path) -> Path:
    ws = Path(workspace)
    entries = {}
    for p in sorted(ws.glob("*.json")):
        if p.name == "manifest.json":
            continue
        entries[p.name] = sha256_file(p)
    manifest = ws / "manifest.json"
    manifest.write_text(
        json.dumps({"documents": entries}, separators=(",", ":"), sort_keys=True)
        + "\n"
    )
    return manifest


def check_manifest(workspace: str | Path) -> list[str]:
    """Names of documents whose hash disagrees with the manifest."""
    ws = Path(workspace)
    manifest = ws / "manifest.json"
    if not manifest.exists():
        raise SchemaError("/manifest.json", "missing manifest")
    entries = json.loads(manifest.read_text())["documents"]
    bad = []
    for name, digest in sorted(entries.items()):
        p = ws / name
        if not p.exists() or sha256_file(p) != digest:
            bad.append(name)
    return bad
