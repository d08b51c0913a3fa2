"""Command-line surface: validation, constructions, oracle, verification.

Exit codes: 0 success, 1 validation/check failure, 2 usage error.
All reports are deterministic; --json switches to compact JSON output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import BflyError


def _workspace(args) -> Path:
    ws = args.workspace or os.environ.get("BFLY_WORKSPACE") or "."
    return Path(ws)


def _load(args, path: str):
    from . import serialize

    p = Path(path)
    if not p.is_absolute():
        p = _workspace(args) / p
    return serialize.load_document(p)


def _emit_doc(args, obj) -> None:
    from . import serialize

    sys.stdout.write(serialize.dumps(serialize.document(obj)))


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.json:
        sys.stdout.write(
            json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
        )
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _module_morphism(args, beta_path: str, dom_module, cod_module):
    from .actions import cmodule_morphism

    hom = _load(args, beta_path)
    from .groups import GroupHom

    if not isinstance(hom, GroupHom):
        raise BflyError("--beta must point at a hom document")
    return cmodule_morphism(dom_module, cod_module, hom.map)


def _require(obj, cls, what: str):
    if not isinstance(obj, cls):
        raise BflyError(f"{what} must be a {cls.__name__} document")
    return obj


def main(argv: list[str] | None = None) -> int:
    # SUPPRESS keeps subparser defaults from clobbering flags given before
    # the subcommand; real defaults are filled in after parse_args.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="JSON reports")
    common.add_argument("--seed", type=int, help="seed for randomized section tests")
    common.add_argument("--cap", type=int, help="group-order cap")
    common.add_argument("--workspace", help="document directory (default $BFLY_WORKSPACE)")

    parser = argparse.ArgumentParser(
        prog="bfly",
        description="finite-group extensions, butterflies, and cohomology",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a document", parents=[common])
    p.add_argument("doc")

    p = sub.add_parser("h2", help="abelian extension operations")
    h2sub = p.add_subparsers(dest="op", required=True)
    q = h2sub.add_parser("unit", parents=[common]); q.add_argument("--module", required=True)
    q = h2sub.add_parser("baer-sum", parents=[common])
    q.add_argument("--left", required=True); q.add_argument("--right", required=True)
    q = h2sub.add_parser("pushforward", parents=[common])
    q.add_argument("--in", dest="src", required=True)
    q.add_argument("--beta", required=True)
    q.add_argument("--target", required=True)
    q = h2sub.add_parser("pi1", parents=[common]); q.add_argument("--module", required=True)

    p = sub.add_parser("h3", help="crossed extension operations")
    h3sub = p.add_subparsers(dest="op", required=True)
    q = h3sub.add_parser("tensor", parents=[common])
    q.add_argument("--left", required=True); q.add_argument("--right", required=True)
    q = h3sub.add_parser("inverse", parents=[common]); q.add_argument("--in", dest="src", required=True)
    q = h3sub.add_parser("unit", parents=[common]); q.add_argument("--module", required=True)
    q = h3sub.add_parser("pushforward", parents=[common])
    q.add_argument("--in", dest="src", required=True)
    q.add_argument("--beta", required=True)
    q.add_argument("--target", required=True)

    p = sub.add_parser("butterfly", help="butterfly calculus")
    bsub = p.add_subparsers(dest="op", required=True)
    q = bsub.add_parser("compose", parents=[common])
    q.add_argument("--first", required=True); q.add_argument("--second", required=True)
    q = bsub.add_parser("beta", parents=[common]); q.add_argument("--in", dest="src", required=True)
    q = bsub.add_parser("identity", parents=[common]); q.add_argument("--in", dest="src", required=True)
    q = bsub.add_parser("iso", parents=[common])
    q.add_argument("--left", required=True); q.add_argument("--right", required=True)
    q = bsub.add_parser("flip", parents=[common]); q.add_argument("--in", dest="src", required=True)
    q = bsub.add_parser("from-morphism", parents=[common])
    q.add_argument("--dom", required=True); q.add_argument("--cod", required=True)
    q.add_argument("--f2", required=True); q.add_argument("--f1", required=True)
    q = bsub.add_parser("phi", parents=[common]); q.add_argument("--in", dest="src", required=True)
    q = bsub.add_parser("inverse-witness", parents=[common]); q.add_argument("--in", dest="src", required=True)

    p = sub.add_parser("oracle", help="bar-resolution cohomology oracle")
    osub = p.add_subparsers(dest="op", required=True)
    q = osub.add_parser("cohomology", parents=[common])
    q.add_argument("--module", required=True)
    q.add_argument("--degree", type=int, required=True, choices=(1, 2, 3))
    q = osub.add_parser("z1", parents=[common]); q.add_argument("--module", required=True)
    q = osub.add_parser("class", parents=[common]); q.add_argument("--in", dest="src", required=True)
    q = osub.add_parser("bridge", parents=[common])
    q.add_argument("--cocycle", default=None, help="2-cocycle to realize as an extension")
    q.add_argument("--extension", default=None, help="extension to measure as a 2-cocycle")

    p = sub.add_parser("verify", help="run acceptance suites", parents=[common])
    p.add_argument("suite")

    p = sub.add_parser("catalog", help="standard test catalog")
    csub = p.add_subparsers(dest="op", required=True)
    csub.add_parser("generate", parents=[common])

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for dest, default in (("json", False), ("seed", 0), ("cap", None), ("workspace", None)):
        if not hasattr(args, dest):
            setattr(args, dest, default)

    from .groups import get_order_cap, order_cap

    try:
        with order_cap(get_order_cap() if args.cap is None else args.cap):
            return _dispatch(args)
    except (BflyError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "validate":
        obj = _load(args, args.doc)
        _emit(args, [f"valid {type(obj).__name__}"],
              {"valid": True, "type": type(obj).__name__})
        return 0

    if cmd == "h2":
        return _h2(args)
    if cmd == "h3":
        return _h3(args)
    if cmd == "butterfly":
        return _butterfly(args)
    if cmd == "oracle":
        return _oracle(args)
    if cmd == "verify":
        return _verify(args)
    if cmd == "catalog":
        return _catalog(args)
    raise BflyError(f"unknown command {cmd}")


def _h2(args) -> int:
    from .actions import CModule
    from .extensions import (
        AbelianExtension,
        baer_sum,
        pi1_group,
        pushforward_extension,
        unit_extension,
    )

    if args.op == "unit":
        m = _require(_load(args, args.module), CModule, "--module")
        _emit_doc(args, unit_extension(m))
        return 0
    if args.op == "baer-sum":
        e1 = _require(_load(args, args.left), AbelianExtension, "--left")
        e2 = _require(_load(args, args.right), AbelianExtension, "--right")
        _emit_doc(args, baer_sum(e1, e2))
        return 0
    if args.op == "pushforward":
        e = _require(_load(args, args.src), AbelianExtension, "--in")
        tgt = _require(_load(args, args.target), CModule, "--target")
        beta = _module_morphism(args, args.beta, e.module, tgt)
        _emit_doc(args, pushforward_extension(e, beta).target)
        return 0
    if args.op == "pi1":
        m = _require(_load(args, args.module), CModule, "--module")
        group, autos = pi1_group(m)
        _emit(args, [f"pi1 order {group.order}"],
              {"order": group.order, "table": group.table.tolist()})
        return 0
    raise BflyError(f"unknown h2 op {args.op}")


def _h3(args) -> int:
    from .actions import CModule
    from .butterflies import (
        CrossedExtension,
        inverse_xext,
        pushforward_xext,
        tensor_xext,
        unit_xext,
    )

    if args.op == "unit":
        m = _require(_load(args, args.module), CModule, "--module")
        _emit_doc(args, unit_xext(m))
        return 0
    if args.op == "tensor":
        e1 = _require(_load(args, args.left), CrossedExtension, "--left")
        e2 = _require(_load(args, args.right), CrossedExtension, "--right")
        _emit_doc(args, tensor_xext(e1, e2))
        return 0
    if args.op == "inverse":
        e = _require(_load(args, args.src), CrossedExtension, "--in")
        _emit_doc(args, inverse_xext(e))
        return 0
    if args.op == "pushforward":
        e = _require(_load(args, args.src), CrossedExtension, "--in")
        tgt = _require(_load(args, args.target), CModule, "--target")
        beta = _module_morphism(args, args.beta, e.module, tgt)
        result, _ = pushforward_xext(e, beta)
        _emit_doc(args, result)
        return 0
    raise BflyError(f"unknown h3 op {args.op}")


def _butterfly(args) -> int:
    from .butterflies import (
        Butterfly,
        CrossedExtension,
        build_xext_morphism,
        butterfly_beta,
        compose_butterflies,
        find_butterfly_iso,
        flip,
        identity_butterfly,
        inverse_witness,
        morphism_to_butterfly,
        phi,
    )
    from .extensions import AbelianExtension

    if args.op == "compose":
        first = _require(_load(args, args.first), Butterfly, "--first")
        second = _require(_load(args, args.second), Butterfly, "--second")
        _emit_doc(args, compose_butterflies(second, first))
        return 0
    if args.op == "beta":
        b = _require(_load(args, args.src), Butterfly, "--in")
        beta = butterfly_beta(b)
        _emit(args,
              [f"beta map {beta.hom.map.tolist()}"
               + (" (identity)" if beta.is_identity() else "")],
              {"map": beta.hom.map.tolist(),
               "identity": bool(beta.is_identity())})
        return 0
    if args.op == "identity":
        e = _require(_load(args, args.src), CrossedExtension, "--in")
        _emit_doc(args, identity_butterfly(e))
        return 0
    if args.op == "iso":
        b1 = _require(_load(args, args.left), Butterfly, "--left")
        b2 = _require(_load(args, args.right), Butterfly, "--right")
        iso = find_butterfly_iso(b1, b2)
        if iso is None:
            _emit(args, ["no isomorphism"], {"isomorphic": False})
            return 1
        _emit(args, [f"sigma {iso.sigma.map.tolist()}"],
              {"isomorphic": True, "sigma": iso.sigma.map.tolist()})
        return 0
    if args.op == "flip":
        b = _require(_load(args, args.src), Butterfly, "--in")
        _emit_doc(args, flip(b))
        return 0
    if args.op == "from-morphism":
        dom = _require(_load(args, args.dom), CrossedExtension, "--dom")
        cod = _require(_load(args, args.cod), CrossedExtension, "--cod")
        from .actions import cmodule_morphism
        from .groups import GroupHom, compose

        f2 = _require(_load(args, args.f2), GroupHom, "--f2")
        f1 = _require(_load(args, args.f1), GroupHom, "--f1")
        in_bp = {cod.j(b): b for b in cod.b.elements()}
        beta_map = [in_bp[f2(dom.j(b))] for b in dom.b.elements()]
        beta = cmodule_morphism(dom.module, cod.module, beta_map)
        m = build_xext_morphism(dom, cod, beta, f2, f1)
        _emit_doc(args, morphism_to_butterfly(m))
        return 0
    if args.op == "phi":
        e = _require(_load(args, args.src), AbelianExtension, "--in")
        _emit_doc(args, phi(e))
        return 0
    if args.op == "inverse-witness":
        e = _require(_load(args, args.src), CrossedExtension, "--in")
        _emit_doc(args, inverse_witness(e))
        return 0
    raise BflyError(f"unknown butterfly op {args.op}")


def _oracle(args) -> int:
    from .actions import CModule
    from .cohomology import cohomology, z1

    if args.op == "cohomology":
        m = _require(_load(args, args.module), CModule, "--module")
        h = cohomology(m, args.degree)
        _emit(args,
              [f"H^{args.degree} order {h.order} factors {list(h.factors)}"],
              {"degree": args.degree, "order": h.order,
               "factors": list(h.factors)})
        return 0
    if args.op == "z1":
        m = _require(_load(args, args.module), CModule, "--module")
        r = z1(m)
        _emit(args, [f"Z1 order {r.group.order}"],
              {"order": r.group.order})
        return 0
    if args.op == "class":
        from .bridges import class_of_crossed_extension
        from .butterflies import CrossedExtension

        e = _require(_load(args, args.src), CrossedExtension, "--in")
        rng = np.random.default_rng(args.seed) if args.seed else None
        cls = class_of_crossed_extension(e, rng)
        _emit(args,
              [f"class {list(cls.coords)} in H^3 of order {cls.group.order}"
               + (" (zero)" if cls.is_zero() else "")],
              {"coords": list(cls.coords), "order": cls.group.order,
               "zero": bool(cls.is_zero())})
        return 0
    if args.op == "bridge":
        from .bridges import cocycle_of_extension, extension_from_2cocycle
        from .cohomology import Cochain
        from .extensions import AbelianExtension

        if (args.cocycle is None) == (args.extension is None):
            raise BflyError("bridge needs exactly one of --cocycle / --extension")
        if args.cocycle is not None:
            f = _require(_load(args, args.cocycle), Cochain, "--cocycle")
            _emit_doc(args, extension_from_2cocycle(f))
        else:
            e = _require(_load(args, args.extension), AbelianExtension, "--extension")
            _emit_doc(args, cocycle_of_extension(e))
        return 0
    raise BflyError(f"unknown oracle op {args.op}")


def _verify(args) -> int:
    from .verify import SUITES, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        raise BflyError(
            f"unknown suite {args.suite!r}; choose from "
            f"{', '.join(list(SUITES) + ['all'])}"
        )
    results = run_suite(args.suite, seed=args.seed)
    results = sorted(results, key=lambda r: r.name)
    ok = all(r.passed for r in results)
    if args.json:
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "passed": ok,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        sys.stdout.write(
            json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
        )
    else:
        for r in results:
            sys.stdout.write(
                f"{'PASS' if r.passed else 'FAIL'} {r.name} -- {r.detail}\n"
            )
        sys.stdout.write(
            f"{'PASS' if ok else 'FAIL'} {args.suite}: "
            f"{sum(r.passed for r in results)}/{len(results)} checks\n"
        )
    return 0 if ok else 1


def _catalog(args) -> int:
    from . import serialize
    from .catalog import (
        h2_catalog,
        h3_catalog,
        standard_groups,
        standard_modules,
    )

    ws = _workspace(args)
    ws.mkdir(parents=True, exist_ok=True)
    written = []
    for name, g in standard_groups().items():
        path = ws / f"{name.lower()}.group.json"
        serialize.save_document(path, g)
        written.append(path.name)
    mods = standard_modules()
    for name, m in mods:
        path = ws / f"{name.lower()}.cmodule.json"
        serialize.save_document(path, m)
        written.append(path.name)
        for i, ext in enumerate(h2_catalog(m)):
            path = ws / f"{name.lower()}-e{i}.extension.json"
            serialize.save_document(path, ext)
            written.append(path.name)
        for ename, xe in h3_catalog(m, mods):
            path = ws / f"{name.lower()}-{ename}.xext.json"
            serialize.save_document(path, xe)
            written.append(path.name)
    serialize.write_manifest(ws)
    written.append("manifest.json")
    _emit(args, [f"wrote {len(written)} documents to {ws}"],
          {"written": sorted(written), "workspace": str(ws)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
