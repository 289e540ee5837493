"""Readable JSON files for every object the command line moves around.

Scalars travel as exact-rational strings ("p/q", with "/q" omitted for
integers) so no float ever touches algebraic data, and all indices are
0-based.  Emission is canonical — sorted keys, two-space indent, one
trailing newline — so equal objects always produce identical bytes.
Parsing is strict: wrong keys, wrong shapes, floats, or malformed
rational strings raise InputError rather than being coerced.  An extension
file's total space is re-validated block by block in the block layout of
`core`, against the base, kernel and quotient it carries.  Every file is
read by `_read_bytes` and decoded by `_decode_json`, the command line's
files and a module's algebra named by path alike, so an unreadable or
malformed file gets one message wherever it is named.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence

# The heavier layers by module: each executes on its first use (see
# the package docstring), so a verb runs only the layers it calls.
from . import complexes, deform, extensions, graded
from .core import KVAlgebra, KVModule, Tensor3, _block, _blocks, _entries
from .errors import InputError
from .linalg import Mat, Vec

__all__ = [
    "format_rat",
    "parse_rat",
    "tensor3_to_obj",
    "tensor3_from_obj",
    "matrix_to_obj",
    "matrix_from_obj",
    "vector_to_obj",
    "algebra_to_obj",
    "algebra_from_obj",
    "module_to_obj",
    "module_from_obj",
    "cochain_to_obj",
    "cochain_from_obj",
    "jet_to_obj",
    "jet_from_obj",
    "graded_to_obj",
    "graded_from_obj",
    "extension_to_obj",
    "extension_from_obj",
    "canonical_json",
    "read_json",
    "write_text",
    "load_algebra",
]

# "p/q" or "p": a signed numerator without leading zeros and an optional
# positive denominator, captured for one parse
_RAT = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?\Z")


def format_rat(x: Fraction) -> str:
    """Canonical "p/q" form; the denominator is omitted when it is 1."""
    return str(x)


def parse_rat(x: Any) -> Fraction:
    """An exact rational from a JSON scalar.

    Accepts integers and strings matching the "p/q" grammar (q positive).
    Everything else — floats above all — is rejected.
    """
    if isinstance(x, bool):
        raise InputError(f"expected a rational, got the boolean {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        match = _RAT.match(x)
        if match is None:
            raise InputError(f"malformed rational string {x!r}; expected \"p/q\"")
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except ValueError:  # the grammar holds, so only the digit limit is left
            raise InputError(
                f"rational string of {len(x)} characters exceeds the integer digit limit"
            ) from None
    raise InputError(f"expected a rational string, got {type(x).__name__}")


def _rat_row(obj: Any, length: int, what: str) -> list[Fraction]:
    if not isinstance(obj, list) or len(obj) != length:
        raise InputError(f"{what} must be an array of {length} rationals")
    return [parse_rat(x) for x in obj]


def tensor3_to_obj(t: Tensor3) -> list:
    return [[[format_rat(x) for x in row] for row in plane] for plane in t]


def tensor3_from_obj(obj: Any, d1: int, d2: int, d3: int, what: str) -> Tensor3:
    if not isinstance(obj, list) or len(obj) != d1:
        raise InputError(f"{what} must be a {d1}x{d2}x{d3} nested array")
    planes = []
    for plane in obj:
        if not isinstance(plane, list) or len(plane) != d2:
            raise InputError(f"{what} must be a {d1}x{d2}x{d3} nested array")
        planes.append(tuple(tuple(_rat_row(row, d3, what)) for row in plane))
    return tuple(planes)


def matrix_to_obj(m: Mat) -> list:
    return [[format_rat(x) for x in m.row(i)] for i in range(m.rows)]


def matrix_from_obj(obj: Any, rows: int, cols: int, what: str) -> Mat:
    if not isinstance(obj, list) or len(obj) != rows:
        raise InputError(f"{what} must be a {rows}x{cols} matrix")
    return Mat.from_rows([_rat_row(r, cols, what) for r in obj], cols=cols)


def vector_to_obj(v: Vec) -> list:
    return [format_rat(x) for x in v]


def _require_keys(obj: Any, required: Sequence[str], optional: Sequence[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputError(f"{what} is missing keys: {', '.join(missing)}")
    unknown = sorted(k for k in obj if k not in required and k not in optional)
    if unknown:
        raise InputError(f"{what} has unexpected keys: {', '.join(unknown)}")


def _dim_of(obj: dict, what: str) -> int:
    d = obj["dim"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise InputError(f"{what} \"dim\" must be a non-negative integer")
    return d


def algebra_to_obj(a: KVAlgebra) -> dict:
    out: dict = {"dim": a.dim, "product": tensor3_to_obj(a.product)}
    if a.name is not None:
        out["name"] = a.name
    return out


def algebra_from_obj(obj: Any) -> KVAlgebra:
    _require_keys(obj, ["dim", "product"], ["name"], "algebra")
    n = _dim_of(obj, "algebra")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("algebra \"name\" must be a string")
    return KVAlgebra(
        dim=n,
        product=tensor3_from_obj(obj["product"], n, n, n, "algebra product"),
        name=name,
    )


def module_to_obj(w: KVModule) -> dict:
    """Self-contained module file body; the base algebra rides along inline."""
    return {
        "dim": w.dim,
        "algebra": algebra_to_obj(w.algebra),
        "left": tensor3_to_obj(w.left),
        "right": tensor3_to_obj(w.right),
    }


def module_from_obj(
    obj: Any,
    *,
    algebra: Optional[KVAlgebra] = None,
    base_dir: Optional[Path] = None,
) -> KVModule:
    """Parse a module body.

    The "algebra" field may be inline, a path string (resolved against
    base_dir), or omitted entirely when a surrounding context already
    supplies the algebra.  A context algebra, when given, must agree with
    whatever the file carries.
    """
    _require_keys(obj, ["dim", "left", "right"], ["algebra"], "module")
    m = _dim_of(obj, "module")
    carried: Optional[KVAlgebra] = None
    spec = obj.get("algebra")
    if isinstance(spec, dict):
        carried = algebra_from_obj(spec)
    elif isinstance(spec, str):
        if base_dir is None:
            raise InputError(
                "module refers to an algebra by path, which only works when "
                "loading from a file"
            )
        carried = load_algebra(base_dir / spec)
    elif spec is not None:
        raise InputError("module \"algebra\" must be an object or a path string")
    if carried is not None and algebra is not None and carried != algebra:
        raise InputError("module file carries a different algebra than expected")
    base = carried if carried is not None else algebra
    if base is None:
        raise InputError("module needs an \"algebra\" field (none supplied)")
    n = base.dim
    return KVModule(
        algebra=base,
        dim=m,
        left=tensor3_from_obj(obj["left"], n, m, m, "module left action"),
        right=tensor3_from_obj(obj["right"], m, n, m, "module right action"),
    )


def cochain_to_obj(f: complexes.Cochain) -> dict:
    """Degree and flat values only; the carrying (A, W) is context."""
    return {"degree": f.degree, "values": [format_rat(x) for x in f.values]}


def cochain_from_obj(obj: Any, a: KVAlgebra, w: KVModule) -> complexes.Cochain:
    _require_keys(obj, ["degree", "values"], [], "cochain")
    q = obj["degree"]
    if isinstance(q, bool) or not isinstance(q, int) or q < 0:
        raise InputError("cochain \"degree\" must be a non-negative integer")
    n, m, values = a.dim, w.dim, obj["values"]
    # n**q * m is 0 for m = 0 and exceeds every count below 2**q for n >= 2,
    # so n**q is formed only where the table can hold the values given
    if m and n > 1 and (not isinstance(values, list) or q >= len(values).bit_length()):
        raise InputError(f"degree-{q} cochain values must be an array of {n}^{q} * {m} rationals")
    values = _rat_row(values, m and n**q * m, f"degree-{q} cochain values")
    return complexes.Cochain(a, w, q, tuple(values))


def jet_to_obj(jet: deform.MultiplicationJet) -> dict:
    return {
        "base": algebra_to_obj(jet.base),
        "coefficients": [tensor3_to_obj(c) for c in jet.coefficients],
    }


def jet_from_obj(obj: Any) -> deform.MultiplicationJet:
    _require_keys(obj, ["base", "coefficients"], [], "jet")
    base = algebra_from_obj(obj["base"])
    coeffs = obj["coefficients"]
    if not isinstance(coeffs, list):
        raise InputError("jet \"coefficients\" must be an array of tensors")
    n = base.dim
    return deform.MultiplicationJet(
        base,
        tuple(
            tensor3_from_obj(c, n, n, n, f"jet coefficient {k + 1}")
            for k, c in enumerate(coeffs)
        ),
    )


def graded_to_obj(g: graded.GradedKVAlgebra) -> dict:
    return {"even": algebra_to_obj(g.even), "odd": module_to_obj(g.odd)}


def graded_from_obj(obj: Any) -> graded.GradedKVAlgebra:
    _require_keys(obj, ["even", "odd"], [], "graded algebra")
    even = algebra_from_obj(obj["even"])
    odd = module_from_obj(obj["odd"], algebra=even)
    return graded.GradedKVAlgebra(even=even, odd=odd)


def extension_to_obj(ext) -> dict:
    """File body for an extension: the spaces plus the structural matrices."""
    algebra = isinstance(ext, extensions.AlgebraExtension)
    if not algebra and not isinstance(ext, extensions.ModuleExtension):
        raise InputError(f"cannot serialize {type(ext).__name__} as an extension")
    out = {
        "kind": "algebra" if algebra else "module",
        "base": algebra_to_obj(ext.base),
        "kernel": module_to_obj(ext.kernel),
        "total": algebra_to_obj(ext.total) if algebra else module_to_obj(ext.total),
        "injection": matrix_to_obj(ext.injection()),
        "projection": matrix_to_obj(ext.projection()),
        "section": matrix_to_obj(ext.canonical_section()),
    }
    if not algebra:
        out["quotient"] = module_to_obj(ext.quotient)
    return out


def _check_matrix(obj: dict, key: str, want: Mat, what: str) -> None:
    got = matrix_from_obj(obj[key], want.rows, want.cols, f"{what} {key}")
    if got != want:
        raise InputError(
            f"{what} {key} does not match the block layout of the total space"
        )


def _require_blocks(message: str, *pairs: tuple[Tensor3, Tensor3]) -> None:
    """Reject the file with message unless each (got, want) block pair is equal."""
    if any(got != want for got, want in pairs):
        raise InputError(message)


def extension_from_obj(obj: Any):
    """Parse an extension file into the matching extension object.

    The total space is checked block by block in the layout of `core`
    (`_block` reads each block, `_blocks` pads a kernel action to the
    total's width): for an algebra the base block, then the kernel
    actions, then the square-zero kernel block; for a module the kernel
    blocks, then the quotient blocks.  The three matrices must equal the
    canonical block maps; anything else is rejected, since the builders
    only ever produce block-form totals.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("extension must be an object with a \"kind\" field")
    kind = obj["kind"]
    common = ["kind", "base", "kernel", "total", "injection", "projection", "section"]
    if kind == "algebra":
        _require_keys(obj, common, [], "algebra extension")
        base = algebra_from_obj(obj["base"])
        kernel = module_from_obj(obj["kernel"], algebra=base)
        total = algebra_from_obj(obj["total"])
        n, m = base.dim, kernel.dim
        if total.dim != n + m:
            raise InputError("total algebra dimension must be dim base + dim kernel")
        ext = extensions.AlgebraExtension(base=base, kernel=kernel, total=total)
        P, t = total.product, n + m
        _require_blocks(
            "total product does not project onto the base",
            (_block(P, m, m, m, n, n, n), base.product),
        )
        _require_blocks(
            "total product does not restrict to the kernel actions",
            (_block(P, m, 0, 0, n, m, t), _blocks(n, m, t, (kernel.left, 0, 0, 0))),
            (_block(P, 0, m, 0, m, n, t), _blocks(m, n, t, (kernel.right, 0, 0, 0))),
        )
        if any(_entries(_block(P, 0, 0, 0, m, m, t), 3)):
            raise InputError("the kernel must square to zero in the total")
    elif kind == "module":
        _require_keys(obj, common + ["quotient"], [], "module extension")
        base = algebra_from_obj(obj["base"])
        kernel = module_from_obj(obj["kernel"], algebra=base)
        quotient = module_from_obj(obj["quotient"], algebra=base)
        total = module_from_obj(obj["total"], algebra=base)
        n, v, m = base.dim, kernel.dim, quotient.dim
        t = v + m
        if total.dim != t:
            raise InputError(
                "total module dimension must be dim kernel + dim quotient"
            )
        ext = extensions.ModuleExtension(base=base, kernel=kernel, quotient=quotient, total=total)
        L, R = total.left, total.right
        _require_blocks(
            "total actions do not restrict to the kernel module",
            (_block(L, 0, 0, 0, n, v, t), _blocks(n, v, t, (kernel.left, 0, 0, 0))),
            (_block(R, 0, 0, 0, v, n, t), _blocks(v, n, t, (kernel.right, 0, 0, 0))),
        )
        _require_blocks(
            "total actions do not project onto the quotient module",
            (_block(L, 0, v, v, n, m, m), quotient.left),
            (_block(R, v, 0, v, m, n, m), quotient.right),
        )
    else:
        raise InputError(f"unknown extension kind {kind!r}")
    _check_matrix(obj, "injection", ext.injection(), f"{kind} extension")
    _check_matrix(obj, "projection", ext.projection(), f"{kind} extension")
    _check_matrix(obj, "section", ext.canonical_section(), f"{kind} extension")
    return ext


def canonical_json(obj: Any) -> str:
    """The one serialization every file and report uses."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _read_bytes(path) -> bytes:
    """The bytes of the file at path, the one file reader of the package."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: an embedded NUL byte
        raise InputError(f"cannot read {path}: {exc}") from None


def _decode_json(data: bytes, path) -> Any:
    """The JSON value of the bytes read from path, the one decoder."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integer literals past
        # the interpreter's digit limit; RecursionError, nesting too deep.
        raise InputError(f"{path} is not valid UTF-8 JSON: {exc}") from None


def read_json(path) -> Any:
    return _decode_json(_read_bytes(path), path)


def write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def load_algebra(path) -> KVAlgebra:
    return algebra_from_obj(read_json(path))
