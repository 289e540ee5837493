"""File-format round trips and strict-parsing rejections."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcohom import serialize as sz
from kvcohom.complexes import Cochain
from kvcohom.core import (
    KVModule,
    _blocks,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    tensor3,
    zero3,
    zero_module,
)
from kvcohom.errors import DimensionError, InputError
from kvcohom.extensions import (
    BigradedCochain,
    ModuleExtension,
    algebra_extension_from_cocycle,
    extend_module_to_semidirect,
    module_extension_from_cocycle,
)
from kvcohom.fixtures import aff, graded_flat, obstructed_jet

from gather_loops import extension_defects

F = Fraction


# -- rational grammar -------------------------------------------------------


def test_rational_formatting_is_canonical():
    assert sz.format_rat(F(1, 2)) == "1/2"
    assert sz.format_rat(F(-3)) == "-3"
    assert sz.format_rat(F(0)) == "0"
    assert sz.format_rat(F(2, 4)) == "1/2"


@pytest.mark.parametrize("text,value", [
    ("3/4", F(3, 4)),
    ("-2", F(-2)),
    ("0", F(0)),
    ("-7/3", F(-7, 3)),
    ("2/4", F(1, 2)),
])
def test_rational_strings_parse(text, value):
    assert sz.parse_rat(text) == value


def test_plain_integers_parse():
    assert sz.parse_rat(5) == F(5)
    assert sz.parse_rat(-1) == F(-1)


@pytest.mark.parametrize("bad", [
    "1.5", "3/0", "03", "1/-2", " 1", "+1", "1 / 2", "", "a", "1/2/3", "0x2",
    1.5, True, None, [1],
])
def test_malformed_rationals_are_rejected(bad):
    with pytest.raises(InputError):
        sz.parse_rat(bad)


def test_rational_past_the_digit_limit_is_rejected():
    with pytest.raises(InputError):
        sz.parse_rat("1" * 5000)
    with pytest.raises(InputError):
        sz.parse_rat("1/" + "3" * 5000)


def test_random_rationals_round_trip():
    import random

    rng = random.Random(7)
    for _ in range(200):
        x = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert sz.parse_rat(sz.format_rat(x)) == x


# -- object round trips ------------------------------------------------------


def roundtrip(obj):
    return json.loads(sz.canonical_json(obj))


def test_algebra_round_trip_with_name():
    a = aff()
    assert sz.algebra_from_obj(roundtrip(sz.algebra_to_obj(a))) == a


def test_algebra_round_trip_unnamed():
    for seed in range(8):
        a = random_kv(seed)
        assert sz.algebra_from_obj(roundtrip(sz.algebra_to_obj(a))) == a


def test_algebra_rejects_bad_shapes_and_keys():
    good = sz.algebra_to_obj(aff())
    for mutate in (
        lambda o: o.update(dim=3),
        lambda o: o.update(extra=1),
        lambda o: o.pop("product"),
        lambda o: o.update(dim=-1),
        lambda o: o.update(dim=True),
        lambda o: o.update(name=7),
    ):
        bad = json.loads(json.dumps(good))
        mutate(bad)
        with pytest.raises(InputError):
            sz.algebra_from_obj(bad)
    with pytest.raises(InputError):
        sz.algebra_from_obj([1, 2])


def test_module_round_trip_inline():
    for seed in range(6):
        a = random_kv(seed)
        w = random_module(a, seed + 50)
        assert sz.module_from_obj(roundtrip(sz.module_to_obj(w))) == w


def test_module_against_context_algebra():
    a = aff()
    w = regular_bimodule(a)
    obj = sz.module_to_obj(w)
    del obj["algebra"]
    assert sz.module_from_obj(obj, algebra=a) == w
    with pytest.raises(InputError):
        sz.module_from_obj(obj)  # no algebra anywhere


def test_module_context_mismatch_is_rejected():
    a = aff()
    w = regular_bimodule(a)
    other = random_kv(3)
    if other.dim == a.dim:
        with pytest.raises(InputError):
            sz.module_from_obj(sz.module_to_obj(w), algebra=other)


def test_module_algebra_by_path(tmp_path):
    a = aff()
    w = regular_bimodule(a)
    (tmp_path / "alg.json").write_text(sz.canonical_json(sz.algebra_to_obj(a)))
    obj = sz.module_to_obj(w)
    obj["algebra"] = "alg.json"
    (tmp_path / "mod.json").write_text(sz.canonical_json(obj))
    assert sz.module_from_obj(sz.read_json(tmp_path / "mod.json"), base_dir=tmp_path) == w
    # a bare from_obj has no directory to resolve against
    with pytest.raises(InputError):
        sz.module_from_obj(obj)


def test_cochain_round_trip_and_rejections():
    a = aff()
    w = regular_bimodule(a)
    f = Cochain.from_values(a, w, 2, [1, 0, 0, 1, 0, 1, 0, 0])
    assert sz.cochain_from_obj(roundtrip(sz.cochain_to_obj(f)), a, w) == f
    with pytest.raises(InputError):
        sz.cochain_from_obj({"degree": 2, "values": ["1"] * 7}, a, w)
    with pytest.raises(InputError):
        sz.cochain_from_obj({"degree": -1, "values": []}, a, w)
    with pytest.raises(InputError):
        sz.cochain_from_obj({"degree": 1, "values": ["1"] * 4, "x": 0}, a, w)


def test_jet_round_trip():
    jet = obstructed_jet()
    back = sz.jet_from_obj(roundtrip(sz.jet_to_obj(jet)))
    assert back.base == jet.base
    assert back.coefficients == jet.coefficients


def test_graded_round_trip():
    g = graded_flat()
    back = sz.graded_from_obj(roundtrip(sz.graded_to_obj(g)))
    assert back.even == g.even
    assert back.odd == g.odd


def test_graded_rejects_nonzero_right_action():
    g = graded_flat()
    obj = roundtrip(sz.graded_to_obj(g))
    obj["odd"]["right"][0][0][0] = "1"
    with pytest.raises(InputError):
        sz.graded_from_obj(obj)


# -- extensions ---------------------------------------------------------------


def s10_cochain():
    a = aff()
    w = regular_bimodule(a)
    return Cochain.from_values(a, w, 2, [1, 0, 0, 1, 0, 1, 0, 0])


def test_algebra_extension_round_trip():
    a = aff()
    w = regular_bimodule(a)
    ext = algebra_extension_from_cocycle(a, w, s10_cochain())
    back = sz.extension_from_obj(roundtrip(sz.extension_to_obj(ext)))
    assert back.total == ext.total
    assert back.base == a and back.kernel == w


def test_module_extension_round_trip():
    a = aff()
    w = regular_bimodule(a)
    v = KVModule(algebra=a, dim=2, left=zero3(2, 2, 2), right=zero3(2, 2, 2))
    g = semidirect(a, w)
    vt = extend_module_to_semidirect(g, a.dim, v)
    f = BigradedCochain(Cochain.zero(g, vt, 2), a.dim, 1, 1)
    ext = module_extension_from_cocycle(a, w, v, f)
    back = sz.extension_from_obj(roundtrip(sz.extension_to_obj(ext)))
    assert back.total == ext.total
    assert back.quotient == w and back.kernel == v


def test_tampered_extension_files_are_rejected():
    a = aff()
    w = regular_bimodule(a)
    ext = algebra_extension_from_cocycle(a, w, s10_cochain())
    good = roundtrip(sz.extension_to_obj(ext))

    bad = json.loads(json.dumps(good))
    bad["injection"][0][0] = "2"
    with pytest.raises(InputError):
        sz.extension_from_obj(bad)

    bad = json.loads(json.dumps(good))
    bad["total"]["product"][0][0][0] = "1"  # kernel no longer squares to zero
    with pytest.raises(InputError):
        sz.extension_from_obj(bad)

    bad = json.loads(json.dumps(good))
    bad["total"]["product"][2][2][2] = "5"  # no longer projects onto the base
    with pytest.raises(InputError):
        sz.extension_from_obj(bad)

    bad = json.loads(json.dumps(good))
    bad["kind"] = "mystery"
    with pytest.raises(InputError):
        sz.extension_from_obj(bad)


_VALUES = ("0", "1", "-1", "1/2", "3")


def _random_block(rng, d1, d2, d3):
    return tensor3([[[rng.choice(_VALUES) for _ in range(d3)] for _ in range(d2)] for _ in range(d1)])


def _extension_files(rng):
    """Algebra and module extension files over seeded algebras and modules,
    with random values in the blocks a file leaves free (omega; theta and
    psi), kernels of dimension 0 included."""
    files = []
    for s in range(1, 31):
        A = random_kv(s, n_max=3)
        n = A.dim
        W = random_module(A, s, m_max=2) if s % 5 else zero_module(A, 0)
        omega = Cochain(A, W, 2, tuple(F(rng.choice(_VALUES)) for _ in range(n * n * W.dim)))
        files.append(sz.extension_to_obj(algebra_extension_from_cocycle(A, W, omega)))
        V = random_module(A, s + 1, m_max=2) if s % 7 else zero_module(A, 0)
        v, m = V.dim, W.dim
        theta, psi = _random_block(rng, n, m, v), _random_block(rng, m, n, v)
        left = _blocks(n, v + m, v + m, (V.left, 0, 0, 0), (theta, 0, v, 0), (W.left, 0, v, v))
        right = _blocks(v + m, n, v + m, (V.right, 0, 0, 0), (psi, v, 0, 0), (W.right, v, 0, v))
        total = KVModule(algebra=A, dim=v + m, left=left, right=right)
        files.append(sz.extension_to_obj(ModuleExtension(base=A, kernel=V, quotient=W, total=total)))
    return files


def _defects(obj):
    """The defect messages of the entry-by-entry reference on a parsed file."""
    base = sz.algebra_from_obj(obj["base"])
    kernel = sz.module_from_obj(obj["kernel"], algebra=base)
    if obj["kind"] == "algebra":
        return extension_defects("algebra", base, kernel, sz.algebra_from_obj(obj["total"]))
    quotient = sz.module_from_obj(obj["quotient"], algebra=base)
    total = sz.module_from_obj(obj["total"], algebra=base)
    return extension_defects("module", base, kernel, total, quotient)


def test_block_checks_of_extension_files_match_the_entrywise_reference():
    rng = random.Random("extension-mutants")
    seen = {"accepted": 0, "one kind": 0, "two kinds": 0}
    for good in _extension_files(rng):
        assert sz.extension_from_obj(good) is not None and _defects(good) == []
        tensors = ["product"] if good["kind"] == "algebra" else ["left", "right"]
        cells = [
            (key, i, j, k)
            for key in tensors
            for i, plane in enumerate(good["total"][key])
            for j, row in enumerate(plane)
            for k in range(len(row))
        ]
        for _ in range(20):
            bad = json.loads(json.dumps(good))
            for key, i, j, k in rng.sample(cells, min(len(cells), rng.choice((1, 2)))):
                bad["total"][key][i][j][k] = rng.choice(_VALUES)
            defects = _defects(bad)
            try:
                sz.extension_from_obj(bad)
                got = None
            except InputError as exc:
                got = str(exc)
            if not defects:
                assert got is None
                seen["accepted"] += 1
            elif len(set(defects)) == 1:
                assert got == defects[0]
                seen["one kind"] += 1
            else:
                # two kinds of defect: the block order may name the other one
                assert got in defects
                seen["two kinds"] += 1
    assert min(seen.values()) >= 20, seen


# -- canonical emission -------------------------------------------------------


def test_canonical_json_sorts_keys():
    one = sz.canonical_json({"b": 1, "a": 2})
    two = sz.canonical_json({"a": 2, "b": 1})
    assert one == two
    assert one.endswith("\n")


def test_identical_objects_identical_bytes():
    a = random_kv(11)
    w = random_module(a, 12)
    s1 = sz.canonical_json(sz.module_to_obj(w))
    s2 = sz.canonical_json(sz.module_to_obj(random_module(random_kv(11), 12)))
    assert s1 == s2


def test_read_json_errors(tmp_path):
    with pytest.raises(InputError):
        sz.read_json(tmp_path / "missing.json")
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(InputError):
        sz.read_json(p)


def test_read_json_undecodable_bytes_is_input_error(tmp_path):
    # ff fe is a UTF-16 byte-order mark and never valid UTF-8
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(InputError):
        sz.read_json(p)


def test_load_tensor3(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(sz.canonical_json({"tensor": [[["1", "0"], ["0", "1"]],
                                               [["0", "1"], ["0", "0"]]]}))
    t = sz.tensor3_from_obj(sz.read_json(p)["tensor"], 2, 2, 2, "test tensor")
    assert t[0][1][1] == 1
    with pytest.raises(InputError):
        sz.tensor3_from_obj(sz.read_json(p)["tensor"], 2, 2, 3, "test tensor")


# -- fuzzing the parsers ------------------------------------------------------

# Deterministic and bounded: the same examples on every run, about a second.
FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)

_KEYS = ("dim", "product", "name", "left", "right", "algebra")
_rationals = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["0", "1", "-1/2", "3/4", "1/0", "01", "1.5", "", "x"]),
    st.text(alphabet="-/0123456789", max_size=8),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6), _rationals
)
_json = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(_KEYS), st.text(max_size=4)), children, max_size=5),
    ),
    max_leaves=20,
)
# Near-valid bodies: the expected keys, a small "dim" and nested arrays of
# rational-like leaves, so that parsing gets past the key checks.
_tensors = st.recursive(_rationals, lambda c: st.lists(c, max_size=3), max_leaves=20)
_bodies = st.fixed_dictionaries(
    {"dim": st.one_of(st.integers(-1, 3), _scalars)},
    optional={k: st.one_of(_tensors, _json) for k in _KEYS if k != "dim"},
)
_objects = st.one_of(_json, _bodies)
_PARSE_ERRORS = (InputError, DimensionError)


@FUZZ
@given(st.binary(max_size=64))
def test_fuzz_read_json_bytes(tmp_path_factory, data):
    p = tmp_path_factory.getbasetemp() / "fuzz.json"
    p.write_bytes(data)
    try:
        sz.read_json(p)
    except _PARSE_ERRORS:
        pass


@FUZZ
@given(_objects)
def test_fuzz_algebra_from_obj(obj):
    try:
        sz.algebra_from_obj(obj)
    except _PARSE_ERRORS:
        pass


@FUZZ
@given(_objects, st.booleans())
def test_fuzz_module_from_obj(obj, with_context):
    try:
        sz.module_from_obj(obj, algebra=aff() if with_context else None)
    except _PARSE_ERRORS:
        pass


@FUZZ
@given(_json)
def test_fuzz_parse_rat(obj):
    try:
        sz.parse_rat(obj)
    except _PARSE_ERRORS:
        pass
