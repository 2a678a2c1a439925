"""The shape check of the trusted data files: a generated set of damaged
files, each refused at load with a message that names the file and the
entry, and the value damage that only the builders of K-objects see."""

import json
import subprocess
import sys
from collections import Counter

import pytest

from x3y9z2.cli import main
from x3y9z2.dataio import (_SHAPES, TrustedDataError, load_descent_data, load_mw_data,
                           load_tables, set_data_dir)

LOADERS = {"selmer_generators.json": load_descent_data, "mw_generators.json": load_mw_data,
           "paper_tables.json": load_tables}
DROP = object()


def _damage(node, shape, keys=()):
    """(kind, keys, value) for each damaged copy of node that shape must
    refuse: value replaces the entry at keys, or DROP removes it.  Each
    position gets a value of the wrong type ("type"), each declared key is
    dropped ("drop"), each list of fixed length loses its last item
    ("short"), and each string leaf that must parse gets one that does
    not ("parse").  A list is walked by its first item, and a tuple by its
    first part: its other parts are conditions on valid values."""
    if isinstance(shape, tuple):
        shape = shape[0]
    yield "type", keys, 7 if isinstance(node, str) else "x"
    if isinstance(shape, dict):
        for key, inner in shape.items():
            yield "drop", keys + (key,), DROP
            yield from _damage(node[key], inner, keys + (key,))
    elif isinstance(shape, list):
        if len(shape) > 1:
            yield "short", keys, node[:-1]
        yield from _damage(node[0], shape[0], keys + (0,))
    elif isinstance(node, str) and shape is not str:
        yield "parse", keys, "x"


def _path(keys):
    """The entry at keys as the refusals name it."""
    return "the file" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def _refusal(name, keys, value):
    if value is DROP:
        return f"{name} has a malformed entry: {_path(keys[:-1])} has no key {keys[-1]!r}"
    return f"{name} has a malformed entry: {_path(keys)} is {value!r}"


def _edited(doc, keys, value):
    """A copy of the JSON document doc with the entry at keys replaced by
    value, or removed for DROP."""
    if not keys:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in keys[:-1]:
        parent = parent[k]
    if value is DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return doc


def _write(data_dir, name, change):
    path = data_dir / name
    path.write_text(json.dumps(change(json.loads(path.read_text()))))


# The cases of each kind per file: a shape entry removed, or a key that a
# reader indexes left out of the shapes, moves these counts.
CASE_COUNTS = {"selmer_generators.json": {"type": 33, "drop": 19, "short": 8, "parse": 11},
               "mw_generators.json": {"type": 13, "drop": 7, "short": 3, "parse": 3},
               "paper_tables.json": {"type": 85, "drop": 59, "short": 13, "parse": 21}}


@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_every_generated_damage_is_refused_at_load(data_copy, name):
    """Through set_data_dir and the file's loader, in process: each case
    of _damage is one TrustedDataError naming the file and the entry."""
    original = json.loads((data_copy / name).read_text())
    cases = list(_damage(original, _SHAPES[name]))
    assert Counter(kind for kind, _, _ in cases) == CASE_COUNTS[name]
    try:
        for _, keys, value in cases:
            (data_copy / name).write_text(json.dumps(_edited(original, keys, value)))
            set_data_dir(data_copy)
            with pytest.raises(TrustedDataError) as refused:
                LOADERS[name]()
            assert str(refused.value) == _refusal(name, keys, value)
    finally:
        set_data_dir(None)


# One generated case per file, each a traceback before the shapes were
# checked at load (a reader's Fraction("x") or STValue.parse("x")).
@pytest.mark.parametrize("name, keys", [
    ("selmer_generators.json", ("K", "generators", 0, 1)),
    ("mw_generators.json", ("curves", 2, "c", 0)),
    ("paper_tables.json", ("quartic_field_table", "eq1", "rows", 0, "st_p0")),
])
def test_a_damaged_file_exits_cleanly_from_the_cli(data_copy, name, keys):
    _write(data_copy, name, lambda doc: _edited(doc, keys, "x"))
    for command in (("ec", "verify-tables"), ("pipeline", "run")):
        out = subprocess.run([sys.executable, "-m", "x3y9z2.cli", "--data-dir", str(data_copy),
                              *command], capture_output=True, text=True, timeout=300)
        assert out.returncode == 1, command
        assert "Traceback" not in out.stderr
        assert out.stderr.splitlines() == [
            f"x3y9z2: TrustedDataError: {_refusal(name, keys, 'x')}"], command


# Values of the right type that the shapes (a divisor marked nonzero) or
# the builders of K-objects (EtaleAlgebra, FieldIso, WeierstrassCurve)
# refuse; each was a traceback before.  A JSON true where an int belongs
# was read as 1 before.
@pytest.mark.parametrize("name, keys, value, refusal", [
    ("selmer_generators.json", ("eq5", "C"), "0", "the file.eq5.C is '0'"),
    ("selmer_generators.json", ("eq5", "defining", 4), "0",
     "the file.eq5.defining is refused: etale algebras here are quartic"),
    ("selmer_generators.json", ("eq1", "defining", 4), "0",
     "the file.eq1.defining is refused: etale algebras here are quartic"),
    ("selmer_generators.json", ("eq1", "theta_in_alpha", 0), "5",
     "the file.eq1.theta_in_alpha is refused: generator image does not satisfy the source "
     "minimal polynomial"),
    ("mw_generators.json", ("curves", 0, "c"), ["0"] * 4,
     "the file.curves[0].c is refused: singular curve: discriminant vanishes"),
    ("paper_tables.json", ("quotient_claims", "torsion", 0, "c"), "0",
     "the file.quotient_claims.torsion[0].c is '0'"),
    ("paper_tables.json", ("rank_table", "rows", 0, "c1"), "0",
     "the file.rank_table.rows[0].c1 is '0'"),
    ("paper_tables.json", ("rank_table", "rows", 0, "delta"), ["0"] * 4,
     "the file.rank_table.rows[0].delta is ['0', '0', '0', '0']"),
    ("paper_tables.json", ("quartic_field_table", "eq1", "rows", 0, "delta"), ["0"] * 4,
     "the file.quartic_field_table.eq1.rows[0].delta is ['0', '0', '0', '0']"),
    ("paper_tables.json", ("rank_table", "rows", 1, "rk1"), True,
     "the file.rank_table.rows[1].rk1 is True"),
    ("mw_generators.json", ("curves", 0, "i"), True, "the file.curves[0].i is True"),
], ids=["eq5-C", "eq5-defining", "eq1-defining", "eq1-theta", "mw-c", "torsion-c",
        "rank-c1", "rank-delta", "quartic-delta", "rank-bool", "mw-bool"])
def test_value_damage_exits_cleanly(data_copy, capsys, name, keys, value, refusal):
    """`ec verify-tables` and `pipeline run`, in process: exit 1 and one
    stderr line naming the file and the entry."""
    _write(data_copy, name, lambda doc: _edited(doc, keys, value))
    try:
        for command in (("ec", "verify-tables"), ("pipeline", "run")):
            assert main(["--data-dir", str(data_copy), *command]) == 1, command
            assert capsys.readouterr().err.splitlines() == [
                f"x3y9z2: TrustedDataError: {name} has a malformed entry: {refusal}"], command
    finally:
        set_data_dir(None)
