"""Rules on the source tree itself."""

import ast
import importlib
import sys
from pathlib import Path

import x3y9z2


ROOT = Path(x3y9z2.__file__).parent


def _trees():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_src():
    """Soundness checks must raise: python -O strips assert statements."""
    found = [f"{rel}:{node.lineno}" for rel, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_memos_live_on_their_objects():
    """One memo rule: a memo lives on the object whose value it is
    (functools.cached_property or an instance attribute set by its own
    class) or on a pure function of its arguments (functools.lru_cache).
    So no hasattr(obj, "_...") probe for a memo attribute, and no
    module-level cache that can outlive the data it was computed from."""
    found = []
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "hasattr" and len(node.args) == 2
                    and isinstance(node.args[1], ast.Constant)
                    and str(node.args[1].value).startswith("_")):
                found.append(f"{rel}:{node.lineno} hasattr(..., {node.args[1].value!r})")
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            found += [f"{rel}:{stmt.lineno} {t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith("_cache")]
    assert found == []


def test_imports_are_at_module_level():
    """No function body in src/ imports: every dependency of a module is
    read from its import block, and a missing or circular one fails at
    import time rather than on the first call of one code path."""
    found = [f"{rel}:{node.lineno}" for rel, tree in _trees()
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
           "lshift", "rshift", "and", "xor", "or")
ARITHMETIC_DUNDERS = ({f"__{p}{op}__" for op in _BINARY for p in ("", "r", "i")}
                      | {"__neg__", "__pos__", "__abs__", "__invert__"})

# The exact rings with operators: polynomials, number-field and etale
# algebra elements, and points over Q and K.  Z_q and F_q elements are
# coordinate tuples under ZqRing's methods.
OPERATOR_CLASSES = {"arith.poly.UPoly", "arith.poly.MPoly",
                    "arith.numberfield._PowerBasisElem", "ec.weierstrass.EcPoint"}


def test_only_the_exact_rings_define_arithmetic_operators():
    """One residue-ring type: no src/ class other than OPERATOR_CLASSES
    defines or assigns an arithmetic dunder (__add__, __mul__, __neg__,
    ... and their reflected and in-place forms)."""
    found = set()
    for rel, tree in _trees():
        mod = ".".join(rel.with_suffix("").parts)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {st.name for st in cls.body if isinstance(st, ast.FunctionDef)}
            names |= {t.id for st in cls.body if isinstance(st, ast.Assign)
                      for t in st.targets if isinstance(t, ast.Name)}
            if names & ARITHMETIC_DUNDERS:
                found.add(f"{mod}.{cls.name}")
    assert found == OPERATOR_CLASSES


# Definitions no src/ code reaches yet, each tracked on ROADMAP: the
# formal logarithm (only tests call it until the Chabauty certificates
# are re-checked).
UNREACHED = {"chabauty.series.formal_log"}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_reached():
    """Every top-level function, class and assignment, and every
    non-dunder method, is named by some src/ code other than its own
    definition: a Name or attribute read, or an import outside the
    package __init__ files.  Re-exports and __all__ make nothing
    reached, and neither do comments or docstrings."""
    defined, mentioned = [], set()
    for rel, tree in _trees():
        mod = ".".join(rel.with_suffix("").parts)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{mod}.{stmt.name}", stmt.name))
                if isinstance(stmt, ast.ClassDef):
                    defined += [(f"{mod}.{stmt.name}.{m.name}", m.name) for m in stmt.body
                                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                                and not _is_dunder(m.name)]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [(f"{mod}.{t.id}", t.id) for t in targets
                            if isinstance(t, ast.Name) and not _is_dunder(t.id)]
        in_init = rel.name == "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                mentioned.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not in_init:
                mentioned.update(alias.name for alias in node.names)
    unreached = {qual for qual, name in defined if name not in mentioned}
    assert unreached == UNREACHED


# Dataclass fields no src/ code reads: perfbench/worker.py passes both
# to build_descent_forms, and the benchmark keeps its calls fixed across
# commits.
WRITE_ONLY_FIELDS = {"descent.CubicFormSystem.eq_id", "descent.CubicFormSystem.expo"}


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    """Every field of a dataclass in src/ is read by src/ code: as an
    attribute, or as a string constant (Claim.as_dict reads its fields
    with getattr).  A field that is only written is state to delete."""
    fields, read = [], set()
    for rel, tree in _trees():
        mod = ".".join(rel.with_suffix("").parts)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                fields += [(f"{mod}.{cls.name}.{s.target.id}", s.target.id) for s in cls.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert {qual for qual, name in fields if name not in read} == WRITE_ONLY_FIELDS


def test_every_import_is_read():
    """Every name a module of src/x3y9z2 or tests/ imports is read in
    that module: as a Name or as the base of an attribute, type
    annotations included.  __future__ imports and the re-exports of
    the package __init__ files are exempt."""
    paths = [p for p in ROOT.rglob("*.py") if p.name != "__init__.py"]
    paths += Path(__file__).parent.glob("*.py")
    found = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert found == []


def test_traced_names_resolve():
    """Every (module, attribute) that the benchmark tracer wraps still
    resolves.  A renamed one makes the tracer's install() raise, and so
    every traced benchmark pass fail.  perfbench/tracer.py is imported
    as it is, and not edited."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracer import TRACED
    finally:
        sys.path.pop(0)
    missing = []
    for name, module, attr, _ in TRACED:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{name}: {module}.{attr}")
    assert len(TRACED) >= 26 and missing == []
