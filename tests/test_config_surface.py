"""Every configuration field is read by the program it configures.

A field that nothing reads is an option that does nothing: setting it
changes no behaviour, yet it sits in every constructor signature and, for
``ExperimentSpec``, in every cache key.  This scan parses ``src/repro``
and requires, for each field of the four configuration dataclasses, at
least one attribute read (``x.<field>``) outside the class's field
declarations and its own ``validate()``.  Matching is by name, so it
cannot tell a read of this field from a read of a namesake elsewhere; it
catches the field nobody reads at all.
"""

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
CONFIG_CLASSES = ("ProxyConfig", "Workload", "CostModel", "ExperimentSpec")


def _trees():
    return [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]


def _fields_and_excluded(trees, name):
    """The class's field names, and the ids of the nodes whose reads do
    not count (its field declarations and its ``validate`` method)."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                fields = [item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                excluded = {id(sub) for item in node.body
                            if isinstance(item, ast.AnnAssign)
                            or (isinstance(item, ast.FunctionDef)
                                and item.name == "validate")
                            for sub in ast.walk(item)}
                return fields, excluded
    raise AssertionError(f"class {name} not found under {SRC}")


def _unread(trees, name):
    fields, excluded = _fields_and_excluded(trees, name)
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in excluded}
    return [field for field in fields if field not in read]


@pytest.mark.parametrize("name", CONFIG_CLASSES)
def test_every_field_is_read(name):
    assert _unread(_trees(), name) == []


def test_the_scan_sees_an_unread_field():
    trees = [ast.parse(
        "class Knobs:\n"
        "    used: int = 1\n"
        "    validated_only: int = 2\n"
        "    def validate(self):\n"
        "        assert self.validated_only > 0\n"
        "def run(knobs):\n"
        "    return knobs.used\n")]
    assert _unread(trees, "Knobs") == ["validated_only"]
