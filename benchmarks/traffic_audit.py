"""Which settable values and definitions does any caller actually reach?

Static reports over ``src/repro`` (stdlib ``ast`` only), plus one opt-in
dynamic report:

1. **Constructors and config classes.**  For every class under
   ``src/repro`` with a defaulted ``__init__`` parameter or dataclass
   field: each keyword/field, and how many call sites in ``src``,
   ``tests``, ``benchmarks``, ``examples`` and ``ci`` (the CI workflow's
   ``python - <<'EOF'`` steps) pass it a value other than its default
   (literal comparison; anything computed counts as non-default).
   ``NEVER`` = no call site anywhere does; ``TESTS`` = only tests do.
   ``**splats`` are resolved through the dict literals,
   ``dict(...)`` calls, ``a if c else b`` and ``d["key"] = ...`` writes
   of the enclosing function or module; a function that passes its own
   ``**kwargs`` on (``make_lan(engine, names, **machine_kwargs)``) is
   followed to its call sites.  A subclass constructor that passes its
   ``**kwargs`` to ``super().__init__`` (or has no ``__init__``) passes
   the keywords it does not take to its base's, and a call through a
   name read from a dispatch table (a module-level dict of classes, as
   ``phone_class = PHONES[transport]``) reaches every class in it.  What
   cannot be resolved is listed as opaque.
2. **Method and function parameters** that only tests, or nobody, give a
   non-default value (matched by name, so a method name shared by several
   definitions pools their call sites — conservative).
3. **Definitions referenced only from tests, or nowhere, and public
   attributes that only tests read from outside their class**
   (name-based: a bare name counts only where it is defined or imported
   from ``repro``; ``obj.name`` and ``"name"`` strings count everywhere,
   so a shared name can hide an orphan — report 4 cannot).
4. ``--calls``: runs a fixed set of non-test traffic — the four
   ``BENCHMARK.json`` workloads at smoke windows, a traced + sampled +
   profiled CLI cell, SCTP and threaded cells, one UDP cell run twice
   against a temporary result cache (cleared and missed, then hit), the
   three figure smokes and the four examples, at ``REPRO_SCALE=0.1`` —
   each under ``cProfile`` in its own process, and lists the ``src/repro``
   functions none of it enters.  ≈15 min on a 2-core VM.

Usage::

    python benchmarks/traffic_audit.py [--root DIR] [--calls] [--out FILE]

``--root`` audits another checkout (default: this one).
:func:`findings` returns what reports 1, 2 and 3a flag as data;
``tests/test_config_surface.py`` fails on any entry it does not allowlist.
"""

import argparse
import ast
import json
import os
import pstats
import re
import subprocess
import sys
import tempfile
import textwrap
import time
from collections import Counter, defaultdict
from pathlib import Path

#: the areas that are directories of Python files
DIR_AREAS = ("src", "tests", "benchmarks", "examples")
AREAS = DIR_AREAS + ("ci",)
#: the workflow whose ``python - <<'EOF'`` steps are the ``ci`` area
WORKFLOW = ".github/workflows/ci.yml"
_HEREDOC = re.compile(r"python - <<'(\w+)'\n(.*?)\n[ \t]*\1$",
                      re.DOTALL | re.MULTILINE)


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_modules(root: Path):
    """``[(rel_path, area, tree)]`` for every Python file in the areas,
    and for every Python heredoc of the CI workflow."""
    modules = []
    for area in DIR_AREAS:
        for path in sorted((root / area).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).as_posix()
            modules.append((rel, area, ast.parse(path.read_text(), rel)))
    workflow = root / WORKFLOW
    if workflow.exists():
        modules += workflow_modules(workflow.read_text())
    return modules


def workflow_modules(text: str):
    """``[("<WORKFLOW>:<line>", "ci", tree)]``, one per
    ``python - <<'EOF'`` heredoc of the workflow ``text``."""
    modules = []
    for match in _HEREDOC.finditer(text):
        line = text.count("\n", 0, match.start(2)) + 1
        name = f"{WORKFLOW}:{line}"
        modules.append((name, "ci", ast.parse(
            textwrap.dedent(match.group(2)), name)))
    return modules


def _is_src(rel: str) -> bool:
    return rel.startswith("src/repro/")


def _first_line(node) -> int:
    """``co_firstlineno`` of a def: its first decorator, if any."""
    return min([d.lineno for d in node.decorator_list] + [node.lineno])


# ----------------------------------------------------------------------
# report 1 + 2: settable values
# ----------------------------------------------------------------------
class Site:
    __slots__ = ("area", "rel", "line", "text", "default")

    def __init__(self, area, rel, line, text, default):
        self.area, self.rel, self.line = area, rel, line
        self.text, self.default = text, default

    def __str__(self):
        return f"{self.rel}:{self.line} {self.text}"


class Target:
    """A constructor, method or function with defaulted parameters."""

    def __init__(self, key, rel, lineno, kind, positional, defaults):
        self.key, self.rel, self.lineno, self.kind = key, rel, lineno, kind
        self.positional = positional    # names bindable by position
        self.defaults = defaults        # name -> default expression
        self.sites = defaultdict(list)  # name -> [Site]
        self.opaque = []                # [Site] for unresolvable splats
        self.base = None                # gets the keywords this one lacks

    def owner(self, param):
        """The constructor up the base chain that takes ``param``."""
        target = self
        while target is not None and param not in target.defaults:
            target = target.base
        return target


def _params(fn, drop_first: bool):
    args = fn.args
    every = args.posonlyargs + args.args
    positional = [a.arg for a in every][1 if drop_first else 0:]
    defaults = {a.arg: d for a, d in zip(every[len(every) - len(args.defaults):],
                                         args.defaults)}
    defaults.update({a.arg: d for a, d in zip(args.kwonlyargs,
                                              args.kw_defaults)
                     if d is not None})
    return positional, defaults


def _decorated(node, name: str) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(func, "id", getattr(func, "attr", None)) == name:
            return True
    return False


def _forwards_to_super(init) -> bool:
    """Does ``__init__`` pass its own ``**kwargs`` to ``super().__init__``?"""
    kwarg = init.args.kwarg
    return kwarg is not None and any(
        isinstance(node, ast.Call) and
        getattr(node.func, "attr", None) == "__init__" and
        any(kw.arg is None and getattr(kw.value, "id", None) == kwarg.arg
            for kw in node.keywords)
        for node in ast.walk(init))


def collect_targets(modules):
    ctors = defaultdict(list)   # class name -> [Target]
    funcs = defaultdict(list)   # function/method name -> [Target]
    tables = {}                 # dispatch table name -> [class name]
    bases = {}                  # class name -> (base names, __init__ node)
    for rel, __, tree in modules:
        if not _is_src(rel):
            continue
        for node in tree.body:
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Dict) and node.value.values \
                    and all(isinstance(v, ast.Name)
                            for v in node.value.values):
                for tgt in node.targets:
                    tables[getattr(tgt, "id", None)] = \
                        [v.id for v in node.value.values]
            if isinstance(node, ast.FunctionDef):
                positional, defaults = _params(node, False)
                funcs[node.name].append(Target(
                    node.name, rel, node.lineno, "function", positional,
                    defaults))
            elif isinstance(node, ast.ClassDef):
                ctor = init = None
                fields, field_defaults = [], {}
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        positional, defaults = _params(
                            item, not _decorated(item, "staticmethod"))
                        if item.name == "__init__":
                            init = item
                            ctor = Target(node.name, rel, node.lineno,
                                          "__init__", positional, defaults)
                        elif not item.name.startswith("__"):
                            funcs[item.name].append(Target(
                                f"{node.name}.{item.name}", rel, item.lineno,
                                "method", positional, defaults))
                    elif isinstance(item, ast.AnnAssign) and \
                            isinstance(item.target, ast.Name) and \
                            "ClassVar" not in ast.unparse(item.annotation):
                        fields.append(item.target.id)
                        if item.value is not None:
                            field_defaults[item.target.id] = item.value
                if ctor is None and _decorated(node, "dataclass"):
                    ctor = Target(node.name, rel, node.lineno, "dataclass",
                                  fields, field_defaults)
                if ctor is not None:
                    ctors[node.name].append(ctor)
                bases[node.name] = ([getattr(b, "id", None)
                                     for b in node.bases], init)
    # A class without its own __init__ is constructed through its base's;
    # one whose __init__ forwards **kwargs to it, partly so.
    for name, (names, init) in bases.items():
        base = next((ctors[b][0] for b in names if b in ctors), None)
        if base is None:
            continue
        if init is None:
            ctors[name].append(Target(name, base.rel, base.lineno,
                                      "inherited", base.positional, {}))
        elif not _forwards_to_super(init):
            continue
        elif init.args.vararg is not None:
            ctors[name][0].positional = base.positional
        ctors[name][0].base = base
    return ctors, funcs, tables


def _literal(node):
    value = ast.literal_eval(node)
    return (type(value) is bool, value)


def is_default(value, default) -> bool:
    """Does the argument expression equal the parameter's default?"""
    if isinstance(default, ast.Call) and \
            getattr(default.func, "id", None) == "field":
        for kw in default.keywords:
            if kw.arg == "default":
                default = kw.value
            elif kw.arg == "default_factory":
                factory = ast.unparse(kw.value)
                return (ast.unparse(value) in (f"{factory}()", "{}", "[]")
                        and factory in ("dict", "list"))
    try:
        return _literal(value) == _literal(default)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return ast.dump(value) == ast.dump(default)


class Scope:
    """Where a call sits: its file, area, module (and the names it imports
    with ``from ... import``) and enclosing function."""

    def __init__(self, rel, area, module, imported, function):
        self.rel, self.area = rel, area
        self.module, self.imported = module, imported
        self.function = function

    def site(self, node, default=False):
        return Site(self.area, self.rel, node.lineno, ast.unparse(node),
                    default)

    def forwards(self, node) -> bool:
        """Is ``node`` the enclosing function's own ``**kwargs``?"""
        kwarg = self.function.args.kwarg if self.function else None
        return kwarg is not None and isinstance(node, ast.Name) and \
            node.id == kwarg.arg

    def resolve(self, node):
        """``[(key, value_expr)]`` a ``**`` argument expands to, or None."""
        if isinstance(node, ast.Name):
            if self.function is not None:
                found = self._writes(ast.walk(self.function), node.id)
                if found is not None:
                    return found
            return self._writes(self.module.body, node.id)
        if isinstance(node, ast.IfExp):  # either branch may be the one
            body, orelse = self.resolve(node.body), self.resolve(node.orelse)
            return None if body is None or orelse is None else body + orelse
        if isinstance(node, ast.Dict):
            items = zip(node.keys, node.values)
        elif isinstance(node, ast.Call) and not node.args and \
                getattr(node.func, "id", None) == "dict":
            items = [(kw.arg and ast.Constant(kw.arg), kw.value)
                     for kw in node.keywords]
        else:
            return None
        out = []
        for key, value in items:
            if key is None:  # a nested ** splat
                sub = self.resolve(value)
                if sub is None:
                    return None
                out.extend(sub)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                out.append((key.value, value))
            else:
                return None
        return out

    def dispatched(self, name, tables):
        """The classes ``name`` may be when the enclosing function reads
        it from a dispatch table (``name = TABLE[key]``)."""
        for node in ast.walk(self.function) if self.function else ():
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Subscript) and \
                    getattr(node.value.value, "id", None) in tables and \
                    any(getattr(t, "id", None) == name
                        for t in node.targets):
                return tables[node.value.value.id]
        return []

    def _writes(self, statements, name):
        out, seen = [], False
        for stmt in statements:
            if isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == name:
                        sub = (None if isinstance(stmt.value, ast.Name)
                               else self.resolve(stmt.value))
                        if sub is None:
                            return None
                        seen = True
                        out.extend(sub)
                    elif isinstance(tgt, ast.Subscript) and \
                            getattr(tgt.value, "id", None) == name and \
                            isinstance(tgt.slice, ast.Constant):
                        seen = True
                        out.append((tgt.slice.value, stmt.value))
            elif isinstance(stmt, ast.Call) and \
                    isinstance(stmt.func, ast.Attribute) and \
                    stmt.func.attr == "update" and \
                    getattr(stmt.func.value, "id", None) == name:
                seen = True
                out.extend((kw.arg, kw.value) for kw in stmt.keywords
                           if kw.arg is not None)
        return out if seen else None


def bind(target, call, scope, forwards, absorbed=None, bound=None):
    """Record ``call``'s arguments as sites of ``target``'s parameters
    (a parameter ``target`` lacks, as a site of its base's).

    ``absorbed`` is given when ``call`` reaches ``target`` only through
    wrappers that forward their ``**kwargs``: then positional arguments
    and the wrappers' own named parameters (``absorbed``) never reach it.
    A ``**`` splat of the enclosing function's own ``**kwargs`` is queued
    on ``forwards`` for :func:`follow_forwards`.  ``bound`` collects the
    (constructor, parameter) pairs ``call`` has set through another
    target, so a dispatch table's shared base counts the call once.
    """
    skip = absorbed or frozenset()
    bound = set() if bound is None else bound
    pairs = []
    if absorbed is None:
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                target.opaque.append(scope.site(arg))
                break
            if index < len(target.positional):
                pairs.append((target.positional[index], arg))
    for kw in call.keywords:
        if kw.arg is not None:
            pairs.append((kw.arg, kw.value))
            continue
        resolved = scope.resolve(kw.value)
        if resolved is not None:
            pairs.extend(resolved)
        elif scope.forwards(kw.value):
            forwards.append((scope.function, scope.rel, target, skip))
        else:
            target.opaque.append(scope.site(kw.value))
    seen = set()
    for param, value in pairs:
        owner = target.owner(param)
        if owner is None or param in skip or (id(owner), param) in bound:
            continue
        seen.add((id(owner), param))
        owner.sites[param].append(scope.site(
            value, is_default(value, owner.defaults[param])))
    bound |= seen


class CallVisitor(ast.NodeVisitor):
    """Binds every call's arguments to the targets its name may mean, and
    indexes ``name(...)`` and ``self.name(...)`` calls for
    :func:`follow_forwards`."""

    def __init__(self, rel, area, tree, ctors, funcs, tables, calls,
                 forwards):
        self.rel, self.area, self.module = rel, area, tree
        self.imported = {alias.asname or alias.name
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)
                         for alias in node.names}
        self.ctors, self.funcs, self.tables = ctors, funcs, tables
        self.calls, self.forwards = calls, forwards
        self.classes, self.scopes = [], []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        self.generic_visit(node)
        scope = Scope(self.rel, self.area, self.module, self.imported,
                      self.scopes[-1] if self.scopes else None)
        func = node.func
        if isinstance(func, ast.Attribute) and \
                getattr(func.value, "id", None) == "self":
            self.calls[func.attr].append((scope, node))
        if isinstance(func, ast.Name):
            self.calls[func.id].append((scope, node))
            name = func.id
            if name == "cls" and self.classes:
                name = self.classes[-1]
            targets = self.ctors.get(name, []) + [
                t for t in self.funcs.get(name, ()) if t.kind == "function"]
            if not targets:
                targets = list({id(t): t for cls in scope.dispatched(
                    name, self.tables) for t in self.ctors.get(cls, ())
                }.values())
        elif isinstance(func, ast.Attribute) and func.attr != "__init__":
            targets = (self.ctors.get(func.attr, [])
                       + self.funcs.get(func.attr, []))
        else:
            return
        bound = set()
        for target in targets:
            bind(target, node, scope, self.forwards, bound=bound)


def follow_forwards(forwards, calls):
    """Bind the call sites of every function that passes its own
    ``**kwargs`` on to a target — ``make_lan(engine, names,
    ephemeral_ports=2)`` sets ``Machine(ephemeral_ports)`` — through
    chains of such wrappers.  A call site counts in the wrapper's own
    file, or in a file that imports the wrapper's name."""
    seen = set()
    while forwards:
        function, home, target, absorbed = forwards.pop()
        if (function, target) in seen:
            continue
        seen.add((function, target))
        args = function.args
        own = absorbed | {a.arg for a in
                          args.posonlyargs + args.args + args.kwonlyargs}
        for scope, call in calls.get(function.name, ()):
            if scope.rel == home or function.name in scope.imported:
                bind(target, call, scope, forwards, own)


def settables(modules):
    """``(classes, funcs)``: the constructors with defaulted parameters in
    source order, and every function/method target by name, with each
    call site bound to the parameters it sets."""
    ctors, funcs, tables = collect_targets(modules)
    calls, forwards = defaultdict(list), []
    for rel, area, tree in modules:
        CallVisitor(rel, area, tree, ctors, funcs, tables, calls,
                    forwards).visit(tree)
    follow_forwards(forwards, calls)
    classes = sorted((t for ts in ctors.values() for t in ts
                      if t.defaults), key=lambda t: (t.rel, t.lineno))
    return classes, funcs


def _describe(sites):
    """(tag, counts text, sites to print) for one settable value."""
    moved = [s for s in sites if not s.default]
    counts = Counter(s.area for s in moved)
    text = "  ".join(f"{a} {counts[a]}" for a in AREAS if counts[a])
    if not moved:
        tag = "NEVER"
    elif set(counts) == {"tests"}:
        tag = "TESTS"
    else:
        tag = ""
    return tag, text, (moved if len(moved) <= 3 else [])


def report_settables(modules, out):
    classes, funcs = settables(modules)
    tally = Counter()
    lines = []
    for target in classes:
        lines.append(f"{target.key}  ({target.rel}:{target.lineno}, "
                     f"{target.kind})")
        for param in target.defaults:
            tag, text, shown = _describe(target.sites[param])
            tally[tag or "set"] += 1
            lines.append(f"  {param:<30} {tag:<6} {text}".rstrip())
            lines.extend(f"      {site}" for site in shown)
        for site in target.opaque:
            lines.append(f"  (opaque **) {site}")
    out.append("== 1. constructors and config classes ==")
    out.append(f"{sum(tally.values())} settable values in {len(classes)} "
               f"classes: {tally['NEVER']} never given a non-default value, "
               f"{tally['TESTS']} only by tests")
    out.extend(lines)

    out.append("")
    out.append("== 2. method/function parameters only tests (or nobody) "
               "set ==")
    for name in sorted(funcs):
        shared = len(funcs[name])
        for target in funcs[name]:
            for param in target.defaults:
                tag, text, shown = _describe(target.sites[param])
                if not tag:
                    continue
                note = f"  (name shared by {shared})" if shared > 1 else ""
                out.append(f"{target.key}({param})  {tag}  "
                           f"{target.rel}:{target.lineno}{note}")
                out.extend(f"      {site}" for site in shown)


# ----------------------------------------------------------------------
# report 3: references by name
# ----------------------------------------------------------------------
def references(modules):
    """``(orphans, attrs)``: report 3a's ``[(tag, qualname, rel, line)]``
    and report 3b's ``[(classes, attr)]``."""
    defs = defaultdict(list)       # name -> [(qualname, rel, line)]
    attrs = defaultdict(set)       # public self.attr -> {class}
    for rel, __, tree in modules:
        if not _is_src(rel):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name].append((node.name, rel, node.lineno))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not item.name.startswith("__"):
                    defs[item.name].append(
                        (f"{node.name}.{item.name}", rel, item.lineno))
                for sub in ast.walk(item):
                    if isinstance(sub, ast.Attribute) and \
                            isinstance(sub.ctx, ast.Store) and \
                            getattr(sub.value, "id", None) == "self" and \
                            not sub.attr.startswith("_"):
                        attrs[sub.attr].add(node.name)
    defining = {name: {rel for __, rel, __ in where}
                for name, where in defs.items()}
    refs = defaultdict(Counter)    # name -> Counter(area)
    outside = defaultdict(Counter)  # attr -> reads outside its classes
    for rel, area, tree in modules:
        imported = {alias.asname or alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("repro")
                    for alias in node.names}
        # the strings of __all__ re-export a name; they do not use it
        skip = {id(sub) for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)
                for sub in ast.walk(node.value)}
        stack = [(tree, None)]
        while stack:
            node, cls = stack.pop()
            if isinstance(node, ast.ClassDef):
                cls = node.name
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in defs and (rel in defining[node.id]
                                        or node.id in imported):
                    refs[node.id][area] += 1
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    refs[node.attr][area] += 1
                    if node.attr in attrs and cls not in attrs[node.attr]:
                        outside[node.attr][area] += 1
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and id(node) not in skip:
                refs[node.value][area] += 1
            stack.extend((child, cls) for child in ast.iter_child_nodes(node))

    def tag(counts):
        if any(counts[a] for a in AREAS if a != "tests"):
            return None
        return "TESTS" if counts["tests"] else "NOWHERE"

    orphans = [(tag(refs[name]), qual, rel, line)
               for name in sorted(defs)
               if not name.startswith("test") and tag(refs[name]) is not None
               for qual, rel, line in defs[name]]
    test_only = [("/".join(sorted(attrs[name])), name)
                 for name in sorted(attrs)
                 if name not in defs and tag(outside[name]) == "TESTS"]
    return orphans, test_only


def report_references(modules, out):
    orphans, test_only = references(modules)
    out.append("== 3a. definitions referenced only from tests, or nowhere ==")
    out.extend(f"{tag:<8} {qual} ({rel}:{line})"
               for tag, qual, rel, line in orphans)
    out.append("")
    out.append("== 3b. public attributes that, outside their own class, "
               "only tests read ==")
    out.extend(f"TESTS    {classes}.{name}" for classes, name in test_only)


def findings(modules):
    """``{entry: tag}`` for every line reports 1, 2 and 3a flag, named as
    the report prints it: ``Class.param`` (1), ``function(param)`` or
    ``Class.method(param)`` (2), ``Class.method`` or ``function`` (3a)."""
    classes, funcs = settables(modules)
    flagged = {}
    for target in classes:
        for param in target.defaults:
            tag = _describe(target.sites[param])[0]
            if tag:
                flagged[f"{target.key}.{param}"] = tag
    for targets in funcs.values():
        for target in targets:
            for param in target.defaults:
                tag = _describe(target.sites[param])[0]
                if tag:
                    flagged[f"{target.key}({param})"] = tag
    for tag, qual, __, __ in references(modules)[0]:
        flagged[qual] = tag
    return flagged


# ----------------------------------------------------------------------
# report 4: the cProfile sweep
# ----------------------------------------------------------------------
def traffic(tmp: Path):
    """``(label, argv after the interpreter)`` for the sweep's runs."""
    def cell(workload):
        request = {"workload": workload, "profile": "smoke", "seed": 1,
                   "mode": "untraced"}
        return ["benchmarks/perf/cell.py", json.dumps(request)]

    cli = ["-m", "repro"]
    runs = [(f"workload {w} (smoke)", cell(w))
            for w in ("udp-closed-100", "tcp-churn-100",
                      "tcp-persist-1000-fixed", "tcp-persist-100-observed")]
    runs += [
        ("cli tcp-50 traced+sampled+profiled",
         cli + ["--series", "tcp-50", "--clients", "30", "--workers", "8",
                "--no-cache", "--jobs", "1", "--profile",
                "--trace", str(tmp / "trace.json"),
                "--metrics", str(tmp / "metrics.jsonl"),
                "--sample-us", "5000"]),
        ("cli sctp", cli + ["--series", "sctp", "--clients", "20",
                            "--no-cache", "--jobs", "1"]),
        ("cli tcp-threaded-50", cli + ["--series", "tcp-threaded-50",
                                       "--clients", "20", "--idle", "pq",
                                       "--no-cache", "--jobs", "1"]),
        # the result cache as a default CLI run meets it: a cleared,
        # empty cache that misses and stores, then a hit
        ("cli udp (cache cleared, miss)",
         cli + ["--series", "udp", "--clients", "10", "--jobs", "1",
                "--clear-cache"]),
        ("cli udp (cache hit)",
         cli + ["--series", "udp", "--clients", "10", "--jobs", "1"]),
        ("fig-overload smoke",
         cli + ["fig-overload", "--smoke", "--no-cache", "--jobs", "1",
                "--json", str(tmp / "overload.json")]),
        ("fig-faults smoke",
         cli + ["fig-faults", "--smoke", "--workers", "4", "--seed", "3",
                "--no-cache", "--jobs", "1",
                "--json", str(tmp / "faults.json")]),
        ("fig-attr smoke",
         cli + ["fig-attr", "--smoke", "--transport", "tcp", "--fixes",
                "none,fdcache", "--json", str(tmp / "attr.json"),
                "--journey-trace", str(tmp / "journeys.json")]),
    ]
    runs += [(f"example {name}", [f"examples/{name}.py"])
             for name in ("quickstart", "architecture_tour",
                          "fixes_comparison", "deadlock_demo")]
    return runs


def report_calls(root: Path, modules, out):
    functions = {}   # (rel, first line) -> qualname
    for rel, __, tree in modules:
        if not _is_src(rel):
            continue
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    functions[(rel, _first_line(child))] = qual
                    stack.append((child, f"{qual}.<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
    entered = set()
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               REPRO_SCALE="0.1", PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        env["REPRO_CACHE_DIR"] = str(tmp / "cache")
        runs = traffic(tmp)
        for index, (label, argv) in enumerate(runs):
            prof = tmp / f"run{index}.prof"
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "cProfile", "-o", str(prof), *argv],
                cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"{label} failed:\n{done.stderr[-2000:]}")
            print(f"[calls] {label}: {time.perf_counter() - start:.0f} s",
                  file=sys.stderr)
            for filename, line, __ in pstats.Stats(str(prof)).stats:
                path = Path(os.path.realpath(filename))
                try:
                    rel = path.relative_to(root.resolve()).as_posix()
                except ValueError:
                    continue
                entered.add((rel, line))
    never = sorted(key for key in functions if key not in entered)
    out.append(f"== 4. src/repro functions the non-test traffic never "
               f"enters ({len(never)} of {len(functions)}) ==")
    out.append("traffic: " + "; ".join(label for label, __ in runs))
    by_module = defaultdict(list)
    for rel, line in never:
        by_module[rel].append(f"{functions[(rel, line)]}:{line}")
    for rel in sorted(by_module):
        out.append(rel)
        out.extend(f"    {entry}" for entry in by_module[rel])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to audit (default: this one)")
    parser.add_argument("--calls", action="store_true",
                        help="also run the cProfile sweep (≈15 min)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    modules = load_modules(root)
    head = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=root, capture_output=True,
                          text=True).stdout.strip()
    out = [f"traffic audit at commit {head or 'unknown'}: "
           f"{len(modules)} files", ""]
    report_settables(modules, out)
    out.append("")
    report_references(modules, out)
    if args.calls:
        out.append("")
        report_calls(root, modules, out)
    text = "\n".join(out) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
