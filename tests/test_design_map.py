"""DESIGN.md §3's module map lists exactly the modules under src/repro.

The map is the reader's index of the source tree; a file it omits is
invisible to them and a file it names that no longer exists sends them
looking for code that is gone.  Package ``__init__.py`` files are not
required (the map names packages by their directory).
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: one or more comma-separated module names opening a map line
_MODULES = re.compile(r"^(\w+\.py(?:, \w+\.py)*)")


def _map_block(text):
    """The fenced code block under the ``## 3.`` heading."""
    section = text.split("\n## 3. ", 1)[1].split("\n## ", 1)[0]
    return section.split("```", 2)[1]


def mapped_files(text):
    """Paths (relative to src/repro) the module map names.

    Entries at two spaces of indent are top-level modules or packages
    (``name/``); entries at four spaces are modules of the package above
    them; anything deeper is a wrapped description.
    """
    files, package = set(), ""
    for line in _map_block(text).splitlines():
        indent = len(line) - len(line.lstrip(" "))
        entry = line.strip()
        if indent == 2 and entry.split(" ", 1)[0].endswith("/"):
            package = entry.split("/", 1)[0] + "/"
            continue
        match = _MODULES.match(entry)
        if match is None or indent not in (2, 4):
            continue
        prefix = package if indent == 4 else ""
        files.update(prefix + name for name in match.group(1).split(", "))
    return {name for name in files if not name.endswith("__init__.py")}


def source_files():
    return {path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py") if path.name != "__init__.py"}


def test_module_map_names_every_source_file_and_no_other():
    mapped = mapped_files((ROOT / "DESIGN.md").read_text())
    actual = source_files()
    assert sorted(actual - mapped) == [], "missing from DESIGN.md §3"
    assert sorted(mapped - actual) == [], "named in DESIGN.md §3, not in src"


def test_the_parser_reads_packages_and_multi_module_lines():
    text = ("# Doc\n\n## 3. Map\n\n```\nsrc/repro/\n  sim/          engine\n"
            "    engine.py       heap\n"
            "                    wrapped.py is a description, not a module\n"
            "    runner.py, cache.py   two at once\n"
            "  testbed.py    hardware\n  __init__.py   api\n```\n\n## 4. Next\n")
    assert mapped_files(text) == {"sim/engine.py", "sim/runner.py",
                                  "sim/cache.py", "testbed.py"}
