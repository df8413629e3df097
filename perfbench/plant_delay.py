"""Plant a fixed per-call busy-wait in one function of a *copy* of the
simulator, to show that the benchmark sees a slower layer.

Usage::

    git archive HEAD | tar -x -C /tmp/planted
    python3 perfbench/plant_delay.py /tmp/planted repro/algos/crc.py crc64 200

inserts, at the top of ``crc64`` in ``/tmp/planted/src/repro/algos/crc.py``,
a loop that spins for 200 microseconds on every call (for a generator
function: on its first resume).  ``Class.method`` names a method.  Run
the benchmark from the copy afterwards.  The script refuses to edit the
checkout it belongs to.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def find_function(tree, qualname):
    scope = tree.body
    node = None
    for part in qualname.split("."):
        node = next((item for item in scope
                     if isinstance(item, (ast.FunctionDef, ast.ClassDef))
                     and item.name == part), None)
        if node is None:
            raise SystemExit(f"error: {qualname!r} not found")
        scope = node.body
    if not isinstance(node, ast.FunctionDef):
        raise SystemExit(f"error: {qualname!r} is not a function")
    return node


def plant(path, qualname, micros):
    with open(path) as handle:
        source = handle.read()
    func = find_function(ast.parse(source), qualname)
    body = func.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
            and isinstance(first.value.value, str) and len(body) > 1:
        first = body[1]  # keep the docstring first
    lines = source.splitlines(keepends=True)
    indent = " " * first.col_offset
    spin = (f"{indent}_planted_end = __import__('time').perf_counter()"
            f" + {micros * 1e-6!r}\n"
            f"{indent}while __import__('time').perf_counter() < "
            f"_planted_end:\n"
            f"{indent}    pass\n")
    lines.insert(first.lineno - 1, spin)
    with open(path, "w") as handle:
        handle.write("".join(lines))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("copy", help="root of the copy to edit")
    parser.add_argument("module", help="file under src/, e.g. "
                                       "repro/algos/crc.py")
    parser.add_argument("function", help="function or Class.method")
    parser.add_argument("micros", type=float, help="delay per call, us")
    args = parser.parse_args(argv)
    copy = os.path.realpath(args.copy)
    if copy == os.path.realpath(os.path.dirname(HERE)):
        parser.error("refusing to edit the checkout this script is in")
    path = os.path.join(copy, "src", args.module)
    if not os.path.isfile(path):
        parser.error(f"no such file: {path}")
    plant(path, args.function, args.micros)
    print(f"planted {args.micros} us in {args.function} ({path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
