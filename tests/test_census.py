"""The call census's classification step (``tools/census.py``) on a
synthetic package: a decorated def is keyed by its first decorator's
line (what ``co_firstlineno`` holds), nested defs are not counted, and a
call recorded under a ``pkg/../src`` spelling still lands on its def."""

import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"

MODULE = '''\
import functools


@functools.lru_cache(maxsize=None)
def decorated():
    def nested():
        return 1
    return nested()


def plain():
    return 2


class Box:
    def method(self):
        return 3
'''


def _census():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classification_of_a_synthetic_package(tmp_path):
    census = _census()
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "bench").mkdir()

    defs = census.defs_in(src)
    assert defs == {("pkg/mod.py", 4): ("decorated", 5),
                    ("pkg/mod.py", 11): ("plain", 2),
                    ("pkg/mod.py", 16): ("Box.method", 2)}

    # The code object's first line is the decorator's, as keyed above.
    spec = importlib.util.spec_from_file_location(
        "synthetic_mod", src / "pkg" / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.decorated.__wrapped__.__code__.co_firstlineno == 4

    # A script that put ``bench/../src`` on sys.path records that spelling.
    detour = os.path.join(str(tmp_path), "bench", "..", "src", "pkg",
                          "mod.py")
    product = census.reached([(detour, 4)], src)
    tier1 = census.reached([(str(src / "pkg" / "mod.py"), 16),
                            (str(tmp_path / "elsewhere.py"), 11)], src)
    assert product == {("pkg/mod.py", 4)}
    assert tier1 == {("pkg/mod.py", 16)}

    classes = census.classify(defs, product, tier1)
    assert classes == {"product": [("pkg/mod.py", 4)],
                       "test-only": [("pkg/mod.py", 16)],
                       "unreached": [("pkg/mod.py", 11)]}
    assert census.summary(defs, classes, 17) == {
        "product_defs": 1, "product_lines": 5,
        "test_only_defs": 1, "test_only_lines": 2,
        "unreached_defs": 1, "unreached_lines": 2,
        "src_lines": 17}
