"""Run mode: one parser for every ``REPRO_*`` variable, one scoped
override, and the fold on by default."""

import os
import subprocess
import sys

import pytest

from repro.runmode import RunMode, RunModeError, active, override

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _clean_env(**variables):
    """The test process's environment minus every ``REPRO_*`` variable,
    plus ``variables``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env.update(variables)
    return env


def test_defaults_without_variables():
    assert RunMode.from_environ({}) == RunMode(
        fold=True, validate=False, check=False)


@pytest.mark.parametrize("word", ["1", "true", "YES", " on "])
def test_true_words(word):
    mode = RunMode.from_environ({"REPRO_VALIDATE": word,
                                 "REPRO_CHECK": word})
    assert mode.validate and mode.check


@pytest.mark.parametrize("word", ["", "0", "false", "No", "OFF "])
def test_false_words(word):
    mode = RunMode.from_environ({"REPRO_VALIDATE": word,
                                 "REPRO_CHECK": word})
    assert not mode.validate and not mode.check


@pytest.mark.parametrize("name", ["REPRO_VALIDATE", "REPRO_CHECK"])
def test_malformed_flag_names_the_variable(name):
    with pytest.raises(RunModeError, match=name) as caught:
        RunMode.from_environ({name: "maybe"})
    assert caught.value.variable == name
    assert caught.value.value == "maybe"


def test_other_variables_are_ignored():
    """Only the two table names are parsed; any other ``REPRO_*``
    name (retired switches included) is ignored, not rejected."""
    others = {"REPRO_UNKNOWN": "bogus", "REPRO_FOLD": "0",
              "REPRO_FAULT_SEED": "abc"}
    assert RunMode.from_environ(others) == RunMode()


def test_override_is_scoped_and_nests():
    before = active()
    with override(fold=False) as outer:
        assert active() is outer and not outer.fold
        with override(validate=True):
            assert active() == RunMode(
                fold=False, validate=True, check=before.check)
        assert active() is outer
    assert active() is before


def test_override_restores_after_an_exception():
    before = active()
    with pytest.raises(RuntimeError):
        with override(validate=True):
            raise RuntimeError("boom")
    assert active() is before


_FOLD_SCRIPT = """
from repro.cluster.topology import build_pair
from repro.config import NIC_100G
from repro.obs import registry_for
from repro.sim import MS, Simulator

env = Simulator()
cluster = build_pair(env, nic_config=NIC_100G)
client, server = cluster.hosts
size = 256 * 1024
src = client.alloc(size, "src")
dst = server.alloc(size, "dst")
client.space.write(src.vaddr, bytes(i % 251 for i in range(size)))
env.run_until_complete(env.process(
    client.write_sync(1, src.vaddr, dst.vaddr, size)), limit=100 * MS)
env.run()
assert server.space.read(dst.vaddr, size) == bytes(
    i % 251 for i in range(size))
flat = registry_for(env).snapshot().as_flat_dict()
print(sum(v for k, v in flat.items() if k.endswith(".burst.folds")))
"""


def test_fresh_simulator_folds_by_default():
    """No ``REPRO_*`` set: a clean 256 KiB WRITE takes the fold."""
    done = subprocess.run([sys.executable, "-c", _FOLD_SCRIPT],
                          env=_clean_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0


@pytest.mark.parametrize("variable, value", [
    ("REPRO_VALIDATE", "maybe"), ("REPRO_CHECK", "maybe")])
def test_cli_rejects_malformed_variable_in_one_line(variable, value):
    done = subprocess.run(
        [sys.executable, "-m", "repro", "fig7", "--fast"],
        env=_clean_env(**{variable: value}), capture_output=True,
        text=True, timeout=120)
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and variable in lines[0], done.stderr
    assert done.stdout == ""
