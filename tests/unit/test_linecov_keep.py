"""The reach list's KEEP check (``tools/linecov.py``), on a synthetic
called-set: every unreached ``def`` needs a row, and no row may name a
``def`` that is reached or gone."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


@pytest.fixture(scope="module")
def linecov():
    spec = importlib.util.spec_from_file_location(
        "linecov", os.path.join(TOOLS, "linecov.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def world(linecov, tmp_path, monkeypatch):
    """Every ``def`` of src/repro as the tool keys a call, and REACH.md
    redirected to a scratch file."""
    monkeypatch.setattr(linecov, "REACH_MD", str(tmp_path / "REACH.md"))
    called = set()
    names = {}
    for root, _dirs, files in os.walk(linecov.PKG):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                for first, qualname, _ in linecov.function_defs(path):
                    key = (path, first, qualname.rpartition(".")[2])
                    called.add(key)
                    names[(linecov._module_name(path), qualname)] = key
    return called, names


def test_complete_table_exits_zero(linecov, world, tmp_path):
    called, names = world
    module, qualname = "repro/wire/codec.py", "_decode_token"
    keep = {(module, qualname): "safety code"}
    assert linecov.check_keep(called - {names[module, qualname]}, keep) == 0
    assert f"- `{qualname}` (" in (tmp_path / "REACH.md").read_text()
    assert "safety code" in (tmp_path / "REACH.md").read_text()


def test_missing_row_exits_one_and_names_the_def(linecov, world, capsys):
    called, names = world
    key = names["repro/wire/codec.py", "_decode_token"]
    assert linecov.check_keep(called - {key}, {}) == 1
    assert "`_decode_token` is unreached and has no KEEP row" in (
        capsys.readouterr().err)


def test_row_for_a_reached_def_is_stale(linecov, world, capsys):
    called, _ = world
    keep = {("repro/wire/codec.py", "_decode_token"): "safety code"}
    assert linecov.check_keep(called, keep) == 1
    assert "`_decode_token` names a def that is reached or gone" in (
        capsys.readouterr().err)


def test_row_for_a_deleted_def_is_stale(linecov, world, capsys):
    called, _ = world
    keep = {("repro/config.py", "TotemConfig.with_style"): "deleted"}
    assert linecov.check_keep(called, keep) == 1
    assert "`TotemConfig.with_style` names a def that is reached or gone" in (
        capsys.readouterr().err)


def test_committed_table_names_only_defs_that_exist(linecov):
    defs = {(linecov._module_name(os.path.join(root, name)), qualname)
            for root, _dirs, files in os.walk(linecov.PKG)
            for name in files if name.endswith(".py")
            for _, qualname, _ in linecov.function_defs(
                os.path.join(root, name))}
    assert set(linecov.KEEP) <= defs
