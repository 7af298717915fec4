"""Tests for ``benchmarks/byte_identity.py``, the parent-against-head check.

The digest runs themselves train models, so these tests replace
``digest_lines`` with canned output and check what the script decides
from it: which tasks moved, which an added line starting with
``Re-baseline:`` declares, and the exit status.
"""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "byte_identity.py")


@pytest.fixture()
def byte_identity(monkeypatch):
    # The script imports its neighbours from the paths a script run has and
    # pins the BLAS thread variables; undo both after each test.
    monkeypatch.syspath_prepend(os.path.dirname(SCRIPT))
    monkeypatch.syspath_prepend(ROOT)
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("byte_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    os.environ.clear()
    os.environ.update(saved)


def write_changes(checkout, *lines):
    checkout.mkdir(exist_ok=True)
    (checkout / "CHANGES.md").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    return str(checkout)


def canned(outputs):
    """A ``digest_lines`` stand-in: ``outputs[checkout][(seed, dtype)]``
    lists the ``task digest`` lines that run prints."""

    def digest_lines(checkout, seed, dtype):
        lines = outputs[checkout][(seed, dtype)]
        return {line.split(" ", 1)[0]: line for line in lines}

    return digest_lines


def every_run(lines):
    return {("1", "float32"): lines, ("2", "float32"): lines,
            ("1", "float64"): lines}


BASE_LINES = ["fmd/1 end=aa", "fmd/5 end=bb", "zsl_kg/cold encoder=cc"]


class TestDeclaredTasks:
    KNOWN = {"fmd/1", "fmd/5", "zsl_kg/cold"}

    def test_an_added_line_declares_the_known_tasks_it_names(
            self, byte_identity, tmp_path):
        base = write_changes(tmp_path / "base", "old entry")
        head = write_changes(tmp_path / "head", "old entry",
                             "Re-baseline: fmd/1 and zsl_kg/cold move")
        assert byte_identity.declared_tasks(base, head, self.KNOWN) == {
            "fmd/1", "zsl_kg/cold"}

    def test_a_line_the_base_already_has_declares_nothing(
            self, byte_identity, tmp_path):
        old = "Re-baseline: fmd/1"
        base = write_changes(tmp_path / "base", old)
        head = write_changes(tmp_path / "head", old, "a new entry")
        assert byte_identity.declared_tasks(base, head, self.KNOWN) == set()

    def test_paths_and_unmarked_lines_declare_nothing(self, byte_identity,
                                                      tmp_path):
        base = write_changes(tmp_path / "base", "")
        head = write_changes(tmp_path / "head",
                             "fmd/5 changed in src/repro without a marker",
                             "Re-baseline: src/repro moved, grocery/1 too")
        assert byte_identity.declared_tasks(base, head, self.KNOWN) == set()

    def test_the_marker_inside_a_sentence_declares_nothing(
            self, byte_identity, tmp_path):
        base = write_changes(tmp_path / "base", "")
        head = write_changes(
            tmp_path / "head",
            "The check passes once a Re-baseline: line names fmd/1 and "
            "zsl_kg/cold.",
            "  Re-baseline: fmd/5")
        assert byte_identity.declared_tasks(base, head, self.KNOWN) == set()

    def test_a_checkout_without_changes_md(self, byte_identity, tmp_path):
        base = str(tmp_path / "base")
        head = write_changes(tmp_path / "head", "Re-baseline: fmd/5")
        assert byte_identity.declared_tasks(base, head, self.KNOWN) == {
            "fmd/5"}


class TestCompare:
    def test_identical_runs_move_nothing(self, byte_identity, monkeypatch):
        monkeypatch.setattr(byte_identity, "digest_lines", canned(
            {"base": every_run(BASE_LINES), "head": every_run(BASE_LINES)}))
        report, moved, known = byte_identity.compare("base", "head")
        assert moved == set()
        assert known == {"fmd/1", "fmd/5", "zsl_kg/cold"}
        assert report == [f"seed {seed} {dtype}: 3 lines, 0 differ"
                          for seed, dtype in byte_identity.RUNS]

    def test_a_moved_line_is_reported_with_both_digests(self, byte_identity,
                                                        monkeypatch):
        head = every_run(BASE_LINES)
        head[("2", "float32")] = ["fmd/1 end=aa", "fmd/5 end=XX",
                                  "zsl_kg/cold encoder=cc"]
        monkeypatch.setattr(byte_identity, "digest_lines", canned(
            {"base": every_run(BASE_LINES), "head": head}))
        report, moved, _ = byte_identity.compare("base", "head")
        assert moved == {"fmd/5"}
        assert "seed 2 float32: 3 lines, 1 differ" in report
        assert "    base: fmd/5 end=bb" in report
        assert "    head: fmd/5 end=XX" in report

    def test_a_task_on_one_side_only_counts_as_moved(self, byte_identity,
                                                     monkeypatch):
        monkeypatch.setattr(byte_identity, "digest_lines", canned(
            {"base": every_run(BASE_LINES[:2]),
             "head": every_run(BASE_LINES)}))
        report, moved, known = byte_identity.compare("base", "head")
        assert moved == {"zsl_kg/cold"}
        assert "zsl_kg/cold" in known
        assert "    base: <missing>" in report


class TestMain:
    def run(self, byte_identity, monkeypatch, capsys, tmp_path, head_lines,
            changes):
        base = write_changes(tmp_path / "base", "old entry")
        head = write_changes(tmp_path / "head", "old entry", *changes)
        monkeypatch.setattr(byte_identity, "digest_lines", canned(
            {base: every_run(BASE_LINES), head: every_run(head_lines)}))
        monkeypatch.setattr(byte_identity, "HEAD", head)
        monkeypatch.setattr(sys, "argv", ["byte_identity.py", "--base", base])
        status = byte_identity.main()
        return status, capsys.readouterr().out

    def test_matching_bytes_pass(self, byte_identity, monkeypatch, capsys,
                                 tmp_path):
        status, out = self.run(byte_identity, monkeypatch, capsys, tmp_path,
                               BASE_LINES, [])
        assert status == 0
        assert "ok: every output byte matches" in out
        assert out.startswith(f"host (base {tmp_path / 'base'}, head "
                              f"{tmp_path / 'head'}): {{'nproc': ")

    def test_an_undeclared_move_fails_naming_the_task(
            self, byte_identity, monkeypatch, capsys, tmp_path):
        moved = ["fmd/1 end=aa", "fmd/5 end=bb", "zsl_kg/cold encoder=XX"]
        status, out = self.run(byte_identity, monkeypatch, capsys, tmp_path,
                               moved, ["Re-baseline: fmd/5"])
        assert status == 1
        assert out.splitlines()[-1] == (
            "FAIL: output bytes moved without a declared re-baseline: "
            "zsl_kg/cold")

    def test_a_declared_move_passes(self, byte_identity, monkeypatch, capsys,
                                    tmp_path):
        moved = ["fmd/1 end=aa", "fmd/5 end=bb", "zsl_kg/cold encoder=XX"]
        status, out = self.run(byte_identity, monkeypatch, capsys, tmp_path,
                               moved, ["Re-baseline: zsl_kg/cold"])
        assert status == 0
        assert "declared re-baseline: zsl_kg/cold" in out
        assert "outside the declared re-baseline" in out

