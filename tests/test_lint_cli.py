"""The ``repro lint`` CLI surface.

Pins the exit-code contract (0 clean / 1 findings / 2 internal error),
the JSON output mode, ``--fix-hints`` and ``--rules`` subsetting.
"""

from __future__ import annotations

import json

from lint_support import write_tree

from repro.experiments.cli import main
from repro.lint import Finding

_CLOCK = {
    "repro/cloud/junk.py": """
        import time

        def stamp():
            return time.time()
    """
}


def _clean_tree(tmp_path):
    return write_tree(tmp_path / "tree", {"repro/cloud/ok.py": "x = 1\n"})


def _dirty_tree(tmp_path):
    return write_tree(tmp_path / "tree", _CLOCK)


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_lint_exit_zero_on_clean_tree(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _clean_tree(tmp_path)
    assert main(["lint", str(root)]) == 0
    assert "reprolint: OK" in capsys.readouterr().out


def test_lint_exit_one_with_findings(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out
    assert "wall-clock read time.time()" in out
    assert "fix:" not in out  # hints are opt-in


def test_lint_exit_two_on_usage_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["lint", str(tmp_path / "missing")]) == 2
    assert "path not found" in capsys.readouterr().err

    root = _clean_tree(tmp_path)
    assert main(["lint", str(root), "--rules", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err

    # A selection that names no rule must not report a clean tree.
    assert main(["lint", str(root), "--rules", ","]) == 2
    captured = capsys.readouterr()
    assert "no rules selected" in captured.err
    assert "reprolint: OK" not in captured.out


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


def test_lint_fix_hints_mode(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root), "--fix-hints"]) == 1
    out = capsys.readouterr().out
    assert "fix: use repro.obs.profile" in out


def test_lint_rules_subset(tmp_path, capsys, monkeypatch):
    # A determinism violation is invisible to a layering-only run.
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root), "--rules", "layering"]) == 0
    assert "reprolint: OK" in capsys.readouterr().out


def test_lint_json_format_roundtrips(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["tool"] == "reprolint"
    assert data["counts"] == {"determinism": 1}
    rebuilt = [Finding.from_dict(e) for e in data["findings"]]
    assert [f.rule for f in rebuilt] == ["determinism"]
    assert rebuilt[0].hint  # hints always present in JSON


def test_lint_parse_error_is_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = write_tree(tmp_path / "tree", {"repro/cloud/bad.py": "def broken(:\n"})
    assert main(["lint", str(root)]) == 1
    out = capsys.readouterr().out
    assert "[parse-error]" in out

