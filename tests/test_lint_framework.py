"""Framework behaviour of repro.lint: the rule list, suppressions, reporters.

Also pins the repository-level acceptance criterion: the real source
tree lints clean with every rule.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lint_support import lint_tree, write_tree

from repro.errors import LintError
from repro.lint import (
    RULES,
    Finding,
    REPORT_VERSION,
    build_rules,
    module_name_for,
    render_json,
    render_text,
    run_lint,
)

REPO = Path(__file__).resolve().parents[1]

#: a fixture whose single line fires `determinism` exactly once.
_CLOCK = {
    "repro/cloud/junk.py": """
        import time

        def stamp():
            return time.time()
    """
}


# ---------------------------------------------------------------------------
# rule list / module resolution
# ---------------------------------------------------------------------------


def test_rules_tuple_names_the_four_rules():
    names = [cls.name for cls in RULES]
    assert len(names) == len(set(names))
    assert names == ["determinism", "float-compare", "layering", "pool-safety"]
    assert [rule.name for rule in build_rules()] == names


def test_module_name_resolution(tmp_path):
    root = write_tree(
        tmp_path,
        {"repro/sim/thing.py": "x = 1\n", "loose.py": "y = 2\n"},
    )
    assert module_name_for(root / "repro/sim/thing.py") == "repro.sim.thing"
    assert module_name_for(root / "repro/sim/__init__.py") == "repro.sim"
    assert module_name_for(root / "loose.py") == "loose"


def test_unknown_rule_and_missing_path_raise_lint_error(tmp_path):
    with pytest.raises(LintError, match="unknown rule"):
        run_lint([tmp_path], rules=["no-such-rule"])
    with pytest.raises(LintError, match="path not found"):
        run_lint([tmp_path / "missing"])


def test_syntax_error_is_a_parse_error_finding(tmp_path):
    """A broken file is a finding on that file, not an internal error."""
    write_tree(
        tmp_path,
        {
            "bad.py": "def broken(:\n",
            "repro/cloud/good.py": """
                import time

                def now():
                    return time.time()
            """,
        },
    )
    result = run_lint([tmp_path], root=tmp_path)
    parse = [f for f in result.findings if f.rule == "parse-error"]
    assert len(parse) == 1
    assert parse[0].path == "bad.py"
    assert "does not parse" in parse[0].message
    # ... and the broken file does not mask findings elsewhere.
    assert any(
        f.rule == "determinism" and f.path == "repro/cloud/good.py"
        for f in result.findings
    )


# ---------------------------------------------------------------------------
# inline suppressions
# ---------------------------------------------------------------------------


def test_suppression_comment_silences_named_rule(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/junk.py": """
                import time

                def stamp():
                    return time.time()  # reprolint: disable=determinism
            """
        },
    )
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_disable_all(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/queueing/junk.py": (
                "def f(x, a, b):\n"
                "    return a / b == x  # reprolint: disable=all\n"
            )
        },
    )
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_of_other_rule_does_not_silence(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/junk.py": """
                import time

                def stamp():
                    return time.time()  # reprolint: disable=float-compare
            """
        },
    )
    assert [f.rule for f in result.findings] == ["determinism"]
    assert result.suppressed == 0


# ---------------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------------


def test_json_report_roundtrips_findings(tmp_path):
    result = lint_tree(tmp_path, _CLOCK)
    blob = render_json(result.findings, result.files, result.rules)
    data = json.loads(blob)
    assert data["version"] == REPORT_VERSION
    assert data["tool"] == "reprolint"
    assert data["rules"] == result.rules
    assert data["counts"] == {"determinism": 1}
    rebuilt = [Finding.from_dict(e) for e in data["findings"]]
    assert rebuilt == result.findings


def test_text_report_clean_and_dirty(tmp_path):
    clean = lint_tree(tmp_path / "c", {"repro/cloud/ok.py": "x = 1\n"})
    text = render_text(clean.findings, clean.files)
    assert f"reprolint: OK ({clean.files} file(s) clean)" in text

    dirty = lint_tree(tmp_path / "d", _CLOCK)
    plain = render_text(dirty.findings, dirty.files)
    assert "[determinism]" in plain and "fix:" not in plain
    hinted = render_text(dirty.findings, dirty.files, fix_hints=True)
    assert "fix: use repro.obs.profile" in hinted
    assert dirty.findings[0].location() in hinted


# ---------------------------------------------------------------------------
# the real tree is clean (acceptance criterion)
# ---------------------------------------------------------------------------


def test_repository_source_lints_clean_with_all_rules():
    result = run_lint([REPO / "src"], root=REPO)
    assert result.findings == [], "\n".join(
        f"{f.location()}: [{f.rule}] {f.message}" for f in result.findings
    )
