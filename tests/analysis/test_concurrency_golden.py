"""Golden tests for every TAB6xx concurrency diagnostic.

One bad/good fixture pair per code under
``tests/analysis/fixtures/concurrency/``: the bad file must fire the
code (with a sane span), the good file — the same logic, fixed — must
be completely silent. A completeness guard keeps the catalog, the
fixtures and ``docs/static_analysis.md`` in lockstep, mirroring the
regime the SQL-side TAB codes live under.
"""

from pathlib import Path

import pytest

from repro.analysis.concurrency import all_codes, check_paths, check_source, info
from repro.diagnostics import Severity

FIXTURES = Path(__file__).parent / "fixtures" / "concurrency"

#: code -> (bad fixture, good fixture). TAB600's bad fixture is a .txt
#: so that nothing (compileall, import machinery) trips over the
#: deliberate syntax error.
CASES = {
    "TAB600": ("tab600_bad.txt", "tab600_good.py"),
    "TAB601": ("tab601_bad.py", "tab601_good.py"),
    "TAB602": ("tab602_bad.py", "tab602_good.py"),
    "TAB603": ("tab603_bad.py", "tab603_good.py"),
    "TAB605": ("tab605_bad.py", "tab605_good.py"),
    "TAB606": ("tab606_bad.py", "tab606_good.py"),
    "TAB607": ("tab607_bad.py", "tab607_good.py"),
    "TAB608": ("tab608_bad.py", "tab608_good.py"),
    "TAB609": ("tab609_bad.py", "tab609_good.py"),
}


@pytest.mark.parametrize("code", sorted(CASES))
def test_bad_fixture_fires(code):
    bad, _ = CASES[code]
    result = check_paths([FIXTURES / bad])
    fired = [d for d in result.diagnostics if d.code == code]
    assert fired, f"{bad} did not fire {code}; got {[d.code for d in result.diagnostics]}"
    text = (FIXTURES / bad).read_text()
    for diag in fired:
        assert diag.severity == info(code).severity
        assert diag.span is not None
        assert 0 <= diag.span.start <= len(text)
        # The rendering must carry a caret snippet pointing into the file.
        rendered = diag.render()
        assert code in rendered
        assert "^" in rendered


@pytest.mark.parametrize("code", sorted(CASES))
def test_good_fixture_is_silent(code):
    _, good = CASES[code]
    result = check_paths([FIXTURES / good])
    assert not [d for d in result.diagnostics if d.code == code], (
        f"{good} still fires {code}"
    )
    # The fixed fixture must also be clean overall (notes tolerated).
    assert result.error_count == 0 and result.warning_count == 0, (
        f"{good} has unrelated findings: "
        f"{[(d.code, d.message) for d in result.diagnostics]}"
    )


def test_every_tab6xx_code_has_a_golden_pair():
    assert set(CASES) == set(all_codes())


def test_every_tab6xx_code_is_documented():
    doc = (Path(__file__).parent.parent.parent / "docs" / "static_analysis.md").read_text()
    for code in all_codes():
        assert code in doc, f"{code} missing from docs/static_analysis.md"


def test_tab601_bad_fires_three_times():
    """The bad fixture has exactly 3 violations: write, read, mutation."""
    result = check_paths([FIXTURES / "tab601_bad.py"])
    fired = [d for d in result.diagnostics if d.code == "TAB601"]
    assert len(fired) == 3
    messages = "\n".join(d.message for d in fired)
    assert "mutated" in messages and "read" in messages


def test_guard_writes_allows_lock_free_reads():
    source = (FIXTURES / "tab601_bad.py").read_text()
    result = check_source(source, "tab601_bad.py")
    drain_findings = [
        d for d in result.diagnostics if "drain" in d.message
    ]
    assert drain_findings == []


def test_noqa_suppresses_a_single_code():
    source = (FIXTURES / "tab603_bad.py").read_text()
    suppressed = source.replace(
        "time.sleep(0.05)", "time.sleep(0.05)  # noqa: TAB603"
    )
    assert not check_source(suppressed, "x.py").diagnostics
    # The wrong code in the noqa does not suppress.
    miss = source.replace(
        "time.sleep(0.05)", "time.sleep(0.05)  # noqa: TAB601"
    )
    assert [d.code for d in check_source(miss, "x.py").diagnostics] == ["TAB603"]


def test_strict_severity_split():
    """ERROR codes and WARNING codes land where the catalog says."""
    assert info("TAB601").severity == Severity.ERROR
    assert info("TAB602").severity == Severity.ERROR
    assert info("TAB608").severity == Severity.ERROR
    for code in ("TAB603", "TAB605", "TAB606", "TAB607", "TAB609"):
        assert info(code).severity == Severity.WARNING


def test_repo_sources_pass_strict():
    """The flagship acceptance gate: `repro check --strict src/` is clean."""
    src = Path(__file__).parent.parent.parent / "src" / "repro"
    result = check_paths([src])
    offenders = [
        (d.filename, d.code, d.message)
        for d in result.diagnostics
        if d.severity >= Severity.WARNING
    ]
    assert offenders == []


def test_cli_check_subcommand(capsys):
    from repro.cli import main

    bad = str(FIXTURES / "tab601_bad.py")
    assert main(["check", bad]) == 1
    out = capsys.readouterr().out
    assert "TAB601" in out and "error(s)" in out

    good = str(FIXTURES / "tab601_good.py")
    assert main(["check", "--strict", good]) == 0
