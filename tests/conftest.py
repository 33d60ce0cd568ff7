"""Shared pytest wiring: collect acceptance outcomes and print one line per
criterion at the end of the run, and capture the outcome sums of runs."""

import pytest

import rfe.estimator

_acceptance_lines: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    label = marker.kwargs.get("label", item.name)
    if hasattr(report, "wasxfail"):
        status = "XFAIL" if report.skipped else "XPASS"
    elif report.passed:
        status = "PASS"
    elif report.failed:
        status = "FAIL"
    else:
        status = "SKIP"
    _acceptance_lines[label] = status


@pytest.fixture
def drawn_sums(monkeypatch):
    """Copies of the (B, K) outcome sums of every block ``run_block`` draws,
    in draw order, taken before its FFT overwrites them."""
    drawn = []

    def recording(draw):
        def wrapper(*args, **kwargs):
            sums = draw(*args, **kwargs)
            drawn.append(sums.z.copy())
            return sums
        return wrapper

    for name in ("sample_outcome_sums", "sums_at_times"):
        monkeypatch.setattr(rfe.estimator, name, recording(getattr(rfe.estimator, name)))
    return drawn


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for label, status in _acceptance_lines.items():
        terminalreporter.write_line(f"{status:>5}  {label}")
