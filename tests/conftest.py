"""Shared pytest wiring: collect acceptance outcomes and print one line per
criterion at the end of the run, and capture the sum buffers of runs."""

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
    """Copies of the (B, K) sum buffer of every block ``run_block`` draws, in
    draw order and in the buffer's layout, taken as it is handed to the
    transform that overwrites it."""
    drawn = []
    transform = rfe.estimator.transform_sums

    def recording(z, twiddles):
        drawn.append(z.copy())
        return transform(z, twiddles)

    monkeypatch.setattr(rfe.estimator, "transform_sums", recording)
    return drawn


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for label, status in _acceptance_lines.items():
        terminalreporter.write_line(f"{status:>5}  {label}")
