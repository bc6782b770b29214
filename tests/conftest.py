"""Shared pytest plumbing: surface acceptance-criterion lines after capture."""

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def assert_covers_four_trial_rounds(halvings: list[tuple[str, int]]) -> None:
    """The line searches of a one-trial-at-a-time oracle reach every case of a round of four
    halvings: a gain after 0, 1, 2 and 3 losses, a gain after more than four losses (its
    losses span rounds), and a step floor crossed in the middle of a round."""
    gains = {losses for kind, losses in halvings if kind == "gain"}
    floors = {losses for kind, losses in halvings if kind == "floor"}
    assert {0, 1, 2, 3} <= gains, sorted(gains)
    assert max(gains) > 4, sorted(gains)
    assert any(losses % 4 for losses in floors), sorted(floors)
