"""The exactness gate: at protocol size, every CLI workflow keeps its bytes.

The benchmark's seed-1 fixtures are built with ``perfbench.fixtures.build``
and each case runs once through ``python -m artikit``.  Each workload's
digest (stdout plus output files, ``Outcomes.workload_digest``) must equal the
pinned value.  Every case then runs again fully serial, pinned to one CPU
(``conftest.one_cpu``), so artikit's kernels and OpenBLAS each run on one
thread, through the same ``Outcomes``, which records any byte that differs
from the first run as a problem.  A change that moves a digest on purpose
updates the pinned value and gives the reason in CHANGES.md.
"""

import contextlib
from pathlib import Path

import pytest

from tests.conftest import one_cpu

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PINNED = {
    "evaluate": "f421c3851de7e59721486c4e8bc669b71767cb216e487521ce7328495beeadb9",
    "match": "f245cb479e16beb6843d5b3d5daa2e09536111524d4e5bc042eba80bf9bb8b26",
    "features": "061204774ba31290702ce9acd3a16e9a5d130fb4c4a5b58208c77b2bfce6d24f",
    # articulate --states 6 on the two models of the evaluate jitter case
    "articulate": "43f68a006a7ee4b106d440c2f8a6b631a04e9d3096474985e392f597b0da15c6",
}


def _no_stdout(stdout: str):
    return f"unexpected stdout {stdout[:80]!r}" if stdout else None


def _articulate_cases(fixtures, work: Path) -> list:
    cases = []
    for name in ("jitter_pred", "jitter_gt"):
        out = work / f"states_{name}"
        cases.append(fixtures.Case(
            f"articulate.{name}",
            ["articulate", str(work / "fixtures" / f"{name}.json"), "--states", "6",
             "--out", str(out)],
            [out / f"state_{k:02}.ply" for k in range(6)] + [out / "manifest.json"],
            _no_stdout,
        ))
    return cases


@pytest.mark.parametrize("workload", ["evaluate", "match", "features"])
def test_seed_1_outputs_are_pinned_at_any_thread_count(workload, tmp_path, monkeypatch):
    # perfbench's modules import each other by top-level name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import fixtures
    import run

    groups = {workload: fixtures.build(workload, 1, tmp_path / "fixtures")}
    if workload == "evaluate":
        groups["articulate"] = _articulate_cases(fixtures, tmp_path)
    env = run.child_env()
    outcomes = run.Outcomes()
    for pin in (contextlib.nullcontext, one_cpu):
        with pin():
            for cases in groups.values():
                run.run_untraced(cases, 0, env, tmp_path, outcomes)  # one pass

    assert outcomes.problems == [] and outcomes.failed == 0
    assert outcomes.attempted == 2 * sum(map(len, groups.values()))
    digests = {name: outcomes.workload_digest(cases) for name, cases in groups.items()}
    assert digests == {name: PINNED[name] for name in groups}
