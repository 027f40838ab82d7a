"""The per-command peak RSS and page fault tool, on a one-epoch toy chain."""

import dataclasses
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "peak_rss.py")
_SPEC = importlib.util.spec_from_file_location("peak_rss", _PATH)
peak_rss = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(peak_rss)


def test_reports_the_peak_of_every_command(tmp_path):
    toy = dataclasses.replace(peak_rss.wl.WORKLOADS["toy-mlp"], cli_epochs=1)
    usage = peak_rss.measure(toy, 3, str(tmp_path))
    assert list(usage) == list(peak_rss.wl.CLI_STEPS)
    # each is a whole Python process with numpy loaded, and none is huge
    assert all(10.0 < u.peak_mib < 1024.0 for u in usage.values()), usage
    # starting Python and importing numpy alone faults in thousands of
    # pages, so a count read from the child's own rusage is far from zero
    for u in usage.values():
        assert isinstance(u.minor_faults, int)
        assert 1000 < u.minor_faults, usage


def test_main_prints_each_step_and_the_max(capsys, monkeypatch):
    toy = dataclasses.replace(peak_rss.wl.WORKLOADS["toy-mlp"], cli_epochs=1)
    monkeypatch.setitem(peak_rss.wl.WORKLOADS, "toy-mlp", toy)
    assert peak_rss.main(["--workload", "toy-mlp", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(peak_rss.wl.CLI_STEPS) + ["max"]
    for line in lines[:-1]:
        _, mib, unit, faults, *label = line.split()
        assert (unit, label) == ("MiB", ["minor", "faults"]), line
        assert float(mib) > 0 and int(faults) > 0, line
    assert lines[-1].endswith(" MiB")


def test_a_failing_command_raises_naming_it(tmp_path):
    broken = dataclasses.replace(peak_rss.wl.WORKLOADS["toy-mlp"], variant="no_such_preset")
    with pytest.raises(RuntimeError, match="cli train exits 0"):
        peak_rss.measure(broken, 3, str(tmp_path))
