"""``benchmarks/host_owner.py``'s shares carry their sampling error."""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "host_owner", ROOT / "benchmarks" / "host_owner.py")
host_owner = importlib.util.module_from_spec(_spec)
_path = list(sys.path)
_spec.loader.exec_module(host_owner)  # it puts benchmarks/perf on the path
sys.path[:] = _path


@pytest.mark.parametrize("count, total, text", [
    (35, 350, " 10.0 % ± 3.2"),    # a bench run's ≈350 samples
    (35, 3500, "  1.0 % ± 0.3"),
    (0, 350, "  0.0 % ± 0.0"),
    (350, 350, "100.0 % ± 0.0"),
], ids=["10-of-350", "1-of-3500", "none", "all"])
def test_share_prints_its_two_sigma_binomial_interval(count, total, text):
    assert host_owner.share(count, total) == text
