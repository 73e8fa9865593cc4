import json
import math
from pathlib import Path

import pytest

from midnightq.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "compare_golden.json").read_text())


def _assert_close(got, want, path=""):
    """Same structure and non-float values; every float within 1e-10 relative."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}/{i}")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=0.0), (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("n", sorted(GOLDEN, key=int))
def test_compare_matches_golden_output(n, capsys):
    # Recorded from `compare` when the Gram system and the reconstruction
    # were formed with numpy's BLAS products; only the rounding may differ.
    case = GOLDEN[n]
    assert main(case["argv"]) == 0
    _assert_close(json.loads(capsys.readouterr().out), case["output"])
