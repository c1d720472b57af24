import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import src_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# Each demo with the files it writes to its output/ directory.
OUTPUTS = {
    "01_extract_pitch_from_audio.py": ["demo_utterance.csv", "extracted_contour.svg"],
    "02_flattening_and_smoothing.py": ["flattening_and_smoothing.svg"],
    "03_modulation_gallery.py": ["sinusoid_modulation.svg", "random_walk_modulation.svg"],
    "04_attack_scenarios.py": [],
    "05_reversibility_attack.py": [],
}


def test_every_demo_is_listed():
    assert sorted(OUTPUTS) == sorted(path.name for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_demo_runs_clean(tmp_path, name):
    # A copy writes its output/ beside itself, under tmp_path. -W error makes
    # any warning a failure.
    demo = tmp_path / name
    shutil.copy(DEMOS / name, demo)
    out = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=src_env(),
                         capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout
    for output in OUTPUTS[name]:
        assert (tmp_path / "output" / output).is_file()
