"""The README's library example runs as printed and prints what it shows."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_prints_its_rule(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    expected = [line[2:] for line in blocks[0].splitlines() if line.startswith("# w=")]
    assert expected == ["w=0.0 BLT() <- Fry(X0->X0) , Put(X1->X0) | 0 {AFTER} 1"]
    run = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected
