"""The bundled synthetic case files are exactly what scripts/build_cases.py
writes: a full rebuild into an empty directory reproduces all of them byte
for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "src" / "tomlinks" / "cases"
# the three worked examples are hand-written, not generated
HAND_WRITTEN = {"10985.case", "20652.case", "24097.case"}


def load_script():
    spec = importlib.util.spec_from_file_location("build_cases", ROOT / "scripts" / "build_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rebuild_reproduces_the_bundled_cases(tmp_path):
    script = load_script()
    script.CASES_DIR = tmp_path
    script.build_fixed()
    script.build_skip_demos()
    script.build_tag_iv()
    script.build_table1()
    written = sorted(p.name for p in tmp_path.iterdir())
    generated = sorted(p.name for p in CASES.glob("*.case") if p.name not in HAND_WRITTEN)
    assert written == generated
    assert len(written) == 19
    assert [n for n in written if (tmp_path / n).read_bytes() != (CASES / n).read_bytes()] == []
