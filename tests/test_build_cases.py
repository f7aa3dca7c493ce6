"""The bundled synthetic case files are exactly what scripts/build_cases.py
writes: a full rebuild into an empty directory reproduces all of them byte
for byte."""

import importlib.util
from pathlib import Path

import pytest

from tomlinks.casefile import load_bundled, parse_case_text
from tomlinks.pfaffian import TomFormat, WeightMatrix5
from tomlinks.unprojection import build_unprojection

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
    script.build_all()
    written = sorted(p.name for p in tmp_path.iterdir())
    generated = sorted(p.name for p in CASES.glob("*.case") if p.name not in HAND_WRITTEN)
    assert written == generated
    assert len(written) == 19
    assert [n for n in written if (tmp_path / n).read_bytes() != (CASES / n).read_bytes()] == []


def test_build_all_reports_the_cases_it_could_not_build(tmp_path, monkeypatch):
    script = load_script()
    script.CASES_DIR = tmp_path
    monkeypatch.setattr(script, "finalize",
                        lambda case_id, *args, **kwargs: None if case_id == "6865" else "-\n")
    assert script.build_all() == ["6865"]
    assert not (tmp_path / "6865.case").exists() and (tmp_path / "1218.case").exists()


def test_drive_lets_a_program_error_through(monkeypatch):
    # only a failed link or an exhausted budget rejects an attempt
    script = load_script()

    def broken(case, seed):
        raise TypeError("bug in trace_link")

    monkeypatch.setattr(script, "trace_link", broken)
    with pytest.raises(TypeError, match="bug in trace_link"):
        script.drive(load_bundled("10985").to_fano_case(), 0)



@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_finalize_writes_weights_that_normalise_back(k):
    # the file is in Tom_k labelling; the unprojection's normalising
    # permutation must take its weights back to W
    script = load_script()
    W = WeightMatrix5.from_list([1, 2, 3, 4, 3, 4, 5, 5, 6, 7])
    text = script.finalize("relabel", (1, 1, 1), (6, 5, 4, 3), 2, k, W, seed=0, comment="-")
    case = parse_case_text(text).to_fano_case()
    assert case.tom_k == k
    res = build_unprojection(case.build_matrix(0), TomFormat(k), case.r)
    assert res.weights == W
