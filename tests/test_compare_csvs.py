import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_csvs.py"
_spec = importlib.util.spec_from_file_location("compare_csvs", _PATH)
compare_csvs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_csvs)


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


BASE = {
    "cfg/eigen/eigen.csv": "lambda1,0.015918654422896639\npatch_index,x,value\n1,0,0.5\n",
    "cfg/eigen/exit_code": "0\n",
    "cfg/pip/pip.csv": "resident_p\\mutant_p,1,1.5\n2.5,-1,1\n",
    "cfg/classify/prediction.csv": "region,invade,verdict\nL3,Yes,Coexistence\n",
    "cfg/simulate/stdout.txt": "verdict: Coexistence (t = 652)\n",
}


def run(tmp_path, changes, capsys):
    old = write_tree(tmp_path / "old", BASE)
    new = write_tree(tmp_path / "new", {**BASE, **changes})
    status = compare_csvs.main([str(old), str(new)])
    return status, capsys.readouterr().out


def test_identical_trees(tmp_path, capsys):
    status, out = run(tmp_path, {}, capsys)
    assert status == 0
    assert "largest numeric change: 0.000e+00" in out


def test_numeric_change_is_reported_not_failed(tmp_path, capsys):
    eigen = BASE["cfg/eigen/eigen.csv"].replace("0.015918654422896639", "0.01591865442275529")
    status, out = run(tmp_path, {"cfg/eigen/eigen.csv": eigen}, capsys)
    assert status == 0
    assert "largest numeric change: 1.413e-13 (cfg/eigen/eigen.csv)" in out


@pytest.mark.parametrize(
    "rel,old,new",
    [
        ("cfg/pip/pip.csv", "2.5,-1,1", "2.5,1,1"),  # a sign
        ("cfg/eigen/exit_code", "0", "2"),  # an exit code
        ("cfg/classify/prediction.csv", "L3,Yes", "L2,Yes"),  # a region
        ("cfg/simulate/stdout.txt", "Coexistence", "ResidentWins"),  # a verdict
        ("cfg/simulate/stdout.txt", "t = 652", "t = 653"),  # a step count
    ],
)
def test_non_numeric_change_fails(tmp_path, capsys, rel, old, new):
    status, out = run(tmp_path, {rel: BASE[rel].replace(old, new)}, capsys)
    assert status == 1
    assert f"DIFF {rel}" in out


def test_file_on_one_side_fails(tmp_path, capsys):
    status, out = run(tmp_path, {"cfg/sweep/sweep.csv": "index\n"}, capsys)
    assert status == 1
    assert "DIFF cfg/sweep/sweep.csv: only in new" in out


def test_integer_written_float_compares_numerically():
    assert compare_csvs.compare_line("1,0,1", "1,0,0.99999999999999989") == pytest.approx(1.1e-16)
