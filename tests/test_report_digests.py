import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
spec = importlib.util.spec_from_file_location("report_digests", TOOL)
report_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digests)


def test_diff_lists_moved_and_missing_payloads(tmp_path, capsys):
    a = {"dnorm/0/2x2_2_p2/0": "aa", "verify/0/verify/0": "bb", "summing/0/t2/0": "cc"}
    b = {"dnorm/0/2x2_2_p2/0": "aa", "verify/0/verify/0": "bd", "summing/5/t2/0": "cc"}
    for name, d in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(d))
    code = report_digests.main(["--diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert code == 1
    assert capsys.readouterr().out.split() == [
        "summing/0/t2/0", "summing/5/t2/0", "verify/0/verify/0"]
    assert report_digests.main(["--diff", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
