import json
from pathlib import Path

from xaimeta.consistency import CellResult, MetaVector
from xaimeta.report import write_report


def adversarial_cell(test):
    vector = MetaVector(1.0, 0.0, 1.0, 0.0, mc=0.5)
    return CellResult(
        estimator_id="adversarial_deterministic",
        test=test,
        mean=vector,
        std={"iac_nr": 0.0, "iac_ar": 0.0, "iec_nr": 0.0, "iec_ar": 0.0, "mc": 0.0},
        per_iteration=[vector],
        diagnostics={"dropped": [0, 0], "undefined": [0, 0], "total": [8, 8], "mean_attempts": [1.0, 2.0]},
    )


def fake_results():
    return {
        ("adversarial_deterministic", "ipt"): adversarial_cell("ipt"),
        ("adversarial_deterministic", "mpt"): adversarial_cell("mpt"),
    }


class TestWriteReport:
    def test_summary_row_reads_like_the_sanity_table(self, tmp_path):
        paths = write_report(fake_results(), {"run": {"k": 5}}, master_seed=7, out_dir=tmp_path)
        lines = Path(paths["summary"]).read_text().splitlines()
        assert lines[0] == "estimator,test,mc_bar,mc,iac_nr,iac_ar,iec_nr,iec_ar"
        assert lines[1] == "adversarial_deterministic,ipt,0.5,0.5,1.0,0.0,1.0,0.0"
        assert lines[2] == "adversarial_deterministic,mpt,0.5,0.5,1.0,0.0,1.0,0.0"

    def test_results_json_payload(self, tmp_path):
        paths = write_report(fake_results(), {"run": {"k": 5}}, master_seed=7, out_dir=tmp_path)
        payload = json.loads(Path(paths["results"]).read_text())
        assert payload["master_seed"] == 7
        assert payload["config"] == {"run": {"k": 5}}
        cell = payload["cells"][0]
        assert cell["mean"]["mc"] == 0.5
        assert cell["diagnostics"]["dropped_samples"] == [0, 0]
        assert len(cell["iterations"]) == 1

    def test_areagraph_vertices(self, tmp_path):
        paths = write_report(fake_results(), {}, master_seed=0, out_dir=tmp_path)
        lines = Path(paths["areagraph"]).read_text().splitlines()
        assert lines[0] == "estimator,test,criterion,x,y"
        ipt_rows = [l for l in lines[1:] if ",ipt," in l]
        assert ipt_rows == [
            "adversarial_deterministic,ipt,iac_nr,1.0,0.0",
            "adversarial_deterministic,ipt,iec_nr,0.0,1.0",
            "adversarial_deterministic,ipt,iac_ar,-0.0,0.0",
            "adversarial_deterministic,ipt,iec_ar,0.0,-0.0",
        ]

    def test_byte_identical_on_rewrite(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_report(fake_results(), {"run": {"k": 5}}, master_seed=7, out_dir=a)
        write_report(fake_results(), {"run": {"k": 5}}, master_seed=7, out_dir=b)
        for name in ("results.json", "summary.csv", "areagraph.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
