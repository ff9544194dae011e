"""EXPERIMENTS.md report generator."""

from pathlib import Path

from repro.experiments.report import REGISTRY, main, render

ROOT = Path(__file__).resolve().parents[2]


class TestRender:
    def test_includes_available_results(self, tmp_path):
        (tmp_path / "fig1a.txt").write_text("FIG1A TABLE CONTENT")
        text = render(tmp_path)
        assert "FIG1A TABLE CONTENT" in text
        assert "paper vs measured" in text.lower()

    def test_flags_missing_results(self, tmp_path):
        text = render(tmp_path)
        assert "Missing results" in text
        assert "fig1a" in text

    def test_every_registry_entry_has_claim(self):
        for entry in REGISTRY:
            assert entry.paper_claim
            assert entry.result_ids

    def test_registry_covers_all_paper_artefacts(self):
        ids = {rid for entry in REGISTRY for rid in entry.result_ids}
        expected = {
            "fig1a", "fig1b", "fig4a", "fig4b", "fig5", "fig6", "fig7",
            "fig8", "table1", "table2_text_matching", "fig9_fig14",
            "fig10_normal", "fig10_gamma", "fig12", "fig17", "fig18",
            "fig19", "fig13", "fig16_text_matching", "fig20a", "fig20b",
            "fig21",
        }
        assert expected.issubset(ids)


class TestCommitted:
    def test_experiments_md_is_generated(self):
        # EXPERIMENTS.md is the generator's output over the committed
        # results: a hand edit would be lost on the next regeneration.
        assert render(ROOT / "benchmarks" / "results") == (
            ROOT / "EXPERIMENTS.md"
        ).read_text()


class TestMain:
    def test_writes_output(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1a.txt").write_text("table")
        out = tmp_path / "EXPERIMENTS.md"
        assert main([str(results), str(out)]) == 0
        assert out.exists()
        assert "table" in out.read_text()
