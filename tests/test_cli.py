"""Tests for the repro-khop CLI."""

import zlib

import pytest

from repro.cli import build_parser, main
from repro.figures import ablations, common, figure4, overhead


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure4_options(self):
        args = build_parser().parse_args(
            ["figure4", "--n", "50", "--k", "3", "--seed", "9"]
        )
        assert args.command == "figure4"
        assert args.n == 50 and args.k == 3 and args.seed == 9

    def test_global_trials(self):
        args = build_parser().parse_args(["--trials", "5", "figure5"])
        assert args.trials == 5

    def test_traffic_options(self):
        args = build_parser().parse_args(
            [
                "traffic",
                "--n",
                "120",
                "--flows",
                "500",
                "--workload",
                "hotspot",
                "--lifetime-epochs",
                "3",
            ]
        )
        assert args.command == "traffic"
        assert args.n == 120 and args.flows == 500
        assert args.workload == "hotspot" and args.lifetime_epochs == 3

    def test_traffic_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["traffic", "--workload", "nope"])


class TestMain:
    @pytest.fixture(autouse=True)
    def results_dir(self, monkeypatch, tmp_path):
        """Send every CSV export to ``tmp_path``, never the checkout's
        tracked ``results/``."""
        for module in (ablations, common, figure4, overhead):
            monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)

    def test_figure4_end_to_end(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "2")
        rc = main(["figure4", "--n", "50", "--k", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gateways" in out

    def test_overhead_command(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRIALS", "2")
        rc = main(["--trials", "1", "overhead"])
        assert rc == 0
        assert "overhead" in capsys.readouterr().out.lower()
        assert (tmp_path / "overhead.csv").is_file()

    def test_all_paper_artifacts_pinned(self, capsys, monkeypatch):
        """Every paper artifact at one trial, byte for byte.

        Pins the stdout of ``python -m repro.cli --trials 1 all`` (33,485
        bytes): a change to any figure, table or plot the paper sweep
        prints moves the digest.  The CSV exports go to ``tmp_path``
        (the class's autouse fixture).
        """
        monkeypatch.setenv("REPRO_TRIALS", "1")
        assert main(["--trials", "1", "all"]) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), f"{zlib.crc32(out):08x}") == (33_485, "b81573e3")

    def test_traffic_end_to_end(self, capsys):
        rc = main(
            ["traffic", "--n", "100", "--degree", "6", "--flows", "300", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "packet-hops" in out and "CDS share" in out

    @pytest.mark.parametrize(
        "argv, pin",
        [
            ("traffic --n 300 --flows 500 --seed 7", (484, "7e3b880c")),
            (
                "traffic --n 300 --flows 500 --seed 7 --balance "
                "--radio-budget 50 --lifetime-epochs 10",
                (986, "ea3f5d89"),
            ),
            ("mobility --n 400 --snapshots 10 --seed 7", (1018, "4de9c2de")),
            (
                "mobility --n 200 --snapshots 4 --seed 3 --engine rebuild",
                (595, "c1d4eadd"),
            ),
            ("chaos --seed 7 --events 100 --join-weight 0.2", (171, "588fdd1d")),
            ("serve --n 150 --events 300 --seed 7", (1706, "91b4d046")),
        ],
    )
    def test_command_stdout_pinned(self, capsys, argv, pin):
        """The stdout of each simulation command, byte for byte.

        Covers the commands the CI and the Makefile drive with explicit
        flags (the balanced run adds tie-break trees, Yen detours,
        congestion and lifetime carries; the serve run ends at
        fingerprint ``a72cb732``), so a change to an option's default,
        its parsing or a report's rendering moves the digest.
        """
        assert main(argv.split()) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), f"{zlib.crc32(out):08x}") == pin


class TestChaosCommand:
    def test_chaos_options(self):
        args = build_parser().parse_args(
            ["chaos", "--seed", "5", "--events", "42", "--n", "60"]
        )
        assert args.command == "chaos"
        assert args.seed == 5 and args.events == 42 and args.n == 60

    def test_chaos_end_to_end(self, capsys):
        code = main(
            ["chaos", "--seed", "9", "--events", "40", "--n", "60",
             "--flows", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all invariants held" in out
        assert "seed=9" in out


class TestStatsCommand:
    def test_stats_options(self):
        args = build_parser().parse_args(
            ["stats", "--n", "80", "--backend", "lazy", "--flows", "200"]
        )
        assert args.command == "stats"
        assert args.n == 80 and args.backend == "lazy" and args.flows == 200
        assert args.trace is None

    def test_stats_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--backend", "nope"])

    def test_stats_end_to_end(self, capsys):
        rc = main(
            ["stats", "--n", "80", "--degree", "6", "--flows", "120",
             "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "manifest: schema=repro-khop-trace/1" in out
        assert "knobs:" in out and "seed=3" in out
        # the span flame covers the pipeline stages
        for stage in ("traffic", "router", "epochs"):
            assert stage in out
        assert "of tallest root" in out
        assert "counters:" in out or "gauges:" in out
        # the layer is switched back off afterwards
        from repro import obs

        assert not obs.enabled()

    def test_stats_optionally_writes_trace(self, capsys, tmp_path):
        trace = tmp_path / "s.jsonl"
        rc = main(
            ["stats", "--n", "80", "--degree", "6", "--flows", "120",
             "--seed", "3", "--trace", str(trace)]
        )
        assert rc == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        assert trace.is_file()


class TestTracedRuns:
    @staticmethod
    def span_names(span_dict):
        names = {span_dict["name"]}
        for child in span_dict.get("children", ()):
            names |= TestTracedRuns.span_names(child)
        return names

    def test_traffic_trace_writes_full_jsonl(self, capsys, tmp_path):
        from repro import obs

        trace = tmp_path / "t.jsonl"
        rc = main(
            ["traffic", "--n", "80", "--degree", "6", "--flows", "150",
             "--seed", "3", "--trace", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "packet-hops" in out
        assert f"trace written to {trace}" in out
        manifest, spans, metrics = obs.read_trace(trace)
        assert manifest["knobs"]["command"] == "traffic"
        assert manifest["knobs"]["n"] == 80
        # The knobs are the parsed options, less the budget and the path.
        parsed = vars(build_parser().parse_args(["traffic"]))
        assert set(manifest["knobs"]) == set(parsed) - {"trials", "trace"}
        assert len(spans) == 1
        names = self.span_names(spans[0])
        assert {"traffic", "topology", "cluster", "cds", "labels",
                "router", "epochs", "epoch"} <= names
        assert metrics["gauges"]  # oracle/paths stats landed
        assert not obs.enabled()

    def test_mobility_trace_writes_jsonl(self, capsys, tmp_path):
        from repro import obs

        trace = tmp_path / "m.jsonl"
        rc = main(
            ["mobility", "--n", "80", "--degree", "6", "--flows", "100",
             "--snapshots", "3", "--seed", "3", "--trace", str(trace)]
        )
        assert rc == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        manifest, spans, _ = obs.read_trace(trace)
        assert manifest["knobs"]["command"] == "mobility"
        assert manifest["knobs"]["snapshots"] == 3
        names = self.span_names(spans[0])
        assert "mobility" in names and "epoch" in names

    def test_chaos_trace_writes_jsonl(self, capsys, tmp_path):
        from repro import obs

        trace = tmp_path / "c.jsonl"
        rc = main(
            ["chaos", "--seed", "9", "--events", "40", "--n", "60",
             "--flows", "60", "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "all invariants held" in out
        assert f"trace written to {trace}" in out
        manifest, spans, _ = obs.read_trace(trace)
        assert manifest["knobs"]["command"] == "chaos"
        assert manifest["knobs"]["keep_going"] is False
        names = self.span_names(spans[0])
        assert "chaos" in names and "batch" in names
