"""Chaos harness: clean campaigns, determinism, and repro rendering."""

import pytest

from repro.errors import InvalidParameterError
from repro.faults.chaos import run_chaos, render_chaos


class TestRunChaos:
    def test_small_campaign_holds_invariants(self):
        report = run_chaos(seed=3, events=60, n=60, flows=80)
        assert report.ok
        assert not report.violations
        assert report.events_applied >= 60
        assert report.checks_run > 0
        # Non-empty batches each ran the edge/backbone/router/loss checks.
        assert any(r.checks for r in report.epochs)

    def test_identical_seed_identical_campaign(self):
        a = run_chaos(seed=11, events=40, n=50, flows=60)
        b = run_chaos(seed=11, events=40, n=50, flows=60)
        assert a.events_applied == b.events_applied
        assert a.violations == b.violations
        assert [
            (r.epoch, r.events_applied, r.alive, r.edges, r.components,
             r.flows_routable, r.delivered, r.checks)
            for r in a.epochs
        ] == [
            (r.epoch, r.events_applied, r.alive, r.edges, r.components,
             r.flows_routable, r.delivered, r.checks)
            for r in b.epochs
        ]

    def test_growth_campaign_holds_invariants(self):
        # Arrivals interleaved with crashes, flaps and jams: the compiled
        # graph, component-local backbones, inheritance identity and the
        # loss ledger must all survive grow+shrink+rewire composition.
        report = run_chaos(
            seed=5, events=60, n=60, flows=80, join_weight=0.3
        )
        assert report.ok, report.violations
        assert report.checks_run > 0
        # The population actually grew past the initial deployment at
        # some point (alive = current n minus dead).
        assert max(r.alive for r in report.epochs) > 60 - 5

    def test_growth_campaign_deterministic(self):
        a = run_chaos(seed=13, events=40, n=50, flows=60, join_weight=0.25)
        b = run_chaos(seed=13, events=40, n=50, flows=60, join_weight=0.25)
        assert a.violations == b.violations
        assert [
            (r.epoch, r.alive, r.edges, r.delivered) for r in a.epochs
        ] == [(r.epoch, r.alive, r.edges, r.delivered) for r in b.epochs]

    def test_join_weight_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_chaos(seed=1, events=10, join_weight=1.0)

    def test_non_localized_algorithm_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_chaos(seed=1, events=10, algorithm="G-MST")

    def test_zero_events_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_chaos(seed=1, events=0)


class TestRenderChaos:
    def test_clean_run_renders_success(self):
        report = run_chaos(seed=4, events=30, n=50, flows=60)
        text = render_chaos(report)
        assert "all invariants held" in text
        assert f"seed={report.seed}" in text

    def test_violation_lines_carry_repro(self):
        report = run_chaos(seed=4, events=30, n=50, flows=60)
        # Forge a violation to exercise the failure rendering path
        # without needing a real engine bug.
        report.violations.append(
            "seed=4 events=12: forged (repro: repro-khop chaos "
            "--seed 4 --events 30)"
        )
        text = render_chaos(report)
        assert "VIOLATION" in text
        assert "repro-khop chaos --seed 4" in text


def _asymmetric(graph):
    """A CSR guard that always reports the asymmetry it exists to catch."""
    return "CSR adjacency asymmetric: arc (0, 1) has no reverse"


class TestTraceRepro:
    def test_violation_repro_line_carries_trace_flag(self, monkeypatch):
        # Force invariant 1's CSR check to fail so violate() runs; a
        # traced campaign's repro line must name the trace artifact.
        from repro.faults import chaos as chaos_mod

        monkeypatch.setattr(chaos_mod, "check_csr_symmetry", _asymmetric)
        report = run_chaos(
            seed=4, events=30, n=50, flows=60, trace_path="run.jsonl"
        )
        assert not report.ok
        line = report.violations[0]
        assert "CSR adjacency asymmetric" in line
        assert line.endswith("--trace run.jsonl)")

    def test_untraced_repro_line_has_no_trace_flag(self, monkeypatch):
        from repro.faults import chaos as chaos_mod

        monkeypatch.setattr(chaos_mod, "check_csr_symmetry", _asymmetric)
        report = run_chaos(seed=4, events=30, n=50, flows=60)
        assert not report.ok
        assert "--trace" not in report.violations[0]
