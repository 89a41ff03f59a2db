import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from chaosclt import cli
from chaosclt.bounds import BoundReport, nz_ratio_diagnostic
from chaosclt.chaos import SecondChaosSpectrum
from chaosclt.cli import main
from chaosclt.errors import ValidationError
from chaosclt.experiments import (BoundConfig, NzConfig, RatesConfig,
                                  RatioConfig, ResultTable,
                                  _power_variation_samples,
                                  run_bound_report, run_nz_diagnostics,
                                  run_rates, run_ratio)
from chaosclt.kernels import (kernel_from_json, kernel_to_json, DenseKernel,
                              RankOneSumKernel)
from chaosclt.stationary import (CovarianceFunction, PathSampler,
                                 even_power, sample_paths)
from chaosclt.streams import (BLOCK_SIZE, CHUNK_NORMALS, STREAM_PROTOCOL,
                              block_normals, replica_blocks)

from oracles import power_variation


def eigenvalue_sum_json(m):
    return kernel_to_json(RankOneSumKernel(order=2, coeffs=np.ones(m),
                                           vectors=np.eye(m)))


def chi_square_kolmogorov_distance(n):
    """sup_x |P((chi2(n) - n) / sqrt(2n) <= x) - Phi(x)| on a fine grid."""
    x = np.linspace(-8.0, 8.0, 400_001)
    gap = stats.chi2.cdf(n + x * math.sqrt(2.0 * n), n) - stats.norm.cdf(x)
    return float(np.abs(gap).max())


class TestResultTable:
    def test_header_is_the_first_rows_keys(self):
        table = ResultTable(rows=[{"a": 1, "b": 0.5}, {"a": 2, "b": 1.5}],
                            metadata={})
        assert table.to_csv_string() == "a,b\n1,0.5\n2,1.5\n"

    @pytest.mark.parametrize("row", [
        pytest.param({"b": 1.5, "a": 2}, id="reordered"),
        pytest.param({"a": 2}, id="missing"),
        pytest.param({"a": 2, "b": 1.5, "c": 3}, id="extra"),
        pytest.param({"a": 2, "c": 1.5}, id="renamed"),
    ])
    def test_row_with_other_keys_raises(self, row):
        table = ResultTable(rows=[{"a": 1, "b": 0.5}, row], metadata={})
        with pytest.raises(ValueError, match="row 1"):
            table.to_csv_string()


class TestRatesExperiment:
    def test_iid_case_recovers_clt_rate(self):
        # at H = 1/2 the path is white noise and n Q_{2,n} ~ chi2(n), so the
        # exact distance of the standardized statistic is known; each
        # estimate must lie within the DKW epsilon of it
        cfg = RatesConfig(hurst=0.5, n_grid=[64, 128, 256, 512],
                          replicas=20_000, seed=7)
        table = run_rates(cfg)
        assert len(table.rows) == 4
        assert table.metadata["predicted_exponent"] == -0.5
        eps = math.sqrt(math.log(2.0 / 1e-9) / (2.0 * cfg.replicas))
        for row in table.rows:
            assert row["stream"] == 0
            assert 0.0 <= row["d_kol"] <= 1.0
            exact = chi_square_kolmogorov_distance(row["n"])
            assert abs(row["d_kol"] - exact) <= eps, (row["n"], row["d_kol"],
                                                      exact)
            assert row["bound_total"] > 0.0

    def test_byte_identical_reruns(self):
        cfg = RatesConfig(hurst=0.7, n_grid=[32, 64], replicas=2000, seed=3)
        a = run_rates(cfg).to_csv_string()
        b = run_rates(cfg).to_csv_string()
        assert a == b

    def test_csv_cells_are_plain_literals(self):
        cfg = RatesConfig(hurst=0.55, n_grid=[32], replicas=500, seed=1)
        text = run_rates(cfg).to_csv_string()
        assert "np." not in text and "(" not in text
        # every float cell round-trips
        for cell in text.splitlines()[1].split(","):
            float(cell)

    def test_threads_do_not_change_rows(self):
        base = dict(hurst=0.3, n_grid=[64], replicas=3000, seed=5)
        a = run_rates(RatesConfig(**base)).to_csv_string()
        b = run_rates(RatesConfig(**base, threads=4)).to_csv_string()
        assert a == b

    @pytest.mark.parametrize("q", [2, 4])
    def test_every_grid_point_is_a_prefix_of_one_stream_zero_path(self, q):
        cov = CovarianceFunction.fgn(0.7)
        grid = [48, 7, 100, 1]
        ends, table = _power_variation_samples(cov, grid, q, 1500, 9, 2)
        assert ends.tolist() == [1, 7, 48, 100]
        paths = sample_paths(cov, 100, 1500, 9, stream=0)
        for j, n in enumerate(ends):
            want = [power_variation(path[:n], q) for path in paths]
            np.testing.assert_allclose(table[:, j], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("q", [2, 4])
    def test_chunked_blocks_match_whole_block_table(self, q):
        # each block is drawn, transformed and reduced in row chunks; the
        # table must hold the bits of reducing whole-block draws
        cov = CovarianceFunction.fgn(0.3)
        grid, M = [150, 37, 300], BLOCK_SIZE + 37
        assert BLOCK_SIZE % (CHUNK_NORMALS // (2 * max(grid))) != 0
        ends = np.array([37, 150, 300])
        sampler = PathSampler(cov, 300)
        rows = []
        for block, _, count in replica_blocks(M):
            # rows are transformed in pairs: the odd last block is drawn
            # with one more row, whose path is dropped
            draw = block_normals(8, 0, block, count + count % 2, 600)
            paths = sampler.transform(draw)[:count]
            segments = np.add.reduceat(even_power(paths, q), [0, 37, 150],
                                       axis=1)
            rows.append(np.cumsum(segments, axis=1))
        want = np.concatenate(rows) / ends
        for threads in (1, 2, 4):
            got_ends, table = _power_variation_samples(cov, grid, q, M, 8,
                                                       threads)
            assert np.array_equal(got_ends, ends)
            assert np.array_equal(table, want)

    def test_peak_memory_is_a_few_row_chunks(self):
        # a whole 1024-row block at n = 4096 held its normals, complex
        # half-spectrum and inverse FFT at once, ~190 MiB; row chunks of
        # CHUNK_NORMALS normals keep the run to a few MiB
        config = RatesConfig(hurst=0.7, n_grid=[256, 4096], replicas=1024,
                             seed=2, threads=1)
        tracemalloc.start()
        try:
            table = run_rates(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.metadata["path_length"] == 4096
        assert peak < 16 * 2 ** 20

    def test_one_thread_run_holds_one_work_array(self):
        # a chunk of 8 pairs of rows at n = 4096 is drawn, FFTed and
        # compacted in one work array of 17 rows of 8192 floats; besides it
        # the run holds the table of Q_{2,n} and the sampler's spectrum
        # scale (2n entries).  A second array for the paths, 0.5 MiB,
        # would not fit.
        n, M = 4096, 2 * BLOCK_SIZE
        config = RatesConfig(hurst=0.7, n_grid=[256, 1024, n], replicas=M,
                             seed=3, threads=1)
        sampler = PathSampler(CovarianceFunction.fgn(0.7), n)
        rows = 2 * (CHUNK_NORMALS // (4 * n))
        work = sampler._work_array(rows).nbytes
        table = M * len(config.n_grid) * 8
        tracemalloc.start()
        try:
            run_rates(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (work + table) + sampler._scale.nbytes

    def test_power_not_of_two_takes_one_scratch(self):
        # q = 6 multiplies by x**2 once more, which even_power keeps in a
        # scratch of at most 64 KiB (stationary._SCRATCH_FLOATS), not in a
        # 0.5 MiB copy of each chunk; 1 KiB more is for its array objects
        cov = CovarianceFunction.fgn(0.7)
        peaks = {}
        for q in (2, 6):
            tracemalloc.start()
            try:
                _power_variation_samples(cov, [4096], q, 1024, 5, 1)
                peaks[q] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] - peaks[2] <= 64 * 1024 + 1024

    def test_unsorted_grid_with_duplicate_keeps_config_order(self):
        cfg = RatesConfig(hurst=0.3, n_grid=[512, 64, 512, 128],
                          replicas=1000, seed=4)
        table = run_rates(cfg)
        assert [row["n"] for row in table.rows] == [512, 64, 512, 128]
        assert table.rows[0] == table.rows[2]
        assert table.metadata["path_length"] == 512
        shared = run_rates(RatesConfig(hurst=0.3, n_grid=[64, 128, 512],
                                       replicas=1000, seed=4))
        by_n = {row["n"]: row for row in shared.rows}
        for row in table.rows:
            assert row == by_n[row["n"]]

    def test_multi_point_grid_is_thread_invariant(self):
        base = dict(hurst=0.7, n_grid=[16, 300, 64, 2048], replicas=2500,
                    seed=21)
        texts = {threads: run_rates(RatesConfig(**base, threads=threads))
                 .to_csv_string() for threads in (1, 2, 4)}
        assert texts[1] == texts[2] == texts[4]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RatesConfig(hurst=0.5, n_grid=[], replicas=1000, seed=1)
        with pytest.raises(ValidationError):
            RatesConfig(hurst=0.5, n_grid=[8], replicas=50, seed=1)
        with pytest.raises(ValidationError):
            RatesConfig(hurst=0.8, n_grid=[8], replicas=1000, seed=1)
        with pytest.raises(ValidationError):
            RatesConfig.from_dict({"hurst": 0.5, "n_grid": [8],
                                   "replicas": 1000, "seed": 1, "bogus": 2})


class TestBoundExperiment:
    def test_equal_eigenvalue_example(self):
        m = 4
        cfg = BoundConfig(inputs=[{"label": "eq",
                                   "kernels": [eigenvalue_sum_json(m)]}])
        table, documents = run_bound_report(cfg)
        assert len(documents) == 1
        report = documents[0]["report"]
        assert report["total"] == pytest.approx(math.sqrt(m) / (2 * m),
                                                rel=1e-12)
        assert table.rows[0]["mixed_inner"] == 0.0
        assert "phi" not in documents[0]

    def test_csv_header(self):
        cfg = BoundConfig(inputs=[{"label": "eq",
                                   "kernels": [eigenvalue_sum_json(4)]}])
        table, _ = run_bound_report(cfg)
        assert table.to_csv_string().splitlines()[0] == (
            "label,orders,variance,max_contraction_norm,mixed_inner,total,phi")

    def test_scale_invariance_of_single_chaos_total(self):
        k = RankOneSumKernel(order=2, coeffs=np.ones(3), vectors=np.eye(3))
        scaled = RankOneSumKernel(order=2, coeffs=4.0 * np.ones(3),
                                  vectors=np.eye(3))
        cfg = BoundConfig(inputs=[
            {"label": "unit", "kernels": [kernel_to_json(k)]},
            {"label": "scaled", "kernels": [kernel_to_json(scaled)]},
        ])
        _, docs = run_bound_report(cfg)
        assert docs[0]["report"]["total"] == pytest.approx(
            docs[1]["report"]["total"], rel=1e-12)

    def test_phi_reported_for_first_plus_second(self):
        f1 = kernel_to_json(DenseKernel(np.array([1.0, 0.0])))
        f2 = kernel_to_json(DenseKernel(np.diag([0.0, 1.0])))
        cfg = BoundConfig(inputs=[{"kernels": [f1, f2]}])
        _, docs = run_bound_report(cfg)
        assert docs[0]["phi"] == pytest.approx(math.sqrt(48.0), rel=1e-12)

    def test_dense_first_plus_second_matches_closed_forms(self):
        rng = np.random.default_rng(12)
        f = rng.normal(size=20)
        a = rng.normal(size=(20, 20))
        g = (a + a.T) / 2.0
        cfg = BoundConfig(inputs=[{"kernels": [
            kernel_to_json(DenseKernel(f)), kernel_to_json(DenseKernel(g))]}])
        table, docs = run_bound_report(cfg)
        row = table.rows[0]
        gg = float(np.linalg.norm(g @ g))
        gf = float(np.linalg.norm(g @ f))
        assert row["variance"] == pytest.approx(
            float(f @ f + 2.0 * np.sum(g * g)), rel=1e-12)
        assert row["max_contraction_norm"] == pytest.approx(gg, rel=1e-12)
        assert row["mixed_inner"] == pytest.approx(gf, rel=1e-12)
        assert docs[0]["phi"] == pytest.approx(math.sqrt(48.0) * gg + gf,
                                               rel=1e-12)

    @pytest.mark.parametrize("label", [None, 3, []])
    def test_label_must_be_a_string(self, label):
        cfg = BoundConfig(inputs=[
            {"label": "ok", "kernels": [eigenvalue_sum_json(2)]},
            {"label": label, "kernels": [eigenvalue_sum_json(2)]}])
        with pytest.raises(ValidationError,
                           match=r"^inputs\[1\]\.label: must be a string$"):
            run_bound_report(cfg)

    def test_absent_label_defaults_to_position(self):
        cfg = BoundConfig(inputs=[{"kernels": [eigenvalue_sum_json(2)]}])
        table, _ = run_bound_report(cfg)
        assert table.rows[0]["label"] == "input-0"

    def test_dense_second_kernel_never_decomposed(self, monkeypatch):
        # ChaosSum validates the dense g once, at its boundary, and the
        # chaos-sum bound, phi and kappa_4 read g itself: none of them
        # decomposes it
        calls = []
        original = SecondChaosSpectrum.from_kernel.__func__

        def counting(cls, g):
            calls.append(g)
            return original(cls, g)

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition in a bound report")

        monkeypatch.setattr(SecondChaosSpectrum, "from_kernel",
                            classmethod(counting))
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        cfg = BoundConfig(inputs=[{"kernels": [
            kernel_to_json(DenseKernel(rng.normal(size=6))),
            kernel_to_json(DenseKernel((a + a.T) / 2.0))]}])
        _, docs = run_bound_report(cfg)
        assert "phi" in docs[0]
        assert len(calls) == 1

    def test_parse_diagnostics_carry_position(self):
        cfg = BoundConfig(inputs=[{"kernels": [{"representation": "dense",
                                                "order": 2, "dim": 2,
                                                "values": [1.0]}]}])
        with pytest.raises(ValidationError, match=r"inputs\[0\].kernels\[0\]"):
            run_bound_report(cfg)

    def test_duplicate_orders_rejected(self):
        cfg = BoundConfig(inputs=[{"kernels": [eigenvalue_sum_json(2),
                                               eigenvalue_sum_json(2)]}])
        with pytest.raises(ValidationError, match="duplicate"):
            run_bound_report(cfg)


class TestRatioExperiment:
    def test_default_family_sweep(self):
        cfg = RatioConfig(lambda_grid=[100.0, 1000.0], replicas=5000, seed=11)
        table = run_ratio(cfg)
        for row in table.rows:
            assert row["rejection_rate"] == 0.0
            assert row["mean_drift"] == 0.0
            assert row["f_second_moment_gap"] == 0.0
            assert row["g_second_moment_gap"] == 0.0
            assert row["remainder"] == 0.0
        assert table.metadata["sigma_sq"] == pytest.approx(2.0)
        assert table.rows[0]["phi"] > table.rows[1]["phi"]

    def test_byte_identical_reruns_and_threads(self):
        cfg = dict(lambda_grid=[50.0], replicas=2000, seed=13)
        a = run_ratio(RatioConfig(**cfg)).to_csv_string()
        b = run_ratio(RatioConfig(**cfg, threads=3)).to_csv_string()
        assert a == b

    def test_perturbations_flow_through(self):
        cfg = RatioConfig(lambda_grid=[100.0], replicas=500, seed=1,
                          perturbations={"mu": 0.5})
        table = run_ratio(cfg)
        assert table.rows[0]["remainder"] == pytest.approx(0.05)

    def test_bad_perturbation_key(self):
        cfg = RatioConfig(lambda_grid=[100.0], replicas=500, seed=1,
                          perturbations={"nope": 1.0})
        with pytest.raises(ValidationError, match="nope"):
            run_ratio(cfg)


class TestNzExperiment:
    def test_grid_rows(self):
        cfg = NzConfig(hurst=0.7, n_grid=[16, 32], seed=0)
        table = run_nz_diagnostics(cfg)
        assert [row["n"] for row in table.rows] == [16, 32]
        assert all(row["ratio"] > 0 for row in table.rows)


class TestCli:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_rates_end_to_end(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "rates.json", {
            "hurst": 0.5, "n_grid": [32, 64], "replicas": 1000, "seed": 5,
        })
        code = main(["rates", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "rates.csv").exists()
        assert (tmp_path / "out" / "rates_summary.json").exists()
        header = (tmp_path / "out" / "rates.csv").read_text().splitlines()[0]
        assert header.startswith("hurst,q,n,replicas,seed,stream,d_kol")

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write(tmp_path / "rates.json", {
            "hurst": 0.5, "n_grid": [32], "replicas": 1000, "seed": 5,
        })
        main(["rates", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["rates", "--config", cfg, "--seed", "6",
              "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "rates.csv").read_text()
        b = (tmp_path / "b" / "rates.csv").read_text()
        assert a != b

    def test_threads_flag_preserves_bytes(self, tmp_path):
        cfg = self._write(tmp_path / "ratio.json", {
            "lambda_grid": [64.0], "replicas": 2000, "seed": 2,
        })
        main(["ratio", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["ratio", "--config", cfg, "--threads", "4",
              "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "ratio.csv").read_text() == \
            (tmp_path / "b" / "ratio.csv").read_text()

    def test_bound_subcommand(self, tmp_path):
        cfg = self._write(tmp_path / "bound.json", {
            "inputs": [{"label": "eq", "kernels": [eigenvalue_sum_json(4)]}],
        })
        code = main(["bound", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        docs = json.loads((tmp_path / "out" / "bound_report.json").read_text())
        assert docs[0]["report"]["total"] == pytest.approx(
            math.sqrt(4.0) / 8.0, rel=1e-12)

    def test_diagnose_nz_subcommand(self, tmp_path):
        cfg = self._write(tmp_path / "nz.json", {
            "hurst": 0.7, "n_grid": [16], "seed": 0,
        })
        code = main(["diagnose-nz", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "nz.csv").exists()

    def test_diagnose_nz_tolerates_threads_flag(self, tmp_path):
        cfg = self._write(tmp_path / "nz.json", {
            "hurst": 0.7, "n_grid": [16], "seed": 0,
        })
        code = main(["diagnose-nz", "--config", cfg, "--threads", "4",
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_validation_failures_exit_one(self, tmp_path, capsys):
        missing = main(["rates", "--config", str(tmp_path / "nope.json")])
        assert missing == 1
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert main(["rates", "--config", str(bad_json)]) == 1
        err = capsys.readouterr().err
        assert "line" in err
        bad_cfg = self._write(tmp_path / "cfg.json", {"hurst": 0.5})
        assert main(["rates", "--config", bad_cfg]) == 1

    @pytest.mark.parametrize("command, payload, field", [
        pytest.param("rates", {"n_grid": "abc"}, "n_grid", id="rates-grid"),
        pytest.param("rates", {"n_grid": [64, "abc"]}, r"n_grid\[1\]",
                     id="rates-grid-entry"),
        pytest.param("rates", {"replicas": 100.5}, "replicas",
                     id="rates-replicas"),
        pytest.param("rates", {"threads": 0}, "threads", id="rates-threads"),
        pytest.param("rates", {"seed": 2 ** 64 + 1}, "seed", id="rates-seed"),
        pytest.param("rates", {"hurst": "0.5"}, "hurst", id="rates-hurst"),
        pytest.param("ratio", {"lambda_grid": [1.0, "x"]},
                     r"lambda_grid\[1\]", id="ratio-grid-entry"),
        pytest.param("ratio", {"replicas": "many"}, "replicas",
                     id="ratio-replicas"),
        pytest.param("ratio", {"threads": 0}, "threads", id="ratio-threads"),
        pytest.param("ratio", {"seed": 2 ** 64}, "seed", id="ratio-seed"),
        pytest.param("ratio", {"sigma2": None}, "sigma2", id="ratio-sigma2"),
        pytest.param("ratio", {"perturbations": {"mu": "big"}}, "mu",
                     id="ratio-perturbation"),
        pytest.param("diagnose-nz", {"n_grid": ["abc"]}, r"n_grid\[0\]",
                     id="nz-grid-entry"),
        pytest.param("diagnose-nz", {"signs": "ab"}, "signs", id="nz-signs"),
        pytest.param("rates", {"emit_plot_data": True},
                     r"rates config: unknown keys \['emit_plot_data'\]",
                     id="rates-plot-data"),
        pytest.param("bound", {"constant_multiplier": 1.0},
                     r"bound config: unknown keys \['constant_multiplier'\]",
                     id="bound-multiplier-key"),
        pytest.param("rates", {"q": 3}, "rates config: q", id="rates-odd-q"),
        pytest.param("rates", {"q": 34}, "rates config: q", id="rates-big-q"),
        pytest.param("diagnose-nz", {"m": 3}, "diagnose-nz config: signs",
                     id="nz-signs-length"),
        pytest.param("diagnose-nz", {"signs": [1, 0]},
                     "diagnose-nz config: signs", id="nz-signs-zero"),
        pytest.param("bound", {"inputs": [{"kernels": [{
            "representation": "rank_one_sum", "order": 1, "dim": 1,
            "terms": [{"coeff": float("inf"), "vector": [1.0]}]}]}]},
            r"inputs\[0\]\.kernels\[0\]\.terms\[0\]: coeff must be finite",
            id="bound-kernel-coeff"),
        pytest.param("ratio", {"out": "elsewhere"}, "out", id="ratio-out"),
        pytest.param("bound", {"inputs": [{"kernels": [{
            "representation": "dense", "order": 2, "dim": 2,
            "values": [True, 0.5, 0.5, 1]}]}]},
            r"inputs\[0\]\.kernels\[0\]: values must hold numbers only",
            id="bound-boolean-among-values"),
        pytest.param("bound", {"inputs": [{"kernels": [{
            "representation": "rank_one_sum", "order": 1, "dim": 2,
            "terms": [{"coeff": 1.0, "vector": [1, False]}]}]}]},
            r"inputs\[0\]\.kernels\[0\]\.terms\[0\]: vector must hold "
            r"numbers only", id="bound-boolean-in-vector"),
        pytest.param("bound", {"inputs": [{"label": None, "kernels": [
            eigenvalue_sum_json(2)]}]},
            r"inputs\[0\]\.label: must be a string", id="bound-null-label"),
        pytest.param("bound", {"inputs": [{"lable": "typo", "kernels": [
            eigenvalue_sum_json(2)]}]},
            r"inputs\[0\]: unknown keys \['lable'\]",
            id="bound-unknown-input-key"),
        pytest.param("bound", {"inputs": [{"kernels": [{
            "representation": "rank_one_sum", "order": 1, "dim": 2,
            "terms": [{"coeff": 1.0, "vector": [1, 0], "weight": 3}]}]}]},
            r"inputs\[0\]\.kernels\[0\]\.terms\[0\]: unknown keys "
            r"\['weight'\]", id="bound-unknown-term-key"),
        pytest.param("bound", {"inputs": [{"kernels": [{
            "representation": "dense", "order": 2, "dim": 2,
            "values": [1.0, 1.0, 0.0, 1.0]}]}]},
            r"inputs\[0\]: order-2 kernel is not symmetric",
            id="bound-asymmetric-dense"),
        # symmetry is relative to the largest entry: an absolute check
        # passed this kernel and bounded its lower triangle alone
        pytest.param("bound", {"inputs": [{"kernels": [{
            "representation": "dense", "order": 2, "dim": 2,
            "values": [1e-11, 1e-11, 0.0, 1e-11]}]}]},
            r"inputs\[0\]: order-2 kernel is not symmetric",
            id="bound-tiny-asymmetric-dense"),
        pytest.param("bound", {"inputs": [{"kernels": [{
            "representation": "dense", "order": 3, "dim": 2,
            "values": [0.0] * 8}]}]},
            r"inputs\[0\]: dense kernels are supported only at orders 1 "
            r"and 2", id="bound-dense-order-3"),
        pytest.param("bound", {"inputs": [
            {"kernels": [eigenvalue_sum_json(2)]},
            {"kernels": [kernel_to_json(DenseKernel(np.zeros((2, 2))))]}]},
            r"inputs\[1\]: E\[F\^2\] is 0\.0", id="bound-zero-kernel"),
    ])
    def test_config_type_errors_exit_one(self, tmp_path, capsys, command,
                                         payload, field):
        base = {
            "rates": {"hurst": 0.5, "n_grid": [32], "replicas": 1000,
                      "seed": 5},
            "ratio": {"lambda_grid": [4.0], "replicas": 1000, "seed": 5},
            "diagnose-nz": {"hurst": 0.7, "n_grid": [16], "seed": 0},
            "bound": {"inputs": [{"kernels": [eigenvalue_sum_json(2)]}]},
        }[command]
        cfg = self._write(tmp_path / "cfg.json", {**base, **payload})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(field, err)
        assert "Traceback" not in err

    def test_threads_flag_zero_exits_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "ratio.json", {
            "lambda_grid": [4.0], "replicas": 1000, "seed": 2,
        })
        assert main(["ratio", "--config", cfg, "--threads", "0",
                     "--out", str(tmp_path / "out")]) == 1
        assert "threads" in capsys.readouterr().err

    def test_integral_float_counts_accepted(self):
        cfg = RatioConfig.from_dict({"lambda_grid": [4], "replicas": 1e3,
                                     "seed": 5.0})
        assert cfg.replicas == 1000 and isinstance(cfg.replicas, int)
        assert cfg.seed == 5 and cfg.lambda_grid == [4.0]

    def test_summaries_record_stream_protocol(self, tmp_path):
        rates = self._write(tmp_path / "rates.json", {
            "hurst": 0.5, "n_grid": [32], "replicas": 1000, "seed": 5,
        })
        ratio = self._write(tmp_path / "ratio.json", {
            "lambda_grid": [4.0], "replicas": 1000, "seed": 5,
        })
        assert main(["rates", "--config", rates,
                     "--out", str(tmp_path / "out")]) == 0
        assert main(["ratio", "--config", ratio,
                     "--out", str(tmp_path / "out")]) == 0
        for name in ("rates_summary.json", "ratio_summary.json"):
            summary = json.loads((tmp_path / "out" / name).read_text())
            assert summary["stream_protocol"] == STREAM_PROTOCOL == 7

    def test_numerical_failures_exit_two(self, tmp_path, monkeypatch):
        from chaosclt import cli
        from chaosclt.errors import NumericalError

        def boom(args):
            raise NumericalError("synthetic")

        cfg = self._write(tmp_path / "nz.json", {
            "hurst": 0.7, "n_grid": [4], "seed": 0,
        })
        monkeypatch.setitem(cli.__dict__, "run_nz_diagnostics",
                            lambda config: (_ for _ in ()).throw(
                                NumericalError("negative mixed inner")))
        assert main(["diagnose-nz", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("kernels, message", [
        # 1e80^4 overflows: the squared contraction norm sums to inf
        pytest.param([{"representation": "rank_one_sum", "order": 2,
                       "dim": 2, "terms": [
                           {"coeff": 1e80, "vector": [1.0, 0.0]},
                           {"coeff": 1e80, "vector": [0.0, 1.0]}]}],
                     "squared 1-contraction norm is not finite",
                     id="order-2-coeffs-1e80"),
        # the Gram entry 1e400 is inf, and its contraction norm NaN
        pytest.param([{"representation": "rank_one_sum", "order": 2,
                       "dim": 2, "terms": [
                           {"coeff": 1.0, "vector": [1e200, 0.0]},
                           {"coeff": 1.0, "vector": [0.0, 1.0]}]}],
                     r"E\[F\^2\] is not finite", id="vector-entry-1e200"),
        pytest.param([kernel_to_json(DenseKernel(np.full(2, 1e300))),
                      kernel_to_json(DenseKernel(np.eye(2)))],
                     r"E\[F\^2\] is not finite", id="dense-entry-1e300"),
        # every sum is finite, but kappa_4 = 48 * 4.8e306 is not
        pytest.param([kernel_to_json(DenseKernel(np.array([1.0, 0.0]))),
                      {"representation": "rank_one_sum", "order": 2,
                       "dim": 2, "terms": [
                           {"coeff": 7e76, "vector": [1.0, 0.0]},
                           {"coeff": 7e76, "vector": [0.0, 1.0]}]}],
                     "phi is not finite", id="phi-7e76"),
    ])
    def test_float64_overflow_exits_two(self, tmp_path, capsys, kernels,
                                        message):
        cfg = self._write(tmp_path / "bound.json",
                          {"inputs": [{"kernels": kernels}]})
        assert main(["bound", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: inputs[0]: ")
        assert re.search(message, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("coeff", [1.0, 1e70])
    def test_large_finite_kernel_keeps_its_bound(self, tmp_path, coeff):
        kernel = RankOneSumKernel(order=2, coeffs=np.full(2, coeff),
                                  vectors=np.eye(2))
        cfg = self._write(tmp_path / "bound.json",
                          {"inputs": [{"kernels": [kernel_to_json(kernel)]}]})
        assert main(["bound", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        docs = json.loads((tmp_path / "out" / "bound_report.json").read_text())
        assert docs[0]["report"]["total"] == pytest.approx(
            math.sqrt(2.0) / 4.0, rel=1e-12)

    def test_rates_fit_needs_two_distinct_n(self, tmp_path):
        cfg = self._write(tmp_path / "rates.json", {
            "hurst": 0.3, "n_grid": [256, 256], "replicas": 1000, "seed": 4,
        })
        assert main(["rates", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(
            (tmp_path / "out" / "rates_summary.json").read_text())
        assert summary["fitted_slope"] is None
        assert summary["fit_residual"] is None

    def test_rates_fit_reads_each_distinct_n_once(self):
        slopes = [run_rates(RatesConfig(hurst=0.3, n_grid=grid,
                                        replicas=1000, seed=4))
                  .metadata["fitted_slope"]
                  for grid in ([512, 64, 512, 128], [64, 128, 512])]
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-12)

    @pytest.mark.parametrize("payload, message", [
        pytest.param({"lambda_grid": [100, -1]},
                     r"ratio config: lambda_grid\[1\]: lambda must be "
                     r"positive", id="negative-lambda"),
        pytest.param({"lambda_grid": [100, 1000], "sigma1": 5},
                     r"ratio config: lambda_grid\[0\]: positivity of the "
                     r"denominator", id="sigma1-too-large"),
        pytest.param({"lambda_grid": [1e11, 1e32], "sigma2": 0},
                     r"ratio config: lambda_grid\[1\]: lambda must be at "
                     r"most 4\.056e\+11", id="lambda-beyond-float64"),
    ])
    def test_ratio_family_errors_are_located_before_sampling(
            self, tmp_path, capsys, monkeypatch, payload, message):
        from chaosclt import experiments

        def refuse(*args, **kwargs):
            raise AssertionError("sampled before every family was built")

        monkeypatch.setattr(experiments, "sample_ratio_batch", refuse)
        cfg = self._write(tmp_path / "ratio.json",
                          {"replicas": 1000, "seed": 5, **payload})
        assert main(["ratio", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(message, err)

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_exits_one_before_the_run(self, tmp_path, capsys,
                                                   monkeypatch, out):
        from chaosclt import cli

        def runner(config):
            raise AssertionError("the runner must not be called")

        (tmp_path / "file").write_text("")
        cfg = self._write(tmp_path / "nz.json", {
            "hurst": 0.7, "n_grid": [4], "seed": 0,
        })
        monkeypatch.setitem(cli.__dict__, "run_nz_diagnostics", runner)
        assert main(["diagnose-nz", "--config", cfg,
                     "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--out" in err
        assert "Traceback" not in err

    def test_unwritable_result_file_exits_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "nz.json", {
            "hurst": 0.7, "n_grid": [4], "seed": 0,
        })
        (tmp_path / "out" / "nz.csv").mkdir(parents=True)
        assert main(["diagnose-nz", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--out" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["rates", "--config", "x.json", "--bogus"], id="unknown"),
        pytest.param(["rates"], id="missing-config"),
        pytest.param(["rates", "--config", "x.json", "--seed", "abc"],
                     id="bad-seed"),
        pytest.param(["nope"], id="unknown-command"),
        pytest.param(["bound", "--config", "x.json", "--seed", "3"],
                     id="bound-seed"),
        pytest.param(["bound", "--config", "x.json", "--threads", "2"],
                     id="bound-threads"),
        pytest.param(["diagnose-nz", "--config", "x.json", "--threads", "4"],
                     id="nz-threads"),
    ])
    def test_usage_errors_exit_one(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("command, names", [
        ("rates", {"rates.csv", "rates_summary.json"}),
        ("ratio", {"ratio.csv", "ratio_summary.json"}),
        ("diagnose-nz", {"nz.csv", "nz_summary.json"}),
        ("bound", {"bound.csv", "bound_summary.json", "bound_report.json"}),
    ])
    def test_writes_exactly_the_documented_files(self, tmp_path, command,
                                                 names):
        cfg = self._write(tmp_path / "cfg.json", VALID_DOCUMENTS[command])
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert {path.name for path in out.iterdir()} == names
        for name in names:
            if name.endswith(".json"):
                text = (out / name).read_text(encoding="utf-8")
                assert text == json.dumps(json.loads(text), indent=2,
                                          sort_keys=True) + "\n"

    def test_bound_writes_summary(self, tmp_path):
        cfg = self._write(tmp_path / "bound.json", {
            "inputs": [{"label": "eq", "kernels": [eigenvalue_sum_json(4)]}],
        })
        assert main(["bound", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "bound_summary.json")
                             .read_text())
        assert summary["experiment"] == "bound"

    def test_seed_flag_overrides_nz_config(self, tmp_path):
        cfg = self._write(tmp_path / "nz.json", {
            "hurst": 0.7, "n_grid": [16], "seed": 0,
        })
        assert main(["diagnose-nz", "--config", cfg, "--seed", "9",
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "nz_summary.json")
                             .read_text())
        assert summary["config"]["seed"] == 9
        assert "out" not in summary["config"]


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))
# the filename prefix names the subcommand
CONFIG_CLASSES = {"rates": RatesConfig, "ratio": RatioConfig,
                  "nz": NzConfig, "bound": BoundConfig}


# Builds Breuer-Major kernels and their bound, then runs every subcommand
# through the CLI, and prints the scipy and numpy.ma modules loaded by then.
SCIPY_FREE_RUN = """
import json
import sys

import numpy as np

import chaosclt
from chaosclt import cli
from chaosclt.stationary import CovarianceFunction, HermiteEvenCoeffs

nz_config, bound_config, rates_config, ratio_config, out = sys.argv[1:]
coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 0.5]))
ks = chaosclt.breuer_major_kernels(CovarianceFunction.fgn(0.7), 64, coeffs)
chaosclt.chaos_sum_bound(chaosclt.ChaosSum({k.order: k for k in ks}))
for command, config in (("diagnose-nz", nz_config), ("bound", bound_config),
                        ("rates", rates_config), ("ratio", ratio_config)):
    assert cli.main([command, "--config", config,
                     "--out", out + "/" + command]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy")
                        or m == "numpy.ma" or m.startswith("numpy.ma."))))
"""


class TestScipyFreeRuns:
    def test_no_run_loads_scipy(self, tmp_path):
        # Phi is evaluated in numpy and scipy.linalg is used nowhere, so no
        # run imports any part of scipy; nor numpy.ma, which np.unique
        # imports on first use (10-17 ms and 1.25 MiB a process; not
        # numpy.matrixlib, which numpy always loads); a fresh process, since
        # the test session loads both
        src = Path(__file__).resolve().parents[1] / "src"
        configs = {
            "bound": {"inputs": [{"label": "eq",
                                  "kernels": [eigenvalue_sum_json(4)]}]},
            "rates": {"hurst": 0.7, "q": 2, "n_grid": [16, 32],
                      "replicas": 128, "seed": 1},
            "ratio": {"lambda_grid": [10.0, 100.0], "replicas": 128,
                      "seed": 1},
        }
        for name, config in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-c", SCIPY_FREE_RUN,
             str(CONFIGS_DIR / "nz_h070.json"),
             *(str(tmp_path / f"{name}.json") for name in configs),
             str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []
        for command, summary in (("diagnose-nz", "nz"), ("bound", "bound"),
                                 ("rates", "rates"), ("ratio", "ratio")):
            assert (tmp_path / command / f"{summary}_summary.json").exists()


class TestCheckedInConfigs:
    def test_configs_exist(self):
        assert CONFIGS

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_config_loads(self, path):
        config_cls = CONFIG_CLASSES[path.name.split("_")[0]]
        config_cls.from_dict(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "path", [p for p in CONFIGS if p.name.startswith("nz_")],
        ids=lambda p: p.name)
    def test_nz_config_rows_match_diagnostic(self, path, tmp_path):
        assert main(["diagnose-nz", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        config = NzConfig.from_dict(json.loads(path.read_text()))
        cov = CovarianceFunction.fgn(config.hurst)
        with open(tmp_path / "nz.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["n"]) for row in rows] == config.n_grid
        assert [float(row["ratio"]) for row in rows] == [
            nz_ratio_diagnostic(cov, n, config.m)
            for n in config.n_grid]


class TestReadmeExamples:
    """The JSON examples in README.md load through the code they document."""

    @staticmethod
    def _blocks(section):
        """(command introduced last, parsed document) for each ```json
        block of a README section; a paragraph opening with a subcommand
        in backticks introduces that subcommand."""
        text = re.split(r"\n##+ ", README.split(f"### {section}\n", 1)[1],
                        maxsplit=1)[0]
        command, blocks = None, []
        parts = re.split(r"```json\n(.*?)```", text, flags=re.S)
        for i, part in enumerate(parts):
            if i % 2:
                blocks.append((command, json.loads(part)))
                continue
            for paragraph in part.split("\n\n"):
                match = re.match(r"`([a-z-]+)`", paragraph.strip())
                if match and match.group(1) in cli._COMMANDS:
                    command = match.group(1)
        return blocks

    def test_config_examples_load(self):
        blocks = self._blocks("Config schemas")
        assert sorted(command for command, _ in blocks) == \
            sorted(cli._COMMANDS)
        for command, document in blocks:
            config = cli._COMMANDS[command][0].from_dict(document)
            if command == "bound":
                run_bound_report(config)

    def test_kernel_and_report_examples(self):
        *kernels, (_, report) = self._blocks("Kernel serialization")
        assert len(kernels) == 2
        for _, document in kernels:
            kernel_from_json(document)
        expected = BoundReport(terms=report["terms"],
                               normalization=report["normalization"])
        assert report.keys() == expected.to_json().keys()
        assert report["total"] == sum(report["terms"].values()) / \
            report["normalization"]


# Small valid documents for the hostile-input fuzz below, one per subcommand.
VALID_DOCUMENTS = {
    "rates": {"hurst": 0.5, "q": 2, "n_grid": [16, 32], "replicas": 100,
              "seed": 1, "threads": 1},
    "ratio": {"lambda_grid": [4.0], "replicas": 100, "seed": 1, "rho": 1.0,
              "sigma1": 1.0, "sigma2": 1.0, "threads": 1,
              "perturbations": {"s_norm": 0.0, "mu": 0.0, "f_overlap": 0.0}},
    "diagnose-nz": {"hurst": 0.7, "n_grid": [8], "seed": 0, "m": 2,
                    "signs": [1, -1]},
    "bound": {"inputs": [{"label": "x", "kernels": [
        {"representation": "rank_one_sum", "order": 1, "dim": 2,
         "terms": [{"coeff": 1.0, "vector": [1.0, 0.0]}]},
        {"representation": "dense", "order": 2, "dim": 2,
         "values": [1.0, 0.5, 0.5, 1.0]}]}]},
}
# A valid but large value of these would only make the run slow.
SIZE_FIELDS = {"replicas", "n_grid", "dim", "threads", "m"}
BIG = 2 ** 64
EXTRA_KEY = object()  # adds a key to an object instead of replacing it
HOSTILE_VALUES = ["x", True, math.nan, math.inf, -1, 0, BIG, "1e400", None,
                  [], {}, EXTRA_KEY]


def _document_paths(node, prefix=()):
    """Every path to a node below node, as a tuple of keys and indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _document_paths(child, prefix + (key,))


@st.composite
def hostile_documents(draw):
    """(command, JSON text) with one field of a valid document made hostile."""
    command = draw(st.sampled_from(sorted(VALID_DOCUMENTS)))
    document = copy.deepcopy(VALID_DOCUMENTS[command])
    path = draw(st.sampled_from([(), *_document_paths(document)]))
    value = draw(st.sampled_from(HOSTILE_VALUES))
    assume(value is not BIG or not SIZE_FIELDS & set(path))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else document
    if value is EXTRA_KEY:
        assume(isinstance(target, dict))
        target["extra"] = 1
    else:
        assume(path)
        parent[path[-1]] = value
    # "1e400" stands for the JSON literal, which loads as an infinity
    return command, json.dumps(document).replace('"1e400"', "1e400")


class TestSizeBudget:
    # each key sizes arrays far over experiments.SIZE_BUDGET; building the
    # config must reject it before any array exists
    OVERSIZED = [
        pytest.param(RatesConfig, "rates", {**VALID_DOCUMENTS["rates"],
                                            "replicas": 10 ** 12},
                     "replicas", id="rates-replicas"),
        pytest.param(RatesConfig, "rates", {**VALID_DOCUMENTS["rates"],
                                            "n_grid": [16, 10 ** 12]},
                     r"n_grid\[1\]", id="rates-n_grid"),
        pytest.param(NzConfig, "diagnose-nz",
                     {**VALID_DOCUMENTS["diagnose-nz"], "n_grid": [10 ** 12]},
                     r"n_grid\[0\]", id="nz-n_grid"),
        pytest.param(RatioConfig, "ratio", {**VALID_DOCUMENTS["ratio"],
                                            "replicas": 10 ** 12},
                     "replicas", id="ratio-replicas"),
    ]

    @pytest.mark.parametrize("cls, command, payload, key", OVERSIZED)
    def test_oversized_key_exits_one_naming_it(self, tmp_path, capsys, cls,
                                               command, payload, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        code = main([command, "--config", str(config),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "size budget" in err
        assert re.search(key, err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cls, command, payload, key", OVERSIZED)
    def test_rejected_without_allocating(self, cls, command, payload, key):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=key):
                cls.from_dict(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @staticmethod
    def bound_document(*term_counts):
        """A bound input of dim-1 rank-one sums of orders 2, 4, ... with
        the given term counts."""
        return {"inputs": [{"kernels": [
            {"representation": "rank_one_sum", "order": 2 * (j + 1),
             "dim": 1, "terms": [{"coeff": 1.0, "vector": [0.5]}] * terms}
            for j, terms in enumerate(term_counts)]}]}

    def test_bound_input_with_too_many_terms_exits_one(self, tmp_path,
                                                       capsys):
        # 30,000 terms fit in a 1 MB file, and the general closed forms
        # would hold 30,000 x 30,000 Gram arrays of 6.7 GiB each
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.bound_document(30000)))
        code = main(["bound", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: inputs[0].kernels[0] with 30000 terms")
        assert "size budget" in err and "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_bound_term_budget_adds_the_kernels_of_an_input(self):
        # 4,000 terms are within the budget alone, and two such kernels
        # are not: the second one is named
        with pytest.raises(ValidationError,
                           match=r"^inputs\[0\]\.kernels\[1\] with 4000 "
                                 r"terms .* size budget"):
            run_bound_report(BoundConfig(**self.bound_document(4000, 4000)))

    def test_bound_term_budget_fires_before_any_gram(self):
        config = BoundConfig(**self.bound_document(30000))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="size budget"):
                run_bound_report(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_readme_example_is_within_budget(self):
        config = RatesConfig(hurst=0.7, n_grid=[4096, 32768], replicas=1024,
                             seed=1, threads=1)
        assert config.n_grid == [4096, 32768]


class TestHostileInputs:
    @settings(max_examples=1000, deadline=None)
    @given(hostile_documents())
    def test_no_input_ends_in_a_traceback(self, case):
        command, text = case
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(text)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(config),
                             "--out", str(Path(tmp) / "out")])
        err = stderr.getvalue()
        assert code in (0, 1, 2), text
        assert "Traceback" not in err
        if code:
            assert err.startswith(("error: ", "numerical error: ")), err
