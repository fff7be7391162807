"""CLI surface: every subcommand end-to-end on small inputs."""

from __future__ import annotations

import gc
import json
import logging
import sys
import warnings

import numpy as np
import pytest

from lignn.cli import main

from conftest import BASE_SCHEMA, edge_row, node_row, random_weighted_digraph


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(71)
    lines = random_weighted_digraph(rng, 30, 3.0)
    lines += [edge_row(0, i, 0, 1, 100 + i % 5, 1.0, ts=10 + i) for i in range(30)]
    nodes = [node_row(0, i, rng.normal(size=4)) for i in range(30)]
    nodes += [node_row(1, 100 + i, rng.normal(size=4)) for i in range(5)]
    (tmp_path / "edges.tsv").write_text("".join(lines))
    (tmp_path / "nodes.tsv").write_text("".join(nodes))
    (tmp_path / "schema.cfg").write_text(BASE_SCHEMA)
    (tmp_path / "seeds.tsv").write_text("0\t0\n0\t1\n")
    records = [f"0\t{m}\t1\t{100 + m % 5}\t{m % 2}\t{50 + m}\n" for m in range(30)]
    (tmp_path / "records.tsv").write_text("".join(records))
    return tmp_path


def graph_flags(workdir):
    return [
        "--edges", str(workdir / "edges.tsv"),
        "--nodes", str(workdir / "nodes.tsv"),
        "--schema", str(workdir / "schema.cfg"),
    ]


class TestBuild:
    def test_report_and_dump(self, workdir, capsys):
        dump = workdir / "dump.tsv"
        rc = main(["build", *graph_flags(workdir), "--dump-edges", str(dump)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["node_counts"]["0"] == 30
        assert dump.exists()

    def test_logs_rows_and_rejections_at_info(self, workdir, capsys, caplog):
        with open(workdir / "edges.tsv", "a") as fh:
            fh.write("# comment\n0\tx\t0\t1\t5\t1.0\t7\n0\t1\t9\t1\t5\t1.0\t7\n")
        rows = sum(len(open(workdir / name).readlines()) for name in ("edges.tsv", "nodes.tsv"))
        main(["build", *graph_flags(workdir)])
        quiet = capsys.readouterr().out
        caplog.set_level(logging.INFO, logger="lignn")
        main(["build", *graph_flags(workdir)])
        assert capsys.readouterr().out == quiet
        [message] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("graph built")]
        assert message.startswith(f"graph built: {rows} rows read in ")
        assert message.endswith(' rows/s), 2 rejected {"malformed_edge_row": 1, "unknown_edge_type": 1}')

    def test_round_trip_via_dump(self, workdir, capsys):
        dump = workdir / "dump.tsv"
        main(["build", *graph_flags(workdir), "--dump-edges", str(dump)])
        first = json.loads(capsys.readouterr().out)
        rc = main([
            "build", "--edges", str(dump), "--nodes", str(workdir / "nodes.tsv"),
            "--schema", str(workdir / "schema.cfg"),
        ])
        assert rc == 0
        second = json.loads(capsys.readouterr().out)
        assert first["edge_counts"] == second["edge_counts"]


class TestSample:
    @pytest.mark.parametrize("strategy,extra", [
        ("random", ["--fanout", "5,3"]),
        ("weighted", ["--fanout", "5"]),
        ("ppr-push", ["--topk", "10", "--rmax", "1e-4"]),
        ("ppr-2hop", ["--topk", "10"]),
        ("temporal", ["--edge-type", "0", "--topk", "5"]),
    ])
    def test_strategies(self, workdir, strategy, extra, capsys):
        out = workdir / f"{strategy}.tsv"
        rc = main([
            "sample", *graph_flags(workdir), "--strategy", strategy,
            "--seeds", str(workdir / "seeds.tsv"), "--rng-seed", "3",
            "--out", str(out), *extra,
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            seed, neighbor, score, hop = line.split("\t")
            assert ":" in seed and ":" in neighbor
            float(score)
            int(hop)

    def test_deterministic_given_seed(self, workdir):
        outs = []
        for run in range(2):
            out = workdir / f"det{run}.tsv"
            main([
                "sample", *graph_flags(workdir), "--strategy", "random",
                "--seeds", str(workdir / "seeds.tsv"), "--fanout", "4",
                "--rng-seed", "11", "--out", str(out),
            ])
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestDensify:
    def test_emits_artificial_edges(self, workdir, capsys):
        rng = np.random.default_rng(5)
        emb_lines = [f"0\t{i}\t" + ",".join(f"{x:.6f}" for x in rng.normal(size=3)) + "\n"
                     for i in range(30)]
        emb_lines += [f"1\t{100 + i}\t" + ",".join(f"{x:.6f}" for x in rng.normal(size=3)) + "\n"
                      for i in range(5)]
        (workdir / "emb.tsv").write_text("".join(emb_lines))
        out = workdir / "artificial.tsv"
        report = workdir / "skipped.jsonl"
        rc = main([
            "densify", *graph_flags(workdir), "--embeddings", str(workdir / "emb.tsv"),
            "--lower-q", "0.3", "--upper-q", "0.9", "--k", "2",
            "--edge-type", "2", "--out", str(out), "--report", str(report),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["artificial_edges"] >= 1
        for line in out.read_text().splitlines():
            parts = line.split("\t")
            assert parts[2] == "2"
            assert parts[5] == "1.0"


class TestTrain:
    def test_train_writes_checkpoint_and_metrics(self, workdir, capsys):
        ckpt = workdir / "model.lgnn"
        metrics = workdir / "metrics.jsonl"
        rc = main([
            "train", *graph_flags(workdir), "--records", str(workdir / "records.tsv"),
            "--epochs", "2", "--neighbors", "5", "--out-dim", "8",
            "--out", str(ckpt), "--metrics", str(metrics), "--rng-seed", "1",
        ])
        assert rc == 0
        assert ckpt.exists() and (workdir / "model.lgnn.json").exists()
        rows = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert len(rows) == 2
        assert {"epoch", "auc", "neighbor_count", "ge_queries", "train_loss"} <= set(rows[0])

    def test_same_rng_seed_reproduces_metrics_and_checkpoint(self, workdir, capsys):
        runs = []
        for run in range(2):
            ckpt = workdir / f"repro{run}.lgnn"
            metrics = workdir / f"repro{run}.jsonl"
            rc = main([
                "train", *graph_flags(workdir), "--records", str(workdir / "records.tsv"),
                "--epochs", "2", "--neighbors", "5", "--out-dim", "8",
                "--out", str(ckpt), "--metrics", str(metrics), "--rng-seed", "1",
            ])
            assert rc == 0
            printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
            runs.append((printed, metrics.read_text(), ckpt.read_bytes()))
        assert len(runs[0][0]) == 2
        assert runs[0] == runs[1]

    # with --rng-seed 7 the 6 validation records of the workdir all have label 0
    def test_one_class_validation_split_reports_null_auc(self, workdir, capsys):
        metrics = workdir / "metrics.jsonl"
        rc = main([
            "train", *graph_flags(workdir), "--records", str(workdir / "records.tsv"),
            "--epochs", "2", "--neighbors", "5", "--out-dim", "8",
            "--metrics", str(metrics), "--rng-seed", "7",
        ])
        assert rc == 0
        rows = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert [r["auc"] for r in rows] == [None, None]
        assert all(np.isfinite(r["train_loss"]) for r in rows)

    def test_adaptive_with_one_class_validation_split_fails_before_training(self, workdir):
        metrics = workdir / "metrics.jsonl"
        with pytest.raises(ValueError, match="only one label"):
            main([
                "train", *graph_flags(workdir), "--records", str(workdir / "records.tsv"),
                "--epochs", "2", "--neighbors", "5", "--out-dim", "8", "--adaptive",
                "--metrics", str(metrics), "--rng-seed", "7",
            ])
        assert not metrics.exists()

    def test_config_file_overrides_flags(self, workdir, capsys):
        cfg = workdir / "train.cfg"
        cfg.write_text("epochs = 1\nneighbors = 3\n")
        rc = main([
            "train", *graph_flags(workdir), "--records", str(workdir / "records.tsv"),
            "--epochs", "9", "--config", str(cfg), "--out-dim", "8", "--rng-seed", "1",
        ])
        assert rc == 0
        out_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        assert len(out_lines) == 1  # config file epochs=1 wins over --epochs 9


class TestRefresh:
    def test_refresh_writes_dump(self, workdir, capsys):
        ckpt = workdir / "model.lgnn"
        main([
            "train", *graph_flags(workdir), "--records", str(workdir / "records.tsv"),
            "--epochs", "1", "--neighbors", "5", "--out-dim", "8",
            "--out", str(ckpt), "--rng-seed", "1",
        ])
        capsys.readouterr()
        events = workdir / "events.tsv"
        events.write_text("100\tclick\t0\t1\t1\t101\n101\tlike\t0\t2\t1\t102\n")
        out = workdir / "store.tsv"
        rc = main([
            "refresh", *graph_flags(workdir), "--events", str(events),
            "--checkpoint", str(ckpt), "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["processed"] == 2
        assert summary["embeddings"] == 4
        assert len(out.read_text().splitlines()) == 4

    def test_replay_determinism(self, workdir, capsys):
        ckpt = workdir / "model.lgnn"
        main([
            "train", *graph_flags(workdir), "--records", str(workdir / "records.tsv"),
            "--epochs", "1", "--neighbors", "5", "--out-dim", "8",
            "--out", str(ckpt), "--rng-seed", "1",
        ])
        events = workdir / "events.tsv"
        events.write_text("".join(
            f"{100 + k}\tclick\t0\t{k % 10}\t1\t{100 + k % 5}\n" for k in range(20)
        ))
        dumps = []
        for run in range(2):
            out = workdir / f"store{run}.tsv"
            main([
                "refresh", *graph_flags(workdir), "--events", str(events),
                "--checkpoint", str(ckpt), "--out", str(out),
            ])
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]


class TestInputFiles:
    def test_train_and_refresh_close_their_inputs(self, workdir, capsys, monkeypatch):
        # an unclosed file warns when it is collected; as an error the warning
        # cannot propagate from there, so the unraisable hook records it
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        events = workdir / "events.tsv"
        events.write_text("100\tclick\t0\t1\t1\t101\n")
        ckpt = workdir / "model.lgnn"
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            main([
                "train", *graph_flags(workdir), "--records", str(workdir / "records.tsv"),
                "--epochs", "1", "--neighbors", "5", "--out-dim", "8",
                "--out", str(ckpt), "--rng-seed", "1",
            ])
            main([
                "refresh", *graph_flags(workdir), "--events", str(events),
                "--checkpoint", str(ckpt), "--out", str(workdir / "store.tsv"),
            ])
            gc.collect()
        assert [u.exc_value for u in unraisable] == []


class TestConfigFileErrors:
    def test_unknown_key_rejected(self, workdir):
        cfg = workdir / "bad.cfg"
        cfg.write_text("bogus_flag = 1\n")
        with pytest.raises(SystemExit):
            main(["build", *graph_flags(workdir), "--config", str(cfg)])
