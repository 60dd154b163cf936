"""Harness and CLI smoke tests on the smallest stand-in."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro import harness
from repro.cli import build_parser, main

SMALL = ["douban"]
ROOT = Path(__file__).resolve().parent.parent


class TestHarnessRunners:
    def test_table1(self):
        rows = harness.run_table1(SMALL)
        assert len(rows) == 1
        assert rows[0]["dataset"] == "douban"
        assert rows[0]["|V|"] > 1000

    def test_table2_construction(self):
        rows = harness.run_table2_construction(SMALL, ppl_budget=30.0,
                                               parent_budget=30.0)
        row = rows[0]
        assert row["qbs_seconds"] > 0
        # PPL either finished (string time) or DNF'd.
        assert row["ppl"] == "DNF" or row["ppl_seconds"] is not None

    def test_table2_query(self):
        rows = harness.run_table2_query(SMALL, num_pairs=25,
                                        ppl_budget=30.0)
        row = rows[0]
        assert row["qbs_ms"] > 0
        assert row["bibfs_ms"] > 0

    def test_table3(self):
        rows = harness.run_table3(SMALL, ppl_budget=30.0)
        row = rows[0]
        assert row["qbs_L_bytes"] > 0
        assert row["qbs_delta_bytes"] >= 0

    def test_fig7(self):
        rows = harness.run_fig7(SMALL, num_pairs=40)
        row = rows[0]
        assert abs(sum(row["fractions"].values()) - 1.0) < 0.05

    def test_fig8(self):
        rows = harness.run_fig8(SMALL, landmark_counts=(5, 20),
                                num_pairs=30)
        assert len(rows) == 2
        assert all(0 <= r["covered_ratio"] <= 1 for r in rows)

    def test_fig9(self):
        rows = harness.run_fig9(SMALL, landmark_counts=(5, 10))
        assert rows[1]["label_bytes"] == 2 * rows[0]["label_bytes"]

    def test_fig10(self):
        rows = harness.run_fig10(SMALL, landmark_counts=(5, 10))
        assert all(r["seconds"] > 0 for r in rows)

    def test_fig11(self):
        rows = harness.run_fig11(SMALL, landmark_counts=(5,),
                                 num_pairs=20)
        assert rows[0]["query_ms"] > 0

    def test_remarks(self):
        rows = harness.run_remarks_traversal(SMALL, num_pairs=20)
        assert rows[0]["qbs_edges"] > 0
        assert rows[0]["bibfs_edges"] > 0

    def test_dynamic(self):
        rows = harness.run_dynamic(SMALL, num_ops=30)
        row = rows[0]
        assert row["dataset"] == "douban"
        assert row["mutations"] + row["ops"] >= 30
        assert row["update_ms"] > 0
        assert row["build_seconds"] > 0
        assert row["speedup_vs_rebuild"].endswith("x")


class TestFormatting:
    def test_format_rows_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": None}]
        text = harness.format_rows(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) <= 2

    def test_format_rows_empty(self):
        assert harness.format_rows([]) == "(no rows)"

    def test_internal_columns_hidden(self):
        rows = [{"a": 1, "a_bytes": 512, "a_seconds": 0.5,
                 "fractions": {1: 0.5}}]
        text = harness.format_rows(rows)
        assert "a_bytes" not in text
        assert "fractions" not in text


class TestCli:
    def test_parser_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_bench_command_is_gone(self):
        """The perf ledger went with its command: ``bench`` is now as
        unknown to argparse as any other word."""
        with pytest.raises(SystemExit) as rejected:
            main(["bench", "list"])
        assert rejected.value.code == 2

    def test_runner_gets_exactly_the_flags_its_signature_names(
            self, monkeypatch, capsys):
        """Experiment flags are stored under the runners' parameter
        names, so the keywords are a signature filter: `fig11` takes
        all three given flags, `table1` takes only `names` and is not
        handed `--pairs`."""
        import functools

        from repro import cli

        calls = []
        for name in ("fig11", "table1"):
            runner = cli._RUNNERS[name]

            @functools.wraps(runner)
            def recording(*args, _name=name, **kwargs):
                calls.append((_name, args, kwargs))
                return []

            monkeypatch.setitem(cli._RUNNERS, name, recording)
        assert main(["fig11", "--landmarks", "5", "--pairs", "3",
                     "--datasets", "douban"]) == 0
        assert main(["table1", "--pairs", "3"]) == 0
        assert calls == [
            ("fig11", (), {"names": ["douban"], "landmark_counts": [5],
                           "num_pairs": 3}),
            ("table1", (), {}),
        ]

    def test_build_and_query_round_trip(self, tmp_path, capsys):
        path = tmp_path / "douban.idx"
        code = main(["build", "--method", "qbs", "--dataset", "douban",
                     "--out", str(path), "--param", "num_landmarks=4"])
        assert code == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "saved qbs index" in out
        assert "num_landmarks" in out

        code = main(["query", "--index", str(path),
                     "--random", "5", "--mode", "distance"])
        assert code == 0
        out = capsys.readouterr().out
        assert "5 queries" in out

    def test_build_runs_the_serial_root_loop_unless_told(
            self, tmp_path, capsys, monkeypatch):
        """The bench measures the pool slower than the serial loop, so
        `build` asks for it only when `--jobs` does."""
        from repro import cli

        asked = []
        real = cli.build_index
        monkeypatch.setattr(
            cli, "build_index",
            lambda graph, method, **params:
                asked.append(params) or real(graph, method, **params))
        out = str(tmp_path / "douban.idx")
        base = ["build", "--method", "ppl", "--dataset", "douban",
                "--out", out]
        assert main(base) == 0
        assert main(base + ["--jobs", "2"]) == 0
        assert asked == [{}, {"jobs": 2}]

    def test_directed_build_answers_like_the_oracle_after_load(
            self, tmp_path, capsys):
        """`build --method qbs-directed` hands the index a stand-in's
        one CSR as both sides of a `DiGraph`. Loaded back, that index
        answered 7 of 300 uniform distances too long and 41 of 150
        SPGs wrong: its once-stored meta edges were re-read as one-way
        arcs."""
        import numpy as np

        from repro import load_index, spg_oracle

        path = tmp_path / "douban-directed.idx"
        assert main(["build", "--method", "qbs-directed",
                     "--dataset", "douban", "--out", str(path),
                     "--param", "num_landmarks=20"]) == 0
        capsys.readouterr()
        index = load_index(path)
        graph = index.graph
        pairs = np.random.default_rng(7).integers(
            0, graph.num_vertices, size=(300, 2)).tolist()
        oracle = [spg_oracle(graph, u, v) for u, v in pairs]
        assert [index.distance(u, v) for u, v in pairs] \
            == [spg.distance for spg in oracle]
        assert [index.query(u, v) for u, v in pairs[:150]] \
            == oracle[:150]

    def test_query_explicit_pairs_and_cache(self, tmp_path, capsys):
        path = tmp_path / "bibfs.idx"
        assert main(["build", "--method", "bibfs",
                     "--dataset", "douban", "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["query", "--index", str(path),
                     "--pair", "0", "5", "--pair", "0", "5",
                     "--mode", "count-paths", "--cache", "4"])
        assert code == 0
        assert "1 cache hits" in capsys.readouterr().out

    def test_query_without_pairs_rejected(self, tmp_path, capsys):
        path = tmp_path / "naive.idx"
        assert main(["build", "--method", "naive",
                     "--dataset", "douban", "--out", str(path)]) == 0
        assert main(["query", "--index", str(path)]) == 2
        assert "--pair" in capsys.readouterr().err

    def test_query_random_zero_rejected(self, tmp_path, capsys):
        path = tmp_path / "naive.idx"
        assert main(["build", "--method", "naive",
                     "--dataset", "douban", "--out", str(path)]) == 0
        assert main(["query", "--index", str(path),
                     "--random", "0"]) == 2
        assert "positive pair count" in capsys.readouterr().err

    def test_build_bad_param_rejected(self, tmp_path, capsys):
        code = main(["build", "--method", "qbs", "--dataset", "douban",
                     "--out", str(tmp_path / "x.idx"),
                     "--param", "landmarks"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_corrupt_index_reported_cleanly(self, tmp_path, capsys):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"not an index")
        assert main(["query", "--index", str(path),
                     "--random", "3"]) == 2
        assert "not a repro index archive" in capsys.readouterr().err

    def test_main_runs_table1(self, capsys):
        code = main(["table1", "--datasets", "douban"])
        assert code == 0
        out = capsys.readouterr().out
        assert "douban" in out


class TestCliUpdate:
    @pytest.fixture
    def saved_dynamic(self, tmp_path):
        from repro import build_index
        from repro.graph import cycle_graph

        path = tmp_path / "dyn.idx"
        build_index(cycle_graph(8), "dynamic").save(path)
        return path

    def test_stream_replay_and_save(self, saved_dynamic, tmp_path,
                                    capsys):
        stream = tmp_path / "ops.txt"
        stream.write_text("# demo\n+ 0 4\n? 0 4\n- 0 1\n? 0 1\n")
        out_path = tmp_path / "dyn2.idx"
        code = main(["update", "--index", str(saved_dynamic),
                     "--stream", str(stream), "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 inserts, 1 removes" in out
        assert "saved updated dynamic index" in out
        assert out_path.exists()

        from repro import load_index
        from repro.dynamic import DynamicIndex

        loaded = load_index(out_path)
        assert isinstance(loaded, DynamicIndex)
        assert loaded.distance(0, 4) == 1
        assert loaded.distance(0, 1) == 4  # detour 0-4-3-2-1

    def test_random_ops(self, saved_dynamic, capsys):
        code = main(["update", "--index", str(saved_dynamic),
                     "--random-ops", "10", "--seed", "5",
                     "--mode", "distance"])
        assert code == 0
        assert "rebuilds" in capsys.readouterr().out

    def test_promotes_static_index(self, tmp_path, capsys):
        from repro import build_index
        from repro.graph import cycle_graph

        path = tmp_path / "ppl.idx"
        build_index(cycle_graph(8), "ppl").save(path)
        stream = tmp_path / "ops.txt"
        stream.write_text("+ 0 4\n? 0 4\n")
        code = main(["update", "--index", str(path),
                     "--stream", str(stream)])
        assert code == 0
        assert "promoted to a dynamic index over 'ppl' labels" in \
            capsys.readouterr().out

    def test_requires_exactly_one_source(self, saved_dynamic, capsys):
        assert main(["update", "--index", str(saved_dynamic)]) == 2
        assert "--stream or --random-ops" in capsys.readouterr().err
        assert main(["update", "--index", str(saved_dynamic),
                     "--stream", "x", "--random-ops", "5"]) == 2

    def test_directed_index_rejected(self, tmp_path, capsys):
        from repro import build_index
        from repro.directed import DiGraph

        digraph = DiGraph.from_arcs([(0, 1), (1, 2), (2, 0)])
        path = tmp_path / "directed.idx"
        build_index(digraph, "qbs-directed", num_landmarks=2).save(path)
        assert main(["update", "--index", str(path),
                     "--random-ops", "5"]) == 2
        assert "undirected" in capsys.readouterr().err

    def test_main_passes_pairs(self, capsys):
        code = main(["fig7", "--datasets", "douban", "--pairs", "20"])
        assert code == 0
        assert "douban" in capsys.readouterr().out

    def test_main_passes_landmarks(self, capsys):
        code = main(["fig9", "--datasets", "douban",
                     "--landmarks", "5", "10"])
        assert code == 0
        assert "douban" in capsys.readouterr().out


@pytest.mark.timeout(120)
class TestCliServe:
    def test_smoke_over_saved_index(self, tmp_path, capsys):
        from repro import build_index
        from repro.graph import barabasi_albert

        path = tmp_path / "ppl.idx"
        build_index(barabasi_albert(150, 2, seed=3), "ppl").save(path)
        code = main(["serve", "--index", str(path), "--workers", "2",
                     "--smoke", "120", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "answered (0 errors)" in out
        assert "p99" in out
        assert "batches:" in out

    def test_smoke_builds_dataset_with_dynamic_promotion(self, capsys):
        code = main(["serve", "--dataset", "douban", "--workers", "1",
                     "--dynamic", "--smoke", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "promoted to a dynamic index" in out
        assert "serving 'dynamic' index" in out

    def test_smoke_zero_rejected(self, tmp_path, capsys):
        from repro import build_index
        from repro.graph import cycle_graph

        path = tmp_path / "bibfs.idx"
        build_index(cycle_graph(12), "bibfs").save(path)
        assert main(["serve", "--index", str(path), "--workers", "1",
                     "--smoke", "0"]) == 2
        assert "positive request count" in capsys.readouterr().err

    def test_directed_dataset_serve_rejected(self, capsys):
        assert main(["serve", "--dataset", "douban",
                     "--method", "qbs-directed", "--smoke", "5"]) == 2
        assert "directed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The command table: surface, refusals, help, subsystem removal, README
# ----------------------------------------------------------------------

def _leaf_parsers(parser, prefix=()):
    """``("store pack", parser)`` for every command that runs."""
    nested = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    if not nested:
        yield " ".join(prefix), parser
        return
    for name, sub in nested[0].choices.items():
        yield from _leaf_parsers(sub, prefix + (name,))


def cli_surface():
    """What a user can type: per leaf command, each flag's option
    strings, dest, default, choices, nargs and requiredness, plus the
    mutually exclusive groups. ``tests/data/cli_surface.json`` is this,
    dumped from the parser as it was before the command tables."""
    surface = {}
    for name, leaf in _leaf_parsers(build_parser()):
        flags = {}
        for action in leaf._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flags[" ".join(action.option_strings) or action.dest] = {
                "action": type(action).__name__,
                "dest": action.dest,
                "default": action.default,
                "choices": (None if action.choices is None
                            else list(action.choices)),
                "nargs": action.nargs,
                "required": action.required,
            }
        surface[name] = {
            "flags": flags,
            "exclusive": [
                {"required": group.required,
                 "flags": [" ".join(member.option_strings)
                           for member in group._group_actions]}
                for group in leaf._mutually_exclusive_groups],
        }
    return json.loads(json.dumps(surface))


#: Experiment flags are stored under the runner parameter they feed.
_RUNNER_PARAMETERS = {"--datasets": "names", "--pairs": "num_pairs",
                      "--landmarks": "landmark_counts",
                      "--ops": "num_ops"}


def _exit_code(argv):
    """`main`'s status, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestCommandTable:
    def test_surface_is_the_recorded_one(self):
        """Every command, flag, default, choice, `nargs` and `required`
        is what the hand-written parser declared — but for `store pack
        --page-bytes` (the option became a constant) and the experiment
        flags' dests (now the runners' parameter names)."""
        recorded = json.loads(
            (ROOT / "tests/data/cli_surface.json").read_text())
        assert len(recorded) == 24
        del recorded["store pack"]["flags"]["--page-bytes"]
        for command in recorded.values():
            for flag, dest in _RUNNER_PARAMETERS.items():
                if flag in command["flags"]:
                    command["flags"][flag]["dest"] = dest
        assert cli_surface() == recorded

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        from repro import build_index
        from repro.graph import cycle_graph

        path = tmp_path_factory.mktemp("cli") / "ppl.idx"
        build_index(cycle_graph(12), "ppl").save(path)
        return str(path)

    #: ``{index}`` is a saved ppl index, ``{tmp}`` a writable directory.
    MALFORMED = [
        # The sixteen probed when the table was written: the first nine
        # used to end in a traceback (the ninth was accepted silently).
        "serve --index {index} --smoke 5 --trace-rate 2",
        "serve --index {index} --smoke 5 --audit-rate 2",
        "serve --index {index} --port 99999",
        "profile run --index {index} --hz 0",
        "profile run --index {index} --hz -1",
        "store pack --index {index} --out {tmp}/x.store --head-width -1",
        "update --index {index} --stream {tmp}/missing.txt",
        "partition --dataset douban --out /nonexistent/p.npz",
        "store pack --index {index} --out {tmp}/x.store --hot-rows -5",
        "serve --index {index} --smoke 5 --cache -1",
        "serve --index {index} --smoke 5 --workers 0",
        "serve --index {index} --smoke 5 --batch 0",
        "update --index {index} --random-ops 3 --threshold -1",
        "query --index {index} --random 3 --budget 0",
        "query --index {index} --random 0",
        "stats --index {index} --random 0",
        # One value outside each declared domain, text included.
        "query --index {index} --random many",
        "stats --index {index} --cache 1.5",
        "serve --index {index} --smoke 5 --trace-rate nan",
        "profile run --index {index} --seconds inf-ish",
        "serve --index {index} --port -1",
        "profile top {tmp}/missing.folded",
        "build --dataset douban --out {tmp}/no/such/dir/x.idx",
        "build --dataset douban --out {tmp}/x.idx --param landmarks",
        # Misuse argparse itself finds.
        "query",
        "store",
        "query --index {index} --mode fastest --random 3",
    ]

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_invocation_is_error_and_exit_2(
            self, line, saved, tmp_path, capsys):
        argv = line.format(index=saved, tmp=tmp_path).split()
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_every_leaf_command_has_help(self, capsys):
        names = [name for name, _ in _leaf_parsers(build_parser())]
        assert len(names) == 24
        for name in names:
            with pytest.raises(SystemExit) as shown:
                main(name.split() + ["--help"])
            assert shown.value.code == 0, name
        assert "usage:" in capsys.readouterr().out

    def test_a_subsystem_is_its_table_and_one_name(
            self, monkeypatch, capsys):
        """With the `STORE` table out of `COMMAND_TABLES` its commands
        are unknown words and every other command parses and runs."""
        from repro import cli

        before = {name for name, _ in _leaf_parsers(build_parser())}
        monkeypatch.setattr(cli, "COMMAND_TABLES", tuple(
            table for table in cli.COMMAND_TABLES
            if table is not cli.STORE))
        after = {name for name, _ in _leaf_parsers(build_parser())}
        assert before - after == {"store pack", "store inspect"}
        with pytest.raises(SystemExit) as unknown:
            main(["store", "inspect", "x.store"])
        assert unknown.value.code == 2
        for name in sorted(after):
            with pytest.raises(SystemExit) as shown:
                main(name.split() + ["--help"])
            assert shown.value.code == 0, name
        capsys.readouterr()
        golden = str(ROOT / "tests/data/golden/ppl.idx")
        assert main(["inspect", golden]) == 0
        assert main(["query", "--index", golden, "--random", "3",
                     "--mode", "distance"]) == 0
        assert "3 queries" in capsys.readouterr().out

    def test_readme_cli_section_names_exactly_the_commands(self):
        """README's CLI section shows every leaf command (and the two
        `trace` actions) as `repro <command>`, and no `repro <word>`
        in it is a word the parser does not know."""
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        leaves = {name for name, _ in _leaf_parsers(build_parser())}
        for name in sorted(leaves | {"trace export", "trace validate"}):
            assert re.search(rf"\brepro {re.escape(name)}\b", section), \
                f"README's CLI section does not show `repro {name}`"
        tops = {name.split()[0] for name in leaves}
        groups = {name.split()[0] for name in leaves if " " in name}
        for top, action in re.findall(
                r"\brepro ([a-z][\w-]*)(?: ([a-z][\w-]*))?", section):
            assert top in tops, f"README names unknown `repro {top}`"
            if top in groups:
                assert f"{top} {action}" in leaves, \
                    f"README names unknown `repro {top} {action}`"
