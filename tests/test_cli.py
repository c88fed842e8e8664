import csv
import importlib.resources as res
import json

import pytest

from evrec import bench, cli, generator, language, streams
from evrec.engine import ConfigError, EngineConfig

import packs

RULES = str(res.files("evrec") / "rules" / "surveillance.rtec")


def write_rules(tmp_path, text):
    path = tmp_path / "pack.rtec"
    path.write_text(text)
    return str(path)


def test_gen_then_run(tmp_path):
    stream = tmp_path / "s.jsonl"
    out = tmp_path / "out.jsonl"
    assert cli.main([
        "gen", "--entities", "6", "--duration", "300", "--seed", "9",
        "--out", str(stream),
    ]) == 0
    assert cli.main([
        "run", "--rules", RULES, "--input", str(stream),
        "--wm", "80", "--step", "40", "--mode", "asap", "--out", str(out),
    ]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines, "expected some recognised intervals"
    for obj in lines:
        assert set(obj) == {"name", "args", "value", "from", "to", "stability", "q"}
        assert obj["stability"] in ("open", "partial", "final")


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["gen", "--entities", "5", "--duration", "200", "--seed", "4"]
    cli.main(args + ["--out", str(a)])
    cli.main(args + ["--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_copies_scale_entities(tmp_path):
    path = tmp_path / "s.jsonl"
    cli.main(["gen", "--entities", "4", "--duration", "120", "--copies", "3",
              "--seed", "1", "--out", str(path)])
    doc = streams.read_stream(path)
    assert doc.diagnostics == []
    assert len(streams.stream_entities(doc.records)) == 12


def test_generated_stream_is_valid(tmp_path):
    recs = generator.generate(generator.GenSpec(entities=8, duration=250, seed=2))
    path = tmp_path / "s.jsonl"
    streams.write_stream(recs, path)
    doc = streams.read_stream(path)
    assert doc.diagnostics == []


def test_run_mode_final_only(tmp_path):
    stream = tmp_path / "s.jsonl"
    out = tmp_path / "out.jsonl"
    cli.main(["gen", "--entities", "6", "--duration", "300", "--seed", "9",
              "--out", str(stream)])
    cli.main(["run", "--rules", RULES, "--input", str(stream),
              "--wm", "80", "--step", "40", "--mode", "final", "--out", str(out)])
    for line in out.read_text().splitlines():
        assert json.loads(line)["stability"] == "final"


def test_bench_writes_csv_report(tmp_path):
    stream = tmp_path / "s.jsonl"
    report = tmp_path / "rep.csv"
    cli.main(["gen", "--entities", "5", "--duration", "200", "--seed", "3",
              "--out", str(stream)])
    assert cli.main([
        "bench", "--rules", RULES, "--input", str(stream),
        "--wm", "40,80", "--step", "40", "--shards", "1",
        "--report", str(report),
    ]) == 0
    with open(report) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["wm", "step", "shards", "avg_ms", "p95_ms", "max_ms", "realtime"]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["40", "80"]


def test_bench_determinism_of_results(tmp_path):
    # same seed, shards=1: two runs produce identical recognition output
    stream = tmp_path / "s.jsonl"
    cli.main(["gen", "--entities", "5", "--duration", "200", "--seed", "3",
              "--out", str(stream)])
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        cli.main(["run", "--rules", RULES, "--input", str(stream),
                  "--wm", "80", "--step", "40", "--out", str(out)])
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_rule_errors_exit_nonzero(tmp_path, capsys):
    bad = write_rules(tmp_path, "input event e/1\nnonsense here\n")
    code = cli.main(["run", "--rules", bad, "--input", "missing.jsonl",
                     "--wm", "10", "--step", "10", "--out", "x.jsonl"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_rule_diagnostics_block_run(tmp_path, capsys):
    bad = write_rules(
        tmp_path,
        "input event e/1\nsimple fluent f/1\n"
        "initiatedAt(f(X) = true, T) <- happensAt(e(X), T).\n",
    )
    with pytest.raises(SystemExit):
        cli.main(["run", "--rules", bad, "--input", "missing.jsonl",
                  "--wm", "10", "--step", "10", "--out", "x.jsonl"])


@pytest.mark.parametrize("name", sorted(packs.BY_NAME))
def test_run_reports_a_pack_it_cannot_evaluate_without_a_traceback(tmp_path, capsys, name):
    stream = tmp_path / "s.jsonl"
    stream.write_text('{"id": "e1", "kind": "event", "name": "e", "args": ["a"], "t": 5}\n')
    argv = ["run", "--rules", write_rules(tmp_path, packs.BY_NAME[name]), "--input", str(stream),
            "--wm", "10", "--step", "10", "--out", str(tmp_path / "out.jsonl")]
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_missing_input_file_is_reported(tmp_path, capsys):
    code = cli.main(["run", "--rules", RULES, "--input",
                     str(tmp_path / "none.jsonl"),
                     "--wm", "10", "--step", "10", "--out", "x.jsonl"])
    assert code == 2


def test_bad_wm_list_rejected(tmp_path, capsys):
    for wm in ("ten", ","):
        code = cli.main(["bench", "--rules", RULES, "--input", "x", "--wm", wm,
                         "--step", "5", "--report", "r.csv"])
        assert code == 2
        assert "error: bad window list" in capsys.readouterr().err


@pytest.mark.parametrize("shards", ["0", "-2"])
def test_bench_rejects_fewer_than_one_shard(tmp_path, capsys, shards):
    stream = tmp_path / "s.jsonl"
    cli.main(["gen", "--entities", "2", "--duration", "40", "--out", str(stream)])
    code = cli.main(["bench", "--rules", RULES, "--input", str(stream), "--wm", "40",
                     "--step", "40", "--shards", shards, "--report", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: shards must be at least 1" in err and "Traceback" not in err


def test_bench_functions_reject_fewer_than_one_shard():
    ed, _ = language.load(res.files("evrec").joinpath("rules", "surveillance.rtec").read_text())
    with pytest.raises(ConfigError):
        bench.run_sharded(ed, EngineConfig(wm=10, step=10), [], 0)
    with pytest.raises(ConfigError):
        bench.benchmark(ed, [], [10], 10, shards=-1)


def test_sharded_runs_report_what_one_shard_reports_in_each_mode(tmp_path):
    stream = tmp_path / "s.jsonl"
    streams.write_stream(generator.generate(generator.GenSpec(entities=4, duration=300, seed=1)),
                         stream)
    ed, records = cli._prepare(RULES, str(stream), 25.0)
    for mode in ("asap", "partial_stable", "final"):
        cfg = EngineConfig(wm=50, step=25, mode=mode)
        one, _ = bench.run_sharded(ed, cfg, records, 1)
        two, _ = bench.run_sharded(ed, cfg, records, 2)
        assert [r.reported for r in two] == [r.reported for r in one], mode
        assert {e.stability for r in two for e in r.reported} <= {
            "asap": {"open", "partial", "final"}, "partial_stable": {"partial", "final"},
            "final": {"final"}}[mode]


# one malformed record per kind of field check in streams.parse_record, and
# lines too deep or with too long an integer for json to read
BAD_RECORDS = {
    "args": '{"id": "e1", "kind": "event", "name": "appear", "args": [["p1"]], "t": 5}',
    "value": '{"id": "f1", "kind": "interval", "name": "walking", "args": ["p1"], '
             '"value": ["true"], "from": 1, "to": 9}',
    "boolean time": '{"id": "e1", "kind": "event", "name": "appear", "args": ["p1"], "t": true}',
    "coordinate": '{"id": "c1", "kind": "coord", "entity": "p1", "t": 1, "x": "10", "y": 4}',
    "deep nesting": "[" * 200_000,
    "huge integer": '{"id": "e1", "kind": "event", "name": "appear", "args": ["p1"], "t": '
                    + "9" * 5000 + "}",
}


@pytest.mark.parametrize("kind", sorted(BAD_RECORDS))
def test_run_reports_a_malformed_record_without_a_traceback(tmp_path, capsys, kind):
    stream = tmp_path / "s.jsonl"
    stream.write_text('{"id": "ok", "kind": "event", "name": "appear", "args": ["p2"], "t": 2}\n'
                      + BAD_RECORDS[kind] + "\n")
    code = cli.main(["run", "--rules", RULES, "--input", str(stream), "--wm", "10",
                     "--step", "10", "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "(line 2)" in err and "Traceback" not in err


def test_bench_rejects_a_tick_that_is_not_positive(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    cli.main(["gen", "--entities", "2", "--duration", "40", "--out", str(stream)])
    code = cli.main(["bench", "--rules", RULES, "--input", str(stream), "--wm", "40",
                     "--step", "40", "--tick-ms", "0", "--report", str(tmp_path / "r.csv")])
    assert code == 2
    assert "tick_ms must be positive" in capsys.readouterr().err


# one input per way a command used to end in a traceback
BAD_INPUTS = {
    "no entities": ["gen", "--entities", "0"],
    "no copies": ["gen", "--copies", "0"],
    "five ticks": ["gen", "--duration", "5"],
    "negative threshold": ["run", "--close-threshold", "-1"],
    "nan threshold": ["run", "--close-threshold", "nan"],
    "input a directory": ["run", "--input", "{dir}"],
    "rules a directory": ["run", "--rules", "{dir}"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_reported_without_a_traceback(tmp_path, capsys, case):
    stream = tmp_path / "s.jsonl"
    stream.write_text('{"id": "e1", "kind": "event", "name": "appear", "args": ["p1"], "t": 2}\n'
                      '{"id": "c1", "kind": "coord", "entity": "p1", "t": 2, "x": 1, "y": 1}\n')
    command, *given = [arg.format(dir=tmp_path) for arg in BAD_INPUTS[case]]
    if command == "gen":
        argv = ["gen", "--out", str(tmp_path / "g.jsonl"), *given]
    else:
        options = {"--rules": RULES, "--input": str(stream), "--wm": "10", "--step": "10",
                   "--out": str(tmp_path / "out.jsonl"), **dict(zip(given[::2], given[1::2]))}
        argv = ["run", *(part for item in options.items() for part in item)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "g.jsonl").exists() and not (tmp_path / "out.jsonl").exists()


def test_undecodable_rules_are_reported_with_their_line(tmp_path, capsys):
    rules = tmp_path / "pack.rtec"
    rules.write_bytes(b"input event e/1\n% caf\xe9\n")
    with pytest.raises(language.RuleSyntaxError) as err:
        language.decode(rules.read_bytes())
    assert (err.value.line, err.value.col) == (2, 6)
    code = cli.main(["run", "--rules", str(rules), "--input", "x.jsonl", "--wm", "10",
                     "--step", "10", "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert "error: invalid UTF-8 byte 0xe9 (line 2, column 6)" in capsys.readouterr().err


def test_an_undecodable_stream_line_is_reported_with_its_line(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    stream.write_bytes(b'{"id": "e1", "kind": "event", "name": "appear", "args": ["p1"], "t": 2}\n'
                       b'{"id": "e2", "kind": "event", "name": "appear", "args": ["\xff"]}\n')
    with pytest.raises(streams.StreamFormatError) as err:
        streams.read_stream(stream)
    assert err.value.line == 2
    code = cli.main(["run", "--rules", RULES, "--input", str(stream), "--wm", "10",
                     "--step", "10", "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert "error: invalid UTF-8 byte 0xff (line 2)" in capsys.readouterr().err


# a revision of coordinate sample b1, and the close intervals of (p1, p2) after it
COORD_REVISIONS = {
    "none": ("", [(2, 3)]),
    "retract": ('{"id": "b1", "action": "retract"}', []),
    "coord-kind retract": ('{"id": "b1", "action": "retract", "kind": "coord"}', []),
    "update away": ('{"id": "b1", "action": "update", "kind": "coord", "entity": "p2", '
                    '"t": 2, "x": 90, "y": 1}', []),
    "update to another tick": ('{"id": "b1", "action": "update", "kind": "coord", '
                               '"entity": "p2", "t": 3, "x": 1, "y": 1}', [(3, 4)]),
}


@pytest.mark.parametrize("case", sorted(COORD_REVISIONS))
def test_run_applies_coordinate_revisions(tmp_path, capsys, case):
    revision, spans = COORD_REVISIONS[case]
    stream = tmp_path / "s.jsonl"
    stream.write_text(
        '{"id": "a1", "kind": "coord", "entity": "p1", "t": 2, "x": 1, "y": 1}\n'
        '{"id": "a2", "kind": "coord", "entity": "p1", "t": 3, "x": 1, "y": 1}\n'
        '{"id": "b1", "kind": "coord", "entity": "p2", "t": 2, "x": 2, "y": 1}\n'
        + revision + "\n"
    )
    _ed, records = cli._prepare(RULES, str(stream), 25.0)
    assert [(r.start, r.end) for r in records if r.args == ("p1", "p2")] == spans
    assert all(r.kind == "interval" for r in records)
    assert cli.main(["run", "--rules", RULES, "--input", str(stream), "--wm", "10",
                     "--step", "10", "--out", str(tmp_path / "out.jsonl")]) == 0
    err = capsys.readouterr().err
    assert "unknown or already-forgotten" not in err and "Traceback" not in err


def test_run_reports_a_retract_of_an_unknown_kind_with_its_line(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    stream.write_text('{"id": "a1", "kind": "coord", "entity": "p1", "t": 2, "x": 1, "y": 1}\n'
                      '{"id": "a1", "action": "retract", "kind": "wat"}\n')
    code = cli.main(["run", "--rules", RULES, "--input", str(stream), "--wm", "10",
                     "--step", "10", "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown record kind 'wat' (line 2)") and "Traceback" not in err


def test_closeness_ids_never_equal_a_stream_id(tmp_path, capsys):
    # walking(a) takes the id the first closeness record would get, and
    # walking(b) the one with the prefix lengthened once; all of them and
    # close(a, b) are applied, so both pairs move together
    stream, out = tmp_path / "s.jsonl", tmp_path / "out.jsonl"
    lines = ['{"id": "close-000001", "kind": "interval", "name": "walking", "args": ["a"], '
             '"value": "true", "from": 0, "to": 40}',
             '{"id": "close+-000002", "kind": "interval", "name": "walking", "args": ["b"], '
             '"value": "true", "from": 0, "to": 40}']
    lines += [f'{{"id": "{e}{t}", "kind": "coord", "entity": "{e}", "t": {t}, "x": {x}, "y": 0}}'
              for t in range(1, 20) for e, x in (("a", 0), ("b", 3))]
    stream.write_text("\n".join(lines) + "\n")
    assert cli.main(["run", "--rules", RULES, "--input", str(stream), "--wm", "20",
                     "--step", "10", "--out", str(out)]) == 0
    assert "duplicate assert" not in capsys.readouterr().err
    found = {(obj["name"], tuple(obj["args"])) for obj in map(json.loads, out.read_text().splitlines())}
    assert found >= {(name, args) for name in ("moving", "moving_sd")
                     for args in (("a", "b"), ("b", "a"))}
