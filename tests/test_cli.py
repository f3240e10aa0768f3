import json
import os

import numpy as np
import pytest

from polybilliard import cli
from polybilliard.geometry import dump_polyhedron, regular_tetrahedron, unit_cube


@pytest.fixture()
def cube_file(tmp_path):
    p = tmp_path / "cube.json"
    p.write_text(json.dumps(dump_polyhedron(unit_cube())))
    return str(p)


@pytest.fixture()
def tetra_file(tmp_path):
    p = tmp_path / "tetra.json"
    p.write_text(json.dumps(dump_polyhedron(regular_tetrahedron())))
    return str(p)


def test_simulate_jsonl(cube_file, capsys):
    rc = cli.main(["simulate", cube_file, "--m", "0.5,0.5,0",
                   "--theta", "0,0,1", "--steps", "6"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(lines[0])
    assert "config_hash" in meta and meta["status"] == "completed"
    recs = [json.loads(l) for l in lines[1:]]
    assert [r["face"] for r in recs] == ["z0", "z1", "z0", "z1", "z0", "z1"]
    assert recs[1]["m"] == [0.5, 0.5, 1.0]


def test_code_singular(cube_file, capsys):
    rc = cli.main(["code", cube_file, "--m", "0.5,0.5,0",
                   "--theta", "1,1,1", "--steps", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "singular"
    assert out["word"] == ["z0"]
    assert out["singularity"]["kind"] == "edge-hit"


def test_unfold_residual(cube_file, capsys):
    rc = cli.main(["unfold", cube_file, "--m", "0.25,0.5,0",
                   "--theta", "1,0,1", "--steps", "8"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(lines[0])
    assert meta["residual"] < 1e-12
    pts = [json.loads(l)["point"] for l in lines[1:]]
    assert np.allclose(pts[2], [1.25, 0.5, 1.0])


def test_group_outputs(cube_file, tetra_file, capsys):
    assert cli.main(["group", cube_file]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert cli.main(["group", tetra_file, "--bound", "1000"]) == 0
    assert capsys.readouterr().out.strip() == "NOT_CLOSED(1000)"


def test_cell_subcommand(cube_file, capsys):
    rc = cli.main(["cell", cube_file, "--theta", "1,0,1",
                   "--word", "z0,x1,z1,x0,z0,x1,z1,x0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "tube"
    assert out["period"] == 4


@pytest.mark.parametrize("word", ["z0,x1,x0", "z0,x1,x0,z1"])
def test_cell_empty_prefix(cube_file, capsys, word):
    # at this direction the section is already empty after z0,x1,x0; a longer
    # word stops propagating there instead of failing on the empty beam
    rc = cli.main(["cell", cube_file, "--theta", "0.1,0.2,1", "--word", word])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["word"] == word.split(",")
    assert out["kind"] == "empty"
    assert out["period"] is None


def test_cell_word_checked_past_empty_prefix(cube_file):
    for word in ("z0,x1,x0,z1,z1", "z0,x1,x0,q9"):
        rc = cli.main(["cell", cube_file, "--theta", "0.1,0.2,1", "--word", word])
        assert rc == cli.EXIT_PRECONDITION


def test_complexity_csv_and_meta(cube_file, tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = cli.main(["complexity", cube_file, "--nmax", "4", "--budget", "2e4",
                   "--seed", "7", "--threads", "2", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("# config_hash=")
    assert rows[1] == "n,p_hat,log_p_over_n"
    table = [r.split(",") for r in rows[2:]]
    assert table[0][:2] == ["1", "6"]
    assert table[1][:2] == ["2", "30"]
    meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
    assert meta["budget"] == 20000 and meta["seed"] == 7


def test_complexity_deterministic(cube_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out, threads in ((a, "1"), (b, "3")):
        rc = cli.main(["complexity", cube_file, "--nmax", "4", "--budget", "15000",
                       "--seed", "11", "--threads", threads, "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_transversal_pair(tmp_path, capsys):
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [
        {"p": [0, 0, 0], "x": [1, 0, 0]},
        {"p": [0, 1, 0], "x": [0, 0, 1]},
    ]}))
    rc = cli.main(["transversal", str(edges)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["constraint"]["kind"] == "rational"
    assert out["constraint"]["numerator"] == [1.0, 0.0, 0.0]
    assert out["constraint"]["denominator"] == [0.0, -1.0, 0.0]


def test_transversal_triple(tmp_path, capsys):
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [
        {"p": [0, 0, 0], "x": [1, 0, 0]},
        {"p": [0, 1, 0], "x": [0, 0, 1]},
        {"p": [2, 0, 1], "x": [0, 1, 0]},
    ]}))
    rc = cli.main(["transversal", str(edges), "--probes", "50", "--seed", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_probe_count"] <= 4
    assert out["transversals_on_surface"] == len(out["transversals"])
    # frozen probe output: a count change on the CLI path fails here
    assert out["probe_counts"] == [
        0, 2, 0, 2, 0, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
        0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2]
    assert out["max_probe_count"] == 2


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["group", str(bad)]) == cli.EXIT_PARSE
    assert cli.main(["group", str(tmp_path / "missing.json")]) == cli.EXIT_PARSE


def _cube_without_face_vertices(data):
    del data["faces"][0]["vertices"]


def _cube_with_int_face(data):
    data["faces"][0] = 5


def _cube_with_int_faces(data):
    data["faces"] = 5


def _cube_with_fractional_index(data):
    data["faces"][0]["vertices"][0] += 0.9       # truncates back to the cube


@pytest.mark.parametrize("damage", [_cube_without_face_vertices, _cube_with_int_face,
                                    _cube_with_int_faces, _cube_with_fractional_index])
def test_exit_code_malformed_polyhedron(tmp_path, capsys, damage):
    # a missing key (KeyError) or a wrongly typed entry (TypeError) in the
    # polyhedron file is a parse problem, as a bad value is
    data = dump_polyhedron(unit_cube())
    damage(data)
    f = tmp_path / "damaged.json"
    f.write_text(json.dumps(data))
    assert cli.main(["group", str(f)]) == cli.EXIT_PARSE
    assert "bad polyhedron" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"p": [0, 0], "x": [1, 0, 0]},              # two components
    {"p": [0, "a", 0], "x": [1, 0, 0]},         # a non-numeric coordinate
    {"p": [0, 0, 0], "x": [0, 0, 0]},           # a zero direction
])
def test_exit_code_malformed_edges(tmp_path, capsys, bad):
    # a malformed edges file is a parse problem, as a malformed polyhedron is
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [{"p": [0, 1, 0], "x": [0, 0, 1]}, bad]}))
    assert cli.main(["transversal", str(edges)]) == cli.EXIT_PARSE
    assert "bad edges file" in capsys.readouterr().err


def test_exit_code_unknown_tolerance(cube_file, capsys):
    # only the tolerances the package reads can be overridden
    assert cli.main(["group", cube_file, "--tol", "deg=1e-3"]) == cli.EXIT_PARSE
    assert "unknown tolerance" in capsys.readouterr().err


def test_exit_code_tolerance_value(cube_file, capsys):
    # a value that is no finite number is a parse problem; a finite one
    # outside the sane range is a precondition
    for val in ("abc", "nan", "inf"):
        assert cli.main(["group", cube_file, "--tol", f"plane={val}"]) == cli.EXIT_PARSE, val
        assert "--tol plane" in capsys.readouterr().err
    assert cli.main(["group", cube_file, "--tol", "plane=1"]) == cli.EXIT_PRECONDITION
    assert "out of sane bounds" in capsys.readouterr().err


def test_exit_code_non_finite_vector(cube_file, capsys):
    # a component that is no finite number is a parse problem, not a start
    # whose orbit is reported as singular
    for m, theta in (("0.5,0.5,0", "nan,0,1"), ("0.5,0.5,0", "inf,0,1"),
                     ("0.5,0.5,0", "0,-inf,1"), ("nan,0.5,0", "0,0,1"),
                     ("0.5,inf,0", "0,0,1"), ("0.5,0.5,0", "abc,0,1")):
        rc = cli.main(["code", cube_file, "--m", m, "--theta", theta])
        assert rc == cli.EXIT_PARSE, (m, theta)
        assert "vector component" in capsys.readouterr().err
    assert cli.main(["code", cube_file, "--m", "0.5,0.5,0", "--theta", "0,0,1"]) == cli.EXIT_OK


def test_exit_code_budget(cube_file, capsys):
    # a budget that is no finite number is a parse problem, not a precondition
    for budget in ("inf", "nan", "abc", "1e400"):
        rc = cli.main(["complexity", cube_file, "--nmax", "3", "--budget", budget])
        assert rc == cli.EXIT_PARSE, budget
        assert "--budget" in capsys.readouterr().err
    for budget in ("0.5", "-3"):
        rc = cli.main(["complexity", cube_file, "--nmax", "3", "--budget", budget])
        assert rc == cli.EXIT_PRECONDITION, budget
        assert "budget must be >= 1" in capsys.readouterr().err
    for threads in ("0", "-1"):
        rc = cli.main(["complexity", cube_file, "--nmax", "3", "--budget", "100",
                       "--threads", threads])
        assert rc == cli.EXIT_PRECONDITION, threads
        assert "workers must be >= 1" in capsys.readouterr().err


def test_exit_code_count_flags(tmp_path, cube_file, capsys):
    # a count flag out of range is a precondition with its own message, as
    # group --bound 0 is; none is left to numpy or to an empty loop
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [
        {"p": [0, 0, 0], "x": [1, 0, 0]},
        {"p": [0, 1, 0], "x": [0, 0, 1]},
        {"p": [2, 0, 1], "x": [0, 1, 0]},
    ]}))
    for flag, value in (("--probes", "-3"), ("--probes", "-1"), ("--samples", "-1")):
        assert cli.main(["transversal", str(edges), flag, value]) == cli.EXIT_PRECONDITION
        assert f"{flag} must be >= 0" in capsys.readouterr().err
    for kmax in ("0", "-1"):
        rc = cli.main(["cell", cube_file, "--theta", "0,0,1", "--word", "z0,z1", "--kmax", kmax])
        assert rc == cli.EXIT_PRECONDITION, kmax
        assert "--kmax must be >= 1" in capsys.readouterr().err
    assert cli.main(["group", cube_file, "--bound", "0"]) == cli.EXIT_PRECONDITION
    assert "bound must be >= 1" in capsys.readouterr().err
    assert cli.main(["transversal", str(edges), "--probes", "0", "--samples", "0"]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["probe_counts"] == [] and out["transversals"] == []


def test_threads_default_counts_usable_cpus(monkeypatch):
    def default_threads():
        return cli._build_parser().parse_args(["complexity", "cube.json"]).threads

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert default_threads() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_threads() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_threads() == 1


def test_exit_code_nonconvex(tmp_path):
    cube = unit_cube()
    data = dump_polyhedron(cube)
    idx = max(range(8), key=lambda i: sum(data["vertices"][i]))
    data["vertices"][idx] = [2.0, 2.0, 2.0]
    f = tmp_path / "warped.json"
    f.write_text(json.dumps(data))
    assert cli.main(["group", str(f)]) == cli.EXIT_NONCONVEX


def test_exit_code_precondition(cube_file):
    # outward direction cannot seed an orbit
    rc = cli.main(["simulate", cube_file, "--m", "0.5,0.5,0", "--theta", "0,0,-1"])
    assert rc == cli.EXIT_PRECONDITION
    # a start on the given face's plane but outside the face
    rc = cli.main(["simulate", cube_file, "--m", "1.5,0.5,0", "--theta", "0.1,0.2,1",
                   "--face", "z0", "--steps", "4"])
    assert rc == cli.EXIT_PRECONDITION
    # repeated label in a cell word
    rc = cli.main(["cell", cube_file, "--theta", "0,0,1", "--word", "z0,z0"])
    assert rc == cli.EXIT_PRECONDITION
    # tolerance override out of bounds
    rc = cli.main(["group", cube_file, "--tol", "plane=0.5"])
    assert rc == cli.EXIT_PRECONDITION


def test_direction_normalization_warning(cube_file, capsys):
    rc = cli.main(["code", cube_file, "--m", "0.5,0.5,0",
                   "--theta", "0,0,7", "--steps", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "normalizing" in captured.err
    assert json.loads(captured.out)["word"] == ["z0", "z1"]
