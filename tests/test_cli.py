import json
import os

import numpy as np
import pytest

import polybilliard
from polybilliard import cli, geometry, symbolic, transversal, unfolding
from polybilliard.geometry import (PreconditionFailed, dump_polyhedron,
                                   regular_tetrahedron, unit_cube)


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


def test_cell_edge_on_empty(cube_file, capsys):
    # face y1 is parallel to theta: its copy is seen edge-on, and the lines
    # that cross it lie in its plane, singular lines, so the cell is empty
    rc = cli.main(["cell", cube_file, "--theta", "1,0,1", "--word", "z0,y1"])
    assert rc == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "empty" and out["period"] is None
    assert "area" not in out and "width" not in out


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
    # word extends the empty beam to an empty beam
    rc = cli.main(["cell", cube_file, "--theta", "0.1,0.2,1", "--word", word])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["word"] == word.split(",")
    assert out["kind"] == "empty"
    assert out["period"] is None


def test_cell_word_checked_past_empty_prefix(cube_file, capsys):
    for word, err in (("z0,x1,x0,z1,z1", "LabelNotReachable: consecutive labels"),
                      ("z0,x1,x0,q9", "LabelNotReachable: unknown face label 'q9'")):
        rc = cli.main(["cell", cube_file, "--theta", "0.1,0.2,1", "--word", word])
        assert rc == cli.EXIT_PRECONDITION
        assert err in capsys.readouterr().err


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


def test_complexity_to_stdout_matches_out_files(cube_file, tmp_path, capsys):
    # without --out the table goes to stdout and its sidecar to stderr, byte
    # for byte what --out writes to the two files
    argv = ["complexity", cube_file, "--nmax", "4", "--budget", "2000", "--seed", "5"]
    assert cli.main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    out = tmp_path / "table.csv"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert captured.out == out.read_text()
    assert captured.err == (tmp_path / "table.csv.meta.json").read_text()


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


def test_transversal_coplanar_pair(tmp_path, capsys):
    # both edges lie in the plane z = 0: incidence is the linear form theta_z = 0
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [
        {"p": [0, 0, 0], "x": [1, 0, 0]},
        {"p": [0, 1, 0], "x": [1, 1, 0]},
    ]}))
    assert cli.main(["transversal", str(edges)]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["n_edges"] == 2
    assert out["constraint"] == {"kind": "coplanar", "form": [0.0, 0.0, 1.0]}


@pytest.mark.parametrize("fourth, verdict", [
    ({"p": [3, 0, 0], "x": [0, 1, 3]}, "dependent"),       # a fourth ruling
    ({"p": [3, 0, 0], "x": [1, 1, 3]}, "independent"),     # a line off the saddle
])
def test_transversal_four_edges(tmp_path, capsys, fourth, verdict):
    # rulings x = a, z = a*y of the saddle z = x*y for a = 0, 1, 2
    rulings = [{"p": [a, 0, 0], "x": [0, 1, a]} for a in (0, 1, 2)]
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": rulings + [fourth]}))
    assert cli.main(["transversal", str(edges)]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["n_edges"] == 4 and out["independence"] == verdict


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
    # a file that is no UTF-8 text cannot be read, for either input file
    bad.write_bytes(b"\xff\xfe{")
    assert cli.main(["group", str(bad)]) == cli.EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err
    assert cli.main(["transversal", str(bad)]) == cli.EXIT_PARSE
    assert "bad edges file" in capsys.readouterr().err


def _cube_without_face_vertices(data):
    del data["faces"][0]["vertices"]


def _cube_with_int_face(data):
    data["faces"][0] = 5


def _cube_with_int_faces(data):
    data["faces"] = 5


def _cube_with_fractional_index(data):
    data["faces"][0]["vertices"][0] += 0.9       # truncates back to the cube


def _cube_without_face_label(data):
    del data["faces"][0]["label"]


def _cube_with_list_face(data):
    data["faces"][0] = ["x0", data["faces"][0]["vertices"], "extra"]


def _cube_with_ragged_vertex(data):
    data["vertices"][0].append(0.0)


def _cube_with_non_numeric_coordinate(data):
    data["vertices"][0][1] = "a"


def _cube_with_true_index(data):
    for face in data["faces"]:                  # JSON true would read as index 1
        face["vertices"] = [True if i == 1 else i for i in face["vertices"]]


def _cube_with_null_label(data):
    data["faces"][0]["label"] = None             # would name the face "None"


@pytest.mark.parametrize("damage", [_cube_without_face_vertices, _cube_with_int_face,
                                    _cube_with_int_faces, _cube_with_fractional_index,
                                    _cube_without_face_label, _cube_with_list_face,
                                    _cube_with_ragged_vertex,
                                    _cube_with_non_numeric_coordinate,
                                    _cube_with_true_index, _cube_with_null_label])
def test_exit_code_malformed_polyhedron(tmp_path, capsys, damage):
    # a missing key or a wrongly typed entry in the polyhedron file is a
    # parse problem, as a bad value is: validate rejects each one
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
    {"p": [0, 0, 0]},                           # no direction
    5,                                          # an edge that is a number
    {"p": [0, 0, 0], "x": [1, [0], 0]},         # a coordinate that is a list
])
def test_exit_code_malformed_edges(tmp_path, capsys, bad):
    # a malformed edges file is a parse problem, as a malformed polyhedron is
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [{"p": [0, 1, 0], "x": [0, 0, 1]}, bad]}))
    assert cli.main(["transversal", str(edges)]) == cli.EXIT_PARSE
    assert "bad edges file" in capsys.readouterr().err


def test_exit_code_unknown_tolerance(cube_file, capsys):
    # only the tolerances the package reads can be overridden: plane and
    # sing; the tangency threshold is the constant geometry.ANGLE
    for spec in ("deg=1e-3", "step=1e-8", "angle=1e-9"):
        assert cli.main(["group", cube_file, "--tol", spec]) == cli.EXIT_PARSE, spec
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


@pytest.mark.parametrize("argv, code, message", [
    (["code", "--m", "0.5,0.5", "--theta", "0,0,1"], cli.EXIT_PARSE, "expected 3 components"),
    (["code", "--m", "0.5,0.5,0", "--theta", "0,0,0"], cli.EXIT_PARSE, "must be nonzero"),
    (["cell", "--theta", "0,0,1", "--word", ","], cli.EXIT_PRECONDITION, "at least one label"),
    (["group", "--tol", "plane"], cli.EXIT_PARSE, "--tol expects name=value"),
])
def test_exit_code_malformed_flags(cube_file, capsys, argv, code, message):
    assert cli.main([argv[0], cube_file, *argv[1:]]) == code
    assert message in capsys.readouterr().err


def test_exit_code_one_edge(tmp_path, capsys):
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [{"p": [0, 1, 0], "x": [0, 0, 1]}]}))
    assert cli.main(["transversal", str(edges)]) == cli.EXIT_PARSE
    assert "must contain 2, 3, or 4 edges" in capsys.readouterr().err


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
        assert "--threads must be >= 1" in capsys.readouterr().err


def test_exit_code_fractional_budget(cube_file, capsys):
    # a fraction of an orbit is refused, not truncated: 1000.7 used to run,
    # and hash as, 1000 orbits
    for budget in ("1000.7", "1.5", "2.5e-0"):
        rc = cli.main(["complexity", cube_file, "--nmax", "3", "--budget", budget])
        assert rc == cli.EXIT_PRECONDITION, budget
        assert "--budget must be a whole number" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, message", [
    (["complexity", "--threads", "0"], "--threads must be >= 1"),
    (["complexity", "--nmax", "1"], "--nmax must be >= 2"),
    (["complexity", "--seed", "-1"], "--seed must be >= 0"),
    *[([cmd, "--m", "0.5,0.5,0", "--theta", "0,0,1", "--steps", "0"], "--steps must be >= 1")
      for cmd in ("simulate", "code", "unfold")],
    (["group", "--bound", "0"], "--bound must be >= 1"),
    (["cell", "--theta", "0,0,1", "--word", "z0", "--kmax", "0"], "--kmax must be >= 1"),
    (["transversal", "--probes", "-1"], "--probes must be >= 0"),
])
def test_count_flag_checked_before_input_is_read(tmp_path, capsys, argv, message):
    # the input file is missing, so the flag's own error, exit 4, comes first
    missing = str(tmp_path / "missing.json")
    assert cli.main([argv[0], missing, *argv[1:]]) == cli.EXIT_PRECONDITION
    assert message in capsys.readouterr().err


def test_exit_code_unwritable_out(tmp_path, cube_file, capsys):
    # a missing directory is reported as a failed write, for every output
    # file, not as an internal error; no result is printed either
    out = str(tmp_path / "missing" / "out")
    for argv in (["group", cube_file], ["cell", cube_file, "--theta", "1,0,1", "--word", "z0,x1"],
                 ["complexity", cube_file, "--nmax", "3", "--budget", "100"],
                 ["simulate", cube_file, "--m", "0.5,0.5,0", "--theta", "0,0,1"]):
        assert cli.main(argv + ["--out", out]) == cli.EXIT_PARSE, argv[0]
        captured = capsys.readouterr()
        assert f"cannot write {out}: " in captured.err and captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_exit_code_unwritable_sidecar(tmp_path, cube_file, capsys, monkeypatch):
    # the table is written; its .meta.json sidecar is not
    real_write = cli.Path.write_text

    def write_text(self, text):
        if self.name.endswith(".meta.json"):
            raise PermissionError(13, "Permission denied", str(self))
        return real_write(self, text)

    monkeypatch.setattr(cli.Path, "write_text", write_text)
    out = tmp_path / "table.csv"
    rc = cli.main(["complexity", cube_file, "--nmax", "3", "--budget", "100", "--out", str(out)])
    assert rc == cli.EXIT_PARSE
    assert f"cannot write {out}.meta.json: " in capsys.readouterr().err
    assert not out.exists()


def test_config_hash_of_resolved_configuration(tmp_path, cube_file, capsys):
    # spellings of one configuration write the same table under the same hash
    base = ["complexity", cube_file, "--nmax", "4", "--seed", "3"]
    spellings = (["--budget", "1000"], ["--budget", "1e3"],
                 ["--budget", "1000", "--tol", "plane=1e-9"],
                 ["--budget", "1000", "--tol", "sing=1e-6", "--tol", "plane=1e-8"],
                 ["--budget", "1000", "--tol", "plane=1e-8", "--tol", "sing=1e-6"])
    tables = []
    for k, extra in enumerate(spellings):
        out = tmp_path / f"t{k}.csv"
        assert cli.main(base + extra + ["--out", str(out)]) == cli.EXIT_OK
        tables.append(out.read_bytes())
    assert tables[0] == tables[1] == tables[2]
    assert tables[3] == tables[4]
    assert tables[3].splitlines()[0] != tables[0].splitlines()[0]
    # a direction, a start point and a word hash as parsed: the unit theta,
    # the point's floats, the stripped labels; |theta| != 1 is said once
    out = tmp_path / "out.json"
    cells = []
    for theta, word in (("1,0,1", "z0,x1"), ("1,0,1.0", "z0,x1"), ("2,0,2", "z0,x1"),
                        ("1,0,1", "z0, x1"), ("1,0,1", "z0,x1,")):
        argv = ["cell", cube_file, "--theta", theta, "--word", word, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err.count("normalizing") == 1
        cells.append(out.read_bytes())
    assert len(set(cells)) == 1
    codes = []
    for m in ("0.5,0.5,0", "0.50,0.5,0"):
        argv = ["code", cube_file, "--m", m, "--theta", "0.1,0.2,1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        codes.append(out.read_bytes())
    assert codes[0] == codes[1]


def test_exit_code_negative_seed(tmp_path, cube_file, capsys):
    # checked by the CLI itself, before numpy's generator sees it
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"edges": [
        {"p": [0, 0, 0], "x": [1, 0, 0]},
        {"p": [0, 1, 0], "x": [0, 0, 1]},
        {"p": [2, 0, 1], "x": [0, 1, 0]},
    ]}))
    for argv in (["complexity", cube_file, "--nmax", "3", "--budget", "100"],
                 ["transversal", str(edges)], ["transversal", str(edges), "--probes", "0"]):
        assert cli.main(argv + ["--seed", "-1"]) == cli.EXIT_PRECONDITION, argv
        err = capsys.readouterr().err
        assert "--seed must be >= 0" in err and "non-negative" not in err


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


@pytest.mark.parametrize("argv", [
    ["cell", "--theta", "0,0,1", "--word", "q9,z0"],
    ["cell", "--theta", "0,0,1", "--word", "z0,q9"],
    ["simulate", "--m", "0.5,0.5,0", "--theta", "0,0,1", "--face", "q9"],
])
def test_exit_code_unknown_label(cube_file, capsys, argv):
    # Polyhedron.face_index is the one label check, wherever the label is read
    assert cli.main(argv[:1] + [cube_file] + argv[1:]) == cli.EXIT_PRECONDITION
    assert capsys.readouterr().err == "error: LabelNotReachable: unknown face label 'q9'\n"


@pytest.mark.parametrize("module, name, argv", [
    (unfolding, "generate_group", ["group"]),
    (symbolic, "classify_cell", ["cell", "--theta", "1,0,1", "--word", "z0,x1"]),
    (geometry, "validate", ["group"]),
    (transversal, "load_edges", ["transversal"]),      # reads the cube file as JSON
])
@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_exit_code_internal_value_or_key_error(cube_file, capsys, monkeypatch,
                                               module, name, argv, error):
    # a ValueError or KeyError that no precondition check raised is a bug
    def broken(*args, **kwargs):
        raise error("a bug")

    monkeypatch.setattr(module, name, broken)
    assert cli.main(argv[:1] + [cube_file] + argv[1:]) == cli.EXIT_INTERNAL
    assert f"internal error: {error.__name__}" in capsys.readouterr().err


def test_every_exported_error_has_an_exit_code():
    # a new exception class must choose: a precondition (4) or a bad solid (3)
    errors = [v for v in vars(polybilliard).values()
              if isinstance(v, type) and issubclass(v, BaseException)]
    assert PreconditionFailed in errors
    for e in errors:
        assert issubclass(e, PreconditionFailed) or e in cli._SOLID_ERRORS, e
