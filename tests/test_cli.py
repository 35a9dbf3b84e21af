import json
import math
import os
import time

import pytest

from flatgeo.builders import isosceles_tetrahedron
from flatgeo.cli import main
from flatgeo.errors import MalformedSurface, MalformedTrace
from flatgeo.jsonio import surface_from_json, surface_to_json, trace_from_json
from flatgeo.render import render_surface, render_unfolded
from flatgeo.tracer import SurfacePoint, TangentDirection, trace


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("catalog")
    assert main(["catalog", str(d)]) == 0
    return d


def test_catalog_writes_ten_files_and_manifest(catalog_dir):
    files = sorted(os.listdir(catalog_dir))
    assert "MANIFEST.json" in files
    assert len([f for f in files if f != "MANIFEST.json"]) == 10


def test_catalog_idempotent_bytes(catalog_dir, tmp_path):
    second = tmp_path / "again"
    assert main(["catalog", str(second)]) == 0
    for name in os.listdir(catalog_dir):
        a = (catalog_dir / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, name


def test_manifest_matches_classify(catalog_dir, capsys):
    manifest = json.loads((catalog_dir / "MANIFEST.json").read_text())
    assert len(manifest["surfaces"]) == 10
    for entry in manifest["surfaces"]:
        code = main(["classify", str(catalog_dir / entry["file"])])
        out = json.loads(capsys.readouterr().out)
        assert out["parallel"] == entry["parallel"]
        assert code == (0 if entry["parallel"] else 1)


def test_validate_torus(catalog_dir, capsys):
    assert main(["validate", str(catalog_dir / "unit-torus.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["euler_characteristic"] == 0
    assert out["valid"]


def test_validate_cube_curvatures(catalog_dir, capsys):
    assert main(["validate", str(catalog_dir / "cube.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["curvatures"] == pytest.approx([math.pi / 2] * 8)


def test_validate_bad_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"triangles": [{"id": 0, "corners": [[0,0],[1,0],[1,1]]},'
        ' {"id": 1, "corners": [[0,0],[0.9,0],[0,0.9]]}],'
        ' "gluings": [{"a": [0,0], "b": [1,0], "reversed": false},'
        ' {"a": [0,1], "b": [1,1], "reversed": false},'
        ' {"a": [0,2], "b": [1,2], "reversed": false}]}'
    )
    assert main(["validate", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LengthMismatch"


def test_missing_file_exit_3(capsys):
    assert main(["validate", "/nonexistent/surface.json"]) == 3
    capsys.readouterr()


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text('{"bad": true}')
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("corner", [[False, "0"], [0.0, "0"], [True, 0.0], [None, 0.0], [0.0]])
def test_corner_not_two_json_numbers_exit_2(catalog_dir, tmp_path, capsys, corner):
    data = json.loads((catalog_dir / "unit-torus.json").read_text())
    data["triangles"][0]["corners"][0] = corner
    bad = tmp_path / "bad-corner.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(MalformedSurface):
        surface_from_json(bad.read_text())
    assert main(["validate", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "MalformedSurface"


def test_integer_corners_load_as_numbers(catalog_dir):
    text = (catalog_dir / "unit-torus.json").read_text()
    data = json.loads(text)
    data["triangles"] = [
        {**t, "corners": [[int(x), int(y)] for x, y in t["corners"]]} for t in data["triangles"]
    ]
    assert all(x == int(x) for t in json.loads(text)["triangles"] for c in t["corners"] for x in c)
    assert surface_to_json(surface_from_json(json.dumps(data))) == text


GOOD_SEGMENT = {"tri": 0, "in": [0.5, 0.25], "out": [0.75, 0.5]}


@pytest.mark.parametrize(
    "doc",
    [
        {"segments": [{"tri": 0}]},
        [1],
        {"segments": [{**GOOD_SEGMENT, "in": ["0.5", 0.25]}], "length": 1.0, "termination": "length_reached"},
        {"segments": [GOOD_SEGMENT], "length": 1.0, "termination": "stopped"},
        {"segments": [{**GOOD_SEGMENT, "tri": 0.5}], "length": 1.0, "termination": "length_reached"},
        {"segments": [GOOD_SEGMENT], "length": True, "termination": "length_reached"},
        {"segments": [], "length": 1.0, "termination": "length_reached"},
        {"segments": [{**GOOD_SEGMENT, "tri": 2**53 + 1}], "length": 1.0, "termination": "length_reached"},
        '{"segments": [{"tri": 0, "in": [1e400, 0.25], "out": [0.75, 0.5]}], "length": 1.0, '
        '"termination": "length_reached"}',
        '{"segments": [{"tri": 0, "in": [0.5, 0.25], "out": [0.75, 0.5]}], "length": 1e400, '
        '"termination": "length_reached"}',
        {"segments": [GOOD_SEGMENT], "length": -1.0, "termination": "length_reached"},
        {"segments": [GOOD_SEGMENT], "length": 1.0, "termination": "vertex_hit:0:nan"},
        {"segments": [{"tri": 0, "in": [1e308, 0.0], "out": [-1e308, 0.0]}], "length": 1.0,
         "termination": "length_reached"},
    ],
    ids=["missing-key", "not-an-object", "string-coordinate", "unknown-termination",
         "fractional-tri", "boolean-length", "no-segments", "tri-beyond-2**53",
         "infinite-coordinate", "infinite-length", "negative-length", "nan-hit-parameter",
         "overflowing-chord-length"],
)
def test_malformed_trace_json_raises_malformed_trace(doc):
    with pytest.raises(MalformedTrace):
        trace_from_json(doc if isinstance(doc, str) else json.dumps(doc))
    good = {"segments": [GOOD_SEGMENT], "length": 1.0, "termination": "length_reached"}
    assert trace_from_json(json.dumps(good)).chords[0, :5].tolist() == [0.0, 0.5, 0.25, 0.75, 0.5]


def test_trace_reports_closed_period(catalog_dir, capsys):
    angle = math.atan2(1.0, 2.0)
    code = main(
        [
            "trace",
            str(catalog_dir / "unit-torus.json"),
            "--tri", "0", "--x", "0.5", "--y", "0.5",
            "--angle", str(angle), "--length", "2.3",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["termination"] == "length_reached"
    assert out["closed_period"] == pytest.approx(math.sqrt(5.0), abs=1e-9)


def test_trace_vertex_hit_termination(catalog_dir, capsys):
    code = main(
        [
            "trace",
            str(catalog_dir / "unit-torus.json"),
            "--tri", "0", "--x", "0.5", "--y", "0.5",
            "--angle", str(math.pi + math.pi / 4), "--length", "3.0",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["termination"].startswith("vertex_hit:")
    assert float(out["termination"].split(":")[2]) == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_trace_start_outside_exit_2(catalog_dir, capsys):
    code = main(
        [
            "trace",
            str(catalog_dir / "unit-torus.json"),
            "--tri", "0", "--x", "0.1", "--y", "0.9",
            "--angle", "0.0", "--length", "1.0",
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_trace_json_round_trip(catalog_dir, capsys):
    main(
        [
            "trace",
            str(catalog_dir / "regular-tetrahedron.json"),
            "--tri", "0", "--x", "1.0", "--y", "0.5",
            "--angle", "0.3", "--length", "10",
        ]
    )
    text = capsys.readouterr().out
    tr = trace_from_json(text)
    assert tr.length == pytest.approx(10.0)
    assert json.loads(text)["segments"][0]["tri"] == tr.segments[0].tri


def test_scan_csv_deterministic(catalog_dir, tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    args = [
        "scan",
        str(catalog_dir / "regular-tetrahedron.json"),
        "--n", "10", "--length", "20", "--seed", "9",
    ]
    assert main(args + ["--csv", str(csv1)]) == 0
    assert main(args + ["--csv", str(csv2)]) == 0
    capsys.readouterr()
    assert csv1.read_bytes() == csv2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header == "index,angle,verdict,first_event_t1,first_event_t2,covered_fraction"


def test_scan_json_rows(catalog_dir, tmp_path, capsys):
    rows_file = tmp_path / "rows.json"
    assert (
        main(
            [
                "scan",
                str(catalog_dir / "regular-tetrahedron.json"),
                "--n", "5", "--length", "15", "--seed", "3",
                "--rows", str(rows_file),
            ]
        )
        == 0
    )
    capsys.readouterr()
    rows = json.loads(rows_file.read_text())["rows"]
    assert len(rows) == 5
    assert {r["verdict"] for r in rows} <= {"simple", "vertex_hit", "self_intersecting"}


def test_render_deterministic(tmp_path):
    s = isosceles_tetrahedron((1.0, 1.0, 1.0))
    svg1 = render_surface(s)
    svg2 = render_surface(s)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    tr = trace(s, TangentDirection(SurfacePoint(0, (1.0, 0.5)), (math.cos(0.2), math.sin(0.2))), 5.0)
    u1 = render_unfolded(s, tr)
    u2 = render_unfolded(s, tr)
    assert u1 == u2
    assert "<line" in u1


def test_render_command(catalog_dir, tmp_path, capsys):
    out = tmp_path / "torus.svg"
    assert main(["render", str(catalog_dir / "unit-torus.json"), "-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().startswith("<svg")


def test_trace_svg_output(catalog_dir, tmp_path, capsys):
    out = tmp_path / "dev.svg"
    code = main(
        [
            "trace",
            str(catalog_dir / "unit-torus.json"),
            "--tri", "0", "--x", "0.5", "--y", "0.5",
            "--angle", "0.4636476090008061", "--length", "2.3",
            "--svg", str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert "<line" in out.read_text()


def test_tolerance_env_override(catalog_dir, tmp_path, capsys, monkeypatch):
    # a 1e-8 length mismatch passes once the tolerance is loosened
    bad = tmp_path / "near.json"
    eps = 1e-8
    bad.write_text(
        '{"triangles": [{"id": 0, "corners": [[0,0],[1,0],[1,1]]},'
        f' {{"id": 1, "corners": [[0,0],[1,1],[0,{1 + eps}]]}}],'
        ' "gluings": [{"a": [0,0], "b": [1,1], "reversed": false},'
        ' {"a": [0,1], "b": [1,2], "reversed": false},'
        ' {"a": [0,2], "b": [1,0], "reversed": false}]}'
    )
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()
    monkeypatch.setenv("FLATGEO_TOLERANCE", "1e-6")
    assert main(["validate", str(bad)]) == 0
    capsys.readouterr()
    # the override applies to that call only
    monkeypatch.delenv("FLATGEO_TOLERANCE")
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()
    # a NaN tolerance would switch off every check (the cube would pass with
    # no cone points); NaN and inf are rejected before anything is loaded
    for value in ("nan", "inf"):
        monkeypatch.setenv("FLATGEO_TOLERANCE", value)
        assert main(["validate", str(catalog_dir / "cube.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "args, error",
    [
        ("trace {torus} --angle 0.3 --length inf", "ValueError"),
        ("scan {torus} --n 2 --length inf", "ValueError"),
        ("trace {torus} --angle 0.3 --length 1e308", "ValueError"),
        ("scan {torus} --n 2 --length 1e308", "ValueError"),
        ("trace {torus} --angle nan --length 2", "ValueError"),
        ("scan {torus} --n 2 --length 5 --epsilon nan", "ValueError"),
        ("scan {cube} --n 3 --length 100 --epsilon nan", "ValueError"),
        ("trace {torus} --angle 0.3 --length 2 --clearance nan", "ValueError"),
        ("trace {torus} --tri 0 --x nan --y 0.5 --angle 0.3 --length 2", "ValueError"),
        ("validate {nan_torus}", "DegenerateTriangle"),
        ("validate {huge_torus}", "DegenerateTriangle"),
        ("scan {huge_torus} --n 2 --length 5", "DegenerateTriangle"),
        ("trace {huge_torus} --angle 0.3 --length 2", "DegenerateTriangle"),
    ],
    ids=["trace-length-inf", "scan-length-inf", "trace-length-1e308", "scan-length-1e308",
         "trace-angle-nan", "scan-epsilon-nan", "scan-epsilon-nan-no-simple-direction",
         "trace-clearance-nan", "trace-x-nan", "validate-nan-corner",
         "validate-inf-area", "scan-inf-area", "trace-inf-area"],
)
def test_non_finite_input_exit_2(catalog_dir, tmp_path, capsys, args, error):
    data = json.loads((catalog_dir / "unit-torus.json").read_text())
    data["triangles"][0]["corners"][0][0] = math.nan
    (tmp_path / "nan-torus.json").write_text(json.dumps(data))
    # The unit torus scaled by 1e200: every corner is finite, the area is not.
    data = json.loads((catalog_dir / "unit-torus.json").read_text())
    for t in data["triangles"]:
        t["corners"] = [[1e200 * x for x in c] for c in t["corners"]]
    (tmp_path / "huge-torus.json").write_text(json.dumps(data))
    argv = args.format(
        torus=catalog_dir / "unit-torus.json",
        cube=catalog_dir / "cube.json",
        nan_torus=tmp_path / "nan-torus.json",
        huge_torus=tmp_path / "huge-torus.json",
    )
    assert main(argv.split()) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize(
    "args, error",
    [
        ("trace {torus} --angle 0.3 --length 1e12", "ValueError"),
        ("scan {torus} --n 100000000000 --length 1", "ValueError"),
        ("validate {nested}", "MalformedSurface"),
        ("validate {fractional_id}", "MalformedSurface"),
        ("validate {string_reversed}", "MalformedSurface"),
        ("validate {huge_id}", "MalformedSurface"),
    ],
    ids=["trace-length-1e12", "scan-n-1e11", "nested-brackets", "fractional-id",
         "string-reversed", "id-beyond-2**53"],
)
def test_out_of_range_input_exit_2_within_1s(catalog_dir, tmp_path, capsys, args, error):
    torus = catalog_dir / "unit-torus.json"
    files = {"nested": "[" * 100_000}
    for name, path, value in (
        ("fractional_id", ("triangles", 0, "id"), 0.5),
        ("string_reversed", ("gluings", 0, "reversed"), "yes"),
        ("huge_id", ("triangles", 0, "id"), 2**60),
    ):
        data = json.loads(torus.read_text())
        data[path[0]][path[1]][path[2]] = value
        files[name] = json.dumps(data)
    paths = {"torus": torus}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    t0 = time.perf_counter()
    code = main(args.format(**paths).split())
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert elapsed < 1.0
