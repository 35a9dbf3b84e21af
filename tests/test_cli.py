import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_json, thin_torus

from flatgeo.builders import CATALOG_PARALLEL, catalog, isosceles_tetrahedron
from flatgeo.cli import main
from flatgeo.errors import MalformedSurface, MalformedTrace
from flatgeo.jsonio import surface_from_json, surface_to_json, trace_from_json
from flatgeo.render import render_surface, render_unfolded
import flatgeo.tracer as tracer
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


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "{torus}", "--n", "2", "--length", "3", "--csv", "{missing}/scan.csv"],
        ["scan", "{torus}", "--n", "2", "--length", "3", "--rows", "{missing}/rows.json"],
        ["trace", "{torus}", "--angle", "0.3", "--length", "3", "--svg", "{missing}/t.svg"],
        ["render", "{torus}", "-o", "{missing}/r.svg"],
        ["catalog", "{file}/catalog"],
    ],
    ids=["scan-csv", "scan-rows", "trace-svg", "render", "catalog-under-file"],
)
def test_unwritable_output_exit_3(catalog_dir, tmp_path, capsys, argv):
    regular = tmp_path / "regular-file"
    regular.write_text("")
    paths = {"torus": catalog_dir / "unit-torus.json", "missing": tmp_path / "missing", "file": regular}
    assert main([a.format(**paths) for a in argv]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "IOError"


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text('{"bad": true}')
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("head", [b"\xff\xfe", b"\x80", b"\xc3("])
def test_non_utf8_surface_exit_2(catalog_dir, tmp_path, capsys, head):
    bad = tmp_path / "not-utf8.json"
    bad.write_bytes(head + (catalog_dir / "unit-torus.json").read_bytes())
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "MalformedSurface"
    assert err["message"].startswith("surface file is not UTF-8")


def test_negative_scan_seed_names_the_seed(catalog_dir, capsys):
    assert main(["scan", str(catalog_dir / "unit-torus.json"), "--n", "1", "--length", "1.0", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert json.loads(captured.err) == {"error": "ValueError", "message": "seed must be a non-negative integer, got -1"}


# Values for the CLI's number options: each is a plausible value or one of
# the non-finite, signed-zero, huge, tiny and negative ones.  Plausible
# lengths stop at 20 so that an accepted trace or scan stays short; 1e12
# and beyond exceed the step budget and are rejected before any step.
cli_specials = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e12, -1.0, 5e-324])
cli_lengths = st.one_of(st.floats(0.01, 20.0), cli_specials)
cli_ints = st.one_of(st.integers(-3, 3), st.sampled_from([2**40, -(2**63), 2**70]))
cli_surfaces = st.sampled_from(["unit-torus", "regular-tetrahedron"])


def cli_option(values):
    """An option that is left out, plausible, or one of ``cli_specials``."""
    return st.one_of(st.none(), values, cli_specials)


def run_cli(argv) -> tuple[int, str]:
    """main's exit code and stderr; any exception it lets out fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_exit_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert set(json.loads(err)) == {"error", "message"}


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    cli_surfaces,
    st.one_of(st.none(), cli_ints),
    st.one_of(st.floats(0.0, 1.0), cli_specials),
    st.one_of(st.floats(0.0, 1.0), cli_specials),
    st.one_of(st.floats(-10.0, 10.0), cli_specials),
    cli_lengths,
    cli_option(st.floats(1e-9, 0.5)),
)
def test_trace_arguments_exit_0_1_or_2(catalog_dir, name, tri, x, y, angle, length, clearance):
    argv = ["trace", str(catalog_dir / f"{name}.json"), f"--angle={angle!r}", f"--length={length!r}"]
    if tri is not None:
        argv += [f"--tri={tri}", f"--x={x!r}", f"--y={y!r}"]
    if clearance is not None:
        argv.append(f"--clearance={clearance!r}")
    assert_exit_contract(*run_cli(argv))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    cli_surfaces,
    st.sampled_from([1, 2, 3, 0, -1]),
    cli_lengths,
    cli_option(st.floats(1e-3, 1.0)),
    st.one_of(st.none(), st.integers(0, 2**32), cli_ints),
    cli_option(st.floats(1e-9, 0.5)),
)
def test_scan_arguments_exit_0_1_or_2(catalog_dir, name, n, length, epsilon, seed, clearance):
    argv = ["scan", str(catalog_dir / f"{name}.json"), f"--n={n}", f"--length={length!r}"]
    if epsilon is not None:
        argv.append(f"--epsilon={epsilon!r}")
    if seed is not None:
        argv.append(f"--seed={seed}")
    if clearance is not None:
        argv.append(f"--clearance={clearance!r}")
    assert_exit_contract(*run_cli(argv))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from([name for name, _s in catalog()]),
    st.sampled_from(["validate", "classify", "render"]),
    st.data(),
)
def test_mutated_surface_files_exit_0_1_or_2(catalog_dir, name, command, data):
    # One value anywhere in a catalog file replaced (or its key deleted):
    # the command prints JSON on stdout, or exits 2 with one JSON error on
    # stderr; only classify's negative verdict exits 1.
    doc = json.loads((catalog_dir / f"{name}.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutate_json(doc, data), fh)
        argv = [command, path] + (["-o", os.path.join(d, "out.svg")] if command == "render" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert_exit_contract(code, err.getvalue())
    assert code != 1 or command == "classify"
    if code != 2:
        json.loads(out.getvalue())


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


def test_trace_command_reads_no_chord_array(catalog_dir, tmp_path, capsys, monkeypatch):
    # The JSON, the closed period and the SVG read the trace's record in
    # place; none of them builds its array.
    argv = ["trace", str(catalog_dir / "cube.json"), "--angle", "0.3", "--length", "20", "--svg", str(tmp_path / "t.svg")]
    assert main(argv) == 0
    want = capsys.readouterr().out, (tmp_path / "t.svg").read_text()

    def no_rows(*args):
        raise AssertionError("chord rows built")

    monkeypatch.setattr(tracer.GeodesicTrace, "chords", property(no_rows))
    assert main(argv) == 0
    assert (capsys.readouterr().out, (tmp_path / "t.svg").read_text()) == want


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


# sha256 of the stdout of `validate`, `classify` and `trace --angle
# atan2(1, 2) --length 20` (from the default start, with its
# closed_period) on each catalog file, at the default tolerance.
GOLDEN_CLI_DIGESTS = {
    "cube": (
        "f4bdf65ec7db6e2d520cb70994381e34ac2c9a7a82b701323bef4200895ed084",
        "421515e8ed06ac716eac681da4dcedff23ce1382ae8639b5668205b66aadcda5",
        "076498ace61236cf789685c3ba365ce1c7dcf645c00429c3aa172df1f94f2aaf",
    ),
    "example1": (
        "92c37af41ad4d096e0d2df10f843a62c5340ca4cb89a3704cfa9ea095d41256d",
        "47b7ed0b2b773f3dacae37c57bb3215cc6175768cbf2bbe338ac4c08c8598916",
        "57e0a118132b1298ff25e9552db0493ae6440070130f41fe5c2d6d7251fa5ee8",
    ),
    "isosceles-tetrahedron": (
        "79ec9ecdd0791f4a80a0381eb5f0c7d115521c182346a0ab79e48ed63889ee42",
        "c36c0e1add69f6432aa06cf27f6cc16b45151aec27e0a82ae9fcb139a41feeec",
        "a82e65d0401348ca41ff7d8a1074cab38d10c672b5d15bf16a248413f05a14ea",
    ),
    "klein-bottle": (
        "c83f8072974b4bc2bb61fdba16b58ea72918c751ea9e8bc39a28540445c6e513",
        "c60f4ae4c3653144552875fce0c520664f7d2db71f964ac906b4d95b31981316",
        "573e9fbdd5e97ac441938a1403383247438f8c1c71e44ce75a94a41686a90c03",
    ),
    "l-double": (
        "633f1e2b09ce3da335ec51f120dc65684d8c3a1d54c832b075764060e76d1d14",
        "15d76b24ce886153a8238400dc4b1da20112fcc76cdd028e1214f7940a2f9632",
        "070a02f6cd3a80d2678b3cd42aac843f561a874383cf7a391a563d68fca17808",
    ),
    "regular-tetrahedron": (
        "95e15819142f72bc644e4115dcd2d6c5eac6246f02fb3eee667c481dd00afc7c",
        "c36c0e1add69f6432aa06cf27f6cc16b45151aec27e0a82ae9fcb139a41feeec",
        "38fefaf14c0231fa2a8b7d0167bfdbf2c28cb38babb78af49d5a5d379c998dc2",
    ),
    "ring-double": (
        "ad0d746e83a25f3095a342b36c66af351b1081a1d9d6ed28e9cf36508743b5d9",
        "41a6690866557291cd9de1ca679b009bc3349214ea19d7a462bebeb2044607cc",
        "99bb2d262bd7a4d30918cb57cc3a7f3f5e8cca9a81aa1a1e283c5a87c431a9ff",
    ),
    "sheared-torus": (
        "77e91372ea200440dd4405515950cfc60fda8a50f0350ca5233f1ae1e281aacc",
        "80507a0d5a4068be334904804a451a67850065c4ab9508cf160c4e7a9414005d",
        "e51eb6406cdbbb35707642987e6991e7cfea6ce693b86e36aef875dcc6f9856a",
    ),
    "square-double": (
        "6dfbbc67df59b16a5da72b84adefb8e663d5f9a9adb0e52b4577b4c18555679e",
        "c36c0e1add69f6432aa06cf27f6cc16b45151aec27e0a82ae9fcb139a41feeec",
        "2cec32d65ab1ea791e683f09a79c8c21d941824a0e4813c59af1bbfb0676ce15",
    ),
    "unit-torus": (
        "77e91372ea200440dd4405515950cfc60fda8a50f0350ca5233f1ae1e281aacc",
        "80507a0d5a4068be334904804a451a67850065c4ab9508cf160c4e7a9414005d",
        "eaa0c4614e8234c9315ffff52242fa66434167fd35f1d7940b7b78d7184cf32d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI_DIGESTS))
def test_cli_stdout_matches_golden_digest(catalog_dir, capsys, monkeypatch, name):
    monkeypatch.delenv("FLATGEO_TOLERANCE", raising=False)
    path = str(catalog_dir / f"{name}.json")
    got = []
    for argv in (
        ["validate", path],
        ["classify", path],
        ["trace", path, "--angle", str(math.atan2(1.0, 2.0)), "--length", "20"],
    ):
        code = main(argv)
        got.append((code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()))
    parallel = CATALOG_PARALLEL[name]
    assert [c for c, _ in got] == [0, 0 if parallel else 1, 0]
    assert tuple(d for _, d in got) == GOLDEN_CLI_DIGESTS[name]


def test_classify_thin_torus_parallel(tmp_path, capsys):
    path = tmp_path / "thin-torus.json"
    path.write_text(surface_to_json(thin_torus()))
    assert main(["classify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["parallel"] is True
