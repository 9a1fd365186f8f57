import glob
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import CONFIG_DIR, CONFIG_NAMES, config_path
import holoelastic
from holoelastic import geometry, training
from holoelastic.autodiff import pack_batch
from holoelastic.analytics import GridField
from holoelastic.cli import run_command
from holoelastic.elasticity import Interface, Material, PlaneMode, Symmetry, Traction
from holoelastic.export import write_fields_csv
from holoelastic.geometry import piece_point, region_contains
from holoelastic.network import checkpoint_load, checkpoint_save
from holoelastic.problem import ConfigError, NetworkConfig, OutputConfig, ProblemSpec, TrainConfig, load_config


# --- config loading -----------------------------------------------------------


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_shipped_configs_load(name):
    spec = load_config(config_path(name))
    assert spec.name == name
    assert spec.domain.outer_length() > 0


def test_ring_config_structure(configs):
    spec = configs["ring_quadrant"]
    kinds = [type(p.bc) for p in spec.domain.pieces]
    assert kinds.count(Traction) == 2
    assert kinds.count(Symmetry) == 2
    assert spec.reference["kind"] == "ring"


def test_dd_config_structure(configs):
    spec = configs["dd_plate_hole"]
    assert spec.domain.n_subdomains == 4
    ifaces = [p for p in spec.domain.pieces if isinstance(p.bc, Interface)]
    assert len(ifaces) == 4
    for p in ifaces:
        assert len(set(p.subdomains)) == 2


def _gen_configs_script():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "gen_configs.py")
    spec = importlib.util.spec_from_file_location("gen_configs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_roundtrip_equals_original(name, tmp_path):
    # scripts/gen_configs.py writes configs/<name>.json byte for byte, and
    # loading it gives back the generator's spec
    script = _gen_configs_script()
    gen = getattr(script, name)
    assert gen in script.GENERATORS
    spec = gen()
    path = str(tmp_path / f"{name}.json")
    script.save_config(spec, path)
    with open(path, "rb") as fh, open(config_path(name), "rb") as shipped:
        assert fh.read() == shipped.read()
    assert load_config(path) == spec


def test_roundtrip_keeps_the_values_no_shipped_config_uses(tmp_path):
    # plane stress, single precision and a grid and seed off their defaults:
    # every enum and tuple the writer handles beyond the shipped configs
    script = _gen_configs_script()
    ring = script.ring_quadrant()
    spec = ProblemSpec(
        Material(2.0, 0.5, PlaneMode.STRESS),
        ring.domain,
        NetworkConfig(3, 8),
        TrainConfig(epochs=10, lr=0.01, n_train=40, n_test=8, seed=7, beta=0.7, precision="single"),
        OutputConfig((24, 16), "out/ring_plane_stress"),
        reference=ring.reference,
        name="ring_plane_stress",
    )
    path = str(tmp_path / "spec.json")
    script.save_config(spec, path)
    assert load_config(path) == spec


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_outward_normals_leave_region(name, configs):
    # a piece's normal leaves the subdomain it bounds; an interface's leads out of side a into side b
    domain = configs[name].domain
    inside = lambda s, z: bool(region_contains(domain.subdomain_pieces(s), z.real, z.imag)[0, 0])
    for i, piece in enumerate(domain.pieces):
        for t in (0.21, 0.5, 0.83):
            z = complex(piece_point(piece, t))
            n = complex(domain.outward_normal(i, t))
            sides = [(inside(s, z - 1e-6 * n), inside(s, z + 1e-6 * n)) for s in piece.subdomains]
            assert sides == [(True, False), (False, True)][: len(piece.subdomains)], piece.name


def test_load_maps_points_to_subdomains_once_per_subdomain(monkeypatch, configs):
    # the outward normals of all pieces come from one DomainSpec.owner map, one region_contains call per subdomain
    calls = []
    contains = geometry.region_contains
    monkeypatch.setattr(geometry, "region_contains", lambda *a: calls.append(1) or contains(*a))
    counts = {}
    for name in CONFIG_NAMES:
        calls.clear()
        load_config(config_path(name))
        counts[name] = len(calls)
    assert counts == {name: configs[name].domain.n_subdomains for name in CONFIG_NAMES}
    assert sorted(counts.values()) == [1, 1, 1, 1, 4]
    # the owner map of dd_plate_hole's quadrants: the per-subdomain loop that eval's masks were built from, with
    # nodes on the interfaces (x = 0, y = 0) going to the lower-numbered quadrant
    domain = configs["dd_plate_hole"].domain
    xs = np.linspace(-1.25, 1.25, 41)  # node 20 is 0, node 2 is -1.125 and node 38 is 1.125
    want = np.full((xs.size, xs.size), -1)
    for s in range(domain.n_subdomains):
        want[contains(domain.subdomain_pieces(s), xs, xs) & (want < 0)] = s
    assert [want[20, 38], want[38, 20], want[20, 2], want[2, 20]] == [0, 0, 1, 2]
    assert np.array_equal(domain.owner(xs, xs), want)


def _split_arc(doc: dict, i: int, bc: dict, last: bool = False) -> None:
    """Split piece i, an arc, at its mid-angle; the half that takes bc is listed first, or last."""
    pieces = doc["geometry"]["pieces"]
    head, tail = dict(pieces[i]), dict(pieces[i])
    head["theta1"] = tail["theta0"] = (pieces[i]["theta0"] + pieces[i]["theta1"]) / 2
    head["bc"] = bc
    pieces[i:i + 1] = [tail, head] if last else [head, tail]


def test_ring_reference_is_read_off_the_arcs(tmp_path, configs):
    # the shipped ring states only its kind; r, R and p come from its arcs about the origin
    ref = configs["ring_quadrant"].reference
    assert list(ref.items()) == [("kind", "ring"), ("p", -1.0), ("r", 0.5), ("R", 2.0)]
    assert all(type(v) is float for v in list(ref.values())[1:])
    # plate_hole_quadrant has one arc, the traction-free hole: r = R and no pressure
    doc = json.load(open(config_path("plate_hole_quadrant")))
    doc["reference"] = {"kind": "ring"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"^reference: a ring needs arcs .* got r=1\.0, R=1\.0, p=0\.0$"):
        load_config(str(path))
    # a zero normal pressure on the ring's inner arc is traction-free too
    doc = json.load(open(config_path("ring_quadrant")))
    doc["geometry"]["pieces"][2]["bc"]["data"] = {"normal_pressure": 0.0}
    path.write_text(json.dumps(doc))
    assert load_config(str(path)).reference == ref
    # an arc split into halves under the same condition reads as the whole
    for i in (0, 2):
        doc = json.load(open(config_path("ring_quadrant")))
        _split_arc(doc, i, doc["geometry"]["pieces"][i]["bc"])
        path.write_text(json.dumps(doc))
        assert load_config(str(path)).reference == ref


PRESSED_DISPLACEMENT = {"type": "displacement", "data": {"normal_pressure": -1.0}}
LOADED_TRACTION = {"type": "traction", "data": {"constant": [5, 0]}}
FREE_TRACTION = {"type": "traction", "data": {"constant": [0, 0]}}


@pytest.mark.parametrize(
    "bcs",
    [
        {0: PRESSED_DISPLACEMENT, 2: LOADED_TRACTION},
        {0: PRESSED_DISPLACEMENT},
        {2: LOADED_TRACTION},
        {2: {"type": "symmetry"}},
        lambda doc: _split_arc(doc, 0, FREE_TRACTION),
        lambda doc: _split_arc(doc, 0, FREE_TRACTION, last=True),
        lambda doc: _split_arc(doc, 2, LOADED_TRACTION),
        lambda doc: _split_arc(doc, 2, LOADED_TRACTION, last=True),
    ],
    ids=["both", "outer_displacement", "inner_loaded", "inner_symmetry",
         "outer_free_half_first", "outer_free_half_last", "inner_loaded_half_first", "inner_loaded_half_last"],
)
def test_ring_reference_needs_a_pressed_outer_arc_and_a_free_inner_one(tmp_path, bcs):
    # Lame's solution holds for a pressure traction on every radius-R arc and a
    # traction-free condition on every radius-r arc, in any piece order; a ring
    # posed otherwise fails at `reference`
    doc = json.load(open(config_path("ring_quadrant")))
    if callable(bcs):
        bcs(doc)
    else:
        for i, bc in bcs.items():  # pieces 0 and 2 are the outer and the inner arc
            doc["geometry"]["pieces"][i]["bc"] = bc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"^reference: a ring needs "):
        load_config(str(path))


REQUIRED = {
    "material": ("lambda", "mu"),
    "networks": ("hidden_layers", "units"),
    "training": ("epochs", "lr", "n_train"),
}


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_each_default_is_stated_once_on_its_dataclass(tmp_path, name):
    # a config with its required keys alone loads each section as its
    # dataclass built from those values: the loader states no default of its own
    doc = json.load(open(config_path(name)))
    for section, keys in REQUIRED.items():
        doc[section] = {k: doc[section][k] for k in keys}
    del doc["outputs"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    spec = load_config(str(path))
    mat, net, tr = (doc[k] for k in REQUIRED)
    assert spec.material == Material(mat["lambda"], mat["mu"])
    assert spec.networks == NetworkConfig(net["hidden_layers"], net["units"])
    assert spec.training == TrainConfig(epochs=tr["epochs"], lr=tr["lr"], n_train=tr["n_train"])
    assert spec.outputs == OutputConfig()


def test_missing_block_names_it(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"geometry": {"pieces": []}}))
    with pytest.raises(ConfigError, match="material"):
        load_config(str(path))


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "material": \n}')
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def test_bad_piece_reports_path(tmp_path):
    doc = json.load(open(config_path("ring_quadrant")))
    doc["geometry"]["pieces"][0]["radius"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"pieces\[0\]"):
        load_config(str(path))


PIECES = ("geometry", "pieces")


@pytest.mark.parametrize(
    "keys, value, args, message",
    [
        (("outputs", "grid"), [40], [], "error: outputs.grid: "),
        (("outputs", "grid"), [0, -3], [], "error: outputs.grid: "),
        ((*PIECES, 2, "bc", "data", "constant"), [0.0, 0.0, 0.0], [], "error: geometry.pieces[2].bc.data.constant: "),
        ((*PIECES, 0, "bc", "data", "normal_pressure"), "x", [], "error: geometry.pieces[0].bc.data.normal_pressure: "),
        ((*PIECES, 0, "radius"), "two", [], "error: geometry.pieces[0].radius: "),
        ((*PIECES, 1, "side"), "left", [],
         "error: geometry.pieces[1]: unknown field 'side'; expected one of kind, p0, p1, bc, subdomains, name"),
        ((*PIECES, 1, "subdomains", 0), "x", [], "error: geometry.pieces[1].subdomains: expected an integer, got 'x'"),
        ((*PIECES, 1, "subdomains"), [2], [], "error: geometry: subdomain 1 has no boundary piece"),
        ((), None, ["--grid", "40"], "argument --grid: expected NxM with positive N and M"),
        (("training", "epochs"), 2.7, [], "error: training.epochs: expected an integer, got 2.7"),
        (("training", "n_train"), 40.0, [], "error: training.n_train: expected an integer"),
        (("training", "n_test"), "8", [], "error: training.n_test: expected an integer"),
        (("training", "seed"), 1.5, [], "error: training.seed: expected an integer"),
        (("training", "m_e"), 3.0, [], "error: training.m_e: expected an integer"),
        (("networks", "hidden_layers"), True, [], "error: networks.hidden_layers: expected an integer, got True"),
        (("networks", "units"), 10.5, [], "error: networks.units: expected an integer"),
        (("geometry", "n_subdomains"), 1.0, [], "error: geometry: unknown field 'n_subdomains'; expected one of"),
        (("training", "m_e"), 1, [], "error: training: m_e must be >= 2, got 1"),
        (("training", "beta"), -1, [], "error: training: beta must be a finite positive number"),
        (("training", "n_test"), 2, [], "error: training: n_test must be at least the number of boundary pieces (4)"),
        (("training", "n_train"), 3, [], "error: training: n_train must be at least the number of boundary pieces"),
        (("reference", "p"), -1.0, [], "error: reference: unknown field 'p'; expected one of kind"),
        (("reference", "kind"), "rign", [], "error: reference.kind: expected 'ring'"),
        (("reference",), "ring", [], "error: reference: expected an object"),
        (("reference", "r"), 0.5, [], "error: reference: unknown field 'r'; expected one of kind"),
        (("reference", "R"), 2.0, [], "error: reference: unknown field 'R'; expected one of kind"),
        (("training", "lr"), None, [], "error: training.lr: expected a finite number, got None"),
        (("training", "lr"), "0.03", [], "error: training.lr: expected a finite number, got '0.03'"),
        (("training", "lr"), math.nan, [], "error: training.lr: expected a finite number, got nan"),
        (("training", "lr"), math.inf, [], "error: training.lr: expected a finite number, got inf"),
        (("training", "beta"), True, [], "error: training.beta: expected a finite number, got True"),
        (("training", "lr_decay"), "1", [], "error: training: unknown field 'lr_decay'; expected one of epochs,"),
        (("material", "mu"), "1", [], "error: material.mu: expected a finite number, got '1'"),
        (("material", "lambda"), None, [], "error: material.lambda: expected a finite number, got None"),
        ((*PIECES, 0, "bc", "data", "normal_pressure"), math.nan, [],
         "error: geometry.pieces[0].bc.data.normal_pressure: expected a finite number, got nan"),
        ((*PIECES, 1, "subdomains", 0), 0.5, [], "error: geometry.pieces[1].subdomains: expected an integer, got 0.5"),
        ((*PIECES, 1, "subdomains", 0), "0", [], "error: geometry.pieces[1].subdomains: expected an integer, got '0'"),
        ((*PIECES, 1, "subdomains"), 0, [], "error: geometry.pieces[1].subdomains: expected a list of integers, got 0"),
        ((*PIECES, 1, "subdomains"), [0, 1], [],
         "error: geometry.pieces[1]: piece 'axis_x': an interface needs two distinct subdomains, any other piece one"),
        ((*PIECES, 1, "subdomain"), 0, [], "error: geometry.pieces[1]: unknown field 'subdomain'; expected one of "),
        (("material",), 5, [], "error: material: expected an object, got 5"),
        (("networks",), 3, [], "error: networks: expected an object, got 3"),
        (("training",), [], [], "error: training: expected an object, got []"),
        (("outputs",), [1], [], "error: outputs: expected an object, got [1]"),
        (("geometry", "pieces"), {}, [], "error: geometry.pieces: expected a list, got {}"),
        ((*PIECES, 2), 7, [], "error: geometry.pieces[2]: expected an object, got 7"),
        ((*PIECES, 0, "bc"), "traction", [], "error: geometry.pieces[0].bc: expected an object, got 'traction'"),
        ((*PIECES, 0, "bc", "data"), -1.0, [], "error: geometry.pieces[0].bc.data: expected an object, got -1.0"),
        (("outputs", "dir"), [1], [], "error: outputs.dir: expected a nonempty string, got [1]"),
        ((*PIECES, 0, "name"), [1], [], "error: geometry.pieces[0].name: expected a nonempty string, got [1]"),
        (("name",), {"a": 1}, [], "error: name: expected a nonempty string, got {'a': 1}"),
        (("training", "n_tset"), 8, [], "error: training: unknown field 'n_tset'; expected one of epochs, lr,"),
        (("networks", "activaton"), "cos", [], "error: networks: unknown field 'activaton'"),
        (("outputs", "gird"), [8, 8], [], "error: outputs: unknown field 'gird'; expected one of grid, dir"),
        (("refrence",), {}, [], "error: config: unknown field 'refrence'"),
        (("material", "nu"), 0.3, [], "error: material: unknown field 'nu'"),
        (("geometry", "n_subdomain"), 1, [], "error: geometry: unknown field 'n_subdomain'"),
        (("geometry", "regions"), [], [],
         "error: geometry: unknown field 'regions'; expected one of pieces"),
        ((*PIECES, 1, "radius"), 1.0, [], "error: geometry.pieces[1]: unknown field 'radius'; expected one of kind, p0,"),
        ((*PIECES, 1, "bc", "data"), {"constant": [0.0, 0.0]}, [], "error: geometry.pieces[1].bc: unknown field 'data'"),
        ((*PIECES, 0, "bc", "data", "constant"), [0.0, 0.0], [],
         "error: geometry.pieces[0].bc.data: unknown field 'normal_pressure'; expected one of constant"),
        (("reference", "q"), 1.0, [], "error: reference: unknown field 'q'; expected one of kind"),
        ((*PIECES, 0, "bc", "data", "normal_pressure"), 0, [],
         "error: reference: a ring needs arcs about the origin of radii 0 < r < R and a nonzero normal pressure p "
         "on the outer one; got r=0.5, R=2.0, p=0.0"),
        ((*PIECES, 0, "bc", "data", "normal_pressure"), -0.0, [],
         "error: reference: a ring needs arcs about the origin of radii 0 < r < R and a nonzero normal pressure p "
         "on the outer one; got r=0.5, R=2.0, p=-0.0"),
        (("material", "mode"), "x", [], "error: material: 'x' is not a valid PlaneMode"),
        (("networks", "activation"), "exp", [], "error: networks: unknown field 'activation'"),
        (("networks", "mode"), "standard", [], "error: networks: unknown field 'mode'"),
        (("training", "precision"), "half", [], "error: training: precision must be 'double' or 'single', got 'half'"),
        (("training", "precision"), 32, [], "error: training.precision: expected a nonempty string, got 32"),
        (("training", "precision"), ["single"], [], "error: training.precision: expected a nonempty string, got ['single']"),
        ((*PIECES, 0, "kind"), "spline", [], "error: geometry.pieces[0]: unknown piece kind 'spline'"),
        ((*PIECES, 0, "kind"), None, [], "error: geometry.pieces[0]: unknown piece kind None"),
        ((*PIECES, 0, "kind"), ["line"], [], "error: geometry.pieces[0]: unknown piece kind ['line']"),
        ((*PIECES, 0, "bc", "type"), "slip", [], "error: geometry.pieces[0].bc: unknown bc type 'slip'"),
        ((*PIECES, 0, "bc", "type"), ["traction"], [], "error: geometry.pieces[0].bc: unknown bc type ['traction']"),
        ((*PIECES, 0, "bc", "data"), {}, [],
         "error: geometry.pieces[0].bc.data: boundary data must give 'constant' or 'normal_pressure'"),
        (("networks", "units"), 0, [], "error: networks: hidden_layers and units must be positive"),
    ],
    ids=[
        "grid_one", "grid_nonpositive", "constant_3", "pressure_str", "radius_str", "side_str", "subdomain_str",
        "bare_subdomain", "cli_grid", "epochs_float", "n_train_float", "n_test_str", "seed_float", "m_e_float",
        "layers_bool", "units_float", "n_subdomains_float", "m_e_1", "beta_negative", "n_test_below_pieces",
        "n_train_below_pieces", "ref_p_stated", "ref_kind", "ref_str", "ref_r_stated", "ref_R_stated", "lr_null",
        "lr_str", "lr_nan", "lr_inf", "beta_bool", "lr_decay_str", "mu_str", "lambda_null", "pressure_nan",
        "subdomain_float", "subdomain_numeric_str", "subdomains_int", "outer_piece_two_subdomains",
        "subdomain_rejected", "material_int", "networks_int", "training_list", "outputs_list", "pieces_object", "piece_int", "bc_str",
        "bc_data_float", "dir_list", "piece_name_list", "name_object", "training_typo", "activation_typo",
        "grid_typo", "root_typo", "material_extra", "geometry_typo",
        "regions_rejected", "line_with_radius", "symmetry_with_data", "data_both", "reference_extra", "ref_p_zero",
        "ref_p_negative_zero", "plane_mode_str", "activation_rejected", "net_mode_str", "precision_str", "precision_int",
        "precision_list", "kind_unknown", "kind_null", "kind_list", "bc_type_unknown", "bc_type_list", "data_empty",
        "units_zero",
    ],
)
def test_bad_eval_input_fails_before_the_checkpoint_is_read(tmp_path, capsys, keys, value, args, message):
    # the checkpoint does not exist, so only a failure at config load or
    # argument parsing reports the message
    doc = json.load(open(config_path("ring_quadrant")))
    if keys:
        obj = doc
        for k in keys[:-1]:
            obj = obj[k]
        obj[keys[-1]] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert run_command(["eval", str(cfg), str(tmp_path / "missing.json"), *args]) == 2
    assert message in capsys.readouterr().err


def test_interface_subdomains_must_be_integers(tmp_path):
    doc = json.load(open(config_path("dd_plate_hole")))
    i = next(k for k, p in enumerate(doc["geometry"]["pieces"]) if p["bc"]["type"] == "interface")
    doc["geometry"]["pieces"][i]["subdomains"][1] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=rf"^geometry\.pieces\[{i}\]\.subdomains: expected an integer, got 1\.0$"):
        load_config(str(path))


@pytest.mark.parametrize("subs", [[0, 0], [-1, 0]])
def test_interface_subdomains_must_be_distinct_and_nonnegative(tmp_path, subs):
    doc = json.load(open(config_path("dd_plate_hole")))
    i = next(k for k, p in enumerate(doc["geometry"]["pieces"]) if p["bc"]["type"] == "interface")
    doc["geometry"]["pieces"][i]["subdomains"] = subs
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    want = (rf"^geometry\.pieces\[{i}\]: piece 'iface_ne_nw': an interface needs two distinct subdomains, "
            rf"any other piece one, each a non-negative id; got \[{subs[0]}, {subs[1]}\]$")
    with pytest.raises(ConfigError, match=want):
        load_config(str(path))


def test_interface_piece_names_its_subdomains_on_the_piece_only(tmp_path):
    # the keys that named a piece's subdomains before `subdomains` did are rejected where they stood
    for where, key in (("", "subdomain"), (".bc", "subdomains")):
        doc = json.load(open(config_path("dd_plate_hole")))
        i, piece = next((k, p) for k, p in enumerate(doc["geometry"]["pieces"]) if p["bc"]["type"] == "interface")
        (piece["bc"] if where else piece)[key] = [0, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"^geometry\.pieces\[{i}\]{re.escape(where)}: unknown field '{key}'; "):
            load_config(str(path))


def test_duplicated_piece_fails_at_load(tmp_path):
    # a square with its left edge listed twice puts both sides of the edge inside the square
    doc = json.load(open(config_path("clamped_square")))
    pieces = doc["geometry"]["pieces"]
    pieces.append(dict(pieces[3]))
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    want = r"^geometry\.pieces\[3\]: piece 'left': both sides of its midpoint lie inside subdomain 0, so its outward "
    with pytest.raises(ConfigError, match=want):
        load_config(str(path))


def test_open_boundary_fails_at_load(tmp_path):
    # a ring whose inner arc grows while the axes stay put leaves axis_x's inner end open
    doc = json.load(open(config_path("ring_quadrant")))
    next(p for p in doc["geometry"]["pieces"] if p["name"] == "inner")["radius"] = 0.6
    path = tmp_path / "open.json"
    path.write_text(json.dumps(doc))
    want = r"^geometry: subdomain 0 is open: piece 'axis_x' meets no other piece at -0\.5\+0j$"
    with pytest.raises(ConfigError, match=want):
        load_config(str(path))


def test_precision_defaults_to_double(configs):
    # only clamped_square opts into single-precision branch sweeps
    assert {n: s.training.precision for n, s in configs.items()} == {
        n: "single" if n == "clamped_square" else "double" for n in CONFIG_NAMES
    }
    assert "precision" not in json.load(open(config_path("ring_quadrant")))["training"]


def test_integer_json_numbers_load_as_floats(tmp_path):
    doc = json.load(open(config_path("ring_quadrant")))
    doc["material"]["mu"], doc["training"]["lr"] = 1, 1
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    spec = load_config(str(path))
    assert type(spec.material.mu) is float and spec.material.mu == 1.0
    assert type(spec.training.lr) is float and spec.training.lr == 1.0


# --- CLI ------------------------------------------------------------------------


def _mini_ring(tmp_path, epochs=3, out="out", seed=None):
    doc = json.load(open(config_path("ring_quadrant")))
    doc["training"]["epochs"] = epochs
    doc["training"]["n_train"] = 40
    doc["training"]["n_test"] = 8
    if seed is not None:
        doc["training"]["seed"] = seed
    doc["outputs"]["grid"] = [12, 12]
    doc["outputs"]["dir"] = str(tmp_path / out)
    path = str(tmp_path / "mini_ring.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path, doc["outputs"]["dir"]


@pytest.mark.parametrize(
    "name", sorted(os.path.splitext(os.path.basename(p))[0] for p in glob.glob(os.path.join(CONFIG_DIR, "*.json")))
)
def test_shipped_config_trains_and_evaluates(name, tmp_path):
    doc = json.load(open(config_path(name)))
    doc["training"]["epochs"] = 2
    doc["outputs"]["grid"] = [10, 10]
    doc["outputs"]["dir"] = str(tmp_path / "out")
    cfg = str(tmp_path / f"{name}.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert run_command(["train", cfg]) == 0
    assert run_command(["eval", cfg, os.path.join(doc["outputs"]["dir"], "checkpoint.json")]) == 0


def test_cli_train_eval_cycle(tmp_path, capsys):
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["train", cfg]) == 0
    assert os.path.exists(os.path.join(out, "checkpoint.json"))
    hist = open(os.path.join(out, "history.csv")).read().splitlines()
    assert hist[0] == "epoch,train_loss,test_loss,ms"
    assert len(hist) == 4
    assert run_command(["eval", cfg, os.path.join(out, "checkpoint.json")]) == 0
    fields = open(os.path.join(out, "fields.csv")).read().splitlines()
    assert fields[0] == "x,y,sxx,syy,sxy,ux,uy"
    assert len(fields) == 1 + 12 * 12
    assert os.path.exists(os.path.join(out, "errors.csv"))
    # masked rows keep empty cells
    assert any(line.endswith(",,,,,") or ",,,,," in line for line in fields[1:])


def test_cli_ring_eval_without_interior_points_writes_no_errors(tmp_path, capsys):
    # a ring of inner radius 1.9 leaves the one node of a 1x1 grid, (-1, 1), in
    # its hole, and the ring errors undefined
    cfg, out = _mini_ring(tmp_path)
    doc = json.load(open(cfg))
    pieces = {p["name"]: p for p in doc["geometry"]["pieces"]}
    pieces["inner"]["radius"], pieces["axis_x"]["p1"], pieces["axis_y"]["p0"] = 1.9, [-1.9, 0.0], [0.0, 1.9]
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert run_command(["train", cfg]) == 0
    assert run_command(["eval", cfg, os.path.join(out, "checkpoint.json"), "--grid", "1x1"]) == 2
    assert "error: ring errors need at least one interior grid point" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "errors.csv"))


@pytest.mark.parametrize("flag", [[], ["--wall-times"]])
def test_cli_train_wall_times(tmp_path, flag):
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["train", cfg, *flag]) == 0
    ms = [float(line.split(",")[3]) for line in open(os.path.join(out, "history.csv")).read().splitlines()[1:]]
    assert len(ms) == 3
    assert all(math.isfinite(v) and v > 0.0 for v in ms) if flag else ms == [0.0] * 3


def test_cli_eval_architecture_mismatch(tmp_path, capsys):
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["train", cfg]) == 0
    doc = json.load(open(cfg))
    doc["networks"]["units"] = 7
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    code = run_command(["eval", cfg, os.path.join(out, "checkpoint.json")])
    assert code != 0
    assert "architecture" in capsys.readouterr().err


def test_cli_eval_rejects_a_checkpoint_of_another_subdomain_count(tmp_path, capsys):
    cfg, out = _mini_ring(tmp_path, epochs=1)
    assert run_command(["train", cfg]) == 0
    assert run_command(["eval", config_path("dd_plate_hole"), os.path.join(out, "checkpoint.json")]) == 2
    assert "error: checkpoint has 1 network pairs, config needs 4" in capsys.readouterr().err


def test_cli_eval_rejects_a_checkpoint_that_names_an_activation(tmp_path, capsys):
    # checkpoints of cos nets held "activation": "cos"; every net is exp now,
    # so such a file must not load as one
    cfg, out = _mini_ring(tmp_path, epochs=1)
    assert run_command(["train", cfg]) == 0
    ckpt = os.path.join(out, "checkpoint.json")
    doc = json.load(open(ckpt))
    doc["pairs"][0]["psi"]["activation"] = "cos"
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    assert run_command(["eval", cfg, ckpt]) == 2
    assert "checkpoint.json: pair 0 psi: unknown key 'activation'\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["pairs"][0]["phi"]["layers"][1]["weights"].pop(), "pair 0 phi: layer 2 weights must be 100 [re, im] pairs"),
        (lambda d: d["pairs"][0]["psi"]["layers"][2]["bias"].append([0.0, 0.0]), "pair 0 psi: layer 3 bias must be 1 [re, im] pairs"),
        (lambda d: d["pairs"][0]["phi"]["layers"][0].update(shape=[10, 0]), "pair 0 phi: layer 1: shape [10, 0] is not"),
        (lambda d: d["pairs"][0]["psi"]["layers"].pop(0), "pair 0 psi: network must map 1 -> 1"),
        (lambda d: d["pairs"][0]["psi"]["layers"][1].pop("weights"), "pair 0 psi: missing or malformed 'weights'"),
        (lambda d: d.update(pairs=[]), "no network pairs"),
        (lambda d: d["pairs"][0]["phi"]["layers"][1]["weights"][3].__setitem__(0, math.nan),
         "pair 0 phi: layer 2 weights must hold finite numbers"),
        (lambda d: d["pairs"][0]["psi"]["layers"][0]["bias"][0].__setitem__(1, -math.inf),
         "pair 0 psi: layer 1 bias must hold finite numbers"),
        (lambda d: d["pairs"][0]["phi"]["layers"][2]["bias"].__setitem__(0, ["0.5", True]),
         "pair 0 phi: layer 3 bias must hold finite numbers"),
        # JSON integers past the float range fail as 1e309 does, not with an unnamed OverflowError
        (lambda d: d["pairs"][0]["phi"]["layers"][1]["weights"][3].__setitem__(0, 10**400),
         "checkpoint.json: pair 0 phi: layer 2 weights must hold finite numbers\n"),
        (lambda d: d["pairs"][0]["psi"]["layers"][0]["bias"][0].__setitem__(1, -10**400),
         "checkpoint.json: pair 0 psi: layer 1 bias must hold finite numbers\n"),
        # the branches of older checkpoints held a network mode
        (lambda d: (d["pairs"][0]["phi"].update(mode="standard"), d["pairs"][0]["psi"].update(mode="stress_only")),
         "checkpoint.json: pair 0 phi: unknown key 'mode'\n"),
        (lambda d: d.update(pairs=5), "checkpoint.json: pairs must be a list, got int\n"),
        (lambda d: d.update(pairs=True), "checkpoint.json: pairs must be a list, got bool\n"),
        (lambda d: d.update(extra=1), "checkpoint.json: unknown key 'extra'\n"),
        (lambda d: d["pairs"][0].update(chi=d["pairs"][0]["phi"]), "checkpoint.json: pair 0: unknown key 'chi'\n"),
    ],
    ids=["short_weights", "long_bias", "zero_width", "broken_chain", "missing_weights", "no_pairs",
         "nan_weight", "inf_bias", "string_bias", "huge_int_weight", "huge_int_bias", "mixed_modes", "pairs_int", "pairs_bool", "top_key", "pair_key"],
)
def test_cli_eval_rejects_malformed_checkpoint(tmp_path, capsys, edit, message):
    cfg, out = _mini_ring(tmp_path, epochs=0)
    assert run_command(["train", cfg]) == 0
    ckpt = os.path.join(out, "checkpoint.json")
    doc = json.load(open(ckpt))
    edit(doc)
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    assert run_command(["eval", cfg, ckpt]) == 2
    assert message in capsys.readouterr().err


def test_cli_eval_overflow_names_the_branch(tmp_path, capsys):
    # a finite checkpoint whose psi branch overflows exp at the grid points
    cfg, out = _mini_ring(tmp_path, epochs=0)
    assert run_command(["train", cfg]) == 0
    ckpt = os.path.join(out, "checkpoint.json")
    doc = json.load(open(ckpt))
    doc["pairs"][0]["psi"]["layers"][0]["weights"] = [[-1e3, 0.0]] * 10  # Re(z) < 0 here
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    assert run_command(["eval", cfg, ckpt]) == 2
    assert "error: non-finite value in pair 0 psi layer 1\n" in capsys.readouterr().err


def test_cli_eval_overflow_names_the_pair(tmp_path, capsys):
    # dd_plate_hole evaluates four pairs; only pair 2's phi branch overflows
    doc = json.load(open(config_path("dd_plate_hole")))
    doc["training"]["epochs"] = 0
    doc["outputs"]["dir"] = str(tmp_path / "out")
    cfg = str(tmp_path / "dd.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert run_command(["train", cfg]) == 0
    ckpt = str(tmp_path / "out" / "checkpoint.json")
    ck = json.load(open(ckpt))
    ck["pairs"][2]["phi"]["layers"][0]["weights"] = [[1e3, 1e3]] * 10  # Re(w z) > 709 where y < x - 0.71
    with open(ckpt, "w") as fh:
        json.dump(ck, fh)
    assert run_command(["eval", cfg, ckpt, "--grid", "20x20"]) == 2
    assert "error: non-finite value in pair 2 phi layer 1\n" in capsys.readouterr().err
    # the overflow is raised while fields.csv.tmp is being written; no partial file stays
    assert not os.path.exists(str(tmp_path / "out" / "fields.csv"))
    assert not os.path.exists(str(tmp_path / "out" / "fields.csv.tmp"))


def test_cli_eval_readout_overflow_names_the_pair_and_point(tmp_path, capsys):
    # every hidden layer stays finite, so forward_jets returns the overflowed
    # readout; the field check must stop the eval before any row is kept
    cfg, out = _mini_ring(tmp_path, epochs=0)
    assert run_command(["train", cfg]) == 0
    ckpt = os.path.join(out, "checkpoint.json")
    pairs = checkpoint_load(ckpt)
    pairs[0].phi.layers[-1].weights[:] = 1e308
    checkpoint_save(ckpt, pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_command(["eval", cfg, ckpt, "--grid", "10x10"]) == 2
    assert "error: non-finite field in pair 0 at z=-1.9+0.1j" in capsys.readouterr().err
    for name in ("fields.csv", "fields.csv.tmp", "errors.csv"):
        assert not os.path.exists(os.path.join(out, name)), name


def test_cli_unknown_command():
    assert run_command(["frobnicate"]) != 0


def test_cli_missing_config(capsys):
    assert run_command(["train", "no_such_config.json"]) != 0


def test_cli_sample(tmp_path):
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["sample", cfg, "--n", "25"]) == 0
    lines = open(os.path.join(out, "samples.csv")).read().splitlines()
    assert lines[0] == "x,y,nx,ny,piece,t,subdomains"
    assert len(lines) == 26


def test_cli_sample_checks_its_n_as_a_config_n_train(tmp_path, capsys):
    # the ring has 4 boundary pieces: ProblemSpec's check rejects --n 3 before any sample is drawn
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["sample", cfg, "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "error: training: n_train must be at least the number of boundary pieces (4), got 3" in err
    assert not os.path.exists(os.path.join(out, "samples.csv"))


@pytest.mark.parametrize("name", ["ring_quadrant", "dd_plate_hole"])
def test_cli_sample_writes_the_training_batch_that_start_packs(monkeypatch, tmp_path, name):
    # `sample --n 60 --seed 7` overrides n_train and seed as `train --seed`
    # does, and writes the batch that training.start packs for a copy with
    # those values: the same points, normals, pieces and t, row for row
    doc = json.load(open(config_path(name)))
    doc["outputs"]["dir"] = out = str(tmp_path / "out")
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert run_command(["sample", cfg, "--n", "60", "--seed", "7"]) == 0
    cols = list(zip(*(line.split(",") for line in open(os.path.join(out, "samples.csv")).read().splitlines()[1:])))
    doc["training"].update(n_train=60, seed=7)
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    packed = []
    monkeypatch.setattr(training, "pack_batch", lambda s, d: packed.append(s) or pack_batch(s, d))
    _, batch, _ = training.start(load_config(cfg), 3, 100)
    s = packed[0]  # the training batch, packed first
    want = (s.z.real, s.z.imag, s.normal.real, s.normal.imag, s.piece, s.t)
    assert len(cols[0]) == 60 and [list(map(float, c)) for c in cols[:6]] == [w.tolist() for w in want]
    assert np.array_equal(np.concatenate([g.z for g in batch.groups]), s.z)
    assert np.array_equal(np.concatenate([g.t for g in batch.groups]), s.t)


@pytest.mark.parametrize("target", ["inv_shift", "exp"])
def test_cli_approx_demo(tmp_path, target):
    out = str(tmp_path / "approx.csv")
    assert run_command(["approx-demo", "--n", "16", "--target", target, "--out", out]) == 0
    lines = open(out).read().splitlines()
    errs = [float(l.split(",")[1]) for l in lines[1:]]
    if target == "inv_shift":
        assert errs == sorted(errs, reverse=True)
    else:  # the shallow net of exp's Taylor coefficients is exp itself, up to round-off
        assert len(errs) == 3 and max(errs) < 1e-14


@pytest.mark.parametrize("n", ["2", "-5", "3", "four"])
def test_cli_approx_demo_rejects_fewer_than_4_units(tmp_path, capsys, n):
    out = str(tmp_path / "approx.csv")
    assert run_command(["approx-demo", f"--n={n}", "--out", out]) == 2
    assert f"argument --n: expected an integer of at least 4, got '{n}'" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("n", ["129", "256"])
def test_cli_approx_demo_rejects_more_than_128_units(tmp_path, capsys, n):
    # the unit counts double from 4, and 256 units overflow a double on the unit disk
    out = str(tmp_path / "approx.csv")
    assert run_command(["approx-demo", f"--n={n}", "--out", out]) == 2
    assert f"argument --n: expected an integer of at most 128, got '{n}'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_package_import_caps_blas_threads_before_numpy_loads():
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    src = os.path.dirname(os.path.dirname(holoelastic.__file__))
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update(HOLOELASTIC_THREADS="3", PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
    probe = f"import os, sys, holoelastic; print('numpy' in sys.modules, *(os.environ.get(v) for v in {blas!r}))"

    def run(**preset):
        done = subprocess.run([sys.executable, "-c", probe], env={**env, **preset}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    assert run() == ["False", "3", "3", "3"]
    assert run(OPENBLAS_NUM_THREADS="2") == ["False", "3", "2", "3"]


def test_config_module_loads_no_solver_code():
    # problem defines and checks the run settings; the solver imports it, not the other way round
    src = os.path.dirname(os.path.dirname(holoelastic.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, holoelastic.problem; print(*sorted(m for m in sys.modules if m.startswith('holoelastic.')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [f"holoelastic.{m}" for m in ("elasticity", "geometry", "problem", "rng")]


def test_cli_init_check(tmp_path):
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["init-check", cfg, "--beta", "0.5"]) == 0
    lines = open(os.path.join(out, "variance.csv")).read().splitlines()
    assert lines[0].startswith("layer,var_y")
    assert len(lines) == 3  # two hidden layers


def test_cli_init_check_rejects_a_domain_decomposed_problem(tmp_path, capsys):
    doc = json.load(open(config_path("dd_plate_hole")))
    doc["outputs"]["dir"] = out = str(tmp_path / "out")
    cfg = tmp_path / "dd.json"
    cfg.write_text(json.dumps(doc))
    assert run_command(["init-check", str(cfg)]) == 2
    assert "error: variance diagnostics run on single-subdomain problems" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "variance.csv"))


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "0"])
def test_cli_init_check_rejects_a_beta_that_is_not_finite_and_positive(tmp_path, capsys, beta):
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["init-check", cfg, f"--beta={beta}"]) == 2
    assert f"error: training: beta must be a finite positive number, got {float(beta)}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "variance.csv"))


@pytest.mark.parametrize(
    "command, key, value, flag, message",
    [
        ("sample", "n_train", 0, "--n", "n_train must be >= 1, got 0"),
        ("init-check", "beta", -1.0, "--beta", "beta must be a finite positive number, got -1.0"),
        ("init-check", "m_e", 1, "--m-e", "m_e must be >= 2, got 1"),
        ("sample", "epochs", -1, None, "epochs must be >= 0, got -1"),
        ("sample", "n_test", -1, None, "n_test must be >= 0, got -1"),
    ],
    ids=["n_train_0", "beta_negative", "m_e_1", "epochs_negative", "n_test_negative"],
)
def test_a_bad_training_value_fails_by_name_and_value_from_the_config_and_the_cli(
    tmp_path, capsys, command, key, value, flag, message
):
    # the config's value and the same value given as a CLI override fail
    # with one message, the config's `training:` prefix included
    cfg, out = _mini_ring(tmp_path)
    doc = json.load(open(cfg))
    doc["training"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_command([command, str(bad)]) == 2
    assert capsys.readouterr().err == f"error: training: {message}\n"
    if flag is not None:
        assert run_command([command, cfg, flag, str(value)]) == 2
        assert capsys.readouterr().err == f"error: training: {message}\n"
    assert not os.path.exists(out)


def test_cli_seed_override_changes_output(tmp_path):
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["train", cfg, "--seed", "1"]) == 0
    h1 = open(os.path.join(out, "history.csv")).read()
    assert run_command(["train", cfg, "--seed", "2"]) == 0
    h2 = open(os.path.join(out, "history.csv")).read()
    assert h1 != h2


def test_cli_seed_override_means_what_the_config_seed_means(tmp_path):
    # `train --seed 3` writes the bytes that `train` writes for a copy of the config with "seed": 3
    cfg, out = _mini_ring(tmp_path, out="flag")
    assert run_command(["train", cfg, "--seed", "3"]) == 0
    cfg, seeded_out = _mini_ring(tmp_path, out="config", seed=3)
    assert run_command(["train", cfg]) == 0
    for name in ("checkpoint.json", "history.csv"):
        got, want = (open(os.path.join(d, name), "rb").read() for d in (out, seeded_out))
        assert got == want, name


def test_no_partial_files_on_failure(tmp_path):
    # eval against a truncated checkpoint must not leave partial fields.csv
    cfg, out = _mini_ring(tmp_path)
    assert run_command(["train", cfg]) == 0
    ckpt = os.path.join(out, "checkpoint.json")
    with open(ckpt, "w") as fh:
        fh.write("{ not json")
    os.remove(os.path.join(out, "fields.csv")) if os.path.exists(os.path.join(out, "fields.csv")) else None
    assert run_command(["eval", cfg, ckpt]) != 0
    assert not os.path.exists(os.path.join(out, "fields.csv"))


def test_fields_csv_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(0)
    ny, nx = 3, 4
    vals = [rng.normal(size=(ny, nx)) * 10.0 ** rng.integers(-20, 20, size=(ny, nx)) for _ in range(5)]
    vals[0][0, 1], vals[1][0, 1], vals[2][0, 1] = -0.0, 1e16, 1e-5
    mask = rng.random((ny, nx)) < 0.7
    mask[0, 1] = True
    xs, ys = np.linspace(-2.0, 0.0, nx), np.linspace(0.1, 2.0, ny)
    grid = GridField(xs, ys, mask, np.stack(vals), None, None)
    path = str(tmp_path / "fields.csv")
    write_fields_csv(path, [grid])
    # reference: str() of each numpy scalar, empty cells where masked
    want = ["x,y,sxx,syy,sxy,ux,uy"]
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            cells = [v[iy, ix] if mask[iy, ix] else None for v in vals]
            want.append(",".join("" if c is None else str(c) for c in (x, y, *cells)))
    assert open(path).read() == "\n".join(want) + "\n"
