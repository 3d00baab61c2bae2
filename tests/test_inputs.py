"""Numbers from outside the program: every bad one is a named error, and exit 2 at the CLI."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fundlim as fl
from fundlim.bounds import ROUTES
from fundlim.cli import EXIT_INPUT, EXIT_OK, EXIT_UNSATISFIED, EXIT_UNSTABLE, main

PLANT = {"A": [[0.5]], "B": [1.0], "C": [1.0]}
GAUSS = {"type": "iid_gaussian", "sigma": 1.0}


def dist(tag, **fields):
    return {"dist": {"type": tag, **fields}}


def plant(**fields):
    return {"plant": PLANT | fields}


def controller(spec):
    return {"controller": spec}


# Field -> (the API taking the value, the CLI inputs carrying it, a pattern
# of the field's name in the message). Through the CLI a controller's
# numbers are text, so they are written as JSON is.
NUMERIC_INPUTS = {
    "sigma": (fl.GaussianIID, lambda v: dist("iid_gaussian", sigma=v), "sigma"),
    "half_width": (fl.UniformIID, lambda v: dist("iid_uniform", half_width=v), "half_width"),
    "shape": (
        lambda v: fl.GeneralizedGaussianIID(v, 1.0),
        lambda v: dist("iid_gengauss", shape=v, lp_norm=1.0),
        "shape",
    ),
    "lp_norm": (
        lambda v: fl.GeneralizedGaussianIID(4.0, v),
        lambda v: dist("iid_gengauss", shape=4.0, lp_norm=v),
        "lp_norm",
    ),
    "innovation_std": (
        lambda v: fl.GaussianAR([0.5], v),
        lambda v: dist("gauss_ar", coeffs=[0.5], innovation_std=v),
        "innovation_std",
    ),
    "coeffs": (
        lambda v: fl.GaussianAR([v], 1.0),
        lambda v: dist("gauss_ar", coeffs=[v], innovation_std=1.0),
        "coeff",
    ),
    "gain": (fl.StaticGain, lambda v: controller(f"gain:{json.dumps(v)}"), "gain"),
    "b": (
        lambda v: fl.LinearFilter([v]),
        lambda v: controller(f"arma:{json.dumps(v)};"),
        "filter coefficient|arma controller",
    ),
    "a": (
        lambda v: fl.LinearFilter([1.0], [v]),
        lambda v: controller(f"arma:1;{json.dumps(v)}"),
        "filter coefficient|arma controller",
    ),
    "x0_std": (
        lambda v: fl.SimulationConfig(horizon=5, trajectories=10, x0_std=v),
        lambda v: {"sim": {"horizon": 5, "trajectories": 10, "x0_std": v}},
        "x0_std",
    ),
    "A": (lambda v: fl.StateSpaceModel([[v]], [1.0], [1.0]), lambda v: plant(A=[[v]]), r"\bA\b"),
    "B": (lambda v: fl.StateSpaceModel([[0.5]], [v], [1.0]), lambda v: plant(B=[v]), r"\bB\b"),
    "C": (lambda v: fl.StateSpaceModel([[0.5]], [1.0], [v]), lambda v: plant(C=[v]), r"\bC\b"),
}
LISTS = {"coeffs", "b", "a", "A", "B", "C"}
BAD_VALUES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "string": "1",
    "bool": True,
    "null": None,
    "nested": [[1.0]],
}


def expected_error(field, value):
    # Not finite: out of range. Not a number: a TypeError, but x0_std is a
    # setting, and settings raise InvalidModelError. A nested list in place
    # of a list's entry nests the list too deep for its shape.
    if isinstance(value, float) or field == "x0_std" or (field in LISTS and value == [[1.0]]):
        return fl.InvalidModelError
    return TypeError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_argv(directory: Path, inputs: dict) -> list:
    """argv of the command that reads each of ``inputs``, written to files in ``directory``."""
    files = {}
    for name in ("plant", "dist", "sim"):
        if name in inputs:
            files[name] = directory / f"{name}.json"
            files[name].write_text(json.dumps(inputs[name]))
    if set(inputs) == {"plant"}:
        return ["analyze", "--plant", str(files["plant"])]
    if set(inputs) == {"dist"}:
        return ["bound", "--dist", str(files["dist"])]
    for name, payload in (("plant", PLANT), ("dist", GAUSS)):
        if name not in files:
            files[name] = directory / f"{name}.json"
            files[name].write_text(json.dumps(payload))
    argv = ["verify", "--plant", str(files["plant"]), "--dist", str(files["dist"])]
    if "sim" in files:
        return argv + ["--sim-config", str(files["sim"])]
    return argv + ["--horizon", "5", "--traj", "10", "--controller", inputs["controller"]]


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
@pytest.mark.parametrize("field", NUMERIC_INPUTS)
def test_bad_number_is_a_named_error(tmp_path, field, value):
    api, inputs, names = NUMERIC_INPUTS[field]
    with pytest.raises(expected_error(field, value)) as exc:
        api(value)
    assert re.search(names, str(exc.value)), str(exc.value)
    code, out, err = run_cli(cli_argv(tmp_path, inputs(value)))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("fundlim: ") and re.search(names, err), err
    assert "Traceback" not in err


# JSON values for the fuzz test: numbers at and past the float range's ends,
# and values that are no number at all, nested in lists and objects.
NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.0, 2**63, 10**400]),
    st.floats(-4.0, 4.0),
    st.floats(),
)
JUNK = st.one_of(st.text(max_size=4), st.booleans(), st.none())
LEAVES = NUMBERS | JUNK
VALUES = st.recursive(
    LEAVES,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
# A size that runs in a blink, one no array can hold, or no size at all.
SIZES = st.one_of(
    st.integers(0, 16), st.integers(2**63, 2**66), st.sampled_from([0.5, -1.0, 1e308]), JUNK
)


@st.composite
def plants(draw):
    n = draw(st.integers(1, 3))
    entries = draw(st.sampled_from([st.floats(-2.0, 2.0), LEAVES]))
    payload = {
        "A": [[draw(entries) for _ in range(n)] for _ in range(n)],
        "B": [draw(entries) for _ in range(n)],
        "C": [draw(entries) for _ in range(n)],
    }
    stray = st.dictionaries(st.sampled_from(["A", "B", "C", "D"]), VALUES, max_size=1)
    payload.update(draw(stray))
    return payload if draw(st.integers(0, 4)) else draw(VALUES)


@st.composite
def disturbances(draw):
    fields = {
        "iid_gaussian": ["sigma"],
        "iid_uniform": ["half_width"],
        "iid_gengauss": ["shape", "lp_norm"],
        "gauss_ar": ["coeffs", "innovation_std"],
    }
    tag = draw(st.sampled_from(sorted(fields)) | VALUES)
    payload = {"type": tag}
    for name in fields.get(tag, []) if isinstance(tag, str) else []:
        if name == "coeffs":
            payload[name] = draw(st.lists(st.floats(-0.9, 0.9) | LEAVES, max_size=3) | VALUES)
        else:
            payload[name] = draw(st.floats(0.1, 4.0) | VALUES)
    payload.update(draw(st.dictionaries(st.text(max_size=3), VALUES, max_size=1)))
    return payload if draw(st.integers(0, 4)) else draw(VALUES)


@st.composite
def sim_configs(draw):
    keys = ["horizon", "trajectories", "seed", "burn_in", "tail_window"]
    payload = {key: draw(SIZES) for key in draw(st.lists(st.sampled_from(keys), unique=True))}
    payload.update(draw(st.dictionaries(st.sampled_from(["x0_std", "p_list", "extra"]), VALUES)))
    return payload


@st.composite
def cli_calls(draw):
    """argv of one analyze/bound/verify/szego call and the JSON value of each file it reads.

    ``@name`` in argv stands for the path of the file ``name``.
    """
    command = draw(st.sampled_from(["analyze", "bound", "verify", "szego"]))
    files = {"plant": draw(plants()), "dist": draw(disturbances())}
    norm_orders = st.sampled_from(["2", "1,2,4,inf", "inf", "0.5", "", "x"]) | st.lists(
        NUMBERS, min_size=1, max_size=3
    ).map(lambda orders: ",".join(map(json.dumps, orders)))
    grid = str(draw(st.integers(0, 64) | st.integers(2**63, 2**66)))
    if command == "analyze":
        return ["analyze", "--plant", "@plant"], files
    if command == "szego":
        return ["szego", "--dist", "@dist", "--grid", grid], files
    if command == "bound":
        argv = ["bound", "--dist", "@dist", f"--p={draw(norm_orders)}", "--grid", grid]
        if draw(st.booleans()):
            argv += ["--plant", "@plant"]
        theorem = draw(st.none() | st.sampled_from(sorted(ROUTES)))
        return argv + ([] if theorem is None else ["--theorem", theorem]), files
    spec = draw(
        st.sampled_from(["zero", "gain:1.5", "arma:0.1;-0.2", "arma:1;"])
        | NUMBERS.map(lambda c: f"gain:{json.dumps(c)}")
        | st.lists(NUMBERS, min_size=1, max_size=2).map(
            lambda c: f"arma:{json.dumps(c[0])};{','.join(map(json.dumps, c[1:]))}"
        )
    )
    argv = [
        "verify", "--plant", "@plant", "--dist", "@dist", f"--controller={spec}",
        "--which", draw(st.sampled_from(["error", "output"])),
        # One chunk of trajectories: the run starts no worker processes.
        "--traj", str(draw(st.integers(1, 64) | st.integers(2**63, 2**66))),
    ]
    if draw(st.booleans()):
        argv += ["--horizon", str(draw(st.integers(1, 16) | st.integers(2**63, 2**66)))]
    if draw(st.booleans()):
        argv += [f"--p={draw(norm_orders)}"]
    if draw(st.booleans()):
        files["sim"] = draw(sim_configs())
        argv += ["--sim-config", "@sim"]
    return argv, files


@given(call=cli_calls())
@settings(max_examples=150, deadline=None)
def test_any_input_file_ends_in_an_exit_code(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as directory:
        for name, payload in files.items():
            (Path(directory) / f"{name}.json").write_text(json.dumps(payload))
        argv = [f"{directory}/{token[1:]}.json" if token[:1] == "@" else token for token in argv]
        code, _, err = run_cli(argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_UNSATISFIED, EXIT_UNSTABLE), (code, err)
    assert "Traceback" not in err
