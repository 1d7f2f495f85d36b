"""One request path: shared flags, kernel aliases, machine refs, plans.

The CLI verbs and ``repro serve`` build their requests through
:mod:`repro.request`; these tests pin what the verbs declare and that
every entry point treats an alias as the kernel it names.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.kernels import kernel_names, make_kernel, register_kernel
from repro.machine.ref import MachineRef
from repro.request import build_plan
from repro.sweep import SweepPlan, point_key

#: every verb that takes a shared request flag: the minimal argv that
#: parses, and each shared flag's default (a flag left out is absent)
VERBS = {
    "roofline": ([], {"machine": "snb-ep", "scale": 0.125,
                      "threads": 1}),
    "measure": (["daxpy", "64"], {"machine": "snb-ep", "scale": 0.125,
                                  "threads": 1, "protocol": "cold",
                                  "reps": 2, "engine": "fast"}),
    "profile": (["daxpy"], {"machine": "snb-ep", "scale": 0.125,
                            "threads": 1, "protocol": "cold", "reps": 1,
                            "engine": "fast"}),
    "timeline": ([], {"machine": "snb-ep", "scale": 0.125, "threads": 1,
                      "protocol": "cold", "reps": 1, "engine": "fast"}),
    "explain": (["daxpy", "64"], {"machine": "snb-ep", "scale": 0.125,
                                  "protocol": "warm"}),
    "sweep": ([], {"machine": "snb-ep", "scale": 0.125, "threads": 1,
                   "protocol": "cold", "reps": 2, "engine": "fast"}),
    "ert": ([], {"machine": "snb", "scale": 0.125, "reps": 2,
                 "engine": "fast"}),
    "analyze": (["daxpy", "--sizes", "16"],
                {"machine": "snb", "scale": 0.125, "protocol": "cold",
                 "reps": 2, "engine": "fast"}),
    "selfprofile": (["daxpy"], {"machine": "tiny", "scale": 0.125,
                                "threads": 1, "protocol": "cold",
                                "reps": 1, "engine": "fast"}),
    "experiment": ([], {"scale": 0.125, "reps": 2}),
    # the executor's thread count, not a request flag, but one name
    "serve": ([], {"threads": 4}),
}

SHARED = ("machine", "scale", "threads", "protocol", "reps", "engine")


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_shared_flags_keep_their_defaults(verb):
    argv, defaults = VERBS[verb]
    args = vars(build_parser().parse_args([verb] + argv))
    for flag in SHARED:
        if flag in defaults:
            assert args[flag] == defaults[flag], flag
        else:
            assert flag not in args, flag


def test_every_verb_with_a_shared_flag_is_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    declaring = {verb for verb, parser in sub.choices.items()
                 if any(option[2:] in SHARED for action in parser._actions
                        for option in action.option_strings)}
    assert declaring == set(VERBS)


@pytest.mark.parametrize("argv", [
    ["measure", "dgemm", "64"],
    ["profile", "dgemm"],
    ["timeline", "--kernel", "dgemm"],
    ["explain", "dgemm", "64"],
    ["sweep", "dgemm", "--sizes", "32"],
    ["analyze", "dgemm", "--sizes", "32"],
    ["selfprofile", "dgemm"],
], ids=lambda argv: argv[0])
def test_every_verb_parses_the_alias(argv):
    assert build_parser().parse_args(argv).command == argv[0]


def _json_run(argv, capsys):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("verb", ["measure", "profile"])
def test_measuring_the_alias_is_measuring_its_kernel(verb, capsys):
    tail = ["32", "--machine", "tiny", "--json"]
    short = _json_run([verb, "dgemm"] + tail, capsys)
    full = _json_run([verb, "dgemm-tiled"] + tail, capsys)
    assert short == full and short["kernel"] == "dgemm-tiled"


def test_sweeping_the_alias_keys_as_its_kernel(capsys):
    tail = ["--sizes", "16,32", "--machine", "tiny", "--no-cache",
            "--json"]
    short = _json_run(["sweep", "dgemm"] + tail, capsys)
    full = _json_run(["sweep", "dgemm-tiled"] + tail, capsys)
    assert short["keys"] == full["keys"]
    assert short["measurements"] == full["measurements"]


def test_explaining_the_alias_explains_its_kernel(capsys):
    outputs = []
    for name in ("dgemm", "dgemm-tiled"):
        assert main(["explain", name, "32", "--machine", "tiny"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "dgemm-tiled n=32" in outputs[0]


def test_point_key_is_one_for_both_names():
    ref = MachineRef.of("tiny")
    short, full = SweepPlan(), SweepPlan()
    short.add_sweep(ref, "dgemm", [32])
    full.add_sweep(ref, "dgemm-tiled", [32])
    assert short.points[0] == full.points[0]
    assert short.points[0].kernel == "dgemm-tiled"
    assert point_key(short.points[0]) == point_key(full.points[0])


def test_analyze_alias_keeps_its_golden_digest(capsys):
    doc = _json_run(["analyze", "dgemm", "--sizes", "16,32", "--machine",
                     "tiny", "--no-cache", "--json"], capsys)
    assert doc.pop("plan_cache")
    golden = json.loads((Path(__file__).parent / "roofline"
                         / "analyze_golden.json").read_text())
    blob = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == golden["dgemm-tiny"]


def test_library_analyze_accepts_the_alias():
    result = repro.analyze("dgemv", [32], machine="tiny", flop_counts=[1],
                           cache=None)
    assert result.kernel == "dgemv-row"
    assert result.measurements[0].kernel == "dgemv-row"


def test_aliases_are_not_registry_names():
    assert "dgemm" not in kernel_names()
    assert make_kernel("dgemv").name == make_kernel("dgemv-row").name
    with pytest.raises(ConfigurationError):
        register_kernel("dgemm", lambda: make_kernel("daxpy"))


class TestMachineRefs:
    def test_tiny_takes_no_scale(self):
        assert MachineRef.named("tiny", 0.5) == MachineRef.of("tiny")
        assert MachineRef.named("oracle", 0.5) == MachineRef.of("oracle")
        assert (MachineRef.named("oracle", 0.125).key_doc()
                == MachineRef.named("oracle", 0.5).key_doc())
        with pytest.raises(ConfigurationError, match="rejected options"):
            MachineRef.of("tiny", scale=0.5).build()
        assert (MachineRef.named("snb", 0.5, "reference")
                == MachineRef.of("snb", scale=0.5, engine="reference"))

    def test_cores_come_from_the_topology(self):
        ref = MachineRef.named("snb-ep-x2", 0.125)
        assert ref.cores(3) == (0, 1, 2)
        with pytest.raises(ConfigurationError):
            ref.cores(17)

    def test_cores_of_a_built_ref_build_no_machine(self, monkeypatch):
        ref = MachineRef.named("hsw-ep", 0.25)
        ref.build()
        monkeypatch.setattr(MachineRef, "build", None)
        assert ref.cores(2) == (0, 1)


class TestBuildPlan:
    def test_kernel_form_spans_protocols_and_cores(self):
        ref = MachineRef.of("tiny")
        plan = build_plan(ref, kernel="dgemm", sizes=[16, 32],
                          protocol="cold,warm", reps=1, threads=2)
        assert [(p.kernel, p.n, p.protocol) for p in plan] == [
            ("dgemm-tiled", 16, "cold"), ("dgemm-tiled", 32, "cold"),
            ("dgemm-tiled", 16, "warm"), ("dgemm-tiled", 32, "warm")]
        assert {p.cores for p in plan} == {(0, 1)}

    def test_grid_wins_over_the_kernel_form(self):
        ref = MachineRef.of("tiny")
        plan = build_plan(ref, grid="f4", kernel="fft", sizes=[8])
        assert {p.kernel for p in plan} == {"daxpy"}

    def test_neither_form_is_an_error(self):
        with pytest.raises(ConfigurationError, match="--grid"):
            build_plan(MachineRef.of("tiny"), kernel="daxpy", sizes=[])
