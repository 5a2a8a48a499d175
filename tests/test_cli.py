"""Subcommand behavior, artifact shapes, and exit-code mapping."""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from same_text import assert_same_text
import smoothgen
from smoothgen import cli
from smoothgen.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_prints_log_alphabet_at_zero_smoothing(capsys):
    code, out, _ = run(
        capsys, "entropy", "--order", "max", "--delta", "0", "--source", "uniform:8"
    )
    assert code == 0
    assert f"{math.log(8)!r}" in out


def test_entropy_json_carries_the_witness(capsys):
    code, out, _ = run(
        capsys,
        "entropy", "--order", "min", "--delta", "0.1",
        "--source", "bernoulli:0.3", "--n", "6", "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == "min"
    assert obj["witness"]["beta"] > 0


def test_divergence_with_conditions(capsys):
    code, out, _ = run(
        capsys,
        "divergence", "--p", "bernoulli:0.3", "--q", "bernoulli:0.5",
        "--f", "half-variational", "--conditions", "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.2)
    assert obj["conditions"]["c1"] is True


def test_resolve_emits_a_complete_map(capsys, tmp_path):
    target = tmp_path / "map.json"
    code, out, _ = run(
        capsys,
        "resolve", "--source", "bernoulli:0.3", "--n", "8",
        "--f", "half-variational", "--D", "0.2", "--gamma", "0.1",
        "--emit", str(target),
    )
    assert code == 0
    assert "achieved D_f" in out
    obj = json.loads(target.read_text())
    assert obj["M"] == sum(entry["count"] for entry in obj["image"])
    assert obj["achieved"] <= obj["D"] + obj["slack"] + 1e-12


def test_extract_emits_bins_and_certificate(capsys, tmp_path):
    target = tmp_path / "extractor.json"
    code, _, _ = run(
        capsys,
        "extract", "--source", "bernoulli:0.3", "--n", "6",
        "--f", "variational", "--Delta", "0.2", "--gamma", "0.1",
        "--emit", str(target),
    )
    assert code == 0
    obj = json.loads(target.read_text())
    assert len(obj["bins"]) == obj["M"] == len(obj["induced"])
    flat = [tuple(lab) for b in obj["bins"] for lab in b]
    assert len(flat) == len(set(flat)) == 2 ** 6
    assert 0 < obj["beta0"] <= 1
    assert 0 < obj["A_n"] <= 1


def test_rates_csv_names_units(capsys):
    code, out, _ = run(
        capsys,
        "rates", "--source", "bernoulli:0.11", "--f", "hellinger",
        "--D", "0.1", "--nu", "0.01", "--n", "8,16",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,nu,first_order [nats],second_order [nats],achieved_Df,M"
    assert len(lines) == 3
    # Without --gamma no construction runs; those cells stay empty.
    assert lines[1].endswith(",,")


def test_rates_with_gamma_fills_construction_cells(capsys):
    code, out, _ = run(
        capsys,
        "rates", "--kind", "intrinsic", "--source", "bernoulli:0.3",
        "--f", "half-variational", "--D", "0.2", "--nu", "0.05",
        "--n", "4,8", "--gamma", "0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("beta0,A_n")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] != "" and cells[5] != ""


def test_rates_names_each_skipped_construction(capsys, tmp_path):
    argv = [
        "rates", "--kind", "intrinsic", "--source", "bernoulli:0.3",
        "--f", "half-variational", "--D", "0.2", "--nu", "0.05",
        "--n", "8,32", "--gamma", "0.5",
    ]
    code, out, err = run(capsys, *argv)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[2] == "32,0.05,0.5903266605922517,,,,,"
    assert err.splitlines() == [
        "warning: n=32 nu=0.05: construction skipped: TooLargeError: "
        "4294967296 atoms exceed the expansion cap of 1048576"
    ]
    target = tmp_path / "rates.csv"
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_text() == out
    assert capsys.readouterr().err == err


def test_equivalence_csv_shape(capsys):
    code, out, _ = run(
        capsys,
        "equivalence", "--source", "bernoulli:0.3", "--f", "half-variational",
        "--D", "0.2", "--nu", "0.01", "--n", "8,16,32",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "n,nu,h0_rate [nats],hinf_rate [nats],kbar [nats],"
        "kunder [nats],gap0 [nats],gapinf [nats]"
    )
    assert len(lines) == 4


def test_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "equivalence", "--source", "bernoulli:0.3", "--f", "half-variational",
        "--D", "0.2", "--nu", "0.01", "--n", "8,16",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_equivalence_warns_when_a_gap_grows(capsys):
    argv = [
        "equivalence", "--source", "uniform:2", "--f", "half-variational",
        "--D", "0.2", "--nu", "0.01", "--n", "2,3,5",
    ]
    warning = "covering-entropy gap grew from 0.000e+00 to 4.153e-02"
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert err.splitlines() == [f"warning: {warning}"]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["warnings"] == [warning]
    assert err.splitlines() == [f"warning: {warning}"]


def test_intrinsic_rates_csv_bytes_are_pinned(capsys):
    code, out, err = run(
        capsys,
        "rates", "--kind", "intrinsic", "--source", "bernoulli:0.3",
        "--f", "half-variational", "--D", "0.2", "--nu", "0.05,0.01",
        "--n", "4,8", "--gamma", "0.5",
    )
    assert code == 0
    assert err == ""
    assert out == (
        "n,nu,first_order [nats],second_order [nats],achieved_Df,M,beta0,A_n\n"
        "4,0.05,0.63037191251275,,0.12066666666666667,3,0.08034,0.75\n"
        "4,0.01,0.6066405682034404,,0.09156666666666667,3,0.08834,0.79\n"
        "8,0.05,0.6011244285477764,,0.14078722333333332,12,0.00815604891891892,0.75\n"
        "8,0.01,0.5855655059546505,,0.11154141545454545,11,0.00923713,0.79\n"
    )


def test_resolvability_rates_csv_bytes_are_pinned(capsys):
    code, out, err = run(
        capsys,
        "rates", "--source", "bernoulli:0.3", "--f", "half-variational",
        "--D", "0.2", "--R", "0.5", "--n", "4,8,32", "--gamma", "0.5",
    )
    assert code == 0
    assert out == (
        "n,nu,first_order [nats],second_order [nats],achieved_Df,M\n"
        "4,0.1,0.4864775372638283,-0.027044925472343384,0.2601,52\n"
        "4,0.01,0.5493061443340549,0.09861228866810978,0.1719,67\n"
        "4,0.001,0.5493061443340549,0.09861228866810978,0.1719,67\n"
        "8,0.1,0.5310619052561699,0.08785633537284725,0.29847582,3822\n"
        "8,0.01,0.5624762087912831,0.17670940359657156,0.20771802,4914\n"
        "8,0.001,0.5652235721311301,0.18448012058852792,0.19864224,5024\n"
        "32,0.1,0.5911385798254488,0.5155576625782906,,\n"
        "32,0.01,0.6078017506742912,0.6098187914045823,,\n"
        "32,0.001,0.6100864343302461,0.6227429138525166,,\n"
    )
    assert err.splitlines() == [
        f"warning: n=32 nu={nu}: construction skipped: TooLargeError: "
        "4294967296 atoms exceed the expansion cap of 1048576"
        for nu in ("0.1", "0.01", "0.001")
    ]


GAMMA_RATES_AT_N_1 = {
    "intrinsic": (
        "n,nu,first_order [nats],second_order [nats],achieved_Df,M,beta0,A_n\n"
        "1,0.1,0.6931471805599453,,0.0,1,0.5,0.8\n"
        "1,0.05,0.6931471805599453,,0.0,1,0.5,0.8\n"
        "4,0.1,0.6636036629840767,,0.13146666666666668,3,0.07033999999999999,0.7\n"
        "4,0.05,0.63037191251275,,0.12066666666666667,3,0.08034,0.75\n"
        "8,0.1,0.6237677608181977,,0.1770059553846154,13,0.006804697567567566,0.7\n"
        "8,0.05,0.6011244285477764,,0.14078722333333332,12,0.00815604891891892,0.75\n"
    ),
    "resolvability": (
        "n,nu,first_order [nats],second_order [nats],achieved_Df,M\n"
        "1,0.1,0.0,,0.3,2\n"
        "1,0.05,0.6931471805599453,,0.05,4\n"
        "4,0.1,0.4864775372638283,,0.2601,52\n"
        "4,0.05,0.5198603854199589,,0.216,60\n"
        "8,0.1,0.5310619052561699,,0.29847582,3822\n"
        "8,0.05,0.5493061443340549,,0.24855903,4423\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(GAMMA_RATES_AT_N_1))
def test_rates_gamma_builds_each_view_once(capsys, monkeypatch, kind):
    real = smoothgen.iid_power
    calls = []

    def counting(base, n, *args, **kwargs):
        calls.append(n)
        return real(base, n, *args, **kwargs)

    for name in ("cli", "resolvability", "intrinsic", "spectrum"):
        module = importlib.import_module(f"smoothgen.{name}")
        if hasattr(module, "iid_power"):
            monkeypatch.setattr(module, "iid_power", counting)
    code, out, err = run(
        capsys,
        "rates", "--kind", kind, "--source", "bernoulli:0.3",
        "--f", "half-variational", "--D", "0.2", "--nu", "0.1,0.05",
        "--n", "1,4,8", "--gamma", "0.5",
    )
    assert calls == [1, 4, 8]
    assert code == 0
    assert err == ""
    assert out == GAMMA_RATES_AT_N_1[kind]


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--order", "max", "--delta", "0.1", "--source", "bernoulli:0.3", "--json"],
        ["resolve", "--source", "bernoulli:0.3", "--f", "half-variational",
         "--D", "0.2", "--gamma", "0.5"],
        ["extract", "--source", "bernoulli:0.3", "--f", "half-variational",
         "--Delta", "0.2", "--gamma", "0.5"],
        ["divergence", "--p", "bernoulli:0.3", "--q", "bernoulli:0.5",
         "--f", "half-variational"],
    ],
    ids=lambda argv: argv[0],
)
def test_block_length_below_one_exits_two(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", n)
    assert code == 2
    assert out == ""
    assert err == f"error: n must be a positive integer, got {n}\n"


def test_uniform_above_the_atom_cap_exits_two_at_once(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"uniform": 10000000000}')
    for source in ("uniform:1048577", str(big)):
        started = time.perf_counter()
        code, out, err = run(capsys, "entropy", "--order", "max", "--delta", "0.1", "--source", source)
        assert time.perf_counter() - started < 1.0, source
        assert (code, out) == (2, ""), source
        assert "atoms exceed the expansion cap of 1048576" in err, source


def test_import_loads_no_numpy():
    src = str(Path(smoothgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, smoothgen, smoothgen.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_infeasible_target_exits_two(capsys):
    code, _, err = run(
        capsys,
        "resolve", "--source", "bernoulli:0.3", "--n", "4",
        "--f", "kl", "--D", "0.2", "--gamma", "0.1",
    )
    assert code == 2
    assert "error:" in err


def test_missing_input_file_exits_one(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "entropy", "--order", "max", "--delta", "0.1",
        "--source", str(tmp_path / "nope.json"),
    )
    assert code == 1
    assert "error:" in err


def test_malformed_source_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for text in (
        "{broken",
        '{"uniform": "abc"}',
        '{"uniform": 2.5}',
        '{"weights": [1, "x"]}',
        '{"bernoulli": "x"}',
        '{"weights": [1, 1], "labels": [{}, {}]}',
        '{"weights": [1, 1], "labels": [[1, [{"a": 2}]], [3]]}',
    ):
        bad.write_text(text)
        code, out, err = run(
            capsys,
            "entropy", "--order", "max", "--delta", "0.1", "--source", str(bad),
        )
        assert (code, out) == (2, ""), text
        assert err.startswith("error:"), text


@pytest.mark.parametrize("spec", ["alpha:abc", "e-gamma:abc", "e-gamma:inf", "e-gamma:1/0"])
def test_malformed_generator_spec_exits_two(capsys, spec):
    code, out, err = run(
        capsys,
        "rates", "--kind", "resolvability", "--source", "bernoulli:0.3",
        "--f", spec, "--D", "0.1", "--n", "4",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bad_n_list_exits_two(capsys):
    code, _, _ = run(
        capsys,
        "equivalence", "--source", "bernoulli:0.3", "--f", "half-variational",
        "--D", "0.2", "--n", "8,8",
    )
    assert code == 2


@pytest.mark.parametrize(
    "command, option",
    [
        ("rates", "--D=nan"),
        ("rates", "--nu=nan"),
        ("rates", "--R=nan"),
        ("rates", "--R=inf"),
        ("equivalence", "--D=nan"),
        ("equivalence", "--D=inf"),
        ("equivalence", "--nu=inf"),
    ],
)
def test_non_finite_targets_nu_and_R_exit_two(capsys, command, option):
    # Each option comes last, so it overrides the finite value before it.
    code, out, err = run(
        capsys,
        command, "--source", "bernoulli:0.3", "--f", "half-variational",
        "--D", "0.2", "--n", "4,8", option,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be finite" in err


def test_main_builds_one_parser_and_calls_share_nothing_else(capsys, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    rates = ["rates", "--source", "bernoulli:0.3", "--f", "half-variational",
             "--D", "0.2", "--n", "4,8"]
    target = tmp_path / "map.json"

    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--source", "bernoulli:0.3", "--D", "0.2", "--n", "4"])
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def emit():
        result = run(
            capsys,
            "resolve", "--source", "bernoulli:0.3", "--n", "6", "--f", "half-variational",
            "--D", "0.25", "--gamma", "0.5", "--emit", str(target),
        )
        return result, target.read_bytes()

    calls = [
        lambda: run(capsys, *rates),
        lambda: run(capsys, *rates, "--nu", "0.05"),
        usage_error,
        lambda: run(
            capsys,
            "equivalence", "--source", "bernoulli:0.3", "--f", "half-variational",
            "--D", "0.2", "--n", "4,8", "--json",
        ),
        emit,
    ]
    first = [call() for call in calls]
    assert built[0] == "smoothgen" and len(built) == 7
    built.clear()
    # The same calls again, so the first rates call follows the map's emit.
    assert [call() for call in calls] == first
    assert built == []

    default_rates, explicit_rates, usage = first[:3]
    assert [line.split(",")[1] for line in default_rates[1].splitlines()[1:]] == [
        "0.1", "0.01", "0.001"
    ] * 2
    assert [line.split(",")[1] for line in explicit_rates[1].splitlines()[1:]] == ["0.05"] * 2
    code, out, err = usage
    assert (code, out) == (2, "")
    assert err.startswith("usage: smoothgen rates")
    assert "the following arguments are required: --f" in err
    assert cli._build_parser().parse_args(rates).nu == (0.1, 0.01, 0.001)


EMIT_PINS = Path(__file__).parent / "data" / "emit"


@pytest.mark.parametrize("kind", ["resolve", "extract"])
@pytest.mark.parametrize(
    "weights,n,tag",
    [(None, 8, "bern"), ([3, 0, 1, 2], 3, "w3012"), ([48, 34, 19], 4, "w483419")],
)
def test_emitted_maps_are_pinned_byte_for_byte(capsys, tmp_path, kind, weights, n, tag):
    # The [3, 0, 1, 2] source puts zero-mass atoms in the last bin and
    # outside the image; the pins fix the order in which labels appear.
    spec = "bernoulli:0.3"
    if weights is not None:
        spec = str(tmp_path / "source.json")
        Path(spec).write_text(json.dumps({"weights": weights}))
    target = tmp_path / "map.json"
    flag = "--D" if kind == "resolve" else "--Delta"
    code, _, err = run(
        capsys,
        kind, "--source", spec, "--n", str(n), "--f", "half-variational",
        flag, "0.2", "--gamma", "0.3", "--emit", str(target),
    )
    assert (code, err) == (0, "")
    assert_same_text(target.read_bytes(), (EMIT_PINS / f"{kind}-{tag}-n{n}.json").read_bytes())


@pytest.mark.parametrize("kind", ["resolvability", "intrinsic"])
def test_three_symbol_exact_constructions_fill_every_cell(capsys, tmp_path, kind):
    # 3^12 = 531441 atoms: well inside the label cap, so no cell may be
    # skipped, and the level-wise builders keep each run to seconds.
    spec = tmp_path / "tri.json"
    spec.write_text(json.dumps({"weights": [48, 34, 19]}))
    code, out, err = run(
        capsys,
        "rates", "--kind", kind, "--source", str(spec), "--f", "half-variational",
        "--D", "0.2", "--n", "2,6,12", "--gamma", "0.3", "--R", "0.9",
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [2, 2, 2, 6, 6, 6, 12, 12, 12]
    assert all(all(cell for cell in r) for r in rows)


LABELLED = {"weights": ["1/2", "1/3", "1/6"], "labels": ["aé\"q", None, [True, 1.5]]}


def _labelled_source(tmp_path, name="p", weights=LABELLED["weights"]):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"weights": weights, "labels": LABELLED["labels"]}))
    return str(path)


def _assert_stdlib_bytes(text: str) -> None:
    # The artifact is json.dumps(obj, indent=2, sort_keys=True) and a newline.
    assert_same_text(text, json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("n", ["1", "2", "5"])
@pytest.mark.parametrize("kind", ["resolve", "extract"])
def test_labelled_maps_are_stdlib_json_on_file_and_stdout(capsys, tmp_path, kind, n):
    spec = _labelled_source(tmp_path)
    flag = "--D" if kind == "resolve" else "--Delta"
    argv = [kind, "--source", spec, "--n", n, "--f", "half-variational", flag, "0.25",
            "--gamma", "0.1"]
    target = tmp_path / "map.json"
    code, _, err = run(capsys, *argv, "--emit", str(target))
    assert (code, err) == (0, "")
    emitted = target.read_text(encoding="utf-8")
    _assert_stdlib_bytes(emitted)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == emitted


def test_every_json_subcommand_writes_stdlib_json(capsys, tmp_path):
    p = _labelled_source(tmp_path)
    q = _labelled_source(tmp_path, "q", ["1/4", "1/4", "1/2"])
    runs = [
        ["entropy", "--order", "max", "--delta", "0.1", "--source", p, "--n", "4"],
        ["entropy", "--order", "min", "--delta", "0.1", "--source", p, "--n", "4"],
        ["divergence", "--p", p, "--q", q, "--f", "kl", "--n", "3", "--conditions"],
        ["rates", "--kind", "intrinsic", "--source", p, "--f", "half-variational",
         "--D", "0.25", "--nu", "0.125,0.0625", "--n", "2,4", "--gamma", "0.5", "--R", "1"],
        ["rates", "--kind", "resolvability", "--source", p, "--f", "hellinger",
         "--D", "0.25", "--n", "2,4"],
        ["equivalence", "--source", p, "--f", "half-variational", "--D", "0.25",
         "--nu", "0.0625", "--n", "4,8"],
    ]
    for argv in runs:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        _assert_stdlib_bytes(out)
        if argv[0] in ("rates", "equivalence"):
            target = tmp_path / "out.json"
            code, _, _ = run(capsys, *argv, "--json", "--out", str(target))
            assert code == 0
            assert target.read_text(encoding="utf-8") == out


def test_labels_nested_in_lists_at_any_depth_are_read(capsys, tmp_path):
    spec = tmp_path / "nested.json"
    labels = [1.5, "x", [[1, [2, "z"]], None]]
    spec.write_text(json.dumps({"weights": [0.5, 0.25, 0.25], "labels": labels}))
    code, out, err = run(
        capsys, "entropy", "--order", "min", "--delta", "0.1", "--source", str(spec), "--json"
    )
    assert (code, err) == (0, "")
    _assert_stdlib_bytes(out)
    target = tmp_path / "map.json"
    code, _, err = run(
        capsys,
        "resolve", "--source", str(spec), "--n", "2", "--f", "half-variational",
        "--D", "0.25", "--gamma", "0.1", "--emit", str(target),
    )
    assert (code, err) == (0, "")
    emitted = target.read_text(encoding="utf-8")
    _assert_stdlib_bytes(emitted)
    sequences = [entry["sequence"] for entry in json.loads(emitted)["image"]]
    assert [labels[0], labels[2]] in sequences
    spec.write_text(json.dumps({"weights": [1, 1], "labels": [[1, [{"a": 2}]], [3]]}))
    code, out, err = run(
        capsys, "entropy", "--order", "min", "--delta", "0.1", "--source", str(spec)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: label {'a': 2} is not")


def test_divergence_names_the_first_label_that_differs(capsys, tmp_path):
    argv = ["divergence", "--p", _labelled_source(tmp_path), "--f", "half-variational"]
    code, out, err = run(capsys, *argv, "--q", "uniform:3")
    assert (code, out) == (2, "")
    assert err == "error: alphabets differ at position 0: P has label 'aé\"q', Q has 1\n"
    code, out, err = run(capsys, *argv, "--q", "uniform:3", "--n", "2")
    assert (code, out) == (2, "")
    assert err == (
        "error: alphabets differ at position 0: P has label ('aé\"q', 'aé\"q'), Q has (1, 1)\n"
    )
    code, out, err = run(capsys, *argv, "--q", "uniform:4")
    assert (code, out) == (2, "")
    assert err == "error: alphabets differ: 3 vs 4 labels\n"
