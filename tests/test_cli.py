import argparse
import hashlib
import json
import re
import subprocess
import sys

import pytest

from quadtotient.cli import _CONFIG_KEYS, _emit, _read_config, build_parser, main, run

SURVEY_CSV = """n,value,case,p_max,v,omega_T_pm1
1,2,SmallP,3,1,1
2,5,NotTotient,,,
3,10,Case3,11,1,1
4,17,NotTotient,,,
5,26,NotTotient,,,
6,37,NotTotient,,,
7,50,NotTotient,,,
8,65,NotTotient,,,
9,82,Case1,83,1,1
10,101,NotTotient,,,
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_survey_json(capsys):
    code, out, err = run_cli(
        ["survey", "--poly", "1,0,1", "--x", "10", "--T", "5", "--A", "0.76",
         "--format", "json"],
        capsys,
    )
    assert code == 0 and not err
    data = json.loads(out)
    assert data["V_P"] == 3
    assert data["V1"] == 1 and data["V3"] == 1 and data["smallp"] == 1
    assert data["nontotient"] == 7
    assert data["T"] == 5.0


def test_survey_csv(capsys):
    code, out, _ = run_cli(
        ["survey", "--poly", "1,0,1", "--x", "10", "--T", "5", "--A", "0.76",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == SURVEY_CSV


def test_survey_value_one_is_smallp(capsys):
    # P(1) = 1 is odd but a totient (phi(1) = phi(2) = 1): SmallP with p_max 2
    args = ["survey", "--poly=1,-2,2", "--x", "6", "--T", "50"]
    code, out, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "1,1,SmallP,2,1,0"
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    data = json.loads(out)
    assert (data["V_P"], data["smallp"], data["nontotient"]) == (3, 3, 3)


def test_survey_json_records(capsys):
    code, out, _ = run_cli(
        ["survey", "--poly", "1,0,1", "--x", "10", "--T", "5", "--A", "0.76",
         "--records"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["records"]) == 10
    assert data["records"][8] == {
        "n": 9, "value": 82, "case": "Case1", "p_max": 83, "v": 1, "omega_T_pm1": 1,
    }


def test_survey_records_streamed_as_json_dumps_prints_them(tmp_path, capsys):
    # the records are rendered row by row; the bytes are those of one
    # json.dumps(indent=2) of the summary with a dict per row
    from quadtotient import QuadPoly, survey

    args = ["survey", "--poly=1,-2,2", "--x", "40", "--T", "5.5", "--A", "0.7"]
    report = survey(QuadPoly(1, -2, 2), 40, 5.5, 0.7, keep_records=True)
    keys = "n,value,case,p_max,v,omega_T_pm1".split(",")
    document = report.summary_dict()
    document["records"] = [dict(zip(keys, record.row())) for record in report.records]
    expected = json.dumps(document, indent=2) + "\n"
    assert run_cli([*args, "--records"], capsys) == (0, expected, "")
    target = tmp_path / "records.json"
    assert run_cli([*args, "--records", "--out", str(target)], capsys) == (0, "", "")
    assert target.read_text() == expected


def test_survey_csv_streamed_as_to_csv_prints_it(tmp_path, capsys):
    # the renderer yields the rows one at a time, with no document held
    # whole; the bytes are those of CaseReport.to_csv
    from collections.abc import Iterator

    from quadtotient import QuadPoly, survey

    argv = ["survey", "--poly=1,1,0", "--x", "300", "--T", "5", "--A", "0.7",
            "--format", "csv", "--allow-reducible"]
    args = build_parser().parse_args(argv)
    rendered = args.render(args)
    assert isinstance(rendered, Iterator) and not isinstance(rendered, str)
    expected = survey(QuadPoly(1, 1, 0), 300, 5.0, 0.7, keep_records=True).to_csv()
    assert "".join(rendered) == expected
    assert run_cli(argv, capsys) == (0, expected, "")
    target = tmp_path / "survey.csv"
    assert run_cli([*argv, "--out", str(target)], capsys) == (0, "", "")
    assert target.read_text() == expected


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--records"]], ids=["csv", "records"])
def test_survey_rows_hold_no_list_of_x_records(flag):
    # only the totient records are held; every NotTotient row is made as it
    # is read (a tuple of the 30,000 records alone takes about 5 MB)
    import tracemalloc

    args = build_parser().parse_args(["survey", "--poly=1,0,1", "--x", "30000", "--T", "50", *flag])
    tracemalloc.start()
    try:
        for _ in args.render(args):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 10**6


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--records"]], ids=["csv", "records"])
def test_survey_rows_build_a_record_per_totient_value_only(monkeypatch, capsys, flag):
    # a NotTotient row is written from n and P(n), with no CaseRecord made for it
    from quadtotient import QuadPoly, case_analysis, survey

    argv = ["survey", "--poly=1,0,1", "--x", "2000", "--T", "50", *flag]
    v_p = survey(QuadPoly(1, 0, 1), 2000, 50.0, 0.7604).v_p
    expected = run_cli(argv, capsys)
    made = []
    record = case_analysis.CaseRecord
    monkeypatch.setattr(
        case_analysis, "CaseRecord", lambda *fields: made.append(fields) or record(*fields)
    )
    assert run_cli(argv, capsys) == expected
    assert len(made) == v_p > 0


def test_emit_writes_every_piece_across_batches(tmp_path, capsys):
    # the pieces are joined a batch at a time; an empty piece ends nothing
    pieces = [f"{i}\n" for i in range(10000)] + ["", "end"]
    target = tmp_path / "out.txt"
    _emit(iter(pieces), str(target))
    assert target.read_text() == "".join(pieces)
    _emit(iter(pieces), "-")
    _emit("one string", "-")
    assert capsys.readouterr().out == "".join(pieces) + "one string"


def test_survey_rejects_reducible(capsys):
    code, out, err = run_cli(["survey", "--poly", "2,3,1", "--x", "10"], capsys)
    assert code == 2
    assert not out and "reducible" in err


def test_survey_allow_reducible(capsys):
    code, out, _ = run_cli(
        ["survey", "--poly", "2,3,1", "--x", "10", "--allow-reducible"], capsys
    )
    assert code == 0
    assert json.loads(out)["poly"] == "2,3,1"


def test_survey_always_odd(capsys):
    code, out, _ = run_cli(["survey", "--poly", "1,1,1", "--x", "100"], capsys)
    assert code == 0
    assert json.loads(out)["V_P"] == 0


def test_survey_overflow_exit_3(capsys):
    code, _, err = run_cli(
        ["survey", "--poly", "1,0,1", "--x", str(1 << 33)], capsys
    )
    assert code == 3 and "2^63" in err
    code, _, err = run_cli(["survey", "--poly", "1073741824,0,2", "--x", "2000"], capsys)
    assert code == 3 and "2^50" in err
    # --T auto at an x of 4001 digits: threshold_T itself overflows
    code, out, err = run_cli(["survey", "--poly", "1,0,1", "--x", "1" + "0" * 4000], capsys)
    assert code == 3 and not out and "range" in err
    assert err.startswith("error: x = 10^4000.0 is too large: threshold_T overflows")


def test_survey_negative_leading_exit_2(capsys):
    code, out, err = run_cli(["survey", "--poly=-1,0,1000000", "--x", "100"], capsys)
    assert code == 2
    assert not out and "a > 0" in err


def test_survey_fixed_t_takes_any_a(capsys):
    # (1/2, 1) bounds A only as an argument of threshold_T, under --T auto
    args = ["survey", "--poly", "1,0,1", "--x", "100", "--T", "50", "--A", "2"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and not err and json.loads(out)["A"] == 2.0


@pytest.mark.parametrize(
    "config, args, message",
    [
        (None, ["survey", "--poly", "1,0,1", "--x", "100", "--T", "2"], "T must exceed e"),
        (
            None,
            ["survey", "--poly", "1,0,1", "--x", "100", "--T", "auto", "--A", "2"],
            "A must lie in (1/2, 1)",
        ),
        (
            None,
            ["survey", "--poly", "1,0,1", "--x", "100", "--T", "auto", "--delta", "5"],
            "delta must lie in [0, 1]",
        ),
        # --T auto is the default; threshold_T checks A and delta below x = e^e too
        (None, ["survey", "--poly", "1,0,1", "--x", "10", "--A", "0.3"], "A must lie in (1/2, 1)"),
        (
            None,
            ["survey", "--poly", "1,0,1", "--x", "10", "--delta", "2"],
            "delta must lie in [0, 1]",
        ),
        (None, ["survey", "--poly", "1,0,1", "--x", "0"], "must be a positive integer"),
        (None, ["invphi", "0"], "must be a positive integer"),
        ("poly 1,0,1\n", ["rho", "--k", "65"], "config line is not key=value"),
        ("records=maybe\n", ["survey", "--poly", "1,0,1", "--x", "10"], "expects a boolean"),
        (None, ["products", "--d", "0", "--y", "100"], "--d: must be nonzero"),
        (None, ["products", "--d", "5", "--y", "2"], "--y: must be at least 3"),
        (None, ["products", "--d", "5", "--y=-1e9"], "--y: must be at least 3"),
        ("d=0\n", ["products", "--y", "100"], "--d: must be nonzero"),
        (None, ["survey", "--poly", "1,0,1", "--x", "1e3"], "--x: expected an integer"),
        (None, ["products", "--d", "2.5", "--y", "100"], "--d: expected an integer"),
        (
            None,
            ["squares", "--poly", "1,0,1", "--x", "10", "--bound", "1.5"],
            "--bound: expected an integer",
        ),
        (None, ["invphi", "0x10"], "argument n: expected an integer"),
    ],
    ids=["T<=e", "auto A", "auto delta", "auto A x<e^e", "auto delta x<e^e", "x=0", "invphi 0", "config no =", "config bool",
         "products d=0", "products y=2", "products y<0", "products config d=0",
         "survey x=1e3", "products d=2.5", "squares bound=1.5", "invphi 0x10"],
)
def test_bad_arguments_exit_2(tmp_path, capsys, config, args, message):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = [f"--config={cfg}", *args]
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own rejections
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and not captured.out and message in captured.err
    assert not re.search(r"\b_[a-z]", captured.err)  # no private helper named


@pytest.mark.parametrize(
    "args, message",
    [
        (["products", "--d", "5", "--y", "1e9"], "10^8"),
        (["products", "--d", str(2**63 + 1), "--y", "100"], "2^63"),
        # the modulus is named as it was typed
        (["rho", "--poly=1,0,1", "--k", str(2**63 + 1)], "k=9223372036854775809 exceeds"),
    ],
    ids=["y>10^8", "|d|>2^63", "rho k>2^63"],
)
def test_products_caps_exit_3(capsys, args, message):
    # the caps are computation limits, not bad arguments
    code, out, err = run_cli(args, capsys)
    assert code == 3 and not out and message in err


def test_invalid_polynomial_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--poly", "0,1,1", "--x", "10"])
    assert exc.value.code == 2


def test_invalid_t_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--poly", "1,0,1", "--x", "10", "--T", "junk"])
    assert exc.value.code == 2


def test_rho(capsys):
    code, out, _ = run_cli(["rho", "--poly", "1,0,1", "--k", "65"], capsys)
    assert code == 0
    assert out == "4\n"


def test_invphi(capsys):
    code, out, _ = run_cli(["invphi", "8"], capsys)
    assert code == 0
    assert out == "[15,16,20,24,30]\n"
    code, out, _ = run_cli(["invphi", "14"], capsys)
    assert code == 0
    assert out == "[]\n"


def test_bounds(capsys):
    code, out, _ = run_cli(["bounds"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["A_star"] - 0.7604) < 5e-4
    assert abs(data["common_exponent"] - 0.0313) < 5e-4
    assert abs(data["v1_exponent"] - 0.05792) < 1e-5
    assert 1.74 < data["cor54_crossover"] < 1.75
    assert abs(data["holder_min"] - 0.94208) < 1e-5


def test_console_entry_point(monkeypatch, capsys):
    # run() is the [project.scripts] target: it reads sys.argv and exits
    _, expected, _ = run_cli(["bounds"], capsys)
    monkeypatch.setattr(sys, "argv", ["quadtotient", "bounds"])
    with pytest.raises(SystemExit) as exit_info:
        run()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == expected


def test_products(capsys):
    code, out, _ = run_cli(["products", "--d", "5", "--y", "20"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["split"] - 0.7320574162679425) < 1e-12
    assert abs(data["twisted"] - 1.4964601961505988) < 1e-12


def test_probe(capsys):
    code, out, _ = run_cli(["probe", "--poly", "1,0,1", "--T", "5", "--x", "10"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["density"] == "3/10" and data["count"] == 3 and data["total"] == 10


def test_squares(capsys):
    code, out, _ = run_cli(
        ["squares", "--poly", "1,0,1", "--x", "10", "--bound", "4"], capsys
    )
    assert code == 0
    assert out == "1\n"


def test_byte_identical_reruns(capsys):
    args = ["survey", "--poly", "1,0,1", "--x", "25", "--T", "6", "--format", "csv"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    _, b1, _ = run_cli(["bounds"], capsys)
    _, b2, _ = run_cli(["bounds"], capsys)
    assert b1 == b2


@pytest.mark.parametrize(
    "args, digest",
    [
        (["invphi", "41902660800"],
         "71ac7ea6c1c03a0a1e824de24ce54cca7407c4049cbbacba6f3ed85cd8212830"),
        (["survey", "--poly=5040,0,5040", "--x", "300", "--T", "50", "--format", "csv"],
         "662e8f882d4de078f303e56a62ae42541f3fcc9105cd7fc530cbc083b14c3ca1"),
    ],
)
def test_large_fiber_output_pinned(capsys, args, digest):
    # digests of the output from before the fiber search, when every fiber was listed
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (["probe", "--poly=1,0,1", "--T", "50", "--x", "10000"],
         "ac04712c00adff2e01d3d72d8bb402be87df6badf1d2da2d4c2417f4ac056d71"),
        (["squares", "--poly=1,0,1", "--x", "10000", "--bound", "100"],
         "fe104ef5b40ac5b1e9289404a366cbd505cb6d17e5161fb26105d55bfc5c1110"),
        (["survey", "--poly=2097151,1,2", "--x", "3000", "--T", "1000", "--A", "0.7604",
          "--format", "csv"],
         "cf4d443231c0351fde7689e83a6927fd1aedff832f218fd5befc30810f7d419e"),
        # values with two or more factors 2, which the fiber search serves
        (["survey", "--poly=1,1,2", "--x", "5000", "--format", "csv"],
         "d8aca8195aa4bd894b9f3ac498911c23681db88ab5107c7eba4679afcb875224"),
        (["survey", "--poly=3,0,4", "--x", "5000", "--format", "csv"],
         "d18b7fbe71c9a59d6664f31e97aeaea001f83674ad778ae25fd71b3435690cd3"),
        (["survey", "--poly=1,0,1", "--x", "3000", "--T", "50", "--records"],
         "58d9d582f62361c22bd7d51fabd22d872dfc747d2a909b938f617ee99e8c160f"),
        # 10,000 values 0 (mod 4), most of them nontotients, whose scans the cut serves
        (["survey", "--poly=1,1,2", "--x", "20000", "--T", "50", "--format", "csv"],
         "64cef7fcb49611b0c58179721f644a22d202b602591969a62ed34a6ca1e749a2"),
    ],
)
def test_sweep_output_pinned(capsys, args, digest):
    # digests of the output from before the root sieve, when every value was
    # trial-divided, (the fourth and fifth) from before the 2-adic prune, when
    # every even divisor d got a primality test of d + 1, (the sixth) from
    # before the JSON records were built from CaseRecord.row, and (the last)
    # from before the cut at the largest odd prime of each rest
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (["products", "--d", "5", "--y", "3e6"],
         "7d0e28a04c25511fff7b8be97ce9e9355da072a88d5b840f6d115929c5c2facd"),
        (["products", "--d", "-4", "--y", "1e6"],
         "b04659b6dc00e6caed9522db408f22ec13aff54c39258d3de4b998146fa42970"),
        (["products", "--d", "3003", "--y", "1e6"],
         "645560c65f133b9d2687117f1b4bcdbd7aa318b0680724eb4b6fc1c799abd60a"),
        (["products", "--d=-9223372036854775808", "--y", "1e5"],
         "f4ea91869d6b044dc59b35949322841cf7048e45ea7946a4b5f93c883c028415"),
        (["products", "--d", "131071", "--y", "1e6"],
         "b40b45bd297b498418949fafb72a0b0da0f461dbe9ac2ce454dd3919c112591a"),
        (["products", "--d", "45", "--y", "1e4"],
         "7cc370475119d1291bb5a58c577ef58f8f89167d7c87a82917ba81d9f11fe007"),
    ],
)
def test_products_output_pinned(capsys, args, digest):
    # digests of the output from before the characters came from reciprocity,
    # when each was a kronecker call, read back from a q mod 4|d| table
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        ["survey", "--poly", "1,0,1", "--x", "10", "--T", "5", "--A", "0.76",
         "--format", "csv", "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert target.read_text() == SURVEY_CSV


# one short run of every subcommand
COMMAND_RUNS = [
    ["survey", "--poly", "1,0,1", "--x", "10", "--T", "5"],
    ["rho", "--poly", "1,0,1", "--k", "65"],
    ["invphi", "8"],
    ["bounds"],
    ["products", "--d", "5", "--y", "20"],
    ["probe", "--poly", "1,0,1", "--T", "5", "--x", "10"],
    ["squares", "--poly", "1,0,1", "--x", "10", "--bound", "4"],
]


def test_command_runs_cover_every_subcommand():
    (subparsers,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(args[0] for args in COMMAND_RUNS) == sorted(subparsers.choices)


@pytest.mark.parametrize("args", COMMAND_RUNS, ids=[args[0] for args in COMMAND_RUNS])
def test_every_subcommand_writes_out_file(tmp_path, capsys, args):
    # --out writes exactly the bytes the same command prints, and prints nothing
    _, expected, _ = run_cli(args, capsys)
    target = tmp_path / "out.txt"
    assert run_cli([*args, "--out", str(target)], capsys) == (0, "", "")
    assert expected and target.read_bytes() == expected.encode()


@pytest.mark.parametrize("name", [args[0] for args in COMMAND_RUNS])
def test_every_subcommand_help_lists_out_once(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    declared = [line for line in lines if line.strip().startswith("--out")]
    assert len(declared) == 1 and "output path, '-' for stdout" in declared[0]


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# survey defaults\npoly=1,0,1\nx=10\nT=5\nA=0.76\nformat=json\n")
    code, out, _ = run_cli(["--config", str(cfg), "survey"], capsys)
    assert code == 0
    assert json.loads(out)["V_P"] == 3

    # explicit flag wins over the config value
    code, out, _ = run_cli(["--config", str(cfg), "survey", "--x", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["x"] == 1 and data["V_P"] == 1


def test_config_negative_coefficients(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("poly=-1,0,-1\nk=10\n")
    code, out, err = run_cli(["--config", str(cfg), "rho", "--k", "65"], capsys)
    assert (code, out, err) == (0, "4\n", "")
    # the explicit flag still wins over the config's poly
    code, out, _ = run_cli(["--config", str(cfg), "rho", "--poly", "1,0,2", "--k", "65"], capsys)
    assert (code, out) == (0, "0\n")


def test_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["bounds", "--out", str(target)], capsys)
    assert code == 2 and not out and err.startswith("error: ")
    assert not target.exists()


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("polynomial=1,0,1\n")
    code, _, err = run_cli(["--config", str(cfg), "survey", "--x", "10"], capsys)
    assert code == 2 and "unknown config key" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--config={neg}", "rho", "--k", "65"],
        ["--conf", "{neg}", "rho", "--k", "65"],
        ["--config", "{rho}", "--config", "{neg}", "rho", "--k", "65"],
        ["rho", "--k", "65", "--config", "{neg}"],
    ],
)
def test_config_forms(tmp_path, capsys, args):
    # argparse reads --config in every form it reads any other flag; the last
    # one given wins, wherever it stands
    neg, rho_cfg = tmp_path / "neg.cfg", tmp_path / "rho.cfg"
    neg.write_text("poly=-1,0,-1\n")
    rho_cfg.write_text("poly=1,0,2\n")
    args = [arg.format(neg=neg, rho=rho_cfg) for arg in args]
    assert run_cli(args, capsys) == (0, "4\n", "")


@pytest.mark.parametrize(
    "args", [["--config"], ["rho", "--k", "65", "--config"], ["--config", "{cfg}"]]
)
def test_config_without_path_or_subcommand_exit_2(tmp_path, capsys, args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("poly=1,0,1\n")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(cfg=cfg) for arg in args])
    assert exc.value.code == 2
    assert not capsys.readouterr().out


def test_config_from_sys_argv(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("poly=1,0,1\n")
    monkeypatch.setattr(sys, "argv", ["quadtotient", f"--config={cfg}", "rho", "--k", "65"])
    assert run_cli(None, capsys) == (0, "4\n", "")


def test_config_keys_match_subcommand_flags(tmp_path):
    # _CONFIG_KEYS is the one list of flag names outside build_parser: every key
    # must name a long flag of some subcommand, and every such flag a key
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key}=1\n" for key in sorted(_CONFIG_KEYS)))
    from_keys = {fragment.partition("=")[0] for fragment in _read_config(str(cfg))}
    assert len(from_keys) == len(_CONFIG_KEYS)
    (subcommands,) = (
        action.choices.values()
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        option
        for subparser in subcommands
        for action in subparser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert from_keys == flags - {"--help"}


def test_nontotient_error_exit_3(capsys):
    # probing a polynomial whose value drops below 1 is a compute error
    # (negative leading coefficients need the --poly=... spelling)
    code, _, err = run_cli(
        ["probe", "--poly=-1,0,-1", "--T", "5", "--x", "10"], capsys
    )
    assert code == 3 and "positive" in err
    for args in (
        ["survey", "--poly=1,-100,2000", "--x", "100"],
        ["survey", "--poly=1,-100,2000", "--x", "100", "--T", "50", "--A", "2"],
        ["probe", "--poly=1,-100,2000", "--T", "5", "--x", "100"],
        ["squares", "--poly=1,-100,2000", "--x", "100", "--bound", "4"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 3 and not out and "n=50 is -500" in err


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "quadtotient.cli", "rho", "--poly", "1,0,1", "--k", "65"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


@pytest.mark.parametrize(
    "args",
    [
        ["survey", "--poly", "1,0,1", "--x", "20", "--T", "nan"],
        ["survey", "--poly", "1,0,1", "--x", "20", "--T", "inf"],
        ["survey", "--poly", "1,0,1", "--x", "20", "--T", "50", "--A", "nan"],
        ["survey", "--poly", "1,0,1", "--x", "20", "--delta=-inf"],
        ["probe", "--poly", "1,0,1", "--x", "20", "--T", "nan"],
        ["products", "--d", "5", "--y", "nan"],
    ],
)
def test_non_finite_numbers_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out and "finite" in captured.err


def test_config_keys_reach_only_the_subcommands_that_take_them(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("poly=1,0,1\nx=100\nT=50\n")
    assert run_cli(["--config", str(cfg), "rho", "--k", "65"], capsys) == (0, "4\n", "")
    assert run_cli(["--config", str(cfg), "bounds"], capsys) == run_cli(["bounds"], capsys)


def test_config_key_is_not_read_as_a_prefix(tmp_path, capsys):
    # d is a products flag; survey must not take it as an abbreviation of --delta
    cfg = tmp_path / "run.cfg"
    cfg.write_text("poly=1,0,1\nd=5\n")
    expected = run_cli(["survey", "--poly=1,0,1", "--x", "100"], capsys)
    assert expected[0] == 0
    assert run_cli(["--config", str(cfg), "survey", "--x", "100"], capsys) == expected


def test_flag_prefix_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--poly=1,0,1", "--x", "10", "--del", "0.1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out and "unrecognized arguments: --del 0.1" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["survey", "--poly=1,0,1", "--x", "10", "--del", "0.1"],
        ["rho", "--poly=1,0,1", "--k", "65", "extra"],
    ],
)
def test_unrecognized_argument_reported_with_subcommand_usage(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith(f"usage: quadtotient {args[0]} ")


def test_config_value_with_spaces(tmp_path, capsys):
    # invphi takes no --poly: the spaced value must still be skipped, not
    # bound to its positional n
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "my report.json"
    cfg.write_text(f"poly=1, 0, 1\nout={out}\n")
    assert run_cli(["--config", str(cfg), "invphi", "8"], capsys) == (0, "", "")
    assert out.read_text() == "[15,16,20,24,30]\n"  # a path keeps its spaces
    cfg.write_text("poly=1, 0, 1\n")
    assert run_cli(["--config", str(cfg), "invphi", "8"], capsys) == (0, "[15,16,20,24,30]\n", "")
    assert run_cli(["--config", str(cfg), "rho", "--k", "65"], capsys) == (0, "4\n", "")


def test_typed_copy_of_a_skipped_config_fragment_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x=100\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "rho", "--poly=1,0,1", "--k", "65", "--x=100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    # the file's own copy is skipped; the typed one is named, once
    assert not captured.out and captured.err.endswith("unrecognized arguments: --x=100\n")
