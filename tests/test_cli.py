"""End-to-end tests of the command line front end.

Each test drives `main(argv)` in-process and inspects exit code, stdout,
and stderr.  Scalars cross the boundary as exact strings, JSON output is
deterministic byte for byte, and serialized vectors round trip back into
engine objects.
"""

import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import virfock
from virfock.cli import main
from virfock.fock import NS, FockVector
from virfock.scalars import GF, QQ
from virfock.singular import is_singular
from virfock.verma import VermaVector, verma_module


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# singvec
# ---------------------------------------------------------------------------


def test_singvec_degree_six_vacuum_kernel(capsys):
    code, out, err = run_cli(["singvec", "--h", "0", "--degree", "6"], capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["c"] == "1/2" and data["h"] == "0" and data["char"] == 0
    assert data["degree"] == 6
    assert len(data["vectors"]) == 1
    terms = data["vectors"][0]
    # Graded-lex-descending partition order with unit leading coefficient.
    assert [t["partition"] for t in terms] == [
        [6], [5, 1], [4, 2], [4, 1, 1], [3, 3], [3, 2, 1], [3, 1, 1, 1],
        [2, 2, 2], [2, 2, 1, 1], [2, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1],
    ]
    coeffs = {tuple(t["partition"]): Fraction(t["coeff"]) for t in terms}
    assert coeffs == {
        (6,): Fraction(1),
        (5, 1): Fraction(-41, 225),
        (4, 2): Fraction(22, 9),
        (4, 1, 1): Fraction(-78, 25),
        (3, 3): Fraction(-31, 36),
        (3, 2, 1): Fraction(14, 75),
        (3, 1, 1, 1): Fraction(34, 25),
        (2, 2, 2): Fraction(-16, 27),
        (2, 2, 1, 1): Fraction(172, 75),
        (2, 1, 1, 1, 1): Fraction(-8, 5),
        (1, 1, 1, 1, 1, 1): Fraction(4, 25),
    }


def test_singvec_degree_four_mod_seven(capsys):
    code, out, err = run_cli(
        ["singvec", "--h", "0", "--degree", "4", "--char", "7"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["c"] == "4 mod 7" and data["h"] == "0 mod 7" and data["char"] == 7
    assert data["vectors"] == [[
        {"partition": [4], "coeff": "1 mod 7"},
        {"partition": [3, 1], "coeff": "2 mod 7"},
        {"partition": [2, 2], "coeff": "3 mod 7"},
        {"partition": [2, 1, 1], "coeff": "1 mod 7"},
        {"partition": [1, 1, 1, 1], "coeff": "5 mod 7"},
    ]]


def test_singvec_empty_slice(capsys):
    code, out, _ = run_cli(["singvec", "--h", "0", "--degree", "3"], capsys)
    assert code == 0
    assert json.loads(out)["vectors"] == []


def test_singvec_quadratic_at_one_half(capsys):
    code, out, _ = run_cli(["singvec", "--h", "1/2", "--degree", "2"], capsys)
    assert code == 0
    assert json.loads(out)["vectors"] == [[
        {"partition": [2], "coeff": "1"},
        {"partition": [1, 1], "coeff": "-3/4"},
    ]]


def test_singvec_over_a_formal_weight_needs_a_field(capsys):
    # Over Q[h] the straightening memo holds polynomials of degree 1 and
    # more at degree 3; the kernel solver must refuse the ring, not trip
    # over their coefficient tuples.
    code, out, err = run_cli(["singvec", "--h", "h", "--degree", "3"], capsys)
    assert code == 1 and out == ""
    assert err == "error: linear algebra needs a field, not a polynomial ring\n"


def test_singvec_round_trips_to_a_singular_vector(capsys):
    code, out, _ = run_cli(["singvec", "--h", "0", "--degree", "6"], capsys)
    assert code == 0
    mod = verma_module(Fraction(1, 2), Fraction(0), QQ)
    vec = VermaVector.from_json(json.loads(out)["vectors"][0], QQ)
    assert is_singular(vec, mod)


# ---------------------------------------------------------------------------
# irrdims
# ---------------------------------------------------------------------------


def test_irrdims_vacuum_table(capsys):
    code, out, _ = run_cli(["irrdims", "--h", "0", "--max", "4"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["verma"] for r in rows] == [1, 1, 2, 3, 5]
    assert [r["radical"] for r in rows] == [0, 1, 1, 2, 3]
    assert [r["irreducible"] for r in rows] == [1, 0, 1, 1, 2]
    for r in rows:
        assert r["verma"] == r["radical"] + r["irreducible"]


def test_irrdims_mod_seven_flags_divergence_from_characteristic_zero(capsys):
    code, out, _ = run_cli(
        ["irrdims", "--h", "0", "--char", "7", "--max", "5", "--compare-char0"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["irreducible"] for r in rows] == [1, 0, 1, 1, 1, 1]
    assert [r["char0"] for r in rows] == [1, 0, 1, 1, 2, 2]
    assert [r["flag"] for r in rows] == ["", "", "", "", "DIFF", "DIFF"]


def test_irrdims_mod_eleven_matches_characteristic_zero(capsys):
    code, out, _ = run_cli(
        ["irrdims", "--h", "1/16", "--char", "11", "--max", "6", "--compare-char0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["h"] == "9 mod 11"  # 1/16 reduces to 9 there
    for row in data["rows"]:
        assert row["irreducible"] == row["char0"]
        assert row["flag"] == ""


# ---------------------------------------------------------------------------
# fock-dims / vir-span
# ---------------------------------------------------------------------------


def test_fock_dims_even_half_integer_sector(capsys):
    code, out, _ = run_cli(
        ["fock-dims", "--sector", "NS", "--parity", "0", "--max", "6"], capsys
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["dim"] for r in rows] == [1, 0, 1, 1, 2, 2, 3]
    assert [r["weight"] for r in rows] == ["0", "1", "2", "3", "4", "5", "6"]


def test_fock_dims_odd_half_integer_sector_weights(capsys):
    code, out, _ = run_cli(
        ["fock-dims", "--sector", "NS", "--parity", "1", "--max", "4"], capsys
    )
    rows = json.loads(out)["rows"]
    assert [r["weight"] for r in rows] == ["1/2", "3/2", "5/2", "7/2", "9/2"]
    assert [r["dim"] for r in rows] == [1, 1, 1, 1, 2]


def test_fock_dims_integer_mode_sector(capsys):
    code, out, _ = run_cli(
        ["fock-dims", "--sector", "R", "--parity", "0", "--max", "4"], capsys
    )
    rows = json.loads(out)["rows"]
    assert [r["dim"] for r in rows] == [1, 1, 1, 2, 2]


def test_vir_span_truncates_mod_seven(capsys):
    code, out, _ = run_cli(
        ["vir-span", "--sector", "NS", "--parity", "0", "--max", "4", "--char", "7"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["start"] == "(1 mod 7)*1"
    assert [r["dim"] for r in data["rows"]] == [1, 0, 1, 1, 1]
    code, out, _ = run_cli(
        ["vir-span", "--sector", "NS", "--parity", "0", "--max", "4"], capsys
    )
    assert [r["dim"] for r in json.loads(out)["rows"]] == [1, 0, 1, 1, 2]


# ---------------------------------------------------------------------------
# hwvec
# ---------------------------------------------------------------------------


def test_hwvec_weight_four_exists_only_mod_seven(capsys):
    code, out, _ = run_cli(
        ["hwvec", "--sector", "NS", "--parity", "0", "--degree", "4", "--char", "7"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == "4"
    assert len(data["vectors"]) == 1
    vec = data["vectors"][0]
    assert vec["terms"] == [
        {"sector": "NS", "modes": [7, 1], "coeff": "1 mod 7"},
        {"sector": "NS", "modes": [5, 3], "coeff": "4 mod 7"},
    ]
    assert vec["display"] == "(1 mod 7)*a(-7/2)a(-1/2) + (4 mod 7)*a(-5/2)a(-3/2)"
    code, out, _ = run_cli(
        ["hwvec", "--sector", "NS", "--parity", "0", "--degree", "4"], capsys
    )
    assert json.loads(out)["vectors"] == []


def test_hwvec_weight_fifteen_halves_exists_only_mod_seven(capsys):
    code, out, _ = run_cli(
        ["hwvec", "--sector", "NS", "--parity", "1", "--degree", "7", "--char", "7"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == "15/2"
    assert len(data["vectors"]) == 1
    assert data["vectors"][0]["terms"] == [
        {"sector": "NS", "modes": [15], "coeff": "1 mod 7"},
        {"sector": "NS", "modes": [11, 3, 1], "coeff": "1 mod 7"},
        {"sector": "NS", "modes": [9, 5, 1], "coeff": "1 mod 7"},
        {"sector": "NS", "modes": [7, 5, 3], "coeff": "3 mod 7"},
    ]
    code, out, _ = run_cli(
        ["hwvec", "--sector", "NS", "--parity", "1", "--degree", "7"], capsys
    )
    assert json.loads(out)["vectors"] == []


def test_hwvec_round_trips_into_fock_vector(capsys):
    code, out, _ = run_cli(
        ["hwvec", "--sector", "NS", "--parity", "0", "--degree", "4", "--char", "7"],
        capsys,
    )
    data = json.loads(out)
    vec = FockVector.from_json(data["vectors"][0]["terms"], NS, GF(7))
    assert vec.terms[(7, 1)] == GF(7).one()
    assert vec.terms[(5, 3)] == GF(7).of_int(4)


# ---------------------------------------------------------------------------
# mode-apply
# ---------------------------------------------------------------------------


def test_mode_apply_formal_weight_polynomial(capsys):
    code, out, _ = run_cli(["mode-apply", "--state", "s", "--n", "5", "--h", "h"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["result"] == [{"partition": [], "coeff": ["0", "2", "-36", "64"]}]


def test_mode_apply_drops_level_at_h_zero(capsys):
    code, out, _ = run_cli(
        ["mode-apply", "--state", "s", "--n", "6", "--target", "[-2]", "--h", "0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"] == [{"partition": [1], "coeff": "66"}]


def test_mode_apply_custom_state_word(capsys):
    # The state [-2] is the conformal vector, so n = 2 acts as L(1).
    code, out, _ = run_cli(
        ["mode-apply", "--state", "[-2]", "--n", "2", "--target", "[-2]", "--h", "1/16"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"] == [{"partition": [1], "coeff": "3"}]


def test_mode_apply_mod_seven(capsys):
    code, out, _ = run_cli(
        ["mode-apply", "--state", "u", "--n", "3", "--h", "4", "--char", "7"], capsys
    )
    assert code == 0
    assert json.loads(out)["result"] == []


def test_mode_apply_rejects_bad_words(capsys):
    code, _, err = run_cli(["mode-apply", "--state", "[2]", "--n", "1"], capsys)
    assert code == 1 and "negative modes" in err
    code, _, err = run_cli(
        ["mode-apply", "--state", "s", "--n", "5", "--target", "[1,-2]"], capsys
    )
    assert code == 1 and "negative modes" in err
    code, _, err = run_cli(["mode-apply", "--state", "[1.5]", "--n", "1"], capsys)
    assert code == 1 and "array of integers" in err


@pytest.mark.parametrize(
    "argv, result",
    [
        # s_5 v = (h^3 + 2h) v mod 3, which vanishes at every h in F_3.
        (["mode-apply", "--state", "s", "--n", "5", "--char", "3"], []),
        # (D^(3) w)_4 = -C(4, 3) L(0), so L(-5)1 has mode 4 equal to -4h = 2 at h = 1.
        (["mode-apply", "--state", "[-5]", "--n", "4", "--h", "1", "--char", "3"],
         [{"partition": [], "coeff": "2 mod 3"}]),
        (["mode-apply", "--state", "s", "--n", "5", "--h", "h", "--char", "3"],
         [{"partition": [], "coeff": ["0 mod 3", "2 mod 3", "0 mod 3", "1 mod 3"]}]),
    ],
    ids=["named-state", "state-word", "formal-h"],
)
def test_mode_apply_where_factorial_is_zero_mod_p(argv, result, capsys):
    # L(-n)1 is the divided power D^(n-2) w / (n-2)!, an integral state, so
    # it has modes mod p even once p divides (n-2)!.
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["result"] == result


def test_mode_apply_word_past_five_factorial_is_the_image_mod_five(capsys):
    # Over Q[h] the image is (-12h) L(-4)v - L(-3)L(-1)v; mod 5 it is its image.
    argv = ["mode-apply", "--state", "[-7,-1,-2]", "--n", "5", "--h", "h"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    over_q = json.loads(out)["result"]
    assert over_q == [
        {"partition": [4], "coeff": ["0", "-12"]},
        {"partition": [3, 1], "coeff": ["-1"]},
    ]
    code, out, _ = run_cli(argv + ["--char", "5"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == [
        {"partition": t["partition"], "coeff": [f"{int(c) % 5} mod 5" for c in t["coeff"]]}
        for t in over_q
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["mode-apply", "--c", "h", "--h", "h", "--n", "1", "--target", "[-2]"],
        ["mode-apply", "--c", " h ", "--h", "1/2", "--n", "1"],
        ["singvec", "--c", "h", "--h", "h", "--degree", "2"],
        ["irrdims", "--c", "h", "--h", "0", "--max", "2"],
    ],
    ids=["mode-apply-formal-h", "mode-apply-numeric-h", "singvec", "irrdims"],
)
def test_only_the_weight_may_be_formal(argv, capsys):
    # In a formal ring --c h would parse as the weight variable and silently
    # set the central charge equal to h.
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert "only --h may be the formal weight" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["singvec", "--c", "1/0", "--degree", "2"],
        ["singvec", "--h", "1/0", "--degree", "2"],
        ["irrdims", "--h", "1/0", "--char", "7", "--max", "2"],
        ["mode-apply", "--c", "1/0", "--h", "h", "--n", "1"],
    ],
    ids=["singvec-c", "singvec-h", "irrdims-h", "mode-apply-c"],
)
def test_zero_denominator_is_rejected(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["singvec", "--h", "1 mod 0", "--degree", "2"],
        ["singvec", "--c", "1 mod 0", "--degree", "2"],
        ["mode-apply", "--c", "1 mod 0", "--h", "h", "--n", "1"],
    ],
    ids=["singvec-h", "singvec-c", "mode-apply-c"],
)
def test_residue_over_q_is_rejected(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == "error: scalar mod 0 in a ring of characteristic 0, which has no residues\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["singvec", "--h", "-1/5", "--degree", "2"],
        ["irrdims", "--c", "-22/5", "--h", "-1/5", "--max", "4"],
        ["irrdims", "--c", "-22/5", "--h", "-1/5", "--char", "7", "--max", "4", "--format", "csv"],
        ["mode-apply", "--c", "-22/5", "--h", "-1/5", "--n", "-1", "--target", "[-1]"],
    ],
    ids=["singvec-h", "irrdims-c-h", "irrdims-char7-csv", "mode-apply"],
)
def test_negative_fraction_may_follow_its_option(argv, capsys):
    # argparse alone reads -1/5 as an unknown option, not as the value of --h.
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--c", "--h"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert (code, out, err) == run_cli(joined, capsys)


def test_lee_yang_point_has_a_degree_two_singular_vector(capsys):
    code, out, _ = run_cli(["singvec", "--c", "-22/5", "--h", "-1/5", "--degree", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["c"] == "-22/5" and data["h"] == "-1/5"
    assert len(data["vectors"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["singvec", "--h", "--degree", "2"],
        ["irrdims", "--c", "--h", "-1/5"],
        ["singvec", "--h"],
    ],
    ids=["h-before-option", "c-before-option", "h-last"],
)
def test_option_without_value_is_still_an_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify battery
# ---------------------------------------------------------------------------


def test_only_verify_paper_loads_the_battery():
    # A fresh interpreter, since this one has imported the battery already.
    code = (
        "import sys, virfock.cli\n"
        "assert 'virfock.battery' not in sys.modules\n"
        "from virfock import run_battery\n"
        "assert run_battery.__module__ == 'virfock.battery'\n"
        "ns = {}\n"
        "exec('from virfock import *', ns)\n"
        "assert {'CheckResult', 'VerificationReport', 'run_battery'} <= set(ns)\n"
    )
    src = os.path.dirname(os.path.dirname(virfock.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _modules_loaded(code, *args):
    """Sorted names of the modules a fresh `python -S` interpreter has loaded
    after running code (which gets args as sys.argv[1:]); -S keeps site .pth
    files from adding modules of their own."""
    src = os.path.dirname(os.path.dirname(virfock.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code += "\nimport json\nprint(json.dumps(sorted(sys.modules)))\n"
    argv = [sys.executable, "-S", "-c", code, *args]
    done = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    loaded = _modules_loaded("import sys, virfock\nvirfock.clear_caches()")
    assert [m for m in loaded if m.startswith("virfock.")] == []
    assert "dataclasses" not in loaded


COMMAND_MODULES = [
    (["irrdims", "--h", "1/16", "--max", "6"], ("fock", "modes", "battery")),
    (["singvec", "--h", "1/2", "--degree", "4"], ("fock", "modes", "battery")),
    (["fock-dims", "--max", "4"], ("verma", "singular", "modes", "battery")),
    (["vir-span", "--max", "4", "--char", "7"], ("verma", "singular", "modes", "battery")),
    (["hwvec", "--degree", "4", "--char", "7"], ("verma", "singular", "modes", "battery")),
    (["mode-apply", "--state", "s", "--n", "5", "--h", "h"], ("fock", "singular", "battery")),
    (["verify-paper", "--only", "det7"], ()),
]


@pytest.mark.parametrize("argv, unused", COMMAND_MODULES, ids=[a[0] for a, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, unused):
    code = (
        "import io, sys\n"
        "from virfock.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        "status = main(sys.argv[1:])\n"
        "sys.stdout = sys.__stdout__\n"
        "assert status == 0, status\n"
    )
    loaded = _modules_loaded(code, *argv)
    assert [m for m in loaded if m in {f"virfock.{u}" for u in unused}] == []
    assert "dataclasses" not in loaded


def test_verify_passing_groups_exit_zero(capsys):
    for group in ("det7", "char7", "fock", "classify", "expansion"):
        code, out, err = run_cli(["verify-paper", "--only", group], capsys)
        data = json.loads(out)
        assert code == 0, (group, err)
        assert data["failed"] == 0
        assert data["checks"]


def test_verify_singular_group_reports_known_inventory_failure(capsys):
    # The catalogued inventory lists the degree-7 singular vector at h = 1/2
    # (a Rocha-Caridi exponent), so every singular check passes.
    code, out, err = run_cli(["verify-paper", "--only", "singular"], capsys)
    assert code == 0, err
    data = json.loads(out)
    assert data["failed"] == 0
    failing = [c["name"] for c in data["checks"] if c["status"] == "fail"]
    assert failing == []


def test_verify_unknown_prefix_errors(capsys):
    code, _, err = run_cli(["verify-paper", "--only", "nope/nothing"], capsys)
    assert code == 1
    assert "no checks match" in err


def test_verify_pretty_format_lines(capsys):
    code, out, _ = run_cli(
        ["verify-paper", "--only", "det7", "--format", "pretty"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[PASS ] det7/matrix")
    assert lines[-1] == "2 checks: 2 ok, 0 failed"


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_json_output_is_byte_deterministic(capsys):
    argv = ["singvec", "--h", "0", "--degree", "6"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    assert first.endswith("\n")


def test_out_flag_writes_file_instead_of_stdout(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run_cli(
        ["irrdims", "--h", "0", "--max", "3", "--out", str(path)], capsys
    )
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(["irrdims", "--h", "0", "--max", "3"], capsys)
    assert path.read_text(encoding="utf-8") == direct


@pytest.mark.parametrize("target", ["missing/table.json", "."], ids=["missing-directory", "directory"])
def test_out_to_an_unwritable_path_is_an_error(tmp_path, target, capsys):
    path = tmp_path / target
    code, out, err = run_cli(["irrdims", "--max", "2", "--out", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_failed_write_to_out_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open_on_full_disk(path, *args, **kwargs):
        open(path, "w").close()  # the open succeeds and creates the file
        return FullDisk()

    monkeypatch.setattr("virfock.cli.open", open_on_full_disk, raising=False)
    path = tmp_path / "table.json"
    code, out, err = run_cli(["irrdims", "--max", "2", "--out", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"
    assert not path.exists()


def test_csv_format(capsys):
    code, out, _ = run_cli(
        ["irrdims", "--h", "1/16", "--max", "3", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "degree,verma,radical,irreducible",
        "0,1,0,1",
        "1,1,0,1",
        "2,2,1,1",
        "3,3,1,2",
    ]


def test_pretty_singular_vector(capsys):
    code, out, _ = run_cli(
        ["singvec", "--h", "1/2", "--degree", "2", "--format", "pretty"], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "singular vectors  c=1/2  h=1/2  char=0  degree=2",
        "  (1)*L(-2)v + (-3/4)*L(-1)L(-1)v",
    ]


def test_characteristic_two_is_rejected(capsys):
    code, _, err = run_cli(["singvec", "--char", "2", "--degree", "2"], capsys)
    assert code == 1
    assert "characteristic 2" in err


def test_even_characteristic_is_rejected(capsys):
    code, _, err = run_cli(["irrdims", "--char", "9", "--max", "2"], capsys)
    assert code == 1
    assert "odd prime" in err


def test_negative_degree_is_rejected(capsys):
    code, _, err = run_cli(["singvec", "--degree", "-1"], capsys)
    assert code == 1
    assert "nonnegative" in err
