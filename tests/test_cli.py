import json
import re
import time
from pathlib import Path

import pytest

from hexdimer.cli import (CHECK_NAMES, CheckReport, UsageError, main,
                          parse_dims, parse_set, run_check)
from hexdimer.mesh import BoxDims


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zfun_text(capsys):
    code, out, _ = run(capsys, "zfun", "-d", "1,1,1", "-w", "z2z2")
    assert code == 0 and out.strip() == "1 + p"
    code, out, _ = run(capsys, "zfun", "-d", "2,1,1", "-w", "z2z2")
    assert code == 0 and out.strip() == "1 + p + p*q"
    code, out, _ = run(capsys, "zfun", "-d", "2,2,2", "-w", "count")
    assert code == 0 and out.strip() == "20"


def test_zfun_json_and_set(capsys):
    code, out, _ = run(capsys, "zfun", "-d", "2,2,2", "-w", "z2z2",
                       "--set", "q=-1,r=-1,s=-1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vars"] == ["p", "q", "r", "s"]
    terms = {tuple(t["exp"]): t["coeff"] for t in obj["terms"]}
    assert terms == {(0, 0, 0, 0): 1, (1, 0, 0, 0): -2, (2, 0, 0, 0): 1}


def test_zfun_methods_agree(capsys):
    _, dp, _ = run(capsys, "zfun", "-d", "2,2,1", "--method", "dp")
    _, en, _ = run(capsys, "zfun", "-d", "2,2,1", "--method", "enumerate")
    assert dp == en


def test_zfun_cap_filters_total_degree(capsys):
    for weighting in ("z2z2", "mono"):
        _, out, _ = run(capsys, "zfun", "-d", "3,2,2", "-w", weighting, "--format", "json")
        full = json.loads(out)
        for k in range(4):
            code, out, _ = run(capsys, "zfun", "-d", "3,2,2", "-w", weighting,
                               "--cap", str(k), "--format", "json")
            assert code == 0
            assert json.loads(out) == {**full, "terms": [
                t for t in full["terms"] if sum(t["exp"]) <= k]}


def test_eq1_order_range(capsys):
    code, out, _ = run(capsys, "check", "eq1", "--order", "12", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 0 and rep["status"] == "pass"
    assert rep["params"]["coefficients"][-1] == 1479  # plane partitions of 12
    code, _, err = run(capsys, "check", "eq1", "--order", "13")
    assert code == 2 and "order 13" in err


def test_zfun_deterministic(capsys):
    a = run(capsys, "zfun", "-d", "3,2,2", "--format", "json")
    b = run(capsys, "zfun", "-d", "3,2,2", "--format", "json")
    assert a == b


def test_bad_flags(capsys):
    assert run(capsys, "zfun", "-d", "nope")[0] == 2
    assert run(capsys, "zfun", "-d", "1,1,1", "--set", "x=-1")[0] == 2
    assert run(capsys, "zfun", "-d", "1,1,1", "--set", "q=2")[0] == 2
    assert run(capsys, "check", "bogus")[0] == 2
    assert run(capsys, "zfun", "-d", "0,1,1")[0] == 2
    # an order outside the checked range is refused, never run smaller
    assert run(capsys, "check", "eq1", "--order", "0")[0] == 2
    code, _, err = run(capsys, "check", "eq2", "--order", "5")
    assert code == 2 and "order 5" in err
    assert run(capsys, "check", "all", "--order", "5")[0] == 2
    # a flag the check does not read is refused, never silently dropped
    code, _, err = run(capsys, "check", "theorem", "--max-dims", "2,2,2")
    assert code == 2 and "--max-dims" in err
    code, _, err = run(capsys, "check", "split", "-d", "1,1,1", "--order", "3")
    assert code == 2 and "--order" in err
    assert run(capsys, "check", "matrices", "-d", "1,1,1")[0] == 2
    # parity reads either flag, but not both at once
    code, _, err = run(capsys, "check", "parity", "-d", "2,2,2", "--max-dims", "1,1,1")
    assert code == 2 and "-d" in err and "--max-dims" in err
    # a negative cap would print a zero partition function
    code, _, err = run(capsys, "zfun", "-d", "2,2,2", "--cap", "-1")
    assert code == 2 and "cap" in err
    # a value takes one sign at most, and a variable one value
    for bad in ("p=--p", "p=+-1", "q=-1,q=1"):
        code, _, err = run(capsys, "zfun", "-d", "1,1,1", "--set", bad)
        assert code == 2 and "error:" in err
    # 13,860 matchings exceed the enumeration limit: refused, not failed
    code, _, err = run(capsys, "check", "minus-one", "-d", "6,4,2")
    assert code == 2 and "exceeds limit" in err
    # split overlays all N^2 pairs, so it is refused at the same limit, and
    # the message claims no total it never counted
    code, _, err = run(capsys, "check", "split", "-d", "6,4,2")
    assert code == 2 and "exceeds limit 10000" in err and "13860" not in err
    # fibers enumerates the doubled box, 6x6x6, under the same limit
    for dims in ("3,3,3", "2,2,2"):
        code, _, err = run(capsys, "check", "fibers", "-d", dims)
        assert code == 2 and "exceeds limit 10000" in err
    # a long box has few matchings but N^2 (ab+bc+ca) pair-overlay work past
    # the bound: refused after the enumeration, by either pair check
    for check, dims in (("minus-one", "500,1,1"), ("split", "1100,1,1")):
        code, _, err = run(capsys, "check", check, "-d", dims)
        assert code == 2 and "over the bound 100000000" in err
        assert "limit 10000" not in err
    # both refusals come from the box count, before any enumeration
    t0 = time.perf_counter()
    assert run(capsys, "check", "minus-one", "-d", "500,1,1")[0] == 2
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(SystemExit) as exc:
        main(["zfun", "-d", "1,1,1", "--method", "teleport"])
    assert exc.value.code == 2


def test_parse_helpers():
    assert parse_dims("2,3,4") == BoxDims(2, 3, 4)
    assert parse_set("q=-1,p=-p") == {"q": "-1", "p": "-p"}
    assert parse_set(None) == {}
    with pytest.raises(UsageError):
        parse_set("qrs")
    with pytest.raises(UsageError):
        parse_set("q=-1,q=1")


def test_check_matrices(capsys):
    code, out, _ = run(capsys, "check", "matrices")
    assert code == 0 and out.startswith("PASS check=matrices")


def test_check_theorem_json(capsys):
    code, out, _ = run(capsys, "check", "theorem", "-d", "1,1,1",
                       "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["status"] == "pass"
    assert rep["params"]["lhs"] == "1 - 2*p + p^2"


def test_check_minus_one_values(capsys):
    code, out, _ = run(capsys, "check", "minus-one", "-d", "1,1,1",
                       "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)
    assert sorted(rep["params"]["per_two_factor"]) == [-2, -1, -1]


def test_check_fibers(capsys):
    code, out, _ = run(capsys, "check", "fibers", "-d", "1,1,1",
                       "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["params"]["fiber_sizes"] == [1, 1, 18]


def test_check_all_small(capsys):
    code, out, _ = run(capsys, "check", "all", "--max-dims", "2,2,1",
                       "--order", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("  ")]
    assert len(lines) == 11 and all(l.startswith("PASS") for l in lines)
    names = [l.split()[1].removeprefix("check=") for l in lines]
    assert tuple(names) == CHECK_NAMES


def test_failing_check_exits_one(capsys, monkeypatch):
    import hexdimer.cli as cli

    def broken():
        rep = CheckReport("matrices", {})
        rep.fail("synthetic failure")
        return rep

    monkeypatch.setattr(cli, "check_matrices", broken)
    code, out, _ = run(capsys, "check", "matrices")
    assert code == 1 and "FAIL" in out and "synthetic failure" in out
    # a transfer sum that disagrees with the lift sum fails minus-one
    monkeypatch.setattr(cli, "transfer_lift_sum", lambda mesh, loop: 5)
    code, out, _ = run(capsys, "check", "minus-one", "-d", "1,1,1", "--format", "json")
    witness = json.loads(out)[0]["witness"]
    assert code == 1 and witness["brute"] == -2 and witness["transfer"] == 5


def test_run_check_unknown_name():
    with pytest.raises(UsageError):
        run_check("nope", None, None, None)


def test_render_matching(tmp_path, capsys):
    out_file = tmp_path / "m.svg"
    code, out, _ = run(capsys, "render", "-d", "3,3,3",
                       "--what", "matching", "-o", str(out_file))
    assert code == 0 and "27 rhombi" in out
    svg = out_file.read_text()
    assert svg.startswith("<svg") and svg.count("<polygon") == 27


def test_render_two_factor_and_squish(tmp_path, capsys):
    diag = tmp_path / "d.json"
    diag.write_text(json.dumps({"dims": [1, 1, 1], "heights": [[1]]}))
    out_file = tmp_path / "tf.svg"
    code, out, _ = run(capsys, "render", "--diagram", str(diag),
                       "--what", "twofactor", "-o", str(out_file))
    assert code == 0 and out_file.read_text().count("<polygon") == 6
    # the diagram file fixes the dims, so -d beside it is refused
    code, _, err = run(capsys, "render", "--diagram", str(diag), "-d", "3,3,3",
                       "-o", str(tmp_path / "z.svg"))
    assert code == 2 and "--diagram" in err and " -d" in err
    code, _, _ = run(capsys, "render", "-d", "2,2,2", "--what", "squish",
                     "-o", str(tmp_path / "s.svg"))
    assert code == 0
    # squish render needs even dims
    assert run(capsys, "render", "-d", "1,1,1", "--what", "squish",
               "-o", str(tmp_path / "x.svg"))[0] == 2
    # a diagram whose heights increase along a row is bad input
    diag.write_text(json.dumps({"dims": [2, 2, 1], "heights": [[0, 1], [0, 0]]}))
    assert run(capsys, "render", "--diagram", str(diag),
               "-o", str(tmp_path / "y.svg"))[0] == 2
    # so is a height or side that is not an int, even one equal to an int
    for obj, named in (({"dims": [1, 1, 1], "heights": [[1.0]]}, "1.0"),
                       ({"dims": [1, 1, 1], "heights": [[True]]}, "True"),
                       ({"dims": [True, 1, 1], "heights": [[1]]}, "a=True")):
        diag.write_text(json.dumps(obj))
        code, _, err = run(capsys, "render", "--diagram", str(diag),
                           "-o", str(tmp_path / "y.svg"))
        assert code == 2 and "integer" in err and named in err
    # an output file that cannot be written is a usage error
    code, _, err = run(capsys, "render", "-d", "1,1,1",
                       "-o", str(tmp_path / "missing" / "out.svg"))
    assert code == 2 and err.startswith("error: cannot write")


def _masked(text):
    """Output with its timing fields zeroed."""
    text = re.sub(r'"seconds": [0-9.]+', '"seconds": 0', text)
    return re.sub(r"\(\d+\.\d\ds\)", "(0.00s)", text)


def test_output_matches_golden_file(capsys):
    # stdout, stderr and exit code of fast calls, recorded from an earlier
    # version of the program; every refactor must keep them byte-identical
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    assert len(golden) == 30
    for case in golden:
        code, out, err = run(capsys, *case["argv"])
        assert (code, _masked(out), err) == (case["code"], case["stdout"], case["stderr"]), \
            case["argv"]


def test_render_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "render", "-d", "2,2,2", "--what", "matching", "-o", str(f1))
    run(capsys, "render", "-d", "2,2,2", "--what", "matching", "-o", str(f2))
    assert f1.read_bytes() == f2.read_bytes()
