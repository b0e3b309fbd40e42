"""End-to-end CLI runs, in process via main(argv).

Every JSON emission is validated against the shipped schema for its
subcommand, and the machine formats are checked for byte determinism.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from oseq.cli import main
from oseq.macaulay import HVector
from oseq.partitions import build_partition_table

KNOWN_COUNTS = [1, 1, 2, 3, 5, 8, 12, 18, 27, 40, 57, 82]


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(schema_dir, name: str) -> dict:
    return json.loads((schema_dir / f"{name}.schema.json").read_text(encoding="utf-8"))


def check_json(schema_dir, name: str, out: str) -> dict:
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(schema_dir, name))
    return payload


# ---------------------------------------------------------------------------
# count / check / enumerate


def test_count_json_exact(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "5", "--format", "json")
    assert code == 0
    assert out == '{"n":5,"L":"5"}\n'
    assert err == ""


def test_count_table(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "12")
    assert code == 0
    assert out == "L(12) = 82\n"


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--format", "csv")
    assert code == 0
    assert out == "n,L\n6,8\n"


def test_count_respects_cap(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "50", "--cap", "30")
    assert code == 2
    assert "ceiling" in err


def test_check_valid_and_invalid(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "check", "1,3,4,4", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "check", out)
    assert payload == {"sequence": [1, 3, 4, 4], "valid": True}

    code, out, _ = run_cli(capsys, "check", "1,1,2", "--format", "json")
    assert code == 1
    payload = check_json(schema_dir, "check", out)
    assert payload == {
        "sequence": [1, 1, 2],
        "valid": False,
        "reason": "growth-violation",
        "first_violation": 1,
    }

    code, out, _ = run_cli(capsys, "check", "2,1", "--format", "json")
    assert code == 1
    payload = check_json(schema_dir, "check", out)
    assert payload["reason"] == "bad-h0"


def test_check_table_message(capsys):
    code, out, _ = run_cli(capsys, "check", "1,2,3")
    assert code == 0
    assert "valid O-sequence" in out
    code, out, _ = run_cli(capsys, "check", "1,1,5")
    assert code == 1
    assert "NOT" in out and "index 1" in out


def test_check_huge_entries(capsys):
    code, out, err = run_cli(capsys, "check", "1,60000000,1000000000000000,1")
    assert (code, err) == (0, "")
    assert out == "1,60000000,1000000000000000,1 is a valid O-sequence\n"


def test_check_rejects_unparsable_sequence(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "1,x,3"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_enumerate_json(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "enumerate", out)
    assert payload == {
        "n": 4,
        "count": "3",
        "sequences": [[1, 1, 1, 1], [1, 2, 1], [1, 3]],
    }


def test_enumerate_table(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert out == "1,1,1,1\n1,2,1\n1,3\n"


def test_enumerate_streams_before_the_last_sequence(monkeypatch):
    total = 10_000
    pulled = []

    def many(n, **kwargs):
        for i in range(total):
            pulled.append(i)
            yield HVector((1, n - 1))

    writes = []

    class Spy(io.StringIO):
        def write(self, text):
            writes.append(len(pulled))
            return super().write(text)

    spy = Spy()
    monkeypatch.setattr("oseq.cli.enumerate_osequences", many)
    monkeypatch.setattr(sys, "stdout", spy)
    assert main(["enumerate", "--n", "3"]) == 0
    assert writes and writes[0] < total
    assert spy.getvalue() == "1,2\n" * total


def test_enumerate_cap_refusal(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "12", "--cap", "10")
    assert code == 2
    assert out == ""
    assert "L(12) = 82 exceeds the streaming cap 10" in err


# ---------------------------------------------------------------------------
# census, caching


def test_census_json(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "census", "--max-n", "8", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "census", out)
    assert payload["max_n"] == 8
    assert [r["L"] for r in payload["records"]] == [str(c) for c in KNOWN_COUNTS[:8]]


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,L\n1,1\n2,1\n3,2\n"


def test_census_cap_refusal(capsys):
    code, _, err = run_cli(capsys, "census", "--max-n", "6", "--cap", "5")
    assert code == 2
    assert "ceiling" in err


def test_census_ignores_planted_cache_file(capsys, tmp_path, monkeypatch):
    # the census is always recounted: neither an option nor the former
    # environment variable can feed it stored values
    path = tmp_path / "cache.json"
    path.write_text('{"format": "oseq-census", "version": 1, "values": {"3": "777"}}')
    monkeypatch.setenv("OSEQ_CACHE", str(path))
    code, out, _ = run_cli(capsys, "census", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,L\n1,1\n2,1\n3,2\n"
    with pytest.raises(SystemExit) as excinfo:
        main(["census", "--max-n", "3", "--cache", str(path)])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_census_cache_env_var(capsys, tmp_path, monkeypatch):
    # the former cache variable neither changes the output nor writes a file
    code, bare, _ = run_cli(capsys, "census", "--max-n", "6", "--format", "json")
    assert code == 0
    path = tmp_path / "from-env.json"
    monkeypatch.setenv("OSEQ_CACHE", str(path))
    code, with_env, err = run_cli(capsys, "census", "--max-n", "6", "--format", "json")
    assert code == 0 and err == ""
    assert with_env == bare
    assert not path.exists()


# ---------------------------------------------------------------------------
# bounds


def test_bounds_json_schema_and_determinism(capsys, schema_dir):
    code, first, err = run_cli(capsys, "bounds", "--max-n", "20", "--format", "json")
    assert code == 0 and err == ""
    payload = check_json(schema_dir, "bounds", first)
    assert payload["max_n"] == 20
    assert all(r["lower_ok"] and r["upper_ok"] for r in payload["records"])
    code, second, _ = run_cli(capsys, "bounds", "--max-n", "20", "--format", "json")
    assert code == 0
    assert first == second


def test_bounds_csv_header(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--max-n", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,L,p_lower,log_upper,c1_emp,c2_emp"
    assert len(lines) == 6


def test_bounds_table_envelope_line(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--max-n", "10")
    assert code == 0
    assert "empirical envelope" in out.splitlines()[-1]


# ---------------------------------------------------------------------------
# partitions


def test_partitions_csv_exact(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,p,q\n0,1,1\n1,1,1\n2,2,1\n3,3,2\n"


def test_partitions_json(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "partitions", "--max-n", "10", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "partitions", out)
    assert payload["limit"] == 10
    assert not payload["log_space"]
    assert payload["records"][0] == {"n": 0, "p": "1", "q": "1"}
    rec = payload["records"][10]
    assert rec["p"] == "42" and rec["q"] == "10"
    assert rec["hr_ratio"] is not None


def test_partitions_log_space(capsys, schema_dir):
    import math

    code, plain_out, _ = run_cli(capsys, "partitions", "--max-n", "5", "--format", "json")
    assert code == 0
    code, log_out, _ = run_cli(
        capsys, "partitions", "--max-n", "5", "--format", "json", "--log-space"
    )
    assert code == 0
    plain = check_json(schema_dir, "partitions", plain_out)
    logged = check_json(schema_dir, "partitions", log_out)
    assert logged["log_space"]
    plain_est = plain["records"][5]["hr_estimate"]
    log_est = logged["records"][5]["hr_estimate"]
    assert math.exp(log_est) == pytest.approx(plain_est, rel=1e-12)


def test_partitions_overflow_refused_before_the_table(capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the table is built before the overflow check")

    monkeypatch.setattr("oseq.cli.build_partition_table", no_table)
    code, out, err = run_cli(capsys, "partitions", "--max-n", "100000")
    assert code == 2
    assert out == ""
    assert "--log-space" in err


def test_partitions_csv_needs_no_estimate(capsys, monkeypatch):
    # csv prints n,p,q only, so an estimate that would overflow is no reason
    # to refuse; the stub table keeps the run small
    def no_estimate(*args, **kwargs):
        raise AssertionError("csv computed the estimate")

    monkeypatch.setattr("oseq.cli.hardy_ramanujan", no_estimate)
    monkeypatch.setattr("oseq.cli.build_partition_table", lambda n: build_partition_table(3))
    code, out, err = run_cli(capsys, "partitions", "--max-n", "79446", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == "n,p,q\n0,1,1\n1,1,1\n2,2,1\n3,3,2\n"


def test_partitions_table_smoke(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--max-n", "4")
    assert code == 0
    assert out.splitlines()[0].split() == ["n", "p", "q", "estimate", "ratio"]


# ---------------------------------------------------------------------------
# remark


def test_remark_json(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "remark", "1,3,4,4", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "remark", out)
    assert payload == {
        "sequence": [1, 3, 4, 4],
        "critical_index": 4,
        "first_applicable_degree": 2,
        "t_monotone": True,
        "alpha_monotone_within_t_plateaus": True,
        "decompositions": [
            {"degree": 1, "in_range": False},
            {"degree": 2, "in_range": True, "t": 0, "alpha": 1},
            {"degree": 3, "in_range": True, "t": 0, "alpha": 0},
        ],
    }


def test_remark_rejects_invalid_sequence(capsys):
    code, out, _ = run_cli(capsys, "remark", "1,1,2", "--format", "json")
    assert code == 1
    assert "NOT an O-sequence" in out


def test_remark_csv(capsys):
    code, out, _ = run_cli(capsys, "remark", "1,3,4,4", "--format", "csv")
    assert code == 0
    assert out == "degree,in_range,t,alpha\n1,false,,\n2,true,0,1\n3,true,0,0\n"


# ---------------------------------------------------------------------------
# every subcommand in every format, byte for byte


# (argv, exit code, sha256 of stdout), recorded from the per-runner writers
# that preceded the shared renderer
PINNED_OUTPUTS = [
    ("check 1,1,2 --format table", 1, "1dbd6bd31517f695bff28bac9fd9a7be32a45895c0211c2c92bbea297d5a1903"),
    ("check 1,1,2 --format csv", 1, "19e9e3cbef7d508f6d00a177b47bd9e773a06cf909d3410b0285478de56b8fef"),
    ("check 1,1,2 --format json", 1, "174f09ca3761e5f0c76d6883334fefaf6be3fec57b36a285e41407693a1d7451"),
    ("count --n 6 --format table", 0, "bb13725ab50d21fab38d02add6344e921b3af5b2152ad74cd481c28ed9bc5808"),
    ("count --n 6 --format csv", 0, "8b4fc734f9ff2351b9c27cff7a89cabf09413080b76c9a4cc9095b33ceff9414"),
    ("count --n 6 --format json", 0, "1e51a4aa7660198ab191793a08e3554eaae3d2a5e3210046f5af7135f49d4e90"),
    ("enumerate --n 5 --format table", 0, "0e4167ffe836356b1c28bd39f420d88868f409f2970f9ad521984279cb37a08c"),
    ("enumerate --n 5 --format csv", 0, "0a4ffc31048c1fc01004ef82493fd24087c00570048fc11979ad88a9edb50e77"),
    ("enumerate --n 5 --format json", 0, "254d4f36ad5780ec76c2b1e49e088136b1dd33aa2874c8acbdaed5b3ee80a5ce"),
    ("census --max-n 12 --format table", 0, "0338ce6550e7a136c22fe2df41f0442b72b972b858c7dd896e6553a6d9dc0cbd"),
    ("census --max-n 12 --format csv", 0, "edb302ba60935432adf9742d027a13a3c03433045b5f710dfb00a27f62f310b8"),
    ("census --max-n 12 --format json", 0, "3b6c09901aac748f2bcc56e5a0b0f3482e6adf89c7b4b87a4c043aecc826fc7a"),
    ("bounds --max-n 12 --format table", 0, "5bbf3debf92981359c68bc179d546e6b9f2e8e00c8b12e95e6b89b92862e238f"),
    ("bounds --max-n 12 --format csv", 0, "5b28f36a1471bed245df4cca876e496e717cb8c496c664a98e367915c9bfa5c3"),
    ("bounds --max-n 12 --format json", 0, "e00ab51047c414628e58d8c84057d182513af8dffb8e23a29bb7870ca92d00c6"),
    ("partitions --max-n 12 --format table", 0, "7a74f51c4e583f6c9d6e81cdf7027c78c3232a640d04e2d526470b867153e630"),
    ("partitions --max-n 12 --format csv", 0, "d61a588e13e65b23e4147ca471c66f2cda9bdc4257948b3de1d8136c86a286d5"),
    ("partitions --max-n 12 --format json", 0, "582408293afb9a7a2834263283899db444cdb5dafd88e9159b00be0f00589f72"),
    ("partitions --max-n 12 --log-space --format table", 0, "25949d0b2d9b5542922ed827da41fd750e9596bd2514786a4b6ada1a414ddbdf"),
    ("partitions --max-n 12 --log-space --format csv", 0, "d61a588e13e65b23e4147ca471c66f2cda9bdc4257948b3de1d8136c86a286d5"),
    ("partitions --max-n 12 --log-space --format json", 0, "82bff1cec3da4216459dd8e6e027b71e71ae1d8b9f82a671a53ef8bfc110947f"),
    ("remark 1,3,6,10,15,21,7,3 --format table", 0, "fd5bccf6c654263855f94305b7340e4de2575856aa961ec25156afe7364b5937"),
    ("remark 1,3,6,10,15,21,7,3 --format csv", 0, "75b885f1fe4f538ad8aaf9ab0565f1cc58377b1bc0fbcd82a4731027cefe1e6b"),
    ("remark 1,3,6,10,15,21,7,3 --format json", 0, "13934eeaf5aafd0b558647b7e8fb46787a68e066519dfa25ed22ee781fb89ef1"),
    ("remark 1,1,2 --format table", 1, "ec12b8de25f848ce55e25d4edc0a3a2428bb36c59c0c2cb6c72bc9d0954c529a"),
    ("remark 1,1,2 --format csv", 1, "ec12b8de25f848ce55e25d4edc0a3a2428bb36c59c0c2cb6c72bc9d0954c529a"),
    ("remark 1,1,2 --format json", 1, "ec12b8de25f848ce55e25d4edc0a3a2428bb36c59c0c2cb6c72bc9d0954c529a"),
]


@pytest.mark.parametrize(("argv", "code", "digest"), PINNED_OUTPUTS)
def test_every_output_is_pinned(capsys, argv, code, digest):
    got_code, out, err = run_cli(capsys, *argv.split())
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_remark_sweep_output_is_pinned():
    # The sweep script is a benchmark job; its stdout was recorded from the
    # counter whose tail regime read a separate bounded-partition table.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(
        [sys.executable, "scripts/remark_sweep.py", "--max-n", "12"],
        cwd=root, env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "7ad70dc56cb0143b279bdfd7d2eadd0e137f0609f584f535ae5d604c7149548e"
    )


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "0"),
        ("count", "--n", "-3"),
        ("census", "--max-n", "0"),
        ("enumerate", "--n", "2", "--cap", "0"),
    ],
)
def test_bad_usage_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be >= 1" in err


def test_unknown_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()
