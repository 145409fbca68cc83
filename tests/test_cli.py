import json

import jsonschema
import pytest

from eigenwl import cli
from eigenwl.cli import SCAN_REPORT_SCHEMA, RunConfig, main
from eigenwl.graphs import parse_graph6, write_graph6
from eigenwl.furer import search_counterexamples
from eigenwl.refinement import AlgorithmSpec
from eigenwl.witnesses import format_witness_corpus, hunt_status, parse_witness_corpus

C6 = "EhEG"
TWO_TRIANGLES = "EwCW"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare_distinguished_exit_code(capsys):
    code, out, _ = run_cli(capsys, "compare", "--alg", "epwl:A", "--g", C6, "--h", TWO_TRIANGLES)
    assert code == 1
    detail = json.loads(out)
    assert detail["distinguished"] is True
    assert detail["algorithm"] == "epwl:A"


def test_compare_indistinguishable_exit_code(capsys):
    code, out, _ = run_cli(capsys, "compare", "--alg", "wl1", "--g", C6, "--h", TWO_TRIANGLES)
    assert code == 0
    assert json.loads(out)["distinguished"] is False


@pytest.mark.parametrize(
    "alg, g, h, iterations",
    [
        # the eigenvalues differ at round 0
        ("spectralign:A", C6, TWO_TRIANGLES, 2),
        # P6 against the 5-leaf star: the degree counts differ at round 1
        ("wl1", "EhCG", "Esa?", 3),
    ],
)
def test_compare_runs_to_stability_on_a_pair_separated_earlier(capsys, alg, g, h, iterations):
    """compare prints the iterations to the stable partition, also where
    the color counts of the two graphs differ before it."""
    code, out, _ = run_cli(capsys, "compare", "--alg", alg, "--g", g, "--h", h)
    assert code == 1
    meta = {"config_hash": "a9ab58d1c90c7de9", "digits": 6, "eig_gap_scale": 1e-08, "seed": 1729, "version": "0.1.0"}
    detail = {"algorithm": alg, "distinguished": True, "graphs": [g, h], "iterations": iterations, "meta": meta}
    assert out == json.dumps(detail, sort_keys=True) + "\n"


def test_compare_empty_graph(capsys):
    code, out, _ = run_cli(capsys, "compare", "--alg", "spectralign:A", "--g", "?", "--h", "A_")
    assert code == 1
    assert json.loads(out)["graphs"] == ["?", "A_"]


def test_compare_bad_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compare", "--alg", "zzz", "--g", C6, "--h", C6)
    assert code == 2
    assert "error" in err


def test_compare_digits_past_64_bit_codes_is_usage_error(capsys):
    # C6's adjacency eigenvalue 2 is 2 * 10**19 at 19 digits, past 2**63
    code, _, err = run_cli(capsys, "compare", "--alg", "epwl:A", "--g", C6, "--h", TWO_TRIANGLES, "--digits", "19")
    assert code == 2
    assert "64-bit" in err
    code, _, _ = run_cli(capsys, "compare", "--alg", "epwl:A", "--g", C6, "--h", TWO_TRIANGLES, "--digits", "18")
    assert code == 1


def test_compare_digits_past_64_bit_distance_and_walk_codes_is_usage_error(capsys):
    # distance and walk tokens share the projector codes' 64-bit limit: C6's
    # hitting time 5 and every 0-step landing probability 1 pass 2**63 at 19 digits
    for alg in ("gdwl:htd", "girt:K=4"):
        code, _, err = run_cli(capsys, "compare", "--alg", alg, "--g", C6, "--h", TWO_TRIANGLES, "--digits", "19")
        assert code == 2, alg
        assert "64-bit" in err, alg
    # C6's largest resistance distance 1.5 fits at 18 digits
    code, _, _ = run_cli(capsys, "compare", "--alg", "gdwl:rd", "--g", C6, "--h", TWO_TRIANGLES, "--digits", "18")
    assert code == 1


def test_compare_bad_graph6_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compare", "--alg", "wl1", "--g", "A", "--h", C6)
    assert code == 2
    assert "truncated" in err


def test_eigensolver_failure_exits_3(capsys, monkeypatch, fresh_store):
    import numpy as np

    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out, err = run_cli(capsys, "compare", "--alg", "epwl:A", "--g", "Bw", "--h", "Bw")
    assert code == 3
    assert out == ""
    assert "eigensolver failed" in err


def test_scan_report_schema_and_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("# demo corpus\n" + "\n".join([C6, TWO_TRIANGLES, "Bw"]) + "\n")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    csv_path = tmp_path / "rel.csv"
    for out in (out_a, out_b):
        code, _, _ = run_cli(
            capsys,
            "scan",
            "--algs",
            "wl1,epwl:A,fwl2",
            "--corpus",
            str(corpus),
            "--out",
            str(out),
            "--csv",
            str(csv_path),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()  # byte-identical reruns
    report = json.loads(out_a.read_text())
    jsonschema.validate(report, SCAN_REPORT_SCHEMA)
    assert report["algorithms"] == ["wl1", "epwl:A", "fwl2"]
    assert "timing" not in report
    relations = {(r["a"], r["b"]): r for r in report["relations"]}
    wl1_vs_epwl = relations[("wl1", "epwl:A")]
    assert wl1_vs_epwl["relation"] == "b_strictly_finer"
    assert wl1_vs_epwl["witnesses_a_not_finer"]  # pair merged by wl1, split by epwl
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "alg_a,alg_b,relation"
    assert len(lines) == 4


def test_scan_connected_corpus_shows_strict_refinement(tmp_path, capsys):
    """On the connected corpus up to 6 vertices, the projection refinement
    is strictly finer than plain vertex refinement, with witnesses."""
    from eigenwl.graphs import enumerate_graphs

    corpus = tmp_path / "n6.g6"
    lines = []
    for n in range(2, 7):
        lines += [write_graph6(g) for g in enumerate_graphs(n, connected_only=True)]
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        capsys, "scan", "--algs", "wl1,epwl:A", "--corpus", str(corpus), "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    (rel,) = report["relations"]
    assert rel["relation"] == "b_strictly_finer"
    assert rel["witnesses_a_not_finer"]  # pairs merged by wl1, split by epwl
    i, j = rel["witnesses_a_not_finer"][0]
    assert report["graphs"][i] != report["graphs"][j]


def test_scan_single_graph_all_equivalent(tmp_path, capsys):
    corpus = tmp_path / "one.g6"
    corpus.write_text(C6 + "\n")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        capsys, "scan", "--algs", "wl1,pswl", "--corpus", str(corpus), "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert all(r["relation"] == "equivalent" for r in report["relations"])
    assert all(len(buckets) == 1 for buckets in report["buckets"].values())


def test_scan_keeps_close_diffusion_times_apart(tmp_path, capsys):
    # both taus used to label as gdwl:diffusion:tau=1.23457, one bucket key
    corpus = tmp_path / "one.g6"
    corpus.write_text(C6 + "\n")
    out = tmp_path / "r.json"
    algs = "gdwl:diffusion:tau=1.2345678,gdwl:diffusion:tau=1.2345679"
    code, _, _ = run_cli(capsys, "scan", "--algs", algs, "--corpus", str(corpus), "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["algorithms"] == algs.split(",")
    assert sorted(report["buckets"]) == sorted(algs.split(","))


def test_scan_timings_only_on_request(tmp_path, capsys):
    corpus = tmp_path / "one.g6"
    corpus.write_text(C6 + "\n")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        capsys, "scan", "--algs", "wl1", "--corpus", str(corpus), "--out", str(out), "--timings"
    )
    assert code == 0
    assert "wl1" in json.loads(out.read_text())["timing"]


def test_scan_pool_has_no_more_workers_than_algorithms(tmp_path, capsys, monkeypatch):
    from eigenwl import cli

    made = []

    class SerialPool:
        """Records its worker count and runs every task in this process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(f"{C6}\n{TWO_TRIANGLES}\n")
    argv = ["scan", "--algs", "wl1,epwl:A", "--corpus", str(corpus), "--out", str(tmp_path / "r.json")]
    code, _, _ = run_cli(capsys, *argv, "--jobs", "500")
    assert code == 0
    assert made == [2]


def test_scan_report_independent_of_jobs(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(f"{C6}\n{TWO_TRIANGLES}\nBw\n")
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        argv = ["scan", "--algs", "wl1,epwl:A", "--corpus", str(corpus), "--out", str(out), "--jobs", jobs]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_gap_scale_that_is_not_positive_and_finite_is_usage_error(capsys, scale):
    code, out, err = run_cli(
        capsys, "compare", "--alg", "epwl:A", "--g", C6, "--h", TWO_TRIANGLES, "--eig-gap-scale", scale
    )
    assert code == 2
    assert out == ""  # no JSON with a NaN in it
    assert "eig_gap_scale" in err


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        (["hunt", "--a", "wl1", "--b", "epwl:A"], "budget", "-3"),
        (["scan", "--algs", "wl1", "--corpus", "corpus.g6"], "jobs", "0"),
        (["scan", "--algs", "wl1", "--corpus", "corpus.g6"], "jobs", "-2"),
    ],
)
def test_negative_budget_and_fewer_than_one_job_are_usage_errors(
    tmp_path, capsys, monkeypatch, source, command, key, value
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.g6").write_text(C6 + "\n")
    argv = [*command, "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += [f"--{key}", value]
    elif source == "config":
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv(f"EIGENWL_{key.upper()}", value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert key in err and value in err


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        (["hunt", "--a", "wl1", "--b", "epwl:A"], "max_base_n", "-4"),
        (["hunt", "--a", "wl1", "--b", "epwl:A"], "max_product_n", "-1"),
        (["verify", "--quick"], "corpus_max_n", "-1"),
        (["verify", "--quick"], "random_graphs", "-3"),
        (["verify", "--quick"], "random_max_n", "-2"),
        (["verify", "--quick"], "hierarchy_random_graphs", "-2"),
        (["verify", "--quick"], "hierarchy_random_max_n", "-5"),
        (["verify", "--quick"], "parity_max_base_n", "-1"),
    ],
)
def test_negative_sizes_and_counts_are_usage_errors(tmp_path, capsys, monkeypatch, source, command, key, value):
    """A negative size or count is rejected before any work starts, from
    every source; before, it ran on empty corpora and reported success."""
    monkeypatch.chdir(tmp_path)
    argv = list(command)
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", value]
    elif source == "config":
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv(f"EIGENWL_{key.upper()}", value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert key in err and value in err


def test_zero_sizes_and_counts_stay_valid():
    names = ["budget", "max_base_n", "max_product_n", "corpus_max_n", "random_graphs", "random_max_n",
             "hierarchy_random_graphs", "hierarchy_random_max_n", "parity_max_base_n"]
    cfg = RunConfig(**dict.fromkeys(names, 0))
    assert all(getattr(cfg, name) == 0 for name in names)


@pytest.mark.parametrize("source", ["config", "env"])
def test_flag_overrides_bad_config_and_env_values(tmp_path, capsys, monkeypatch, source):
    """Only the final values are checked: a flag replaces a bad value from
    a config file or the environment."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.g6").write_text(C6 + "\n")
    argv = ["scan", "--algs", "wl1", "--corpus", "corpus.g6", "--out", str(tmp_path / "out"), "--jobs", "1"]
    if source == "config":
        (tmp_path / "run.cfg").write_text("jobs=0\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("EIGENWL_JOBS", "-2")
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_scan_missing_corpus_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "scan", "--algs", "wl1", "--corpus", "/nonexistent.g6")
    assert code == 2


def test_distances_csv(capsys):
    code, out, _ = run_cli(capsys, "distances", "--kind", "rd", "--g", "Bw")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "u,v,value"
    assert len(lines) == 1 + 9
    assert lines[1] == "0,0,0"


def test_distances_infinity(capsys):
    code, out, _ = run_cli(capsys, "distances", "--kind", "spd", "--g", "C`")  # 2K2 on 4 vertices
    assert code == 0
    assert any(line.endswith(",inf") for line in out.splitlines())


@pytest.mark.parametrize("kind", ["spd", "rd", "htd", "ctd", "biharmonic", "prd", "diffusion"])
def test_distances_on_empty_graph_print_only_the_header(capsys, kind):
    assert run_cli(capsys, "distances", "--kind", kind, "--g", "?") == (0, "u,v,value\n", "")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    argvs = [("distances", "--kind", "rd", "--g", "Bw"), ("token", "--k", "2", "--g", C6)]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in argvs] == fresh
    assert len(builds) == 1


def test_main_dispatches_to_the_current_command_function(capsys, monkeypatch):
    run_cli(capsys, "token", "--k", "2", "--g", C6)  # the parser is built before the patch
    monkeypatch.setattr(cli, "cmd_token", lambda cfg, args: 7)
    assert run_cli(capsys, "token", "--k", "2", "--g", C6) == (7, "", "")


def test_furer_and_twist_round_trip(capsys):
    code, out, _ = run_cli(capsys, "furer", "--base", "Bw")
    assert code == 0
    product = parse_graph6(out.strip())
    assert product.n == 6
    code, out2, _ = run_cli(capsys, "furer", "--base", "Bw", "--twist", "0-1")
    twisted = parse_graph6(out2.strip())
    assert twisted.n == 6 and twisted != product


def test_token_command(capsys):
    code, out, _ = run_cli(capsys, "token", "--k", "2", "--g", C6)
    assert code == 0
    assert parse_graph6(out.strip()).n == 15


def test_hunt_is_deterministic_and_appends(tmp_path, capsys):
    out = tmp_path / "w.txt"
    argv = [
        "hunt",
        "--a",
        "wl1",
        "--b",
        "epwl:A",
        "--max-base-n",
        "3",
        "--budget",
        "4",
        "--seed",
        "9",
        "--out",
        str(out),
    ]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    first = out.read_text()
    witnesses, statuses = parse_witness_corpus(first)
    assert witnesses and statuses
    code, _, _ = run_cli(capsys, *argv)
    assert out.read_text() == first  # rerun appends nothing new


def test_hunts_append_to_a_corpus_whose_witness_graph6_holds_a_pipe(tmp_path, capsys):
    """graph6 byte 124 is ``|``, the witness field separator: a second hunt
    reads a corpus holding such a witness and appends to it."""
    out = tmp_path / "w.txt"
    argv = ["hunt", "--a", "wl1", "--b", "fwl2", "--max-base-n", "2", "--out", str(out)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    witnesses, _ = parse_witness_corpus(out.read_text())
    assert any("|" in w.graph6_a for w in witnesses)
    code, _, _ = run_cli(capsys, *argv, "--budget", "20")
    assert code == 0
    assert len(parse_witness_corpus(out.read_text())[1]) == 2


def test_hunt_writes_the_script_status_and_skips_a_recorded_search(tmp_path, capsys):
    """The CLI writes the status record of the corpus script
    (``hunt_status``), and a corpus that records the same search takes no
    second status for it, whatever its record says after ``examined=``:
    rerunning a bundled hunt leaves the corpus as it is."""
    out = tmp_path / "w.txt"
    argv = ["hunt", "--a", "wl1", "--b", "epwl:A", "--max-base-n", "3", "--budget", "4", "--seed", "9"]
    result = search_counterexamples(AlgorithmSpec.parse("wl1"), AlgorithmSpec.parse("epwl:A"), 3, 4, 9, 48)
    status = hunt_status("wl1", "epwl:A", 3, 4, 9, 48, result)
    code, printed, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    assert printed.splitlines()[0] == status
    assert parse_witness_corpus(out.read_text())[1] == [status]
    recorded = tmp_path / "recorded.txt"
    older = status.replace("|found=", "|unstable=0|found=")  # a record with one more count
    recorded.write_text(format_witness_corpus(result.witnesses, [older]))
    before = recorded.read_text()
    run_cli(capsys, *argv, "--out", str(recorded))
    assert recorded.read_text() == before


@pytest.mark.parametrize("digits, expected", [("4", {3, 4, 5}), ("0", {0, 1})])
def test_hunt_uses_configured_digits(tmp_path, capsys, monkeypatch, digits, expected):
    """hunt evaluates at --digits and perturbs one digit either side of it
    (never below 0), not at the default 6 digits."""
    from eigenwl import furer

    seen = set()
    real = furer.distinguishes

    def spy(spec, g, h, quant=furer.DEFAULT_QUANT):
        seen.add(quant.digits)
        return real(spec, g, h, quant)

    monkeypatch.setattr(furer, "distinguishes", spy)
    argv = ["hunt", "--a", "wl1", "--b", "epwl:A", "--max-base-n", "3", "--budget", "4"]
    code, _, _ = run_cli(capsys, *argv, "--digits", digits, "--out", str(tmp_path / "w.txt"))
    assert code == 0
    assert seen == expected


def test_verify_quick_smoke(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--quick",
        "--corpus-max-n",
        "4",
        "--random-graphs",
        "4",
        "--hierarchy-random-graphs",
        "4",
        "--parity-max-base-n",
        "3",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)


def test_verify_empty_corpus_vacuous(capsys):
    code, _, err = run_cli(capsys, "verify", "--corpus-max-n", "0")
    assert code == 0
    assert "vacuous" in err


def test_config_file_and_env_override(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits=5\nseed=7\n")
    corpus = tmp_path / "c.g6"
    corpus.write_text(C6 + "\n")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        capsys, "scan", "--algs", "wl1", "--corpus", str(corpus), "--out", str(out), "--config", str(cfg)
    )
    assert code == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["digits"] == 5 and meta["seed"] == 7
    monkeypatch.setenv("EIGENWL_DIGITS", "4")
    code, _, _ = run_cli(
        capsys, "scan", "--algs", "wl1", "--corpus", str(corpus), "--out", str(out), "--config", str(cfg)
    )
    assert json.loads(out.read_text())["meta"]["digits"] == 4  # env beats file
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--algs",
        "wl1",
        "--corpus",
        str(corpus),
        "--out",
        str(out),
        "--config",
        str(cfg),
        "--digits",
        "6",
    )
    assert json.loads(out.read_text())["meta"]["digits"] == 6  # flag beats env


def test_bad_config_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("digits 5\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


def test_run_config_text_round_trip(tmp_path):
    import argparse

    from eigenwl.cli import RunConfig

    original = RunConfig(seed=99, digits=5, budget=7, eig_gap_scale=1e-9, jobs=2)
    path = tmp_path / "run.cfg"
    path.write_text(original.to_text())
    restored = RunConfig.from_sources(str(path), argparse.Namespace())
    assert restored == original


def test_unknown_config_key_rejected(tmp_path):
    import argparse

    import pytest as _pytest

    from eigenwl.cli import RunConfig
    from eigenwl.refinement import UsageError

    path = tmp_path / "run.cfg"
    path.write_text("not_a_key=3\n")
    with _pytest.raises(UsageError, match="unknown config key"):
        RunConfig.from_sources(str(path), argparse.Namespace())


def test_run_config_passes_every_verify_field():
    from eigenwl.spectral import Quantization
    from eigenwl.verify import VerifyConfig

    cfg = RunConfig(
        seed=5, digits=3, eig_gap_scale=1e-9, corpus_max_n=4, random_graphs=6, random_max_n=7,
        hierarchy_random_graphs=8, hierarchy_random_max_n=9, parity_max_base_n=3,
    )
    assert cfg.verify_config() == VerifyConfig(
        corpus_max_n=4, random_graphs=6, random_max_n=7, hierarchy_random_graphs=8, hierarchy_random_max_n=9,
        parity_max_base_n=3, seed=5, quant=Quantization(digits=3, eig_gap_scale=1e-9),
    )
