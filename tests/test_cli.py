import contextlib
import hashlib
import io
import json
import math
import pathlib
import random
import sys

import jsonschema
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

from wpnlab.census import MAX_LABELED_N, MAX_UNLABELED_N
from wpnlab.cli import _decimal, _read_graph, main
from wpnlab.graphs import clique, cycle, emit_graph6

from .test_graphs import graph_texts, random_graph

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas"

C6 = emit_graph6(cycle(6))
C8 = emit_graph6(cycle(8))


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(schema)))
    return Registry().with_resources(resources)


def _validate(payload: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft202012Validator(
        schema, registry=_registry()).validate(payload)


def _run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_wpn_text_and_json(capsys):
    assert main(["wpn", C6]) == 0
    assert capsys.readouterr().out.strip() == "2"
    code, payload = _run_json(capsys, ["wpn", C8])
    assert code == 0 and payload["wpn"] == 3
    _validate(payload, "wpn.schema.json")


def test_wpn_from_file(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text(C6 + "\n")
    assert main(["wpn", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_graph_text_wins_over_a_file_of_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / C6).write_text("@\n")            # K0, under the name of C6
    (tmp_path / "c8.g6").write_text(C8 + "\n")
    assert main(["wpn", C6]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["wpn", "c8.g6"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["wpn", "no-such-file"]) == 2
    assert main(["wpn", str(tmp_path)]) == 2       # a directory is no file


@pytest.mark.parametrize("argv", [
    ["count", "--fn", "bell", "--n", "1500"],
    ["count", "--fn", "bell", "--n", "4001"],
    ["count", "--fn", "f1", "--n", "3000"],
    ["count", "--fn", "cographs", "--n", "3000"],
    ["count", "--fn", "bell", "--n", "-1"],
    ["bound", "--n", "3000", "--l", "4"],
    ["bound", "--n", "999000", "--l", "1000"],
], ids=lambda argv: "-".join(argv[1:]))
def test_large_counts_exit_0_or_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err
    assert (code == 0) == bool(captured.out) == (not captured.err)


def _bell_digits(n: int) -> int:
    """Decimal digits of B_n by Dobinski's formula, B_n = sum k^n/k! / e,
    summed in floating point on a log scale."""
    logs = [n * math.log(k) - math.lgamma(k + 1) for k in range(1, 10 * n)]
    top = max(logs)
    log_b = top + math.log(sum(math.exp(x - top) for x in logs)) - 1
    return math.floor(log_b / math.log(10)) + 1


def test_counts_longer_than_the_default_digit_limit_print(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert main(["count", "--fn", "bell", "--n", "3000"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.isdigit() and len(out) == _bell_digits(3000) == 6965 > limit
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_decimal_conversion_is_exact():
    def from_digits(digits: str) -> int:  # within int()'s digit limit
        value = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        return value

    rng = random.Random(5)
    values = [0, 1, 2 ** 2048, 2 ** 20000 - 1, 10 ** 4300, 10 ** 4301 - 1]
    values += [rng.getrandbits(w) for w in (100, 2047, 2049, 4097, 30011)]
    for v in values:
        digits = _decimal(v)
        assert digits.isdigit() and from_digits(digits) == v
        assert digits == "0" or digits[0] != "0"


def test_wpn_adjacency_text_input(capsys):
    assert main(["wpn", "n=3; edges: 0-1 1-2 0-2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_certify_positive_and_negative(capsys):
    code, payload = _run_json(capsys, ["certify", "Bw", "--theorem", "c6"])
    assert code == 0 and payload["certificate"] is not None
    _validate(payload, "certify.schema.json")
    code, payload = _run_json(capsys, ["certify", C6, "--theorem", "c6"])
    assert code == 0 and payload["certificate"] is None
    _validate(payload, "certify.schema.json")
    # 4K2 + 2K1: C10-free, with no c10 certificate
    assert main(["certify", "I`?G?C???", "--theorem", "c10"]) == 0
    assert capsys.readouterr().out == "NONE\n"


def test_certify_and_wpn_reports_are_pinned(capsys):
    """The certify reports, JSON and text, under c6, c8, c10, c2l:6 and
    c2l:7, and the wpn JSON report, of C3..C12, K3 and 60 seeded random
    graphs on at most 10 vertices."""
    rng = random.Random(2024)
    graphs = [cycle(n) for n in range(3, 13)] + [clique(3)]
    for _ in range(60):
        n = rng.randint(0, 10)
        graphs.append(random_graph(n, rng.getrandbits(n * (n - 1) // 2)))
    out = ""
    for g in graphs:
        text = emit_graph6(g)
        for theorem in ("c6", "c8", "c10", "c2l:6", "c2l:7"):
            for fmt in ("json", "text"):
                assert main(["certify", text, "--theorem", theorem,
                             "--format", fmt]) == 0
                out += capsys.readouterr().out
        assert main(["wpn", text, "--format", "json"]) == 0
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "36f4a9b30e4e8d0b"


def test_sequences_json(capsys):
    code, payload = _run_json(
        capsys, ["sequences", "--graph", C6, "--k", "2"])
    assert code == 0 and payload["count"] == len(payload["sequences"]) > 0
    assert all("classification" in s for s in payload["sequences"])
    _validate(payload, "sequences.schema.json")


@pytest.mark.parametrize("graph, k, digest", [
    ("EhEG", 2, "afc1b68a19a01961"),
    ("GhCGKC", 3, "d19772d68fc60299"),
    ("IhCGGC@_G", 4, "6dd8054e8b03d140"),
    ("KhCGGC@?G?o@", 5, "9c4a3ebc5bda64e9"),
], ids=["C6-k2", "C8-k3", "C10-k4", "C12-k5"])
def test_sequences_json_is_pinned(capsys, graph, k, digest):
    """The classified sequence reports of C6..C12 at k = wpn, as the case
    lists written out per cycle length classified them."""
    assert main(["sequences", "--graph", graph, "--k", str(k),
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_c14_sequences_are_pinned_and_all_case1(capsys):
    """C14 at k = wpn = 6: 37 sequences, each in case 1 of the paper's
    C_{2l} case list for l > 5."""
    assert main(["sequences", "--graph", "MhCGGC@?G?_@?@_?_", "--k", "6",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "85fe5e56338cb4e0"
    payload = json.loads(out)
    assert payload["count"] == 37
    assert {s["classification"] for s in payload["sequences"]} == {"case1"}


def test_c16_sequences_are_pinned_and_all_case1(capsys):
    """C16 at k = wpn = 7: 43 sequences, each in case 1 of the paper's
    C_{2l} case list for l > 5."""
    assert main(["sequences", "--graph", "OhCGGC@?G?_@?@??_?K?@", "--k", "7",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "ff1fa925f9cdcae7"
    payload = json.loads(out)
    assert payload["count"] == 43
    assert {s["classification"] for s in payload["sequences"]} == {"case1"}


def test_sequences_budget_exit_code(capsys):
    code = main(["sequences", "--graph", C6, "--k", "2", "--budget", "5"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("wpn-lab: sequence enumeration budget exhausted: "
                            "5 search nodes used of a budget of 5\n")


def test_sequences_with_k_far_above_the_vertex_count_answer_at_once(
        capsys, monkeypatch):
    """Once k >= n no slot types can witness, so the answer comes with no
    split test per type vector."""
    import wpnlab.sequences as seq

    def no_split_test(h, cliques, stables):
        raise AssertionError("ran a split test")

    monkeypatch.setattr(seq, "splits_into", no_split_test)
    assert main(["sequences", "--graph", "Bw", "--k", "1000000"]) == 0
    assert capsys.readouterr().out == \
        "0 minimal really canonical witnessing 1000000-sequences\n"


def test_negative_sequence_budget_exits_2(capsys):
    # a count from 0 never reaches a negative budget, so it would be no bound
    assert main(["sequences", "--graph", C6, "--k", "2", "--budget", "-5"]) == 2
    assert capsys.readouterr().err == \
        "wpn-lab: budget must be at least 0, got -5\n"
    assert main(["sequences", "--graph", C6, "--k", "2", "--budget", "0"]) == 3


def test_sequences_past_the_vertex_cap_exits_2(capsys, monkeypatch):
    import wpnlab.sequences as seq

    def no_poset(h):
        raise AssertionError("built the subgraph poset")

    monkeypatch.setattr(seq, "subgraph_poset", no_poset)
    text = f"n={seq.MAX_SEQUENCE_VERTICES + 1}; edges: 0-1"
    assert main(["sequences", "--graph", text, "--k", "2"]) == 2
    assert main(["sequences", "--graph", "n=40; edges: 0-1", "--k", "2"]) == 2
    assert capsys.readouterr().err == (
        "wpn-lab: sequences supports at most 16 vertices, got 17\n"
        "wpn-lab: sequences supports at most 16 vertices, got 40\n")


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _at_most(text: str, n: int) -> bool:
    """The text names no graph, or one on at most n vertices."""
    try:
        return _read_graph(text).n <= n
    except ValueError:
        return True


@given(graph_texts)
@example("n=1000000000")
@example("--help")
@example("-")
@settings(max_examples=150, deadline=None)
def test_wpn_on_any_text_exits_0_or_2(text):
    assume(_at_most(text, 12))
    assert _quiet_main(["wpn", text]) in (0, 2)


@given(graph_texts)
@example("n=5; edges: 0-1 1-2 2-3 3-4 4-0")
@example("Bw")
@settings(max_examples=150, deadline=None)
def test_sequences_on_any_text_exits_0_2_or_3(text):
    # Larger graphs are left out for time: the search grows like 2^n.
    assume(_at_most(text, 5))
    assert _quiet_main(["sequences", "--graph", text, "--k", "2"]) in (0, 2, 3)


@given(st.one_of(st.text(), st.text().map("c2l:".__add__)))
@example("c2l:6")
@example("c2l:9")
@example("c2l:33")
@example("c2l:300000000")
@example("c2l: 6")
@example("c2l:+6")
@example("c2l:0_6")
@example("c2l:\uff16")
@example("c2l:x")
@settings(max_examples=150, deadline=None)
def test_certify_on_any_theorem_exits_0_or_2(theorem):
    assert _quiet_main(["certify", "Bw", "--theorem", theorem]) in (0, 2)


@given(st.one_of(st.text(), st.text(max_size=3).map("c2l:".__add__)))
@example("c6")
@example("c8")
@example("c2l:16000")
@settings(max_examples=150, deadline=None)
def test_census_on_any_theorem_exits_0_or_2(theorem):
    argv = ["census", "--n", "4", "--forbid", C6, "--theorem", theorem]
    assert _quiet_main(argv) in (0, 2)


@given(graph_texts)
@example("Bw")
@example("n=5; edges: 0-1 1-2 2-3 3-4 4-0")
@settings(max_examples=150, deadline=None)
def test_census_on_any_forbidden_text_exits_0_or_2(text):
    assume(_at_most(text, 5))
    argv = ["census", "--n", "4", "--forbid", text, "--theorem", "c6"]
    assert _quiet_main(argv) in (0, 2)


# Each "{}" takes any text or a small integer: near the caps a count takes
# seconds, so the integers stop far below them.
@pytest.mark.parametrize("argv", [
    ["count", "--fn", "cographs", "--n", "{}"],
    ["bound", "--n", "{}", "--l", "5"],
    ["bound", "--n", "60", "--l", "{}"],
    ["sample-partitions", "--n", "{}", "--samples", "3", "--seed", "1"],
    ["sample-partitions", "--n", "8", "--samples", "{}", "--seed", "1"],
], ids=lambda argv: argv[0] + argv[argv.index("{}") - 1])
@given(value=st.one_of(st.text(max_size=8), st.integers(-50, 200).map(str)))
@settings(max_examples=150, deadline=None)
def test_number_options_on_any_text_exit_0_or_2(argv, value):
    assert _quiet_main([value if a == "{}" else a for a in argv]) in (0, 2)


def test_verify_claims(capsys):
    code, payload = _run_json(capsys, ["verify-claims", "--cycle", "8"])
    assert code == 0 and payload["ok"]
    _validate(payload, "verify-claims.schema.json")


def test_verify_claims_witnesses_are_pinned(capsys):
    """The JSON reports of C6..C14, witness masks included, as the
    hand-written subset walk of ``partition_into_parts`` gave them."""
    out = ""
    for length in range(6, 15, 2):
        assert main(["verify-claims", "--cycle", str(length),
                     "--format", "json"]) == 0
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "2a6f6bae266023c50204609d0618f34fee8ec57e3495a8f78037a52f8ecab17f"


def test_count_and_bound(capsys):
    code, payload = _run_json(capsys, ["count", "--fn", "bell", "--n", "10"])
    assert code == 0 and payload["value"] == "115975"
    _validate(payload, "count.schema.json")
    code, payload = _run_json(capsys, ["bound", "--n", "3", "--l", "4"])
    assert code == 0 and payload["value"] == "4"
    _validate(payload, "bound.schema.json")
    code, payload = _run_json(capsys, ["bound", "--n", "8", "--l", "4"])
    assert code == 0 and "value" not in payload
    _validate(payload, "bound.schema.json")


def test_sample_partitions_csv(capsys):
    code = main(["sample-partitions", "--n", "6", "--samples", "4",
                 "--seed", "7", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "blocks,nonsingletons,heavy_vertices"
    assert len(lines) == 5
    for row in lines[1:]:
        b, ns, h = map(int, row.split(","))
        assert 1 <= b <= 6 and 0 <= ns <= b and 0 <= h <= 6


@pytest.mark.parametrize("n, samples, seed, digest", [
    (50, 2000, 7, "2a26e48810b14859"),
    (2000, 400, 7, "7fe391dbfccf7577"),
    (6, 1000, 11, "09c40946cefc81fc"),
], ids=["n50", "n2000", "n6"])
def test_sample_partitions_json_is_pinned(capsys, n, samples, seed, digest):
    """Seeded sampler reports, as the sampler drawing with `randrange`
    wrote them."""
    assert main(["sample-partitions", "--n", str(n), "--samples", str(samples),
                 "--seed", str(seed), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_sample_partitions_json_and_determinism(capsys):
    code, p1 = _run_json(capsys, ["sample-partitions", "--n", "6",
                                  "--samples", "3", "--seed", "11"])
    code2, p2 = _run_json(capsys, ["sample-partitions", "--n", "6",
                                   "--samples", "3", "--seed", "11"])
    assert code == code2 == 0 and p1 == p2
    _validate(p1, "sample-partitions.schema.json")


def test_negative_sample_count_exits_2(capsys):
    argv = ["sample-partitions", "--n", "6", "--seed", "1", "--samples"]
    assert main(argv + ["-1"]) == 2
    assert capsys.readouterr() == (
        "", "wpn-lab: --samples must be at least 0, got -1\n")
    code, payload = _run_json(capsys, argv + ["0"])
    assert code == 0 and payload["samples"] == []


def test_negative_seed_exits_2_and_fails_the_schema(capsys):
    """A negative seed would repeat the samples of its absolute value under
    another config hash, so the CLI refuses it and the schema forbids it."""
    argv = ["sample-partitions", "--n", "6", "--samples", "3", "--seed"]
    assert main(argv + ["-3"]) == 2
    assert capsys.readouterr() == (
        "", "wpn-lab: sampler seed must be at least 0, got -3\n")
    _, payload = _run_json(capsys, argv + ["3"])
    _validate(payload, "sample-partitions.schema.json")
    with pytest.raises(jsonschema.ValidationError):
        _validate(dict(payload, config=dict(payload["config"], seed=-3)),
                  "sample-partitions.schema.json")


def test_census_json_thread_invariance(capsys):
    outputs = []
    for t in ("1", "4", "8"):
        code = main(["census", "--n", "5", "--forbid", C6, "--theorem", "c6",
                     "--threads", t, "--format", "json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert hashlib.sha256(outputs[0].encode()).hexdigest()[:16] == "0109563311db3435"
    payload = json.loads(outputs[0])
    assert payload["hfree"] == "1024"
    _validate(payload, "census.schema.json")


@pytest.mark.parametrize("argv, digest", [
    (["census", "--n", "7", "--forbid", C6, "--theorem", "c6", "--mode", "unlabeled"],
     "313cda5c59f19bd6"),
    (["census", "--n", "7", "--forbid", C8, "--theorem", "c8", "--mode", "unlabeled"],
     "c118c68562711e70"),
    (["census", "--n", "7", "--forbid", emit_graph6(cycle(10)), "--theorem", "c10",
      "--mode", "unlabeled"], "7ba4369faae8e349"),
    (["census", "--n", "6", "--forbid", C8, "--theorem", "c8"],
     "a98faf7fddb29623"),
    (["girth5-census", "--n", "8", "--mode", "labeled"], "5cd5ab00d35bd66d"),
    (["girth5-census", "--n", "8", "--mode", "unlabeled"], "c838f35f24243641"),
], ids=["unlabeled-7-c6", "unlabeled-7-c8", "unlabeled-7-c10", "labeled-6-c8",
        "girth5-8-labeled", "girth5-8-unlabeled"])
def test_census_json_is_pinned(capsys, argv, digest):
    """Census and girth-5 census reports of both modes, as the fold that
    offers each graph the last certificate found wrote them."""
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
    _validate(json.loads(out), f"{argv[0]}.schema.json")


def test_census_csv_shards(capsys):
    code = main(["census", "--n", "5", "--forbid", C6, "--theorem", "c6",
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "prefix,total,hfree,certifiable"
    assert len(lines) == 65
    assert sum(int(r.split(",")[1]) for r in lines[1:]) == 1024


def test_census_manifest_validates(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    code = main(["census", "--n", "5", "--forbid", C6, "--theorem", "c6",
                 "--resume", str(path)])
    assert code == 0
    capsys.readouterr()
    _validate(json.loads(path.read_text()), "manifest.schema.json")


def test_girth5_census_json(capsys):
    code, payload = _run_json(capsys, ["girth5-census", "--n", "5"])
    assert code == 0
    assert payload["graphs"] == "303"
    assert payload["heavy_check_passed"] == "303"
    _validate(payload, "girth5-census.schema.json")


@pytest.mark.parametrize("argv", [
    ["wpn", C6, "--format", "json"],
    *(["census", "--n", "4", "--forbid", C6, "--theorem", "c6", "--format", f]
      for f in ("json", "csv", "text")),
    *(["sample-partitions", "--n", "8", "--samples", "3", "--seed", "5",
       "--format", f] for f in ("json", "csv", "text")),
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_output_file(tmp_path, capsys, argv):
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report"
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


def test_precondition_exit_codes(capsys):
    assert main(["wpn", "not-a-graph6!!"]) == 2
    assert main(["certify", "Bw", "--theorem", "c2l:4"]) == 2
    assert main(["census", "--n", "5", "--forbid", "Bw",
                 "--theorem", "c6"]) == 2
    assert main(["verify-claims", "--cycle", "7"]) == 2


def test_c2l_census_names_the_cycle_it_expects(capsys):
    for l in (6, 32):
        argv = ["census", "--n", "4", "--forbid", C6, "--theorem", f"c2l:{l}"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"wpn-lab: theorem c2l:{l} expects the forbidden graph C{2 * l}\n")


CENSUS_N5 = ["census", "--n", "5", "--forbid", C6, "--theorem", "c6"]


def test_schemas_reject_a_restated_field(capsys):
    """Each fact is in a report once: a census mode beside config.mode, a
    command inside config, or a certificate arity beside its families
    fails validation."""
    _, census = _run_json(capsys, CENSUS_N5)
    _, certify = _run_json(capsys, ["certify", "Bw", "--theorem", "c6"])
    _validate(census, "census.schema.json")
    _validate(certify, "certify.schema.json")
    cert = certify["certificate"]
    for payload, schema in [
            (dict(census, mode="labeled"), "census.schema.json"),
            (dict(census, config=dict(census["config"], command="census")),
             "census.schema.json"),
            (dict(certify, certificate=dict(cert, arity=len(cert["families"]))),
             "certify.schema.json")]:
        with pytest.raises(jsonschema.ValidationError):
            _validate(payload, schema)


@pytest.mark.parametrize("case", ["resume-from-a-directory",
                                  "output-to-a-missing-directory"])
def test_unusable_paths_exit_2(tmp_path, capsys, case):
    if case == "resume-from-a-directory":
        path, argv = tmp_path, CENSUS_N5 + ["--resume", str(tmp_path)]
    else:
        path = tmp_path / "missing" / "x.json"
        argv = ["wpn", C6, "--output", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wpn-lab: ") and str(path) in captured.err


def test_unwritable_manifest_fails_before_any_shard(tmp_path, monkeypatch,
                                                     capsys):
    import wpnlab.census as census_module

    def no_shard(config, prefix):
        raise AssertionError("counted a shard")

    monkeypatch.setattr(census_module, "_count_shard", no_shard)
    path = tmp_path / "missing" / "m.json"
    assert main(CENSUS_N5 + ["--threads", "1", "--resume", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wpn-lab: ") and str(path) in captured.err


def test_unwritable_output_fails_before_any_shard(tmp_path, monkeypatch,
                                                   capsys):
    import wpnlab.census as census_module

    def no_shard(config, prefix):
        raise AssertionError("counted a shard")

    monkeypatch.setattr(census_module, "_count_shard", no_shard)
    path = tmp_path / "missing" / "x.json"
    assert main(CENSUS_N5 + ["--threads", "1", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wpn-lab: ") and str(path) in captured.err


def test_output_probe_keeps_existing_files_and_leaves_no_new_one(tmp_path,
                                                                 capsys):
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("earlier report\n")
    for path in (kept, fresh):
        assert main(["wpn", "not-a-graph6!!", "--output", str(path)]) == 2
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


@pytest.mark.parametrize("flag", ["0", "-3"])
def test_nonpositive_thread_counts_exit_2(capsys, flag):
    assert main(CENSUS_N5 + ["--threads", flag]) == 2
    assert capsys.readouterr() == (
        "", f"wpn-lab: threads must be at least 1, got {flag}\n")


def test_dropped_options_are_rejected(monkeypatch, capsys):
    monkeypatch.setenv("WPNLAB_THREADS", "abc")
    assert main(["wpn", C6]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["wpn", C6, "--threads", "2"]) == 2
    assert main(["sample-partitions", "--n", "5", "--seed", "1", "--stats"]) == 2
    assert main(CENSUS_N5 + ["--shards", "4"]) == 2
    # CSV is offered only where its lines differ from the text lines
    assert main(["wpn", C6, "--format", "csv"]) == 2
    capsys.readouterr()
    # the thread count comes from --threads alone, 1 by default
    assert main(CENSUS_N5) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"n=5 forbidden={C6} theorem=c6",
        "total=1024 hfree=1024 certifiable=1024",
        "certifiable_fraction=1/1 (1)"]


def test_main_returns_argparse_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert "wpn-lab" in capsys.readouterr().out
    assert main(["census", "--n", "5"]) == 2
    assert main(["no-such-command"]) == 2


def test_labeled_census_past_the_cap_exits_2(capsys):
    argv = ["census", "--n", str(MAX_LABELED_N + 1), "--forbid", C6,
            "--theorem", "c6", "--mode", "labeled"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("wpn-lab: labeled census")


def test_unlabeled_census_past_the_cap_exits_2(capsys):
    argv = ["census", "--n", str(MAX_UNLABELED_N + 1), "--forbid", C6,
            "--theorem", "c6", "--mode", "unlabeled"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("wpn-lab: unlabeled census")


# an unlabeled run is serial and has no shards, so its CSV would hold no row
@pytest.mark.parametrize("extra", [["--resume", "m.json"], ["--format", "csv"],
                                   ["--threads", "2"]])
def test_unlabeled_census_rejects_flags_it_ignores(tmp_path, monkeypatch,
                                                   capsys, extra):
    monkeypatch.chdir(tmp_path)
    unlabeled = CENSUS_N5 + ["--mode", "unlabeled"]
    assert main(unlabeled + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("wpn-lab: unlabeled")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()
    assert main(unlabeled + ["--threads", "1"]) == 0


def _shards_n5(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert main(CENSUS_N5 + ["--resume", str(path)]) == 0
    capsys.readouterr()
    return path, json.loads(path.read_text())


# one manifest per load-time rule; n = 5 with 64 shards of 2^4 masks each
_BAD_MANIFESTS = {
    "not-an-object": lambda m: [m],
    "no-shards": lambda m: {"config_hash": m["config_hash"]},
    "shards-not-a-list": lambda m: dict(m, shards={}),
    "missing-key": lambda m: _edit(m, 0, hfree=None),
    "string-count": lambda m: _edit(m, 0, total="16"),
    "bool-prefix": lambda m: _edit(m, 1, prefix=True),
    "int-done": lambda m: _edit(m, 0, done=1),
    "prefix-too-large": lambda m: _edit(m, 0, prefix=999),
    "prefix-negative": lambda m: _edit(m, 0, prefix=-1),
    "prefix-repeats": lambda m: _edit(m, 1, prefix=0),
    "certifiable-above-hfree": lambda m: _edit(m, 0, certifiable=17, hfree=16),
    "hfree-above-total": lambda m: _edit(m, 0, hfree=17),
    "total-not-shard-size": lambda m: _edit(m, 0, total=15, hfree=15,
                                            certifiable=15),
    "negative-certifiable": lambda m: _edit(m, 0, certifiable=-1),
}


def _edit(manifest, i, **changes):
    shard = {k: v for k, v in {**manifest["shards"][i], **changes}.items()
             if v is not None}
    shards = list(manifest["shards"])
    shards[i] = shard
    return dict(manifest, shards=shards)


@pytest.mark.parametrize("rule", sorted(_BAD_MANIFESTS))
def test_bad_manifest_exits_2(tmp_path, capsys, rule):
    path, manifest = _shards_n5(tmp_path, capsys)
    path.write_text(json.dumps(_BAD_MANIFESTS[rule](manifest)))
    assert main(CENSUS_N5 + ["--resume", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("wpn-lab: manifest")


def test_manifest_with_undone_shard_resumes(tmp_path, capsys):
    path, manifest = _shards_n5(tmp_path, capsys)
    assert main(CENSUS_N5 + ["--format", "json"]) == 0
    whole = capsys.readouterr().out
    path.write_text(json.dumps(_edit(manifest, 2, done=False, total=0)))
    assert main(CENSUS_N5 + ["--resume", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == whole
