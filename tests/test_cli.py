import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stratacheck import __version__, curves, errors, invariants, suite, surfaces
from stratacheck.cli import main
from stratacheck.config import builtin_config, load_config, parse_config
from stratacheck.curves import riemann_hurwitz_branch
from stratacheck.errors import ConfigError
from stratacheck.ledger import ledger_rows
from stratacheck.report import (
    DISCREPANCY,
    ERROR,
    FAIL,
    PASS,
    CheckRecord,
    VerificationReport,
    render_json,
    render_text,
)
from stratacheck.suite import SECTION_NAMES, run_section


def test_builtin_config_sections():
    config = builtin_config()
    assert set(config.actions) == {"torus-pair", "torus-triple", "negation-c4", "z2z2-c6"}
    assert set(config.ledgers) == {"cubic", "degree2"}
    assert config.require("bases", "curve-square").labels == ("f1", "f2", "diag")
    with pytest.raises(ConfigError):
        config.require("actions", "missing")


def test_every_section_passes_cleanly():
    config = builtin_config()
    for section in SECTION_NAMES:
        records = run_section(section, config)
        assert records, section
        for r in records:
            assert r.status in (PASS, DISCREPANCY), (r.name, r.note)


def test_verify_all_has_single_discrepancy():
    records = run_section("verify-all", builtin_config())
    by_status = {}
    for r in records:
        by_status.setdefault(r.status, []).append(r.name)
    assert by_status.get("fail") is None
    assert by_status.get("error") is None
    assert by_status[DISCREPANCY] == ["euler.derived.case-o"]


def test_paper_mode_has_no_discrepancy():
    records = run_section("verify-all", builtin_config(), mode="paper")
    assert all(r.status == PASS for r in records)


def test_name_filter():
    records = run_section("pluecker", builtin_config(), name_filter="theta")
    assert records
    assert all("theta" in r.name for r in records)


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["verify-all", "--strict"]) == 1
    capsys.readouterr()
    assert main(["verify-all"]) == 0
    capsys.readouterr()
    assert main(["lines27", "--strict"]) == 0
    capsys.readouterr()
    assert main(["verify-all", "--strict", "--mode", "paper"]) == 0
    capsys.readouterr()


def test_cli_json_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["euler", "--json", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["toolkit"] == "stratacheck"
    assert payload["version"] == __version__
    names = [c["name"] for c in payload["checks"]]
    assert "euler.cubic-ledger-total" in names
    assert payload["summary"]["discrepancy"] == 1
    for check in payload["checks"]:
        assert check["provenance"] in ("paper", "derived", "trivial")


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["euler", "--config", str(bad)]) == 3
    capsys.readouterr()

    # an incomplete cubic ledger is a schema error, exit 3
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(
        json.dumps(
            {
                "ledgers": {
                    "cubic": {
                        "mode": "paper",
                        "entries": [
                            {
                                "label": "k",
                                "dimension": 0,
                                "chi_base": 120,
                                "chi_fiber": 2,
                            }
                        ],
                    }
                }
            }
        )
    )
    assert main(["euler", "--config", str(incomplete)]) == 3
    capsys.readouterr()


def test_empty_signs_list_is_a_config_error(tmp_path, capsys):
    # an empty list is not "no signs": it gives no sign for each of 8 variables
    path = tmp_path / "config.json"
    swap = {"permutation": [5, 4, 7, 6, 1, 0, 3, 2], "signs": []}
    path.write_text(json.dumps({"involutions": {"swap-pair": swap}}))
    assert main(["invariants", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "config error: involutions.swap-pair: signs must be +1 or -1, one per variable\n"
    )
    # null signs, like absent ones, are all +1
    swap["signs"] = None
    involution = parse_config({"involutions": {"s": swap}}, "t").involutions["s"]
    assert involution.signs == (1,) * 8


@pytest.mark.parametrize("mode", ["derived", 7])
def test_ledger_mode_key_is_ignored(mode, tmp_path):
    builtin = {r.name: r for r in run_section("verify-all", builtin_config())}
    cubic = {"mode": mode, "entries": ledger_rows(builtin_config().require("ledgers", "cubic"))}
    assert _run_with(tmp_path, {"ledgers": {"cubic": cubic}}, "verify-all") == builtin


def test_config_is_read_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"actions": {"café": {"ambient_dim": 2}}}', encoding="utf-8")
    src = Path(invariants.__file__).parents[1]
    env = {"PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0"}
    done = subprocess.run(
        [sys.executable, "-m", "stratacheck", "lines27", "--config", str(path)],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")


NESTED = []
for _ in range(499):
    NESTED = [NESTED]


@pytest.mark.parametrize(
    "field, value",
    [("description", NESTED), ("description", 5), ("recipe", NESTED)],
    ids=["nested-description", "integer-description", "nested-recipe"],
)
def test_ledger_text_fields_must_be_strings(field, value, tmp_path, capsys):
    rows = ledger_rows(builtin_config().require("ledgers", "cubic"))
    rows[0][field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ledgers": {"cubic": {"entries": rows}}}))
    assert main(["euler", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"config error: ledgers.cubic.entries[0]: field {field!r} has wrong type\n"
    )


@pytest.mark.parametrize("layer", ["invariants", "ledger"])
def test_importing_invariants_loads_no_other_layer(layer):
    src = Path(invariants.__file__).parents[1]
    code = (
        "import sys\n"
        f"from stratacheck import {layer}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'stratacheck'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == f"['stratacheck', 'stratacheck.errors', 'stratacheck.{layer}']\n"


def test_cold_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site-packages .pth files, which may import anything, out; the
    # age test works in integers and the curve solvers import fractions when
    # called, so neither the CLI nor a worker that imports the singularities
    # layer loads fractions or decimal
    src = Path(invariants.__file__).parents[1]
    code = (
        "import sys, stratacheck.cli, stratacheck.singularities\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'pathlib',"
        " 'fractions', 'decimal') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("field", ["torus_weights", "finite_factors"])
def test_cli_rejects_non_list_action_fields(field, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"actions": {"x": {"ambient_dim": 2, field: 5}}}))
    assert main(["lines27", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "config error:" in err and field in err
    assert "Traceback" not in err


def test_cli_rejects_a_group_without_generators(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"groups": {"negation-c4": {"generators": []}}}))
    assert main(["singularity", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "config error: groups.negation-c4: a group needs at least one generator\n"
    )


def test_cli_rejects_a_group_past_the_order_limit(tmp_path, capsys):
    # two order-200 generators would build 40,000 elements
    generators = [
        {"order": 200, "exponents": [1, 1, 0, 0]},
        {"order": 200, "exponents": [0, 0, 1, 1]},
    ]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"groups": {"negation-c4": {"generators": generators}}}))
    assert main(["singularity", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "config error: groups.negation-c4: generator orders multiply past 10000\n"
    )
    # orders multiplying to the limit itself are accepted
    for g in generators:
        g["order"] = 100
    group = parse_config({"groups": {"big": {"generators": generators}}}, "t").groups["big"]
    assert [g.order for g in group.generators] == [100, 100]


@pytest.mark.parametrize(
    "config_text, json_path",
    [
        ("[" * 100_000, None),
        ('{"actions": {"x": {"ambient_dim": ' + "7" * 5000 + "}}}", None),
        (None, "no/such/dir/out.json"),
    ],
    ids=["deep-nesting", "long-integer", "unwritable-json"],
)
def test_cli_input_errors_exit_3(config_text, json_path, tmp_path, capsys):
    argv = ["lines27", "--strict"]
    if config_text is not None:
        path = tmp_path / "config.json"
        path.write_text(config_text)
        argv += ["--config", str(path)]
    if json_path is not None:
        argv += ["--json", str(tmp_path / json_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err



@pytest.mark.parametrize("kind", ["missing", "not-utf-8", "directory"])
def test_cli_unreadable_config_exits_3(kind, tmp_path, capsys):
    path = tmp_path / "config.json"
    if kind == "not-utf-8":
        path.write_bytes(b'{"actions": {"\xff": {}}}')
    elif kind == "directory":
        path.mkdir()
    assert main(["lines27", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: ") and err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


ACTION_BODY = st.dictionaries(
    st.sampled_from(["ambient_dim", "torus_weights", "finite_factors"]), JSON_VALUES
)


@settings(max_examples=300, deadline=None)
@given(ACTION_BODY)
def test_action_fields_parse_or_raise_config_error(body):
    try:
        document = parse_config({"actions": {"fuzzed": body}}, "fuzz")
    except ConfigError:
        return
    assert "fuzzed" in document.actions


def _object(**fields):
    """Objects with any subset of the fields, each value near-valid or any JSON."""
    return st.fixed_dictionaries(
        {}, optional={key: value | JSON_VALUES for key, value in fields.items()}
    )


INT_LIST = st.lists(st.integers(-3, 12), max_size=4)
SECTION_BODIES = {
    "involutions": _object(
        permutation=INT_LIST, signs=st.lists(st.sampled_from([1, -1]), max_size=4)
    ),
    "groups": _object(generators=st.lists(
        _object(order=st.integers(-1, 6), exponents=INT_LIST), max_size=3
    )),
    "bases": _object(
        labels=st.lists(st.sampled_from(["f1", "f2", "diag"]), max_size=3),
        pairing=st.lists(INT_LIST, max_size=3),
    ),
    "ledgers": _object(
        mode=st.sampled_from(["paper", "derived"]),
        entries=st.lists(_object(
            label=st.sampled_from(["k", "n", "x"]),
            dimension=st.integers(-1, 3),
            chi_base=st.none() | st.integers(),
            chi_fiber=st.integers(),
            provenance=st.sampled_from(["paper", "derived", "trivial"]),
            recipe=st.text(max_size=3),
            description=st.text(max_size=3),
        ), max_size=3),
    ),
}


@pytest.mark.parametrize("section", sorted(SECTION_BODIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_section_fields_parse_or_raise_config_error(section, data):
    name = data.draw(st.sampled_from(["cubic", "degree2", "fuzzed"]))
    body = data.draw(SECTION_BODIES[section])
    try:
        document = parse_config({section: {name: body}}, "fuzz")
    except ConfigError:
        return
    assert name in getattr(document, section)


CONFIG_NAMES = st.sampled_from(["cubic", "degree2", "curve-square", "torus-pair", "x"])
CONFIG_BYTES = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.one_of(
        JSON_VALUES,
        *(
            st.fixed_dictionaries({section: st.dictionaries(CONFIG_NAMES, body, max_size=2)})
            for section, body in sorted({**SECTION_BODIES, "actions": ACTION_BODY}.items())
        ),
    ).map(lambda document: json.dumps(document).encode()),
)


def _run_as_process(section, config):
    """Run ``section --strict --json`` on config bytes and return the JSON
    report's checks (none when it was not written).

    The streams encode like a UTF-8 process: strict stdout, lenient stderr.
    Any exit code is 0 to 3, with no traceback, and exit 3 prints exactly
    one config-error line.
    """
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(config)
        report = Path(tmp) / "report.json"
        argv = [section, "--strict", "--json", str(report), "--config", str(path)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        checks = json.loads(report.read_text())["checks"] if report.exists() else []
    out.flush()
    err.seek(0)
    stderr = err.read()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr
    if code == 3:
        assert stderr.startswith("config error:") and stderr.count("\n") == 1
    return checks


@settings(max_examples=150, deadline=None)
@given(section=st.sampled_from(["cover", "pluecker", "lines27", "euler"]), config=CONFIG_BYTES)
def test_cli_survives_any_config_bytes(section, config):
    _run_as_process(section, config)


# a torus-triple without invariants, and one on fewer variables than the
# 12-variable layout its reference families read
EMPTY_TRIPLE = {"actions": {"torus-triple": {"ambient_dim": 12, "torus_weights": [[1] * 12]}}}
SHORT_TRIPLE = {
    "actions": {"torus-triple": {"ambient_dim": 6, "finite_factors": [[5, [6, 0, 0, 3, 0, 0]]]}}
}
TOOLKIT_ERRORS = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.ToolkitError)
}


def _int_row(length):
    return st.lists(st.integers(-3, 6), min_size=max(length, 0), max_size=max(length, 0))


def _action_body(dim):
    row = _int_row(dim)
    return st.fixed_dictionaries({"ambient_dim": st.just(dim)}, optional={
        "torus_weights": st.lists(row, max_size=2),
        "finite_factors": st.lists(st.tuples(st.integers(0, 5), row).map(list), max_size=2),
    })


def _involution_body(order):
    """The involution swapping consecutive entries of a permutation of
    range(n): unsigned, or with equal signs on each swapped pair, or with one
    sign flipped so that it no longer squares to the identity."""
    pairs = list(zip(order[::2], order[1::2]))
    image = list(range(len(order)))
    for a, b in pairs:
        image[a], image[b] = b, a

    def signed(draw):
        signs, flip = draw
        for a, b in pairs:
            signs[b] = signs[a]
        if flip is not None and flip < len(signs):
            signs[flip] = -signs[flip]
        return {"permutation": image, "signs": signs}

    return st.just({"permutation": image}) | st.tuples(
        st.lists(st.sampled_from([1, -1]), min_size=len(order), max_size=len(order)),
        st.none() | st.integers(0, len(order)),
    ).map(signed)


def _group_body(dim):
    element = st.fixed_dictionaries({"order": st.integers(0, 6), "exponents": _int_row(dim)})
    return st.fixed_dictionaries({"generators": st.lists(element, max_size=3)})


ACTION_DOCUMENTS = st.fixed_dictionaries({}, optional={
    "actions": st.dictionaries(
        st.sampled_from(["torus-pair", "torus-triple", "negation-c4", "z2z2-c6"]),
        st.integers(-1, 8).flatmap(_action_body), max_size=2,
    ),
    "involutions": st.dictionaries(
        st.sampled_from(["swap-pair", "swap-triple"]),
        st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))).flatmap(
            _involution_body
        ),
        max_size=1,
    ),
    "groups": st.dictionaries(
        st.sampled_from(["negation-c2", "negation-c4", "z2z2-c6"]),
        st.integers(-1, 8).flatmap(_group_body),
        max_size=2,
    ),
})


@settings(max_examples=100, deadline=None)
@given(section=st.sampled_from(["invariants", "singularity"]), document=ACTION_DOCUMENTS)
@example(section="invariants", document=EMPTY_TRIPLE)
@example(section="invariants", document=SHORT_TRIPLE)
def test_invariants_and_singularity_survive_redefined_inputs(section, document):
    for check in _run_as_process(section, json.dumps(document).encode()):
        if check["status"] == "error":
            assert check["note"].split(":")[0] in TOOLKIT_ERRORS, check


def test_triple_without_invariants_reports_computed_values(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EMPTY_TRIPLE))
    assert main(["invariants", "--strict", "--config", str(path)]) == 2
    text = capsys.readouterr().out
    assert "ValueError" not in text
    assert (
        "[FAIL] invariants.torus-triple.fixed-locus.generator-count :: expected 17 "
        "computed 0 (paper)"
    ) in text
    assert (
        '[FAIL] invariants.torus-triple.relation-families :: expected '
        '{"cross-letter-cubics":64,"quadratic-blocks":3,"within-letter-cubics":18} '
        'computed {"cross-letter-cubics":0,"quadratic-blocks":0,"within-letter-cubics":0}'
    ) in text
    assert (
        "[FAIL] invariants.torus-triple.fixed-locus.isomorphic-z2z2-c6 :: expected true "
        "computed false (paper)"
    ) in text
    # every torus-triple row computes, the isomorphism row included: without
    # a generator bijection the presentations are not isomorphic
    assert text.count("[FAIL] invariants.torus-triple.") == 9
    assert text.count("[ERROR]") == 0


def test_relation_families_name_the_layout_they_read(tmp_path):
    record = _run_with(tmp_path, SHORT_TRIPLE, "invariants")[
        "invariants.torus-triple.relation-families"
    ]
    assert record.status == "error"
    assert record.note.startswith(
        "ToolkitError: the reference families read the 12-variable torus-triple layout"
    )


def test_config_override_changes_expected_outcome(tmp_path, capsys):
    # replace the cubic ledger rows by a complete but wrong variant
    rows = [
        {"label": label, "dimension": dim, "chi_base": None, "chi_fiber": 0}
        for label, dim in zip("abcdefghij", [2, 2, 1, 1, 1, 1, 1, 1, 0, 0])
    ] + [
        {"label": "k", "dimension": 0, "chi_base": 120, "chi_fiber": 2},
        {"label": "l", "dimension": 0, "chi_base": None, "chi_fiber": 0},
        {"label": "m", "dimension": 0, "chi_base": None, "chi_fiber": 0},
        {"label": "n", "dimension": 0, "chi_base": 378, "chi_fiber": 3},
        {"label": "o", "dimension": 0, "chi_base": 936, "chi_fiber": 1},
        {"label": "p", "dimension": 0, "chi_base": None, "chi_fiber": 0},
        {"label": "q", "dimension": 0, "chi_base": None, "chi_fiber": 0},
        {"label": "r", "dimension": 0, "chi_base": None, "chi_fiber": 0},
        {"label": "s", "dimension": 0, "chi_base": 45, "chi_fiber": 1},
    ]
    doc = tmp_path / "override.json"
    doc.write_text(json.dumps({"ledgers": {"cubic": {"entries": rows}}}))
    config = load_config(doc)
    records = run_section("euler", config)
    by_name = {r.name: r for r in records}
    # the replayed ledger now totals 2355, so the reference-total check fails
    assert by_name["euler.cubic-ledger-total"].status == "fail"
    assert by_name["euler.cubic-ledger-total"].computed == 2355


def test_parse_config_rejects_unknown_sections():
    with pytest.raises(ConfigError):
        parse_config({"nonsense": {}}, "test")
    with pytest.raises(ConfigError):
        parse_config({"actions": {"x": {"ambient_dim": "two"}}}, "test")
    with pytest.raises(ConfigError):
        parse_config(
            {"actions": {"x": {"ambient_dim": 2, "torus_weights": [[1]]}}}, "test"
        )


def test_reports_render_deterministically():
    config = builtin_config()
    reports = []
    for _ in range(2):
        records = run_section("verify-all", config)
        reports.append(
            VerificationReport(__version__, "derived", config.label, tuple(records))
        )
    assert render_text(reports[0]) == render_text(reports[1])
    assert render_json(reports[0]) == render_json(reports[1])


def test_text_report_shape():
    record = CheckRecord("demo.check", {"x": 1}, 2, "paper", 2, PASS, "note")
    report = VerificationReport("0.0.0", "paper", "builtin", (record,))
    text = render_text(report)
    assert "[PASS] demo.check" in text
    assert "summary: total=1 pass=1 fail=0 discrepancy=0 error=0" in text
    assert "note" in text


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("mode", ["derived", "paper"])
def test_verify_all_matches_golden_report(mode, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["verify-all", "--mode", mode, "--json", str(out)])
    assert capsys.readouterr().out == (DATA / f"verify-all-{mode}.txt").read_text()
    assert out.read_text() == (DATA / f"verify-all-{mode}.json").read_text()


def _cubic_rows(**chi_base):
    """The built-in cubic ledger rows as config JSON, with chi_base overrides."""
    rows = ledger_rows(builtin_config().require("ledgers", "cubic"))
    for row in rows:
        row["chi_base"] = chi_base.get(row["label"], row["chi_base"])
    return rows


def _run_with(tmp_path, document, section="euler"):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return {r.name: r for r in run_section(section, load_config(path))}


def test_derived_ledger_reads_the_configured_pairing(tmp_path):
    square = {"labels": ["f1", "f2", "diag"],
              "pairing": [[0, 1, 1], [1, 0, 1], [1, 1, -4]]}
    by_name = _run_with(tmp_path, {"bases": {"curve-square": square}}, "verify-all")
    assert by_name["intersect.adjoint-product"].computed == 140
    # each row that reads the product follows it, against its reference value
    genus, branch = by_name["intersect.adjunction-genus"], by_name["cover.tangency-curve-branch"]
    assert (genus.status, genus.computed) == (FAIL, 71)
    assert (branch.status, branch.computed) == (FAIL, 116)
    case_o = by_name["euler.derived.case-o"]
    assert case_o.status == DISCREPANCY
    # 96 bitangents * 12 nodal members - 2 * RH(71, 4, 4)
    assert case_o.computed == 96 * 12 - 2 * riemann_hurwitz_branch(71, 4, 4) == 920
    assert riemann_hurwitz_branch(71, 4, 4) == 116
    assert "- 2 * 116 branch points" in case_o.note

    # a pairing without diag errs the rows on the route through it, and each
    # reader names the row it read, down to the one that failed
    square = {"labels": ["f1", "f2", "d"], "pairing": [[0, 1, 1], [1, 0, 1], [1, 1, -6]]}
    by_name = _run_with(tmp_path, {"bases": {"curve-square": square}}, "verify-all")
    assert {name: r.status for name, r in by_name.items() if r.status != PASS} == {
        "cover.tangency-curve-branch": ERROR,
        "intersect.diagonal-self": ERROR,
        "intersect.adjoint-product": ERROR,
        "intersect.adjunction-genus": ERROR,
        "euler.derived.case-o": ERROR,
    }
    note = by_name["euler.derived.case-o"].note
    assert "cover.tangency-curve-branch" in note and "intersect.adjoint-product" in note

    # a filter that keeps case-o alone still computes the rows it reads
    config = builtin_config()
    alone = run_section("euler", config, name_filter="case-o")
    everything = {r.name: r for r in run_section("verify-all", config)}
    assert [(r.name, r.status) for r in alone] == [("euler.derived.case-o", DISCREPANCY)]
    assert alone[0].note == everything["euler.derived.case-o"].note


def test_derived_ledger_copies_rows_without_recipe(tmp_path):
    by_name = _run_with(
        tmp_path, {"ledgers": {"cubic": {"entries": _cubic_rows(a=0)}}}
    )
    found = [r for r in by_name.values() if r.status != PASS]
    assert [r.name for r in found] == ["euler.derived.case-o"]
    assert (found[0].status, found[0].expected, found[0].computed) == (
        DISCREPANCY, 864, 936,
    )


@pytest.mark.parametrize(
    "pairing", [None, [[0, 1, 1], [1, 0, 1], [1, 1, -4]]], ids=["builtin", "diag-square-4"]
)
def test_each_case_equals_the_arithmetic_of_the_rows_it_names(pairing):
    document = {} if pairing is None else {
        "bases": {"curve-square": {"labels": ["f1", "f2", "diag"], "pairing": pairing}}
    }
    config = parse_config(document, "test")
    by_name = {r.name: r for r in run_section("verify-all", config)}
    value = {name: r.computed for name, r in by_name.items()}
    cases = [name for name in by_name if name.startswith("euler.derived.case-")]
    assert cases == [f"euler.derived.case-{label}" for label in "knso"]
    bitangents, _ = value["pluecker.nodal-sextic.bitangents-flexes"]
    assert value["euler.derived.case-k"] == value["pluecker.theta-odd.genus-4"]
    assert value["euler.derived.case-n"] == (
        value["cover.quartic-pencil-branch"] * value["lines27.line-count"]
    )
    assert value["euler.derived.case-s"] == value["lines27.tritangent-count"]
    assert value["euler.derived.case-o"] == (
        bitangents * value["euler.pencil-nodal-members"]
        - 2 * value["cover.tangency-curve-branch"]
    ) == (936 if pairing is None else 920)
    # a case's note is its recipe; case-o's discrepancy names it as the cause
    recipes = {label: recipe(value.__getitem__) for label, recipe in suite.RECIPES.items()}
    for label in "kns":
        assert recipes[label] == (value[f"euler.derived.case-{label}"],
                                  by_name[f"euler.derived.case-{label}"].note)
    assert by_name["euler.derived.case-o"].note.startswith(f"cause: {recipes['o'][1]};")
    degree2 = config.require("ledgers", "degree2")
    derived2 = {"bitangent": value["pluecker.theta-odd.genus-3"],
                "reducible": value["pluecker.smooth-quartic.bitangents-flexes"][0]}
    assert value["euler.derived.degree2-discrepancies"] == sum(
        degree2.entry(label).chi_base != chi_base for label, chi_base in derived2.items()
    ) == 0


def test_basis_without_diag_fails_only_the_route_through_it():
    square = {"labels": ["f1", "f2", "d"], "pairing": [[0, 1, 1], [1, 0, 1], [1, 1, -6]]}
    records = run_section("euler", parse_config({"bases": {"curve-square": square}}, "t"))
    assert {r.name: r.status for r in records if r.name.startswith("euler.derived.")} == {
        "euler.derived.case-k": PASS,
        "euler.derived.case-n": PASS,
        "euler.derived.case-s": PASS,
        "euler.derived.case-o": ERROR,
        "euler.derived.degree2-discrepancies": PASS,
    }
    assert [r.name for r in records if r.status != PASS] == ["euler.derived.case-o"]


def test_each_derived_row_calls_its_recipe_once(monkeypatch):
    recipe_calls, function_calls = Counter(), Counter()

    def counted(calls, name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for label, recipe in list(suite.RECIPES.items()):
        monkeypatch.setitem(suite.RECIPES, label, counted(recipe_calls, label, recipe))
    for module, name in [
        (curves, "pluecker_dual_degree"),
        (curves, "pluecker_solve_bf"),
        (curves, "theta_characteristics"),
        (curves, "riemann_hurwitz_branch"),
        (surfaces, "adjunction_genus"),
        (curves, "solve_unknown_count"),
    ]:
        monkeypatch.setattr(module, name, counted(function_calls, name, getattr(module, name)))
    records = run_section("verify-all", builtin_config())
    assert [r.status for r in records if r.name.startswith("euler.derived.case-")] == [
        PASS, PASS, PASS, DISCREPANCY,
    ]
    # one call per case row, which case-o's discrepancy note reuses
    assert recipe_calls == dict.fromkeys(suite.RECIPES, 1)
    # one call per row that computes the value, however many rows read it
    per_row = {
        "pluecker_dual_degree": 1,
        "pluecker_solve_bf": 3,
        "theta_characteristics": 2,
        "riemann_hurwitz_branch": 3,
        "adjunction_genus": 1,
        "solve_unknown_count": 2,
    }
    assert function_calls == per_row
    recipe_calls.clear()
    function_calls.clear()
    run_section("verify-all", builtin_config(), mode="paper")
    assert recipe_calls == {}
    assert function_calls == per_row


def test_corrected_reference_row_passes_its_case(tmp_path):
    by_name = _run_with(
        tmp_path, {"ledgers": {"cubic": {"entries": _cubic_rows(o=936)}}}
    )
    assert by_name["euler.derived.case-o"].status == PASS
    assert by_name["euler.cubic-ledger-total"].status == "fail"


def test_unexpected_derived_mismatch_fails_under_its_own_name(tmp_path):
    by_name = _run_with(
        tmp_path, {"ledgers": {"cubic": {"entries": _cubic_rows(k=121)}}}
    )
    assert by_name["euler.derived.case-k"].status == "fail"
    assert by_name["euler.derived.case-o"].status == DISCREPANCY


def test_oversized_computed_value_is_an_error_record(tmp_path, capsys):
    # each value parses (4,001 digits), but the ledger total has about 8,000
    rows = ledger_rows(builtin_config().require("ledgers", "cubic"))
    for row in rows:
        if row["label"] == "k":
            row["chi_base"] = row["chi_fiber"] = 10**4000
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ledgers": {"cubic": {"entries": rows}}}))
    out = tmp_path / "report.json"
    assert main(["euler", "--strict", "--config", str(path), "--json", str(out)]) == 2
    text = capsys.readouterr().out
    assert "[ERROR] euler.cubic-ledger-total :: expected 2283 computed null" in text
    assert "[PASS] euler.degree2-ledger-total" in text
    assert text.endswith("summary: total=13 pass=10 fail=1 discrepancy=0 error=2\n")
    assert json.loads(out.read_text())["summary"]["error"] == 2


@pytest.mark.parametrize(
    "document",
    [
        {"actions": {"torus-pair": {"ambient_dim": 2, "torus_weights": [[1, -3]]}}},
        {"bases": {"curve-square": {"labels": ["f1", "f2", "d"],
                                    "pairing": [[0, 1, 1], [1, 0, 1], [1, 1, -6]]}}},
    ],
    ids=["short-action", "basis-without-diag"],
)
def test_config_errors_become_error_records(document, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    assert main(["verify-all", "--strict", "--config", str(path)]) == 2
    assert "[ERROR]" in capsys.readouterr().out


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["euler", "--config", str(tmp_path / "absent.json")]) == 3
    assert "config error:" in capsys.readouterr().err
    assert main(["euler", "--config", str(tmp_path)]) == 3
    assert "config error:" in capsys.readouterr().err


def test_failing_intermediate_is_computed_once(tmp_path, monkeypatch):
    calls = []
    generators = invariants.invariant_generators

    def counted(*args, **kwargs):
        calls.append(args)
        return generators(*args, **kwargs)

    monkeypatch.setattr(invariants, "invariant_generators", counted)
    document = {"actions": {"torus-triple": {"ambient_dim": 2, "torus_weights": [[1, -7]]}}}
    by_name = _run_with(tmp_path, document, "invariants")
    # one call per presentation: torus-pair, negation-c4, torus-triple, z2z2-c6
    assert len(calls) == 4
    failed = [r for r in by_name.values() if r.status == "error"]
    assert {r.name for r in failed} == {
        name for name in by_name if name.startswith("invariants.torus-triple.")
    }
    assert len(failed) == 9
    assert len({r.note for r in failed}) == 1
