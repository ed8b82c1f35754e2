"""Tests for the command-line interface (repro.cli)."""

import io

import pytest

from repro.cli import main


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "cli.db")


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestModelCommands:
    def test_create_model(self, db_path):
        code, output = run("create-model", db_path, "cia")
        assert code == 0
        assert "created model 'cia'" in output

    def test_models_listing(self, db_path):
        run("create-model", db_path, "cia")
        run("create-model", db_path, "fbi")
        code, output = run("models", db_path)
        assert code == 0
        assert "cia" in output and "fbi" in output

    def test_duplicate_model_error(self, db_path):
        run("create-model", db_path, "cia")
        code, output = run("create-model", db_path, "cia")
        assert code == 1
        assert "error" in output


class TestTripleCommands:
    def test_insert_and_query(self, db_path):
        run("create-model", db_path, "cia")
        code, output = run("insert", db_path, "cia", "gov:files",
                           "gov:terrorSuspect", "id:JohnDoe")
        assert code == 0
        assert "SDO_RDF_TRIPLE_S" in output
        code, output = run("query", db_path,
                           "(gov:files gov:terrorSuspect ?who)",
                           "-m", "cia")
        assert code == 0
        assert "who=id:JohnDoe" in output
        assert "(1 rows)" in output

    def test_query_with_alias(self, db_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "http://www.us.gov#files",
            "http://www.us.gov#terrorSuspect", "http://www.us.id#X")
        code, output = run(
            "query", db_path, "(gov:files gov:terrorSuspect ?who)",
            "-m", "m", "-a", "gov=http://www.us.gov#")
        assert code == 0
        assert "http://www.us.id#X" in output

    def test_query_with_filter(self, db_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "id:A", "gov:age", '"42"')
        run("insert", db_path, "m", "id:B", "gov:age", '"10"')
        code, output = run("query", db_path, "(?p gov:age ?age)",
                           "-m", "m", "-f", "?age > 18")
        assert "(1 rows)" in output
        assert "p=id:A" in output

    def test_bad_alias_spec(self, db_path):
        run("create-model", db_path, "m")
        code, output = run("query", db_path, "(?s ?p ?o)", "-m", "m",
                           "-a", "noequals")
        assert code == 1


class TestLoad:
    def test_load_ntriples_file(self, db_path, tmp_path):
        data = tmp_path / "data.nt"
        data.write_text("<urn:s> <urn:p> <urn:o> .\n"
                        "<urn:s> <urn:p> <urn:o2> .\n",
                        encoding="utf-8")
        run("create-model", db_path, "m")
        code, output = run("load", db_path, "m", str(data))
        assert code == 0
        assert "new triples 2" in output


class TestGenerateUniprot:
    def test_generate_and_load(self, db_path, tmp_path):
        data = tmp_path / "uniprot.nt"
        code, output = run("generate-uniprot", str(data),
                           "--triples", "500")
        assert code == 0
        assert "wrote 500 triples" in output
        run("create-model", db_path, "up")
        code, output = run("load", db_path, "up", str(data))
        assert code == 0
        assert "new triples 500" in output

    def test_generate_with_quads(self, tmp_path):
        data = tmp_path / "uniprot.nt"
        code, output = run("generate-uniprot", str(data),
                           "--triples", "2000", "--with-quads")
        assert code == 0
        assert "reification quads" in output
        content = data.read_text(encoding="utf-8")
        assert "urn:repro:reif:1" in content

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.nt", tmp_path / "b.nt"
        run("generate-uniprot", str(a), "--triples", "300")
        run("generate-uniprot", str(b), "--triples", "300")
        assert a.read_text() == b.read_text()


class TestReification:
    def test_reify_and_check(self, db_path):
        run("create-model", db_path, "cia")
        run("insert", db_path, "cia", "gov:files", "gov:terrorSuspect",
            "id:JohnDoe")
        code, output = run("is-reified", db_path, "cia", "gov:files",
                           "gov:terrorSuspect", "id:JohnDoe")
        assert code == 2
        assert output.strip() == "false"
        code, output = run("reify", db_path, "cia", "gov:files",
                           "gov:terrorSuspect", "id:JohnDoe")
        assert code == 0
        assert output.startswith("/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=")
        code, output = run("is-reified", db_path, "cia", "gov:files",
                           "gov:terrorSuspect", "id:JohnDoe")
        assert code == 0
        assert output.strip() == "true"

    def test_reify_missing_triple(self, db_path):
        run("create-model", db_path, "cia")
        code, output = run("reify", db_path, "cia", "s:x", "p:x", "o:x")
        assert code == 1


class TestExport:
    def test_export_and_reload(self, db_path, tmp_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "urn:s", "urn:p", "urn:o")
        out_file = tmp_path / "dump.ttl"
        code, output = run("export", db_path, "m", str(out_file))
        assert code == 0
        assert "wrote 1 triples" in output
        run("create-model", db_path, "copy")
        code, output = run("load", db_path, "copy", str(out_file))
        assert code == 0
        assert "new triples 1" in output

    def test_export_expanded_reification(self, db_path, tmp_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "urn:s", "urn:p", "urn:o")
        run("reify", db_path, "m", "urn:s", "urn:p", "urn:o")
        out_file = tmp_path / "dump.nt"
        code, _output = run("export", db_path, "m", str(out_file),
                            "--expand-reification")
        assert code == 0
        content = out_file.read_text(encoding="utf-8")
        assert "/ORADB/" not in content
        assert "urn:repro:stmt:" in content


class TestPath:
    def test_shortest_path(self, db_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "id:A", "gov:knows", "id:B")
        run("insert", db_path, "m", "id:B", "gov:knows", "id:C")
        code, output = run("path", db_path, "m", "id:A", "id:C")
        assert code == 0
        assert "id:A -> id:B -> id:C" in output
        assert "2 hops" in output

    def test_no_path(self, db_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "id:A", "gov:knows", "id:B")
        run("insert", db_path, "m", "id:X", "gov:knows", "id:Y")
        code, output = run("path", db_path, "m", "id:A", "id:Y")
        assert code == 2
        assert "no path" in output

    def test_undirected_flag(self, db_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "id:A", "gov:knows", "id:B")
        code, _output = run("path", db_path, "m", "id:B", "id:A")
        assert code == 2  # directed: no path
        code, output = run("path", db_path, "m", "id:B", "id:A",
                           "--undirected")
        assert code == 0

    def test_unknown_resource(self, db_path):
        run("create-model", db_path, "m")
        code, output = run("path", db_path, "m", "id:ghost", "id:ghost2")
        assert code == 1


class TestCheck:
    def test_clean_store(self, db_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "s:a", "p:x", "o:a")
        code, output = run("check", db_path)
        assert code == 0
        assert "(0 violations)" in output


class TestStats:
    def test_stats_whole_store(self, db_path):
        run("create-model", db_path, "m")
        run("insert", db_path, "m", "s:a", "p:x", "o:a")
        run("insert", db_path, "m", "s:b", "p:x", "o:b")
        code, output = run("stats", db_path)
        assert code == 0
        assert "triples: 2" in output
        assert "components: 2" in output

    def test_stats_per_model(self, db_path):
        run("create-model", db_path, "m1")
        run("create-model", db_path, "m2")
        run("insert", db_path, "m1", "s:a", "p:x", "o:a")
        code, output = run("stats", db_path, "m2")
        assert "network links: 0" in output


class TestDoctor:
    def test_missing_db_is_an_error_and_creates_nothing(self, db_path):
        import os

        code, output = run("doctor", db_path)
        assert code != 0
        assert "no database file" in output
        assert not os.path.exists(db_path)


def test_serve_has_no_shards_flag():
    from repro.cli import _build_parser

    with pytest.raises(SystemExit):
        _build_parser().parse_args(["serve", "x.db", "--shards", "4"])
