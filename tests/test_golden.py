"""The shipped documents' outputs, and check-law reports, against their committed references
(``tests/golden.py``): KKT and headers byte for byte, every other value
within ``golden.RTOL`` of its row's scale; byte differences are reported."""

import warnings

import pytest

import golden


@pytest.mark.parametrize("name", list(golden.DOCUMENTS))
def test_outputs_match_the_references(name, tmp_path):
    golden.produce(name, tmp_path)
    diffs = golden.compare(name, tmp_path)
    moved = [d.path for d in diffs if not d.identical and d.failure is None]
    if moved:
        warnings.warn(f"{name}: within tolerance but not byte-identical: {', '.join(moved)}")
    assert [f"{d.path}: {d.failure}" for d in diffs if d.failure] == []
    assert sum(d.path.endswith(".csv") for d in diffs) >= 3


@pytest.mark.parametrize("name", golden.CHECK_LAW)
def test_check_law_report_matches_the_reference(name):
    diff = golden.compare_check_law(name)
    if not diff.identical and diff.failure is None:
        warnings.warn(f"{diff.path}: within tolerance but not byte-identical")
    assert diff.failure is None


def moved(path, line, column, delta):
    """The reference text of ``path`` with one value moved by ``delta``."""
    rows = [row.split(",") for row in (golden.GOLDEN / path).read_text().splitlines()]
    j = rows[0].index(column)
    rows[line - 1][j] = repr(float(rows[line - 1][j]) + delta)
    return "".join(",".join(row) + "\n" for row in rows)


class TestComparison:
    def test_an_energy_moved_by_1e_9_fails(self):
        # the final row holds the ramp's largest energies (P_cum about 42)
        path = "standard_ramp/energies.csv"
        ref = (golden.GOLDEN / path).read_text()
        for line in (2, 102, 202):
            diff = golden.compare_csv(path, ref, moved(path, line, "E", 1e-9))
            assert diff.failure.startswith(f"line {line} E:")

    def test_what_a_second_blas_thread_moved_passes_and_is_reported(self):
        # 6.0e-12 in a traction defect, in a row that holds the traction bound 1
        path = "unloading_tent/tractions.csv"
        ref = (golden.GOLDEN / path).read_text()
        diff = golden.compare_csv(path, ref, moved(path, 120, "max_transmission_defect", 6.0e-12))
        assert diff.failure is None and not diff.identical
        assert diff.max_abs == pytest.approx(6.0e-12, rel=1e-3)
        diff = golden.compare_csv(path, ref, moved(path, 120, "max_transmission_defect", 2e-11))
        assert diff.failure is not None

    def test_kkt_and_headers_are_compared_byte_for_byte(self):
        path = "standard_ramp/kkt.csv"
        ref = (golden.GOLDEN / path).read_text()
        assert golden.compare_csv(path, ref, ref.replace(",0.0", ",-0.0", 1)).failure == (
            "kkt.csv is not byte-identical")
        path = "rest/energies.csv"
        ref = (golden.GOLDEN / path).read_text()
        assert golden.compare_csv(path, ref, ref.replace("R_split", "Rsplit")).failure == (
            "header differs")

    def test_a_missing_frame_fails(self, tmp_path):
        golden.produce("standard_ramp", tmp_path)
        (tmp_path / "fields_0020.vtk").unlink()
        failures = [(d.path, d.failure) for d in golden.compare("standard_ramp", tmp_path)
                    if d.failure]
        assert failures == [("standard_ramp/fields_0020.vtk", "missing")]

    def test_a_report_number_moved_by_1e_9_or_its_text_changed_fails(self):
        path = "check_law/check_law_small_domain.txt"
        ref = (golden.GOLDEN / path).read_text()
        c_hat = "c_hat = 1.000000000000002"
        assert c_hat in ref
        diff = golden.compare_report(path, ref, ref.replace(c_hat, "c_hat = 1.000000001000002"))
        assert diff.failure.startswith("line 6 number 1: 1.000000001000002 differs")
        diff = golden.compare_report(path, ref, ref.replace(c_hat, "c_hat = 1.0000000000000022"))
        assert diff.failure is None and not diff.identical
        assert golden.compare_report(path, ref, ref.replace("(holds)", "(fails)")).failure == (
            "line 7: 'H4 margin (mu*c_hat - beta) = 0.500000000000002 (fails)', expected "
            "'H4 margin (mu*c_hat - beta) = 0.500000000000002 (holds)'")
