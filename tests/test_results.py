"""Every entry of ``tests/results.json`` (``tests/write_results.py``), recomputed:
N and faces exactly, ``evaluate``'s fields to 9 significant digits, points to
1e-12 and every certificate verdict."""

import json

import numpy as np
import pytest

import write_results as table

RESULTS = json.loads(table.PATH.read_text())


def assert_report(got, want):
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9, abs=0), key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("want", RESULTS["configs"], ids=lambda e: f"{e['base']}-{e['seq']}")
def test_a_configuration_matches_its_table_entry(want):
    got = table.config_entry(want["base"], want["seq"])
    assert (got["n"], got["faces_sha256"]) == (want["n"], want["faces_sha256"])
    assert_report(got["report"], want["report"])
    # every point within 1e-12 moves fingerprint column j by at most 1e-12 sum |w_j|
    bound = 1e-12 * np.abs(table.fingerprint_weights(got["n"])).sum(axis=0)
    assert np.all(np.abs(np.subtract(got["points"], want["points"])) <= bound)


def test_the_metrics_in_hull_matches_its_table_entry():
    got, want = table.metrics_in_entry(), RESULTS["metrics_in"]
    assert got["faces_sha256"] == want["faces_sha256"]
    assert_report(got["report"], want["report"])


def test_the_table_holds_every_configuration_of_its_writer():
    assert [(e["base"], e["seq"]) for e in RESULTS["configs"]] == table.CONFIGS


def test_every_certificate_verdict_matches_the_table():
    assert table.verdicts() == RESULTS["verdicts"]
