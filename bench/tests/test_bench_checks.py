"""Output checks: a corrupted result must count as a failed operation."""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import record  # noqa: E402
import worker  # noqa: E402
from checks import check_pass, is_sharp_2var, load_reference  # noqa: E402


def outputs_of(fn, op):
    outputs = []
    fn(op, 1, lambda _t, out: outputs.append(out))
    return outputs


def test_certify_corruptions_fail():
    reference = load_reference()
    good = outputs_of(worker._certify, 6)
    assert check_pass("certify", ["certify 6"], good, reference) == (1, 0, [])

    dropped = copy.deepcopy(good)
    dropped[0]["witnesses"].pop()
    altered = copy.deepcopy(good)
    altered[0]["witnesses"][0]["terms"][0]["coeff"] = "2/1"
    for bad in (dropped, altered, []):
        attempted, failed, messages = check_pass("certify", ["certify 6"], bad, reference)
        assert (attempted, failed) == (1, 1) and messages


def test_enumerate_corruptions_fail():
    good = outputs_of(worker._enumerate, (3, 4))
    reference = {"enumerate": {"enumerate 3 4": record._enumerate(good[0])}}
    ops = ["enumerate 3 4"]
    assert check_pass("enumerate", ops, good, reference)[:2] == (1, 0)

    witnesses = good[0]["witnesses"]
    point = next(i for i, w in enumerate(witnesses) if w["freedom"] == 0)
    polytope = next(i for i, w in enumerate(witnesses) if w["freedom"] > 0)
    corruptions = []
    for index, coeff in ((point, "3/1"), (polytope, "1/1")):
        bad = copy.deepcopy(good)
        bad[0]["witnesses"][index]["poly"]["terms"][0]["coeff"] = coeff
        corruptions.append(bad)
    dropped = copy.deepcopy(good)
    dropped[0]["witnesses"].pop(point)
    corruptions.append(dropped)
    duplicated = copy.deepcopy(good)
    duplicated[0]["witnesses"].append(duplicated[0]["witnesses"][0])
    corruptions.append(duplicated)
    for bad in corruptions:
        assert check_pass("enumerate", ops, bad, reference)[:2] == (1, 1)


def test_construct_report_hash_and_exit_are_checked():
    reference = {"construct": {"pell --count 20": {"exit": 0, "sha256": "ab"},
                               "signature_impossible 1 1 4": {"value": True}}}
    ops = list(reference["construct"])
    good = [{"op": "pell --count 20", "exit": 0, "sha256": "ab", "bytes": 9},
            {"op": "signature_impossible 1 1 4", "value": True}]
    assert check_pass("construct", ops, good, reference)[:2] == (2, 0)
    for field, value in (("exit", 1), ("sha256", "cd")):
        bad = copy.deepcopy(good)
        bad[0][field] = value
        assert check_pass("construct", ops, bad, reference)[:2] == (2, 1)
    extra = good + [{"op": "pell --count 5", "exit": 0, "sha256": "ef"}]
    assert check_pass("construct", ops, extra, reference)[:2] == (2, 1)


def test_independent_map_check():
    f5 = {"nvars": 2, "terms": [{"exp": [5, 0], "coeff": "1/1"},
                                {"exp": [3, 1], "coeff": "5/1"},
                                {"exp": [1, 2], "coeff": "5/1"},
                                {"exp": [0, 5], "coeff": "1/1"}]}
    assert is_sharp_2var(f5, 5, 4)
    assert not is_sharp_2var(f5, 5, 5)
    f5["terms"][1]["coeff"] = "4/1"
    assert not is_sharp_2var(f5, 5, 4)
