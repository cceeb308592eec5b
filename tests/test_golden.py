"""The golden CLI corpus: every command of ``tests/golden/cli.jsonl`` gives
the exit code, stdout and first stderr line recorded there.

On the platform the corpus was recorded on, the bytes must match.  Its
bytes depend on libm and on the numpy build, so elsewhere each number is
compared within its printed bar instead, and the test says so by a
warning: a ``value`` beside an ``error`` within that error, any other
number within _REL of itself, and all text exactly.
"""

import importlib.util
import json
import math
import re
import warnings
from pathlib import Path

_spec = importlib.util.spec_from_file_location("golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

# the relative tolerance of a number without a printed bar, off the
# recording platform
_REL = 1e-6
_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf)|nan")


def _parsed(text: str):
    """JSON output as its object, any other text as its list of numbers
    and the text between them."""
    try:
        return json.loads(text)
    except ValueError:
        parts = _NUMBER.split(text)
        numbers = [float(v) for v in _NUMBER.findall(text)]
        return [item for pair in zip(parts, numbers + [""]) for item in pair]


def _close(expected, got, bar=None) -> bool:
    if isinstance(expected, dict):
        return (
            isinstance(got, dict)
            and expected.keys() == got.keys()
            and all(_close(v, got[k], expected.get("error") if k == "value" else None) for k, v in expected.items())
        )
    if isinstance(expected, list):
        return isinstance(got, list) and len(expected) == len(got) and all(map(_close, expected, got))
    if isinstance(expected, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if expected == got or (math.isnan(expected) and math.isnan(got)):
            return True
        return abs(got - expected) <= (_REL * abs(expected) if bar is None else bar)
    return type(expected) is type(got) and expected == got


def _matches(recorded: dict, line: dict, same_platform: bool) -> bool:
    if same_platform:
        return line == recorded
    return (
        line["code"] == recorded["code"]
        and _close(_parsed(recorded["stdout"]), _parsed(line["stdout"]))
        and _close(_parsed(recorded["stderr"]), _parsed(line["stderr"]))
    )


def test_cli_outputs_match_the_golden_corpus():
    recorded_on, lines = regen.read()
    assert [line["argv"] for line in lines] == [list(argv) for argv in regen.COMMANDS]
    here = regen.platform_header()
    same_platform = recorded_on == here
    if not same_platform:
        warnings.warn(f"golden corpus recorded on {recorded_on}, run on {here}: numbers compared within their bars")
    mismatched = [line["argv"] for line in lines if not _matches(line, regen.run(line["argv"]), same_platform)]
    assert not mismatched, "outputs differ from tests/golden/cli.jsonl; regenerate it for a declared change"


def test_off_platform_comparison_holds_values_within_their_bars():
    _, lines = regen.read()
    recorded = next(line for line in lines if '"engine": "montecarlo"' in line["stdout"])
    payload = json.loads(recorded["stdout"])

    def moved(by: float) -> dict:
        return {**recorded, "stdout": json.dumps({**payload, "value": payload["value"] + by * payload["error"]})}

    assert _matches(recorded, moved(0.0), same_platform=False)
    assert _matches(recorded, moved(0.5), same_platform=False)
    assert not _matches(recorded, moved(0.5), same_platform=True)
    assert not _matches(recorded, moved(2.0), same_platform=False)
    table = next(line for line in lines if line["argv"] == ["solve", "p0"])
    assert _matches(table, table, same_platform=False)
    shifted = {**table, "stdout": table["stdout"].replace("-0.5657572316733123", "-0.5658")}
    assert not _matches(table, shifted, same_platform=False)


def test_written_file_is_compared_as_stdout_is():
    # the text a command writes with --out, compared off the recording
    # platform as its stdout would be
    _, lines = regen.read()
    recorded = next(line for line in lines if "out" in line)
    line = regen.run(recorded["argv"])
    assert line["stdout"] == "" and _close(_parsed(recorded["out"]), _parsed(line["out"]))
    assert _matches(recorded, line, same_platform=False)
