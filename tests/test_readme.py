"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_library_example_runs(capsys):
    blocks = python_blocks()
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    correct, naive = namespace["correct"], namespace["naive"]
    assert correct.converged and namespace["sampled"].converged
    # the printed claims: the exact fit is close to the generating weights,
    # the stock-out-blind one is not
    truth = namespace["SECTION7_PRESET"].weights
    total = sum(truth.values())

    def error(result):
        return max(abs(result.probabilities[a] - w / total) for a, w in truth.items())

    assert error(correct) < 0.03 < error(naive)
    assert capsys.readouterr().out.count("\n") == 2
