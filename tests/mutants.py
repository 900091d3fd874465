"""Mutated corpus60 traces: the hostile-input set of the parser tests.

``mutate`` edits a few lines of a trace; the caller supplies its choices,
so a hypothesis strategy and a seeded ``random.Random`` share one mutator.
"""

import functools

from evprof.generate import suite_specs

from helpers import build_samples

MUTANT_CHARS = "0123456789abcdefxX =:,;@()+.%-_\\/*sidé"
# characters str.splitlines breaks a line at, and a text-mode file does not
# (it reads \r as a line end)
LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@functools.cache
def corpus60_lines():
    """Each corpus60 trace as its list of lines, in sample id order."""
    return [sample.text.splitlines()
            for sample in build_samples(suite_specs("corpus60")).values()]


def mutate(lines, pick, chars=MUTANT_CHARS):
    """The trace of ``lines`` with characters of a few of its lines
    replaced, inserted or deleted; an inserted or replacing one is from
    ``chars``. ``pick(lo, hi)`` makes each choice, an integer in [lo, hi].
    """
    lines = list(lines)
    for _ in range(pick(1, 4)):
        i = pick(0, len(lines) - 1)
        line = lines[i]
        for _ in range(pick(1, 3)):
            at = pick(0, len(line))
            op = pick(0, 2)  # 0 replace, 1 insert, 2 delete
            ch = chars[pick(0, len(chars) - 1)] if op != 2 else ""
            line = line[:at] + ch + line[at + (op != 1):]
        lines[i] = line
    return "\n".join(lines) + "\n"
