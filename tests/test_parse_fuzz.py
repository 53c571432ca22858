"""Fuzzing the model parser with text built from the format's own pieces.

Any text ends in a model or a ParseError, never another exception, and a
model that parses renders to text that parses back to an equal model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize import ParseError, parse_model, render_model

SCALARS = ["0", "2", "1/2", "2.5", "1e3", "i", "sqrt(2)"]
GENERATORS = ["a1", "a1'", "a2", "a2'", "k"]
STRAY = [
    "modes:", "channels:", "theta:", "param", "identity", "A[1]", "B", "phi", "a3",
    "=", "[", "]", "(", ")", ",", ":", "+", "*", "/", "^", "^2", "'", "\n", "\n\n",
    " ", "#", "$", "!", ".", "sqrt",
]


def expressions(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", " - ", "*", "/"]), inner).map("".join),
            inner.map("({})".format),
            inner.map("-{}".format),
            st.tuples(inner, st.sampled_from(["^2", "^3"])).map(lambda t: "({}){}".format(*t)),
        ),
        max_leaves=5,
    )


# @S is a scalar expression, @E an operator expression
SLOTS = {"S": expressions(SCALARS), "E": expressions(SCALARS + GENERATORS)}
BODIES = [  # (text, theta literal) of each mode count
    ("modes: 1\nchannels: 1\n{}param k = @S\nA[1] = @E\nB = [[@S]]\nC[1] = @E\n{}",
     "theta: [[@S]]\n"),
    ("modes: 2\nchannels: 1\n{}param k = @S\nA[1] = @E\nA[2] = @E\n"
     "B = [[@S],\n     [@E]]\nC[1] = @E\n{}", "theta: [[@S, 0],\n  [0, @S]]\n"),
]
TAILS = ["", "D = identity\n", "D = [[@S]]\n", "phi = @E\n", "D = [[@E]]\nphi = @E\n"]


@st.composite
def models(draw):
    """A model of one or two modes, its expressions drawn at random."""
    body, theta = draw(st.sampled_from(BODIES))
    header = draw(st.sampled_from(["", "theta: identity\n", theta]))
    text = body.format(header, draw(st.sampled_from(TAILS)))
    head, *slots = text.split("@")
    return head + "".join(draw(SLOTS[slot[0]]) + slot[1:] for slot in slots)


@st.composite
def texts(draw):
    """A drawn model with up to three pieces of the format inserted at random."""
    text = draw(models())
    for pos, piece in draw(st.lists(st.tuples(st.integers(0, 400), st.sampled_from(STRAY)),
                                    max_size=3)):
        pos %= len(text) + 1
        text = text[:pos] + piece + text[pos:]
    return text


@settings(max_examples=200, deadline=None)
@given(texts())
def test_parse_model_returns_a_model_or_raises_parse_error(text):
    try:
        model = parse_model(text)
    except ParseError:
        return
    again = parse_model(render_model(model))
    assert again.equals(model) and model.equals(again)
