from xml.sax.saxutils import escape as sax_escape

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from phasemirror import svgplot


@given(st.text(alphabet=st.sampled_from("&<>;amp lt\"'x")) | st.text())
def test_escape_matches_saxutils(text):
    assert svgplot.escape(text) == sax_escape(text)


def test_labels_are_escaped_once():
    svg = svgplot.line_plot(
        [("a<b & c>d", np.arange(3.0), np.arange(3.0))], "&amp;", "x", "y"
    )
    assert "a&lt;b &amp; c&gt;d" in svg
    assert ">&amp;amp;</text>" in svg
