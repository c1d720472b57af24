import pytest

from conftest import make_traj
from f0priv.plotting import trajectory_svg


class TestRefusals:
    # The plot command only passes contours that validate, so these refusals
    # are the library's own.
    def test_nothing_to_plot(self):
        with pytest.raises(ValueError, match="^nothing to plot$"):
            trajectory_svg([])

    def test_empty_trajectory(self):
        named = [("a", make_traj([100.0, 110.0])), ("b", make_traj([]))]
        with pytest.raises(ValueError, match="^empty trajectory 'b'$"):
            trajectory_svg(named)
