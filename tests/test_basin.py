"""Basin grids: per-cell classification, agreement scoring, batch invariance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldm import basin
from nldm.basin import (
    DIVERGED,
    PERSISTENCE,
    UNRESOLVED,
    BasinGrid,
    classify_series,
    grid_agreement,
    ground_truth_grid,
    operator_grid,
)
from nldm.core import DimensionError, FeatureConfig, LearnedOperator
from nldm.features import monomial_basis
from nldm.identify import train
from nldm.odes import (
    SYSTEM_IDS,
    BenchmarkSystem,
    CycleAttractor,
    PointAttractor,
    _dormand_prince_blocks,
    integrate,
    make_system,
)
from nldm.predict import iterate_batch
from oracles import loop_classify_series, loop_iterate, per_cell_truth_labels

WINDOW = ((-3.0, 3.0), (-3.0, 3.0))


def plain_grid(labels):
    labels = np.array(labels, dtype=object)
    return BasinGrid(
        x_range=(0.0, 1.0),
        y_range=(0.0, 1.0),
        resolution=labels.shape[0],
        labels=labels,
        source={},
        meta={},
    )


def scaling_operator(factor, num_states=2):
    config = FeatureConfig(num_states, 1, 1)
    return LearnedOperator(factor * np.eye(num_states), config, dt=0.1)


@pytest.fixture(scope="module")
def truth3():
    system = make_system("two_attractor")
    return ground_truth_grid(system, WINDOW, 3, steps=2000, dt=0.005)


# ---------------------------------------------------------------- truth grids


def test_truth_grid_splits_bistable_window_by_sign(truth3):
    # x < 0 flows to the left sink, x > 0 to the right one, and the
    # x = 0 column rides the separatrix into the saddle: never captured.
    assert list(truth3.labels[0]) == ["left_sink"] * 3
    assert list(truth3.labels[1]) == [UNRESOLVED] * 3
    assert list(truth3.labels[2]) == ["right_sink"] * 3


def test_truth_grid_metadata(truth3):
    assert truth3.source["kind"] == "integrator"
    assert truth3.source["system"] == "two_attractor"
    assert truth3.meta["steps"] == 2000
    assert truth3.meta["dt"] == 0.005
    assert truth3.meta["horizon"] == 10.0
    assert truth3.meta["num_samples"] == 401
    assert truth3.meta["tol"] == 0.05
    assert PERSISTENCE == 10
    np.testing.assert_array_equal(truth3.xs, np.linspace(-3.0, 3.0, 3))
    np.testing.assert_array_equal(truth3.ys, np.linspace(-3.0, 3.0, 3))
    # A scan of at most 400 steps is sampled at every step.
    short = ground_truth_grid(make_system("two_attractor"), WINDOW, 2, steps=50, dt=0.2)
    assert (short.meta["horizon"], short.meta["num_samples"]) == (10.0, 51)


def test_refining_resolution_keeps_shared_cell_labels(truth3):
    # Cells are classified independently, so the 5-point axis (which
    # contains the 3-point axis as every other entry) must agree with the
    # coarse grid wherever coordinates coincide.
    fine = ground_truth_grid(make_system("two_attractor"), WINDOW, 5, steps=2000, dt=0.005)
    for ci, fi in enumerate((0, 2, 4)):
        assert fine.xs[fi] == truth3.xs[ci]
        for cj, fj in enumerate((0, 2, 4)):
            assert fine.labels[fi, fj] == truth3.labels[ci, cj]


def all_samples(system, points, horizon=10.0, num_samples=401):
    """Every sample of every cell from the batched integrator, no cell dropped."""
    blocks = _dormand_prince_blocks(
        system.rhs, points, (0.0, horizon), num_samples, basin.GRID_SETTINGS, basin._BLOCK
    )
    return np.concatenate(list(blocks), axis=1)


@pytest.mark.parametrize("ident", ["two_attractor", "dual_limit_cycle", "mfcd"])
def test_truth_samples_are_bitwise_batch_invariant(ident):
    system = make_system(ident)
    points = np.random.default_rng(11).uniform(-2.5, 2.5, (6, system.num_states))
    batch = all_samples(system, points)
    for index, point in enumerate(points):
        alone = all_samples(system, point[None])
        assert alone[0].tobytes() == batch[index].tobytes(), (ident, index)


def test_dropped_cells_leave_the_others_bitwise_unchanged():
    # _classify sends a mask after each block; the kept cells' later
    # samples must equal the samples of a run that drops nothing.
    system = make_system("dual_limit_cycle")
    points = np.random.default_rng(12).uniform(-2.5, 2.5, (5, 2))
    full = all_samples(system, points)
    blocks = _dormand_prince_blocks(system.rhs, points, (0.0, 10.0), 401, basin.GRID_SETTINGS, 32)
    rows, got = np.arange(5), [next(blocks)]
    for keep in ([True, False, True, True, True], [False, True, True, False]):
        rows = rows[keep]
        got.append(blocks.send(np.array(keep)))
    assert got[0].tobytes() == full[:, :32].tobytes()
    assert got[2].tobytes() == full[rows, 64:96].tobytes()


# Windows over both basins where a catalog system has two; mfcd's grid
# lies in the plane of its orbit.
TRUTH_WINDOWS = {
    "lho": (((-2.1, 1.9), (-1.9, 2.1)), None),
    "dnls": (((-2.1, 1.9), (-1.9, 2.1)), None),
    "two_attractor": (((-2.9, 3.1), (-3.1, 2.9)), None),
    "double_well": (((-2.4, 1.6), (-1.1, 0.9)), None),
    "mfcd": (((-1.6, 1.4), (-1.4, 1.6)), {2: 1.0}),
    "dual_limit_cycle": (((-2.9, 3.1), (-3.1, 2.9)), None),
}


@pytest.mark.parametrize("ident", sorted(TRUTH_WINDOWS))
def test_truth_grid_labels_match_per_cell_integration(ident):
    system = make_system(ident)
    assert system.attractors
    window, fixed = TRUTH_WINDOWS[ident]
    grid = ground_truth_grid(system, window, 6, steps=2000, dt=0.005, fixed_coords=fixed)
    points = basin._grid_points(grid.x_range, grid.y_range, 6, system.num_states, fixed)
    settings = basin.GRID_SETTINGS
    expected = per_cell_truth_labels(
        system, points, 10.0, 401, 0.05, PERSISTENCE, settings.rel_tol, settings.abs_tol
    )
    assert list(grid.labels.ravel()) == expected


def test_every_catalog_system_with_attractors_has_a_truth_window():
    with_attractors = {i for i in SYSTEM_IDS if make_system(i).attractors}
    assert with_attractors == set(TRUTH_WINDOWS)


def test_truth_grid_labels_finite_time_blowup_as_diverged():
    # x' = x**2 leaves every cell with x > 0 at t = 1/x; x < 0 creeps to
    # 0 too slowly to be captured, and x = 0 falls onto the origin.
    blowup = BenchmarkSystem(
        ident="blowup",
        params={},
        num_states=2,
        rhs=lambda t, state: np.array([state[0] ** 2, -state[1]]),
        attractors=(PointAttractor("origin", (0.0, 0.0)),),
    )
    grid = ground_truth_grid(blowup, ((-1.5, 1.5), (-1.0, 1.0)), 3, steps=2000, dt=0.005)
    assert list(grid.labels[0]) == [UNRESOLVED] * 3
    assert list(grid.labels[1]) == ["origin"] * 3
    assert list(grid.labels[2]) == [DIVERGED] * 3
    points = basin._grid_points(grid.x_range, grid.y_range, 3, 2, None)
    assert list(grid.labels.ravel()) == per_cell_truth_labels(
        blowup, points, 10.0, 401, 0.05, PERSISTENCE, 1e-6, 1e-9
    )


def test_truth_grid_validation():
    system = make_system("two_attractor")
    with pytest.raises(ValueError, match="resolution"):
        ground_truth_grid(system, WINDOW, 1, steps=500, dt=0.01)
    with pytest.raises(ValueError, match="extent"):
        ground_truth_grid(system, ((1.0, 1.0), (-1.0, 1.0)), 3, steps=500, dt=0.01)
    for dt in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt"):
            ground_truth_grid(system, WINDOW, 3, steps=500, dt=dt)
    for steps in (0, -5):
        with pytest.raises(ValueError, match="steps"):
            ground_truth_grid(system, WINDOW, 3, steps=steps, dt=0.01)
    with pytest.raises(ValueError, match="no attractors"):
        ground_truth_grid(make_system("lorenz"), WINDOW, 3, steps=500, dt=0.01)


# ---------------------------------------------------------- series classifier


def test_capture_needs_full_persistence_run():
    attractors = (PointAttractor("home", (0.0, 0.0)),)
    near = [0.0, 0.0]
    far = [5.0, 5.0]
    assert classify_series([far] + [near] * PERSISTENCE, attractors, 0.05) == "home"
    assert classify_series([far] + [near] * (PERSISTENCE - 1), attractors, 0.05) == UNRESOLVED


def test_interrupted_run_starts_over():
    attractors = (PointAttractor("home", (0.0, 0.0)),)
    near, far = [0.0, 0.0], [5.0, 5.0]
    rows = [near] * (PERSISTENCE - 1) + [far] + [near] * (PERSISTENCE - 1)
    assert classify_series(rows, attractors, 0.05) == UNRESOLVED
    assert classify_series(rows + [near], attractors, 0.05) == "home"


def test_earliest_completed_capture_wins():
    # The second catalog entry finishes its run first, so it wins even
    # though the first entry would capture later in the same series.
    attractors = (
        PointAttractor("slow", (4.0, 0.0)),
        PointAttractor("fast", (0.0, 0.0)),
    )
    rows = [[0.0, 0.0]] * PERSISTENCE + [[4.0, 0.0]] * PERSISTENCE
    assert classify_series(rows, attractors, 0.05) == "fast"


def test_same_step_ties_go_to_earlier_catalog_entry():
    first = PointAttractor("first", (0.0, 0.0))
    second = PointAttractor("second", (0.02, 0.0))
    rows = [[0.01, 0.0]] * PERSISTENCE
    assert classify_series(rows, (first, second), 0.05) == "first"
    assert classify_series(rows, (second, first), 0.05) == "second"


def test_nonfinite_sample_before_capture_means_diverged():
    attractors = (PointAttractor("home", (0.0, 0.0)),)
    near = [0.0, 0.0]
    blown = [np.nan, 0.0]
    assert classify_series([near] * (PERSISTENCE - 1) + [blown], attractors, 0.05) == DIVERGED
    # A capture completed before the blowup still counts.
    assert classify_series([near] * PERSISTENCE + [blown], attractors, 0.05) == "home"


def test_short_series_stays_unresolved():
    attractors = (PointAttractor("home", (0.0, 0.0)),)
    assert classify_series([[0.0, 0.0]] * (PERSISTENCE - 1), attractors, 0.05) == UNRESOLVED


def test_classify_series_rejects_states_of_the_wrong_shape():
    two_sinks = make_system("two_attractor").attractors
    orbit = make_system("mfcd").attractors
    for states, attractors, fragment in [
        (np.zeros(5), two_sinks, r"\(samples, num_states\), got shape \(5,\)"),
        (np.zeros((2, 5, 2)), two_sinks, r"got shape \(2, 5, 2\)"),
        (np.zeros((5, 3)), two_sinks, r"'left_sink' expects \(samples, 2\)"),
        (np.zeros((5, 2)), orbit, r"'orbit' expects \(samples, >= 3\)"),
    ]:
        with pytest.raises(DimensionError, match=fragment):
            classify_series(states, attractors, 0.05)


def test_cycle_capture_checks_radius_and_pinned_plane():
    orbit = CycleAttractor("orbit", radius=1.0, axes=(0, 1), plane=((2, 0.5),))
    angles = np.linspace(0.0, 2 * np.pi, PERSISTENCE)
    on_cycle = [[np.cos(a), np.sin(a), 0.5] for a in angles]
    assert classify_series(on_cycle, (orbit,), 0.05) == "orbit"
    wrong_height = [[np.cos(a), np.sin(a), 0.9] for a in angles]
    assert classify_series(wrong_height, (orbit,), 0.05) == UNRESOLVED
    wrong_radius = [[1.2 * np.cos(a), 1.2 * np.sin(a), 0.5] for a in angles]
    assert classify_series(wrong_radius, (orbit,), 0.05) == UNRESOLVED


# Attractors and sample rows kept clear of every capture boundary at tol
# 0.05, so the reference's loop arithmetic cannot disagree on a hit.
CATALOG = (
    PointAttractor("near", (0.0, 0.0, 0.0)),
    PointAttractor("nudged", (0.02, 0.0, 0.0)),
    PointAttractor("east", (1.0, 0.0, 0.0)),
    CycleAttractor("ring", radius=1.0),
)
PALETTE = np.array([
    [-0.04, 0.0, 0.0],  # near only
    [0.06, 0.0, 0.0],  # nudged only
    [0.01, 0.0, 0.0],  # near and nudged: a same-sample tie
    [1.0, 0.0, 0.0],  # east and ring: a point/cycle tie
    [0.0, 1.0, 0.0],  # ring only
    [3.0, 3.0, 0.0],  # nothing
    [np.nan, 0.0, 0.0],
    [0.0, np.inf, 0.0],
    [1.0, 0.0, np.nan],  # on the ring's axes, but not finite
])
MISS = 5


@st.composite
def capture_cases(draw):
    attractors = draw(st.permutations(CATALOG))[: draw(st.integers(0, len(CATALOG)))]
    # Stretches of up to twice the persistence, so runs complete, fall
    # one short, and tie.
    stretch = st.tuples(st.integers(0, len(PALETTE) - 1), st.integers(1, 2 * PERSISTENCE))
    cells = [
        [row for row, count in draw(st.lists(stretch, max_size=8)) for _ in range(count)]
        for _ in range(draw(st.integers(1, 4)))
    ]
    length = max(len(cell) for cell in cells)
    cuts = sorted(draw(st.lists(st.integers(0, length), max_size=6)))
    return attractors, cells, cuts


@settings(max_examples=300)
@given(case=capture_cases())
def test_blockwise_capture_walk_matches_the_loop_reference(case):
    attractors, cells, cuts = case
    expected = [
        loop_classify_series(PALETTE[cell], attractors, 0.05, PERSISTENCE)
        for cell in cells
    ]
    for cell, label in zip(cells, expected):
        assert classify_series(PALETTE[cell], attractors, 0.05) == label
    # Padding with misses changes no label; the padded cells are walked
    # together, split into blocks at the drawn cut points (some empty),
    # each holding only the cells _classify kept open.
    length = max(len(cell) for cell in cells)
    history = PALETTE[[cell + [MISS] * (length - len(cell)) for cell in cells]]
    bounds = [0, *cuts, length]

    def blocks():
        rows = np.arange(len(cells))
        for lo, hi in zip(bounds, bounds[1:]):
            keep = yield history[rows, lo:hi]
            rows = rows[keep]

    labels = basin._classify(blocks(), attractors, 0.05)
    assert list(labels) == expected


# -------------------------------------------------------------- operator grids


def test_contracting_operator_labels_every_cell_captured():
    operator = scaling_operator(0.5)
    grid = operator_grid(
        operator, make_system("lho"), ((-2.0, 2.0), (-2.0, 2.0)), 4, steps=60
    )
    assert (grid.labels == "origin").all()
    assert grid.source["kind"] == "operator"
    assert grid.meta["steps"] == 60
    assert grid.meta["dt"] == operator.dt


def test_doubling_operator_diverges_everywhere_but_the_origin_cell():
    operator = scaling_operator(2.0)
    grid = operator_grid(
        operator, make_system("lho"), ((-2.0, 2.0), (-2.0, 2.0)), 5, steps=30
    )
    assert grid.labels[2, 2] == "origin"
    off_center = grid.labels.copy()
    off_center[2, 2] = DIVERGED
    assert (off_center == DIVERGED).all()


def quadratic_delay_operator():
    """A delay-2 quadratic map whose origin attracts the window's lower
    rows and whose quadratic terms carry the upper rows away."""
    config = FeatureConfig(2, 2, 2)
    matrix = np.zeros((2, config.num_features))
    matrix[0, [0, 2, 4]] = 0.5, 0.2, 0.3
    matrix[1, [1, 3, 7]] = 0.5, -0.2, 0.25
    return LearnedOperator(matrix, config, dt=0.1)


def test_single_cell_labels_match_grid_cells():
    # Each cell alone through the loop oracles, which share no code with
    # the grid: a forecast lifted one monomial and summed one term at a
    # time, then a capture count one sample at a time.  The grid labelled
    # in four runs of cells, as the command's chunks are, is the same.
    system = make_system("lho")
    window = ((-3.0, 3.0), (-3.0, 3.0))
    for operator, steps in ((scaling_operator(2.0), 30), (quadratic_delay_operator(), 12)):
        grid = operator_grid(operator, system, window, 5, steps=steps)
        assert len(set(grid.labels.ravel())) >= 2
        scan = basin._operator_scan(operator, system, window, 5, steps=steps)
        chunks = [scan.codes(start, stop) for start, stop in ((0, 6), (6, 12), (12, 18), (18, 25))]
        assert scan.grid(np.concatenate(chunks)).labels.tolist() == grid.labels.tolist()
        exponents = monomial_basis(operator.config).exponents
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                seeds = np.full((1, operator.config.delays, 2), (x, y))
                states, _ = loop_iterate(seeds, steps, exponents, operator.matrix)
                label = loop_classify_series(states[0], system.attractors, 0.05, PERSISTENCE)
                assert label == grid.labels[i, j], (x, y)


def test_operator_cell_diverges_once_it_leaves_the_threshold():
    # Doubling from x = 1 reaches 2**19 < 1e6 < 2**20; the window's other
    # cells start farther out and diverge sooner.
    operator = scaling_operator(2.0)
    system = make_system("lho")
    window = ((1.0, 2.0), (0.0, 1.0))
    assert operator_grid(operator, system, window, 2, steps=19).labels[0, 0] == UNRESOLVED
    assert operator_grid(operator, system, window, 2, steps=20).labels[0, 0] == DIVERGED


def test_fixed_coordinates_slice_higher_dimensional_systems():
    operator = scaling_operator(0.5, num_states=3)
    system = make_system("mfcd")
    with pytest.raises(DimensionError, match="free axes"):
        operator_grid(operator, system, ((-2.0, 2.0), (-2.0, 2.0)), 3, steps=15)
    grid = operator_grid(
        operator,
        system,
        ((-2.0, 2.0), (-2.0, 2.0)),
        3,
        steps=15,
        fixed_coords={2: 1.0},
    )
    # Contraction leaves the cycle band immediately, so nothing captures.
    assert (grid.labels == UNRESOLVED).all()
    assert grid.meta["fixed_coords"] == {2: 1.0}


def test_operator_grid_labels_match_classify_series_on_full_histories():
    system = make_system("two_attractor")
    trajs = [
        integrate(system, ic, (0.0, 4.99), 500)
        for ic in [(-0.5, 1.0), (1.5, -2.0), (0.2, 0.5)]
    ]
    operator = train(trajs, FeatureConfig(2, 2, 3)).operator
    steps = 300
    grid = operator_grid(operator, system, WINDOW, 9, steps=steps)
    assert {"left_sink", "right_sink", DIVERGED, UNRESOLVED} == set(grid.labels.ravel())
    points = np.array([(x, y) for x in grid.xs for y in grid.ys])
    seeds = np.repeat(points[:, None, :], operator.config.delays, axis=1)
    states, _ = iterate_batch(
        seeds, steps, monomial_basis(operator.config), operator.matrix
    )
    for row, label in zip(states, grid.labels.ravel()):
        assert classify_series(row, system.attractors, 0.05) == label

    # A lone cell stops stepping within one block of the sample at which
    # its capture completes, with the same label.  The block source's
    # samples past the seeds are its kernel steps.
    taken = []

    def counting(blocks):
        block = next(blocks)
        while True:
            taken.append(block.shape[1])
            try:
                block = blocks.send((yield block))
            except StopIteration:
                return

    cell = np.flatnonzero(grid.labels.ravel() == "left_sink")[0]
    blocks = basin._operator_blocks(operator, points[cell:cell + 1], steps)
    assert basin._classify(counting(blocks), system.attractors, 0.05)[0] == "left_sink"
    row = states[cell]
    captured_len = next(
        n for n in range(1, len(row) + 1)
        if classify_series(row[:n], system.attractors, 0.05) == "left_sink"
    )
    delays = operator.config.delays
    kernel_steps = sum(taken) - delays
    assert captured_len - delays <= kernel_steps < captured_len - delays + basin._BLOCK
    assert kernel_steps < steps


def test_capture_arguments_are_validated():
    operator = scaling_operator(0.5)
    system = make_system("lho")
    calls = [
        lambda **kw: operator_grid(operator, system, WINDOW, 3, steps=5, **kw),
        lambda **kw: ground_truth_grid(system, WINDOW, 3, steps=100, dt=0.01, **kw),
        lambda **kw: classify_series([[0.0, 0.0]] * 3, system.attractors, **kw),
    ]
    for call in calls:
        for tol in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="tol"):
                call(tol=tol)


def test_operator_grid_validation():
    operator = scaling_operator(0.5)
    with pytest.raises(ValueError, match="no attractors"):
        operator_grid(operator, make_system("lorenz"), WINDOW, 3)
    with pytest.raises(DimensionError, match="states"):
        operator_grid(operator, make_system("mfcd"), WINDOW, 3)
    with pytest.raises(ValueError, match="steps"):
        operator_grid(operator, make_system("lho"), WINDOW, 3, steps=0)
    with pytest.raises(ValueError, match="steps"):
        operator_grid(operator, make_system("lho"), WINDOW, 3, steps=-5)


# ------------------------------------------------------------------ agreement


def test_agreement_fraction_skips_mutually_unresolved_cells():
    truth = plain_grid([["left_sink", UNRESOLVED], ["right_sink", "right_sink"]])
    other = plain_grid([["left_sink", UNRESOLVED], ["left_sink", "right_sink"]])
    result = grid_agreement(truth, other)
    assert result.compared_cells == 3
    assert result.fraction_agree == pytest.approx(2.0 / 3.0)
    # The confusion table still counts all four cells.
    assert result.confusion == {
        "left_sink": {"left_sink": 1},
        "unresolved": {"unresolved": 1},
        "right_sink": {"left_sink": 1, "right_sink": 1},
    }


def test_one_sided_unresolved_counts_as_disagreement():
    truth = plain_grid([["left_sink", UNRESOLVED], [UNRESOLVED, UNRESOLVED]])
    other = plain_grid([["left_sink", "left_sink"], [UNRESOLVED, UNRESOLVED]])
    result = grid_agreement(truth, other)
    assert result.compared_cells == 2
    assert result.fraction_agree == pytest.approx(0.5)


def test_agreement_is_vacuously_perfect_when_nothing_resolves():
    blank = plain_grid([[UNRESOLVED] * 2] * 2)
    result = grid_agreement(blank, plain_grid([[UNRESOLVED] * 2] * 2))
    assert result.compared_cells == 0
    assert result.fraction_agree == 1.0


def test_agreement_with_itself_is_perfect(truth3):
    result = grid_agreement(truth3, truth3)
    assert result.fraction_agree == 1.0
    assert result.compared_cells == 6  # separatrix column unresolved twice
    total = sum(sum(row.values()) for row in result.confusion.values())
    assert total == 9


def test_agreement_rejects_mismatched_grids(truth3):
    shifted = BasinGrid(
        x_range=(-3.0, 4.0),
        y_range=truth3.y_range,
        resolution=3,
        labels=truth3.labels,
        source={},
        meta={},
    )
    with pytest.raises(DimensionError, match="window"):
        grid_agreement(truth3, shifted)
    finer = ground_truth_grid(make_system("two_attractor"), WINDOW, 5, steps=2000, dt=0.005)
    with pytest.raises(DimensionError, match="window"):
        grid_agreement(truth3, finer)
