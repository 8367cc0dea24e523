import json

import numpy as np
import pytest

from lurestab import ffnn, problems
from lurestab.errors import (
    DimensionMismatchError,
    InputError,
    NonzeroBiasError,
    NotSisoError,
    ProblemFormatError,
)
from lurestab.ffnn import RELU, TANH, ActivationSpec, Ffnn, Layer
from lurestab.radius import SectorBound

from generators import random_zero_bias_net


def scalar_net(w1, w2, activation=RELU):
    return Ffnn(
        hidden=(Layer.linear(np.atleast_2d(w1)),),
        output=Layer.linear(np.atleast_2d(w2)),
        activation=activation,
    )


@pytest.fixture
def reference_net(example_b):
    return example_b.network


def stack(*inputs) -> np.ndarray:
    """The ``(K, p, 1)`` stack of K inputs of p entries each."""
    return np.array(inputs, dtype=float)[..., None]


class TestEval:
    def test_zero_weights_return_output_bias(self):
        net = Ffnn(
            hidden=(Layer(np.zeros((2, 3)), np.zeros(2)),),
            output=Layer(np.zeros((1, 2)), np.array([0.7])),
            activation=RELU,
        )
        assert ffnn.ffnn_eval(net, stack(np.zeros(3)))[0, :, 0] == pytest.approx([0.7])

    def test_relu_identity_chain_on_nonnegative_input(self):
        net = Ffnn(
            hidden=(Layer.linear(np.eye(3)),),
            output=Layer.linear(np.eye(3)),
            activation=RELU,
        )
        z = np.array([0.5, 2.0, 0.0])
        assert ffnn.ffnn_eval(net, stack(z))[0, :, 0] == pytest.approx(z)

    def test_origin_is_fixed_for_zero_bias(self, rng):
        for _ in range(20):
            net = random_zero_bias_net(rng)
            out = ffnn.ffnn_eval(net, stack(np.zeros(net.input_dim)))
            assert np.array_equal(out, np.zeros((1, net.output_dim, 1)))

    def test_batch_matches_single(self, rng):
        # bit for bit: a simulated block's columns must equal their runs alone
        for _ in range(20):
            net = random_zero_bias_net(rng)
            z = rng.uniform(0.0, 5.0, size=(7, net.input_dim, 1))
            out = ffnn.ffnn_eval(net, z)
            assert out.shape == (7, net.output_dim, 1)
            for k in range(7):
                assert np.array_equal(out[k : k + 1], ffnn.ffnn_eval(net, z[k : k + 1]))

    def test_layer_bias_is_a_column(self):
        assert Layer(np.ones((3, 2)), [0.1, 0.2, 0.3]).b.shape == (3, 1)
        assert Layer.linear(np.ones((2, 4))).b.shape == (2, 1)

    def test_dimension_mismatch(self):
        net = scalar_net([[2.0]], [[1.0]])
        with pytest.raises(DimensionMismatchError, match=r"must be a \(K, 1, 1\) stack"):
            ffnn.ffnn_eval(net, stack(np.zeros(3)))
        # a single input or a (p, K) batch is not a stack
        for z in (np.zeros(1), np.zeros((1, 4)), np.zeros((4, 1, 2))):
            with pytest.raises(DimensionMismatchError, match=r"\(K, 1, 1\) stack, got shape"):
                ffnn.ffnn_eval(net, z)

    def test_tanh_activation_applied(self):
        net = scalar_net([[2.0]], [[1.0]], activation=TANH)
        assert ffnn.ffnn_eval(net, stack([1.0]))[0, :, 0] == pytest.approx([np.tanh(2.0)])


class TestSectorBound:
    def test_scalar_product_of_absolute_values(self):
        net = scalar_net([[2.0]], [[-3.0]])
        bound = ffnn.sector_bound_ffnn(net)
        assert bound.upper == pytest.approx(np.array([[6.0]]))
        assert bound.lower == pytest.approx(np.array([[-6.0]]))

    def test_zero_network(self):
        net = scalar_net([[0.0]], [[0.0]])
        bound = ffnn.sector_bound_ffnn(net)
        assert np.array_equal(bound.upper, [[0.0]])

    def test_reference_network_bound(self, reference_net):
        bound = ffnn.sector_bound_ffnn(reference_net)
        assert abs(bound.upper[0, 0] - 0.91) <= 1e-12
        assert np.array_equal(bound.lower, -bound.upper)

    def test_nonzero_bias_rejected_with_layer_indices(self):
        net = Ffnn(
            hidden=(Layer(np.ones((2, 1)), np.array([0.0, 0.1])),),
            output=Layer(np.ones((1, 2)), np.zeros(1)),
            activation=RELU,
        )
        with pytest.raises(NonzeroBiasError) as exc_info:
            ffnn.sector_bound_ffnn(net)
        assert exc_info.value.layers == [1]

    def test_scaling_one_hidden_layer_scales_bound(self, rng):
        net = random_zero_bias_net(rng)
        s = 3.0
        scaled_hidden = (Layer.linear(s * net.hidden[0].w),) + net.hidden[1:]
        scaled = Ffnn(hidden=scaled_hidden, output=net.output, activation=net.activation)
        base = ffnn.sector_bound_ffnn(net).upper
        assert ffnn.sector_bound_ffnn(scaled).upper == pytest.approx(s * base)

    def test_activation_gain_enters_with_depth(self):
        half = ActivationSpec("custom_half", -0.5, 0.5)
        net = Ffnn(
            hidden=(Layer.linear([[1.0]]), Layer.linear([[1.0]])),
            output=Layer.linear([[4.0]]),
            activation=half,
        )
        bound = ffnn.sector_bound_ffnn(net)
        assert bound.upper == pytest.approx(np.array([[0.25 * 4.0]]))


class TestEmpiricalSectorCheck:
    def test_own_bound_has_no_violations(self, rng):
        for _ in range(10):
            net = random_zero_bias_net(rng)
            bound = ffnn.sector_bound_ffnn(net)
            check = ffnn.empirical_sector_check(net, bound, samples=500, seed=7)
            assert check.count == 0

    def test_degenerate_sector_is_violated(self):
        net = scalar_net([[1.0]], [[1.0]])
        sector = SectorBound.scalar(0.0, 0.0)
        check = ffnn.empirical_sector_check(net, sector, samples=100, seed=1)
        assert check.count > 0

    def test_reference_net_violates_refined_candidate(self, reference_net):
        refined = SectorBound.scalar(-0.91, 0.25)
        check = ffnn.empirical_sector_check(reference_net, refined, samples=1000, seed=42)
        assert check.count > 0
        assert check.max_ratio > 1.0

    def test_max_ratio_for_linear_gain_net(self, reference_net):
        bound = ffnn.sector_bound_ffnn(reference_net)
        check = ffnn.empirical_sector_check(reference_net, bound, samples=200, seed=3)
        # the reference net realizes its own upper bound on positive inputs
        assert check.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_seeded_reproducibility(self, reference_net):
        sector = SectorBound.scalar(-0.91, 0.25)
        a = ffnn.empirical_sector_check(reference_net, sector, samples=64, seed=5)
        b = ffnn.empirical_sector_check(reference_net, sector, samples=64, seed=5)
        assert a.count == b.count and a.max_ratio == b.max_ratio

    def test_negative_seed_is_input_error(self, reference_net):
        bound = ffnn.sector_bound_ffnn(reference_net)
        with pytest.raises(InputError, match="seed must be nonnegative"):
            ffnn.empirical_sector_check(reference_net, bound, seed=-1)


class TestSelectRefinedSign:
    def test_positive_net_selects_positive(self):
        net = scalar_net([[1.0]], [[0.9]])
        lower = ffnn.sector_bound_ffnn(net).lower
        chosen, _ = ffnn.select_refined_sign(net, 0.5, lower, samples=200, seed=2)
        assert chosen.upper[0, 0] == pytest.approx(0.5)

    def test_negated_net_selects_negative(self):
        net = scalar_net([[1.0]], [[-0.9]])
        lower = ffnn.sector_bound_ffnn(net).lower
        chosen, _ = ffnn.select_refined_sign(net, 0.5, lower, samples=200, seed=2)
        assert chosen.upper[0, 0] == pytest.approx(-0.5)

    def test_reference_net_keeps_positive_sign_but_violates(self, reference_net):
        lower = ffnn.sector_bound_ffnn(reference_net).lower
        chosen, check = ffnn.select_refined_sign(reference_net, 0.25, lower, samples=500, seed=42)
        assert chosen.upper[0, 0] == pytest.approx(0.25)
        assert check == ffnn.empirical_sector_check(reference_net, chosen, samples=500, seed=42)
        assert check.count > 0

    def test_requires_scalar_network(self):
        net = Ffnn(
            hidden=(Layer.linear(np.ones((2, 2))),),
            output=Layer.linear(np.ones((2, 2))),
            activation=RELU,
        )
        with pytest.raises(NotSisoError):
            ffnn.select_refined_sign(net, 0.5, -np.ones((2, 2)))


class TestWeightProductBoundSoundness:
    def test_random_networks_stay_inside_their_bound(self, rng):
        # smaller inline version; the acceptance suite runs the full census
        for _ in range(25):
            net = random_zero_bias_net(rng)
            bound = ffnn.sector_bound_ffnn(net)
            check = ffnn.empirical_sector_check(net, bound, samples=400, seed=11)
            assert check.count == 0


class TestSerialization:
    def test_weight_count_mismatch(self, tmp_path):
        bad = {
            "activation": {"name": "relu"},
            "layers": [{"rows": 2, "cols": 2, "weights": [1.0, 2.0, 3.0], "bias": [0, 0]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ProblemFormatError):
            problems.load_ffnn(path)

    def test_dimension_chain_mismatch(self, tmp_path):
        bad = {
            "activation": {"name": "relu"},
            "layers": [
                {"rows": 2, "cols": 1, "weights": [1.0, 1.0], "bias": [0, 0]},
                {"rows": 1, "cols": 3, "weights": [1.0, 1.0, 1.0], "bias": [0]},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ProblemFormatError):
            problems.load_ffnn(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError):
            problems.load_ffnn(path)

    def test_non_finite_weights(self, tmp_path):
        bad = {
            "activation": {"name": "relu"},
            "layers": [{"rows": 1, "cols": 1, "weights": [float("nan")], "bias": [0]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad).replace("NaN", "NaN"))
        with pytest.raises(ProblemFormatError):
            problems.load_ffnn(path)

    def test_custom_activation_needs_slopes(self, tmp_path):
        bad = {
            "activation": {"name": "swish"},
            "layers": [{"rows": 1, "cols": 1, "weights": [1.0], "bias": [0]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ProblemFormatError):
            problems.load_ffnn(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError):
            problems.load_ffnn(tmp_path / "nope.json")


class TestActivationSpec:
    def test_builtin_sectors(self):
        assert (RELU.a1, RELU.a2) == (0.0, 1.0)
        assert (TANH.a1, TANH.a2) == (0.0, 1.0)

    def test_slope_gain(self):
        assert ActivationSpec("x", -2.0, 0.5).slope_gain == 2.0

    def test_invalid_sector(self):
        with pytest.raises(ValueError):
            ActivationSpec("x", 1.0, 1.0)

    def test_custom_eval_without_callable_fails(self):
        custom = ActivationSpec("mystery", -1.0, 1.0)
        net = scalar_net([[1.0]], [[1.0]], activation=custom)
        with pytest.raises(ValueError):
            ffnn.ffnn_eval(net, np.zeros((1, 1, 1)))
