"""Branch predictor unit tests."""

import pytest

from repro.errors import ConfigurationError
from repro.cpu import (
    AlwaysTaken,
    Bimodal,
    BranchPredictor,
    GShare,
    Machine,
    StaticBTFN,
    make_predictor,
)
from repro.isa import assemble


class TestStatic:
    def test_always_taken(self):
        p = AlwaysTaken()
        assert p.predict(10, 2) and p.predict(2, 10)

    def test_btfn(self):
        p = StaticBTFN()
        assert p.predict(10, 2)  # backward → taken
        assert not p.predict(2, 10)  # forward → not taken
        assert p.predict(5, 5)  # self-loop counts as backward


class TestBimodal:
    def test_learns_taken(self):
        p = Bimodal(entries=16)
        for _ in range(3):
            p.update(4, 0, True)
        assert p.predict(4, 0)

    def test_learns_not_taken(self):
        p = Bimodal(entries=16)
        for _ in range(3):
            p.update(4, 0, False)
        assert not p.predict(4, 0)

    def test_hysteresis(self):
        p = Bimodal(entries=16)
        for _ in range(10):
            p.update(4, 0, True)
        p.update(4, 0, False)  # one anomaly
        assert p.predict(4, 0)  # still predicts taken

    def test_counter_saturation(self):
        p = Bimodal(entries=16)
        for _ in range(100):
            p.update(4, 0, True)
        # two not-taken flips the prediction (saturated at 3, not beyond)
        p.update(4, 0, False)
        p.update(4, 0, False)
        assert not p.predict(4, 0)

    def test_index_aliasing(self):
        p = Bimodal(entries=4)
        for _ in range(3):
            p.update(0, 0, False)
        assert not p.predict(4, 0)  # pc 4 aliases slot 0

    def test_reset(self):
        p = Bimodal(entries=16)
        for _ in range(4):
            p.update(1, 0, False)
        p.reset()
        assert p.predict(1, 0)  # back to weakly taken

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            Bimodal(entries=3)
        with pytest.raises(ConfigurationError):
            Bimodal(entries=0)


class TestGShare:
    def test_history_distinguishes_paths(self):
        p = GShare(entries=64, history_bits=4)
        # Alternating pattern at one pc: bimodal would mispredict ~50%,
        # gshare learns it once history covers the period.
        mispredicts = 0
        taken = True
        for i in range(200):
            if p.predict(8, 0) != taken:
                mispredicts += 1
            p.update(8, 0, taken)
            taken = not taken
        assert mispredicts < 20  # learned the alternation

    def test_reset_clears_history(self):
        p = GShare(entries=64)
        for _ in range(10):
            p.update(1, 0, False)
        p.reset()
        assert p.predict(1, 0)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            GShare(entries=100)
        with pytest.raises(ConfigurationError):
            GShare(history_bits=0)


class TestRegistry:
    def test_make_by_name(self):
        assert isinstance(make_predictor("bimodal"), Bimodal)
        assert isinstance(make_predictor("gshare", entries=64), GShare)
        assert isinstance(make_predictor("static-btfn"), StaticBTFN)
        assert isinstance(make_predictor("always-taken"), AlwaysTaken)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_predictor("oracle")


class RecordingPredictor(BranchPredictor):
    """Predicts taken; records the (pc, target) of every call."""

    name = "recording"

    def __init__(self):
        self.predicted = []
        self.updated = []

    def predict(self, pc, target):
        self.predicted.append((pc, target))
        return True

    def update(self, pc, target, taken):
        self.updated.append((pc, target))


class TestPipelineTargets:
    def test_update_sees_the_target_predict_saw(self):
        # ``top`` is pc 0, so the backward branch's target is the falsy 0.
        program = assemble("top: add r1, 1\ncmp r1, 3\njnz top\nhalt")
        predictor = RecordingPredictor()
        Machine(program, predictor=predictor).run()
        assert predictor.predicted == [(2, 0)] * 3
        assert predictor.updated == predictor.predicted
