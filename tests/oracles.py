"""Reference implementations that the tests compare the package against."""

import numpy as np


class NaiveRankIndex:
    """Array-backed oracle with the same interface as RankIndex."""

    def __init__(self, initial_ranks):
        ranks = np.asarray(initial_ranks, dtype=np.int64)
        self.order = [0] * len(ranks)
        for i, r in enumerate(ranks.tolist()):
            self.order[r] = i

    def rank(self, i: int) -> int:
        return self.order.index(i)

    def move_to_front(self, i: int) -> None:
        self.order.remove(i)
        self.order.insert(0, i)

    def ranks(self) -> np.ndarray:
        out = np.empty(len(self.order), dtype=np.int64)
        for r, i in enumerate(self.order):
            out[i] = r
        return out
