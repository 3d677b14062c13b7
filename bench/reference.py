"""Fixed reference program, timed next to every job.

It does what the jobs do, without stochsub: start an interpreter, import
numpy, then spend about 0.1 s on exact rational sums in dicts, tuple
windows in sets and a small float matrix-vector loop.  The speed of the
shared benchmark machine drifts by up to 2x within minutes; dividing a
job's time by the time of this program, measured right before it, cancels
most of that drift.  Nothing here may change between the commits being
compared.
"""

import random
from fractions import Fraction

import numpy as np

weights: dict[tuple[int, int], Fraction] = {}
for i in range(6000):
    key = (i % 97, i % 89)
    weights[key] = weights.get(key, Fraction(0)) + Fraction(i % 7, 3)

rng = random.Random(0)
word = tuple(rng.randrange(3) for _ in range(20000))
windows = {word[k:k + 6] for k in range(len(word) - 5)}

mat = np.full((200, 200), 1.0 / 200)
vec = np.full(200, 1.0 / 200)
for _ in range(200):
    vec = mat @ vec
    vec /= vec.sum()

print(len(weights), len(windows), float(vec[0]))
