"""Machine-speed reference for a shared, noisy machine.

On a small shared virtual machine the same work can take 10-20% longer for a whole
run because neighbours load the sibling hardware threads, so raw CPU and wall
times of identical runs disagree by more than any useful bound. The benchmark
therefore runs this fixed piece of pure-Python work (a cluster-by-cluster
NFC walk, a split and a JSON round trip, the same mix of interpreter and
C-library work as the package's hot paths) between client calls, and scales
the CPU part of each call by ``NOMINAL_S / reference time`` measured around
it. Waiting (backend latency, sleeps) is not scaled. Raw values are printed
next to the corrected ones.
"""

from __future__ import annotations

import json
import time
import unicodedata

_TEXT = "Sentence with café and naïve words, 東京 too.  " * 80

# Reference time on a quiet 2-CPU virtual machine (Python 3.11); only ratios matter.
NOMINAL_S = 0.001


def _work() -> int:
    out = []
    i, n = 0, len(_TEXT)
    while i < n:
        j = i + 1
        while j < n and unicodedata.combining(_TEXT[j]):
            j += 1
        for ch in unicodedata.normalize("NFC", _TEXT[i:j]):
            if not ch.isspace():
                out.append(ch)
        i = j
    text = "".join(out)
    return len(json.loads(json.dumps({"words": text.split(), "n": len(text)}))["words"])


def reference_seconds() -> float:
    """CPU seconds this process takes for the fixed reference work now."""
    t0 = time.process_time()
    _work()
    return time.process_time() - t0
