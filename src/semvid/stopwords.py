"""Built-in English stop-word list and the override-file loader.

The list covers ~150 function words. A file with one token per line
(UTF-8, '#' comments allowed) replaces it wholesale.
"""

from __future__ import annotations

from .errors import open_utf8

DEFAULT_STOPWORDS: frozenset[str] = frozenset("""
a about above after again against all am an and any are aren as at be because
been before being below between both but by can cannot could couldn did didn
do does doesn doing don down during each few for from further had hadn has
hasn have haven having he her here hers herself him himself his how i if in
into is isn it its itself just ll me mightn more most mustn my myself needn no
nor not now o of off on once only or other our ours ourselves out over own re
s same shan she should shouldn so some such t than that the their theirs them
themselves then there these they this those through to too under until up ve
very was wasn we were weren what when where which while who whom why will with
won would wouldn y you your yours yourself yourselves
""".split())


def load_stopwords(path) -> frozenset[str]:
    """Read a stop-word override file: one lowercase token per line."""
    words = set()
    with open_utf8(path) as fh:
        for line in fh:
            token = line.split("#", 1)[0].strip().lower()
            if token:
                words.add(token)
    return frozenset(words)
