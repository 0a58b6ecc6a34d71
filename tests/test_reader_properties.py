"""Property tests: the ranked TSV and truth CSV readers against their
line-by-line oracles.

Generated files mix valid rows with each fault a reader must name: blank
lines, headers out of place, events split into runs, wrong column counts,
non-numeric scores, repeated videos, bad labels, repeated (event, video)
pairs and quoted CSV fields (some spanning lines). Each reader returns what
its oracle returns, or raises the same error with the same file and line.
"""

import csv
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semvid.errors import SemvidError  # noqa: E402
from semvid.evaluation import load_truth  # noqa: E402
from semvid.ranked import read_ranked_tsv  # noqa: E402

from oracles import ranked_tsv_oracle, truth_csv_oracle  # noqa: E402

# "event_id" is also an event id, so a header row can follow its rows
EVENTS = ["e0", "e1", " e2", "event_id"]
VIDEOS = ["v0", "v1", "v2", "v 3", "v,4", 'v"5']
HEADER = "event_id\trank\tvideo_id\tscore"
SCORES = st.one_of(
    st.floats(allow_nan=False).map(lambda x: f"{x:.6f}"),
    st.floats().map(repr),
    st.sampled_from(["1e-300", "-0", " 0.5 ", "nan", "-inf", "1_0"]),
)
BAD_SCORES = st.sampled_from(["", "abc", "0.5x", "1,5", "--1", "0x1"])
TSV_FAULTS = ["blank", "header", "columns", "score", "twice", "split"]
TEXT = st.text(alphabet="ab \t", max_size=4)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def outcome(read, path):
    """What ``read(path)`` gives: ("ok", repr of the result), which also
    compares NaN scores and float bits, or ("error", type, message)."""
    try:
        return ("ok", repr(read(path)))
    except SemvidError as exc:
        return ("error", type(exc), str(exc))


@st.composite
def ranked_files(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(EVENTS), st.sampled_from(VIDEOS)),
                          unique=True, max_size=24))
    if draw(st.booleans()):  # one run per event, as write_ranked_tsv writes it
        pairs.sort(key=lambda pair: EVENTS.index(pair[0]))
    lines = [f"{e}\t{rank}\t{v}\t{draw(SCORES)}" for rank, (e, v) in enumerate(pairs, start=1)]
    if draw(st.booleans()):
        lines.insert(0, HEADER)
    for fault in draw(st.lists(st.sampled_from(TSV_FAULTS), max_size=2)):
        event, video = draw(st.sampled_from(pairs)) if pairs else ("e0", "v0")
        line = {
            "blank": "",
            "header": HEADER,
            "columns": "\t".join(draw(st.lists(TEXT, min_size=1, max_size=6).filter(
                lambda fields: len(fields) != 4))),
            "score": f"{event}\t1\t{video}\t{draw(BAD_SCORES)}",
            "twice": f"{event}\t1\t{video}\t{draw(SCORES)}",
            "split": f"{event}\t1\t{draw(st.sampled_from(VIDEOS))}\t{draw(SCORES)}",
        }[fault]
        at = len(lines) if fault == "split" else draw(st.integers(0, len(lines)))
        lines.insert(at, line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + (ending if draw(st.booleans()) else "")


@given(text=ranked_files())
@settings(max_examples=400, deadline=None)
def test_ranked_tsv_reader_matches_line_oracle(workdir, text):
    path = workdir / "ranked.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_ranked_tsv, path) == outcome(ranked_tsv_oracle, path)


LABELS = st.sampled_from(["0", "1", " 1", "0 "])
BAD_LABELS = st.sampled_from(["2", "", "yes", "1.0", "label", " Label "])
TRUTH_FAULTS = ["blank", "header", "label", "repeat", "columns"]
TRUTH_HEADERS = [["event_id", "video_id", "label"], ["event", "video", " LABEL "]]


def csv_text(rows, quote_all: bool, ending: str) -> str:
    buffer = io.StringIO()
    quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    writer = csv.writer(buffer, quoting=quoting, lineterminator=ending)
    for row in rows:
        if row:
            writer.writerow(row)
        else:
            buffer.write(ending)  # a blank line, which csv.reader reads as []
    return buffer.getvalue()


@st.composite
def truth_files(draw):
    # a video id may hold a comma, a quote or a line break, so its field is
    # quoted and one record can span two lines
    videos = VIDEOS + ["v\n6"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(EVENTS), st.sampled_from(videos)),
                          unique=True, max_size=24))
    rows = [[e, v, draw(LABELS)] for e, v in pairs]
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(TRUTH_HEADERS)))
    for fault in draw(st.lists(st.sampled_from(TRUTH_FAULTS), max_size=2)):
        event, video = draw(st.sampled_from(pairs)) if pairs else ("e0", "v0")
        row = {
            "blank": [],
            "header": draw(st.sampled_from(TRUTH_HEADERS)),
            "label": [event, video, draw(BAD_LABELS)],
            "repeat": [f" {event}", video, draw(LABELS)],
            "columns": draw(st.lists(TEXT, min_size=1, max_size=5).filter(
                lambda fields: len(fields) != 3)),
        }[fault]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return csv_text(rows, draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n"])))


@given(text=truth_files())
@settings(max_examples=400, deadline=None)
def test_truth_reader_matches_record_oracle(workdir, text):
    path = workdir / "truth.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_truth, path) == outcome(truth_csv_oracle, path)
