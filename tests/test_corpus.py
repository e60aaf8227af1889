import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phqreg import corpus
from phqreg.corpus import (
    LABELS_HEADER,
    LANDMARK_HEADER,
    AudioSignal,
    LandmarkSequence,
    ParseError,
    Speaker,
    TurnRecord,
    load_labels,
    load_landmarks,
    load_transcript,
    load_wav,
    save_labels,
    save_landmarks,
    save_transcript,
    save_wav,
    tokenize,
)

HEADER = "start_time\tstop_time\tspeaker\tvalue"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestTranscript:
    def test_basic_row(self, tmp_path):
        p = write(tmp_path, "t.tsv", HEADER + "\n5.0\t7.2\tParticipant\ti feel <laughter> fine\n")
        turns = load_transcript(p)
        assert turns == [TurnRecord(5.0, 7.2, Speaker.PARTICIPANT, ("i", "feel", "<laughter>", "fine"))]

    def test_header_only(self, tmp_path):
        assert load_transcript(write(tmp_path, "t.tsv", HEADER + "\n")) == []

    def test_speaker_mapping_case_insensitive(self, tmp_path):
        p = write(tmp_path, "t.tsv", HEADER + "\n0.0\t1.0\tELLIE\thello\n1.5\t2.0\tPARTICIPANT\thi\n")
        turns = load_transcript(p)
        assert [t.speaker for t in turns] == [Speaker.AGENT, Speaker.PARTICIPANT]

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("abc\t7.0\tParticipant\thi", "non-numeric"),
            ("5.0\t5.0\tParticipant\thi", "stop"),
            ("5.0\t4.0\tParticipant\thi", "stop"),
            ("5.0\t7.0\tIntruder\thi", "unknown speaker"),
            ("5.0\t7.0\thi", "fields"),
            ("0.5\tinf\tParticipant\thello there", "non-finite"),
            ("-inf\t7.0\tParticipant\thi", "non-finite"),
            ("nan\t7.0\tParticipant\thi", "non-finite"),
            ("5.0\tnan\tParticipant\thi", "non-finite"),
        ],
    )
    def test_malformed_rows_name_line(self, tmp_path, row, fragment):
        p = write(tmp_path, "t.tsv", HEADER + "\n0.0\t1.0\tEllie\tok\n" + row + "\n")
        with pytest.raises(ParseError) as err:
            load_transcript(p)
        assert err.value.line == 3
        assert fragment in str(err.value)

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError):
            load_transcript(write(tmp_path, "t.tsv", "a\tb\tc\td\n"))

    def test_rows_out_of_start_order_name_path_and_line(self, tmp_path):
        rows = ["2.0\t3.0\tEllie\thello", "2.0\t2.5\tParticipant\thi", "", "1.0\t4.0\tParticipant\tok"]
        assert len(load_transcript(write(tmp_path, "ok.tsv", "\n".join([HEADER, *rows[:2]]) + "\n"))) == 2
        p = write(tmp_path, "t.tsv", "\n".join([HEADER, *rows]) + "\n")
        with pytest.raises(ParseError) as err:
            load_transcript(p)
        assert (err.value.path, err.value.line) == (str(p), 5)
        assert str(err.value) == f"{p}:5: start (1.0) before the previous row's (2.0)"

    def test_roundtrip_identical(self, tmp_path):
        rows = [
            "0.5\t2.25\tEllie\thow are you",
            "3.0\t4.75\tParticipant\tum i <sigh> don't know",
            "5.0\t6.0\tParticipant\t<laughter> fine",
        ]
        p = write(tmp_path, "t.tsv", HEADER + "\n" + "\n".join(rows) + "\n")
        turns = load_transcript(p)
        save_transcript(turns, tmp_path / "copy.tsv")
        assert load_transcript(tmp_path / "copy.tsv") == turns


class TestTokenize:
    def test_annotations_kept_whole(self):
        assert tokenize("i feel <laughter> fine") == ("i", "feel", "<laughter>", "fine")

    def test_embedded_annotation_split_out(self):
        assert tokenize("fine<laughter> ok") == ("fine", "<laughter>", "ok")

    def test_annotations_lowercased_words_kept(self):
        assert tokenize("OK <Laughter>") == ("OK", "<laughter>")


class TestLandmarks:
    def make_rows(self, n, n_coords=204, start_ts=0.0, step=0.5, success=None):
        rows = [",".join(LANDMARK_HEADER)]
        for i in range(n):
            flag = 1 if success is None else int(success[i])
            cells = [str(i), str(start_ts + i * step), "0.9", str(flag)]
            cells += [str(0.1 * j + i) for j in range(n_coords)]
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"

    def test_parse_shapes(self, tmp_path):
        p = write(tmp_path, "l.csv", self.make_rows(3))
        seq = load_landmarks(p)
        assert len(seq) == 3
        assert seq.points.shape == (3, 68, 3)

    def test_success_false_retained(self, tmp_path):
        p = write(tmp_path, "l.csv", self.make_rows(2, success=[1, 0]))
        seq = load_landmarks(p)
        assert seq.success.tolist() == [True, False]

    def test_wrong_column_count(self, tmp_path):
        p = write(tmp_path, "l.csv", self.make_rows(1, n_coords=203))
        with pytest.raises(ParseError):
            load_landmarks(p)

    def test_non_monotone_timestamps(self, tmp_path):
        text = self.make_rows(2, step=-0.5, start_ts=1.0)
        with pytest.raises(ParseError):
            load_landmarks(write(tmp_path, "l.csv", text))

    def test_non_monotone_timestamp_names_its_own_line_after_blank_lines(self, tmp_path):
        header, *rows = self.make_rows(3).splitlines()
        rows = [row.split(",") for row in rows]
        for row, ts in zip(rows, ("0", "1", "0.5")):
            row[1] = ts
        text = "\n".join([header, ",".join(rows[0]), "", "", ",".join(rows[1]), ",".join(rows[2])]) + "\n"
        with pytest.raises(ParseError, match=r"l\.csv:6: timestamps must be strictly increasing"):
            load_landmarks(write(tmp_path, "l.csv", text))

    @pytest.mark.parametrize("column, cell", [
        ("success", "inf"), ("success", "nan"), ("success", "0.7"), ("success", "1.9"), ("success", "-0.5"),
        ("timestamp", "nan"), ("timestamp", "inf"), ("confidence", "-inf"), ("X0", "nan"), ("Z67", "inf"),
    ])
    def test_bad_flag_or_non_finite_value_names_its_line(self, tmp_path, column, cell):
        reason = f"success flag must be 0 or 1, got {cell!r}" if column == "success" else f"non-finite {column} {cell!r}"
        header, *rows = self.make_rows(3).splitlines()
        cells = rows[1].split(",")
        cells[LANDMARK_HEADER.index(column)] = cell
        path = write(tmp_path, "l.csv", "\n".join([header, rows[0], ",".join(cells), rows[2]]) + "\n")
        with pytest.raises(ParseError) as err:
            load_landmarks(path)
        assert str(err.value) == f"{path}:3: {reason}"

    @pytest.mark.parametrize("flag", ["0", "1"])
    @pytest.mark.parametrize("reader", ["table", "rows"])
    def test_coinciding_points_name_their_line(self, tmp_path, reader, flag):
        """A frame whose 68 points coincide cannot be normalized, whether or not it tracked, whether numpy parses
        the file as a table or float() parses its rows."""
        header, *rows = self.make_rows(4).splitlines()
        cells = rows[2].split(",")
        rows[2] = ",".join(cells[:3] + [flag] + ["7.25"] * 204)
        if reader == "rows":  # float() reads 1_0, numpy does not
            rows[0] = rows[0].replace(",0.9,", ",1_0,", 1)
        path = write(tmp_path, "l.csv", "\n".join([header, *rows]) + "\n")
        with pytest.raises(ParseError) as err:
            load_landmarks(path)
        assert str(err.value) == f"{path}:4: all 68 landmarks coincide"

    @pytest.mark.parametrize("last, refused", [("7.5", False), ("1e-90", False), ("1e-200", True)])
    def test_points_that_differ_in_one_cell(self, tmp_path, last, refused):
        """Points within COINCIDENT_MM coincide: the squares face.normalized_coords sums would round to 0."""
        header, *rows = self.make_rows(2).splitlines()
        rows[1] = ",".join(rows[1].split(",")[:4] + ["0"] * 203 + [last])
        path = write(tmp_path, "l.csv", "\n".join([header, *rows]) + "\n")
        if refused:
            with pytest.raises(ParseError, match=r":3: all 68 landmarks coincide$"):
                load_landmarks(path)
        else:
            assert load_landmarks(path).points[1, 67].tolist() == [0.0, 0.0, float(last)]

    def test_coordinate_layout_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        seq = LandmarkSequence(
            timestamps=np.array([0.0, 0.5]),
            confidence=np.array([0.9, 0.8]),
            success=np.array([True, False]),
            points=rng.normal(size=(2, 68, 3)),
        )
        save_landmarks(seq, tmp_path / "l.csv")
        back = load_landmarks(tmp_path / "l.csv")
        np.testing.assert_allclose(back.points, seq.points)
        assert back.success.tolist() == [True, False]

    def interleaved_header(self):
        cols = ["frame", "timestamp", "confidence", "success"]
        return ",".join(cols + [f"{axis}{i}" for i in range(68) for axis in "XYZ"])

    @pytest.mark.parametrize("header", ["garbage", "interleaved"])
    def test_bad_header_rejected(self, tmp_path, header):
        rows = self.make_rows(2).splitlines()
        rows[0] = self.interleaved_header() if header == "interleaved" else header
        with pytest.raises(ParseError, match=r"l\.csv:1: bad header"):
            load_landmarks(write(tmp_path, "l.csv", "\n".join(rows) + "\n"))

    def test_header_spaces_ignored(self, tmp_path):
        rows = self.make_rows(2).splitlines()
        rows[0] = rows[0].replace(",", ", ")
        assert len(load_landmarks(write(tmp_path, "l.csv", "\n".join(rows) + "\n"))) == 2


def load_landmarks_oracle(path) -> LandmarkSequence:
    """load_landmarks before numpy parsed the rows: one Python float per cell, each row checked in file order.

    A row's flag, then its finiteness, then its 68 points (which must not all coincide), then its coordinates
    (none beyond FAR_MM) are checked as it is read; the timestamps (increasing, none more than MAX_SPAN_S after
    the first) once every row is read.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected a header line")
    found = tuple(h.strip() for h in lines[0].split(","))
    if found != LANDMARK_HEADER:
        got, want = found + (None,), LANDMARK_HEADER + (None,)
        col = next(i for i in range(len(got)) if got[i] != want[i])
        raise ParseError(path, 1, f"bad header: column {col + 1} is {got[col]!r}, expected {want[col]!r}")
    linenos, ts, conf, succ, pts = [], [], [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != len(LANDMARK_HEADER):
            raise ParseError(path, lineno, f"expected {len(LANDMARK_HEADER)} comma-separated fields, got {len(parts)}")
        try:
            vals = np.array([float(p) for p in parts], dtype=np.float64)
        except ValueError:
            raise ParseError(path, lineno, "non-numeric value") from None
        if vals[3] not in (0.0, 1.0):
            raise ParseError(path, lineno, f"success flag must be 0 or 1, got {parts[3]!r}")
        if not np.isfinite(vals).all():
            col = int(np.argmin(np.isfinite(vals)))
            raise ParseError(path, lineno, f"non-finite {LANDMARK_HEADER[col]} {parts[col]!r}")
        if max(max(axis) - min(axis) for axis in vals[4:].reshape(3, 68).tolist()) < corpus.COINCIDENT_MM:
            raise ParseError(path, lineno, "all 68 landmarks coincide")
        for col in range(4, len(LANDMARK_HEADER)):
            if abs(vals[col]) > corpus.FAR_MM:
                raise ParseError(path, lineno, f"{LANDMARK_HEADER[col]} {parts[col]!r} is beyond 1e+100 mm")
        linenos.append(lineno)
        ts.append(vals[1])
        conf.append(vals[2])
        succ.append(vals[3] == 1.0)
        pts.append(vals[4:].reshape(3, 68).T)
    ts = np.array(ts)
    if len(ts) > 1 and not np.all(np.diff(ts) > 0):
        bad = int(np.argmax(np.diff(ts) <= 0))
        raise ParseError(path, linenos[bad + 1], "timestamps must be strictly increasing")
    for lineno, t in zip(linenos, ts.tolist()):
        if t > float(ts[0]) + corpus.MAX_SPAN_S:
            raise ParseError(path, lineno, f"timestamp {t} is over 86400 s after the first frame")
    return LandmarkSequence(ts, np.array(conf), np.array(succ), np.array(pts).reshape(-1, 68, 3))


def landmark_outcome(load, path):
    """What ``load`` makes of ``path``: each array's dtype, shape and bytes, or the ParseError's path, line and text."""
    try:
        seq = load(path)
    except ParseError as exc:
        return ("refused", exc.path, exc.line, str(exc))
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in (seq.timestamps, seq.confidence, seq.success, seq.points))


# cells that float() and np.loadtxt may read alike or differently, or that a check refuses
ODD_CELLS = ["#", "1_0", "\uff11", "\u0661", "nan", "inf", "-INF", "x", "", " 2.5 ", "+3", ".5", "5.", "1E5", "-0",
             "1e400", "\u30001", "0x10"]
ODD_FLAGS = ["0", "1", "1.0", "-0", "0.7", "2", "nan", " 1"]
FAR_CELLS = ["1e100", "-1e100", "1.0000000000000002e100", "-3e200", "1e308", "1_0e200"]


@st.composite
def landmark_files(draw):
    """The text of a landmark CSV: seeded rows, a few odd cells, flags or timestamps, rows whose points coincide,
    coordinates beyond FAR_MM, frames late after the first, and blank lines and line ends."""
    n = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ts = np.cumsum(rng.uniform(0.01, 1.0, n))
    rows = [[str(i), repr(float(ts[i])), repr(float(rng.uniform(0.0, 1.0))), str(int(rng.integers(0, 2)))]
            + [repr(float(v)) for v in rng.normal(0.0, 50.0, 204)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        change = draw(st.sampled_from(["cell", "flag", "timestamp", "short", "coincide", "far", "late"]))
        if change == "cell":
            row[draw(st.integers(1, 207))] = draw(st.sampled_from(ODD_CELLS))
        elif change == "flag":
            row[3] = draw(st.sampled_from(ODD_FLAGS))
        elif change == "timestamp":  # equal to or before every earlier frame's
            row[1] = draw(st.sampled_from([row[1], "0", "-1.5"]))
        elif change == "far":  # FAR_MM itself is not beyond it
            row[draw(st.integers(4, 207))] = draw(st.sampled_from(FAR_CELLS))
        elif change == "late":  # at, just past or far past MAX_SPAN_S after the first frame
            first = float(ts[0]) + corpus.MAX_SPAN_S
            row[1] = draw(st.sampled_from([repr(first), repr(float(np.nextafter(first, np.inf))), "1e13", "1.7e308"]))
        elif change == "coincide":  # -0 and 0 are one point; 1_0 sends the file to the row reader
            cells = draw(st.sampled_from([["0", "-0"], ["12.5"], ["1_0"], ["nan"], ["-inf"], ["0", "1e-200"],
                                          ["0", "1e-50"]]))
            row[4:] = [cells[j % len(cells)] for j in range(204)]
        else:
            del row[draw(st.integers(0, len(row) - 1))]
    lines = [",".join(LANDMARK_HEADER)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t", " \t "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(landmark_files())
def test_landmark_loader_matches_the_row_by_row_oracle(tmp_path, text):
    path = tmp_path / "l.csv"
    path.write_bytes(text.encode("utf-8"))
    assert landmark_outcome(load_landmarks, path) == landmark_outcome(load_landmarks_oracle, path)


@pytest.mark.parametrize("data", ["", "\n", "\n\n  \n", "\r\n\t\r\n"])
def test_header_only_landmark_file_loads_empty_without_a_warning(tmp_path, capfd, data):
    path = write(tmp_path, "l.csv", ",".join(LANDMARK_HEADER) + data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = load_landmarks(path)
    assert len(seq) == 0 and seq.points.shape == (0, 68, 3)
    assert landmark_outcome(load_landmarks, path) == landmark_outcome(load_landmarks_oracle, path)
    assert capfd.readouterr().err == ""


def test_clean_landmark_file_is_parsed_by_numpy_alone(tmp_path, monkeypatch):
    """CRLF line ends and blank lines keep a file on numpy's parser; only what numpy refuses goes to float()."""
    text = TestLandmarks().make_rows(3).replace("\n", "\r\n").replace("\r\n", "\r\n  \r\n\r\n", 1)
    path = write(tmp_path, "l.csv", text)
    want = landmark_outcome(load_landmarks_oracle, path)
    refused = write(tmp_path, "refused.csv", text.replace(",0.9,", ",1_0,", 1))

    def refuse(cell):
        raise AssertionError(f"float() parsed {cell!r}")

    monkeypatch.setattr(corpus, "float", refuse, raising=False)
    assert landmark_outcome(load_landmarks, path) == want
    with pytest.raises(AssertionError, match="float"):
        load_landmarks(refused)


# each loader's header, one good row, the row with one field too few, and a non-numeric row
LOADERS = {
    "transcript": (load_transcript, "t.tsv", HEADER, "0.0\t1.0\tEllie\thi", "0.0\t1.0\tEllie", "x\t1.0\tEllie\thi"),
    "landmarks": (
        load_landmarks, "l.csv", ",".join(LANDMARK_HEADER),
        ",".join(["0", "0.0", "0.9", "1"] + [str(0.5 * j) for j in range(204)]),
        ",".join(["0", "0.0", "0.9", "1"] + ["0.5"] * 203),
        ",".join(["1", "0.5", "0.9", "1"] + ["0.5"] * 203 + ["x"]),
    ),
    "labels": (load_labels, "labels.csv", ",".join(LABELS_HEADER), "300,0,3", "301,1", "301,1,x"),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("case", ["empty", "bad_header", "field_count", "non_numeric", "not_utf8"])
def test_loader_refusal_names_path_and_line(tmp_path, kind, case):
    load, name, header, good, short, non_numeric = LOADERS[kind]
    text, line = {
        "empty": ("", 1),
        "bad_header": ("garbage\n" + good + "\n", 1),
        "field_count": ("\n".join([header, good, short]) + "\n", 3),
        "non_numeric": ("\n".join([header, good, "", "  ", non_numeric]) + "\n", 5),
        "not_utf8": ("\r\n".join([header, good, "ab\udce9c"]) + "\r\n", 3),  # the byte 0xe9 on line 3
    }[case]
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert load(write(tmp_path, "ok_" + name, header + "\n" + good + "\n"))
    with pytest.raises(ParseError) as err:
        load(path)
    assert (err.value.path, err.value.line) == (str(path), line)
    assert str(err.value).startswith(f"{path}:{line}: ")


# line breaks that text-mode reads translate or str.splitlines cuts at, a BOM, and non-ASCII text
TEXT_PIECES = ["a", "1,2", " ", "\t", "é", "\u2028", "\x85", "\x0c", "\ufeff", "\n", "\r", "\r\n"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(TEXT_PIECES)).map("".join))
def test_read_text_gives_what_a_text_mode_read_gives(tmp_path, text):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    assert corpus.read_text(path) == path.read_text(encoding="utf-8")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.sampled_from(TEXT_PIECES)).map("".join),
    st.sampled_from([b"\x80", b"\xe9", b"\xff"]),
    st.lists(st.sampled_from(TEXT_PIECES)).map("".join),
)
def test_read_text_names_the_line_of_the_first_bad_byte(tmp_path, before, bad, after):
    path = tmp_path / "t.txt"
    path.write_bytes(before.encode("utf-8") + bad + after.encode("utf-8"))
    # the bad byte decodes to the one U+FFFD; its line, as str.splitlines cuts lines
    lines = path.read_bytes().decode("utf-8", errors="replace").splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if "\ufffd" in text)
    with pytest.raises(ParseError) as err:
        corpus.read_text(path)
    assert str(err.value) == f"{path}:{line}: byte 0x{bad[0]:02x} is not UTF-8"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: byte 0x{bad[0]:02x} is not UTF-8$"):
        corpus.read_text(path, ValueError)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        labels = {"301": 4, "302": 15}
        save_labels(labels, tmp_path / "labels.csv")
        assert load_labels(tmp_path / "labels.csv") == labels

    def test_binary_column_parsed_but_unused(self, tmp_path):
        p = write(tmp_path, "labels.csv", "Participant_ID,PHQ8_Binary,PHQ8_Score\n301,1,3\n")
        assert load_labels(p) == {"301": 3}

    def test_repeated_participant_rejected(self, tmp_path):
        p = write(tmp_path, "labels.csv", "Participant_ID,PHQ8_Binary,PHQ8_Score\n300,0,3\n301,1,12\n300,1,20\n")
        with pytest.raises(ParseError, match=r"labels\.csv:4: Participant_ID 300 listed twice"):
            load_labels(p)

    def test_out_of_range_score(self, tmp_path):
        p = write(tmp_path, "labels.csv", "Participant_ID,PHQ8_Binary,PHQ8_Score\n301,1,25\n")
        with pytest.raises(ParseError):
            load_labels(p)


class TestWav:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = AudioSignal(np.clip(rng.normal(0, 0.2, 1600), -1, 1), 16000)
        save_wav(sig, tmp_path / "a.wav")
        back = load_wav(tmp_path / "a.wav")
        assert (back.rate, back.n_samples) == (16000, 1600)
        np.testing.assert_allclose(back.read(0, back.n_samples), sig.samples, atol=1.0 / 32768)

    def test_read_is_the_whole_file_conversion_of_any_span(self, tmp_path):
        """read(lo, hi) is samples lo..hi-1 of int16 -> float64, then / 32768, as one whole-file read gives."""
        import wave

        rng = np.random.default_rng(1)
        save_wav(AudioSignal(rng.uniform(-1.0, 1.0, 5000), 8000), tmp_path / "a.wav")
        with wave.open(str(tmp_path / "a.wav"), "rb") as w:
            whole = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2").astype(np.float64)
        whole /= 32768.0
        reader = load_wav(tmp_path / "a.wav")
        for lo, hi in [(0, 5000), (0, 1), (1234, 4321), (4999, 5000), (17, 17)]:
            got = reader.read(lo, hi)
            assert got.dtype == np.float64 and got.tobytes() == whole[lo:hi].tobytes(), (lo, hi)
        signal = AudioSignal(whole, 8000)
        assert signal.n_samples == 5000 and signal.read(1234, 4321).tobytes() == whole[1234:4321].tobytes()

    def test_truncated_data_is_refused_at_load(self, tmp_path):
        path = tmp_path / "t.wav"
        save_wav(AudioSignal(np.zeros(1000), 8000), path)
        path.write_bytes(path.read_bytes()[:100])  # the 44-byte header and 28 samples
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated WAV data: 28 of 1000 samples$"):
            load_wav(path)

    def test_file_shortened_after_load_fails_read_with_its_path(self, tmp_path):
        path = tmp_path / "t.wav"
        save_wav(AudioSignal(np.zeros(1000), 8000), path)
        reader = load_wav(path)
        assert reader.read(900, 1000).shape == (100,)
        path.write_bytes(path.read_bytes()[: 44 + 2 * 950])
        assert reader.read(0, 950).shape == (950,)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated WAV data: 950 of 1000 samples$"):
            reader.read(900, 1000)

    def test_stereo_rejected(self, tmp_path):
        import wave

        with wave.open(str(tmp_path / "s.wav"), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(b"\x00\x00" * 32)
        with pytest.raises(ValueError, match="mono"):
            load_wav(tmp_path / "s.wav")


class TestSessionInvariants:
    def test_stop_after_start(self):
        with pytest.raises(ValueError):
            TurnRecord(1.0, 1.0, Speaker.AGENT, ())

    def test_landmark_frame_shape(self):
        with pytest.raises(ValueError):
            LandmarkSequence(np.array([0.0]), np.array([1.0]), np.array([True]), np.zeros((1, 67, 3)))

    def test_immutables(self):
        sig = AudioSignal(np.zeros(10), 8000)
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0
