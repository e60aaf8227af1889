import re

import numpy as np
import pytest

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


# each loader's header, one good row, the row with one field too few, and a non-numeric row
LOADERS = {
    "transcript": (load_transcript, "t.tsv", HEADER, "0.0\t1.0\tEllie\thi", "0.0\t1.0\tEllie", "x\t1.0\tEllie\thi"),
    "landmarks": (
        load_landmarks, "l.csv", ",".join(LANDMARK_HEADER),
        ",".join(["0", "0.0", "0.9", "1"] + ["0.5"] * 204),
        ",".join(["0", "0.0", "0.9", "1"] + ["0.5"] * 203),
        ",".join(["1", "0.5", "0.9", "1"] + ["0.5"] * 203 + ["x"]),
    ),
    "labels": (load_labels, "labels.csv", ",".join(LABELS_HEADER), "300,0,3", "301,1", "301,1,x"),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("case", ["empty", "bad_header", "field_count", "non_numeric"])
def test_loader_refusal_names_path_and_line(tmp_path, kind, case):
    load, name, header, good, short, non_numeric = LOADERS[kind]
    text, line = {
        "empty": ("", 1),
        "bad_header": ("garbage\n" + good + "\n", 1),
        "field_count": ("\n".join([header, good, short]) + "\n", 3),
        "non_numeric": ("\n".join([header, good, "", "  ", non_numeric]) + "\n", 5),
    }[case]
    path = write(tmp_path, name, text)
    assert load(write(tmp_path, "ok_" + name, header + "\n" + good + "\n"))
    with pytest.raises(ParseError) as err:
        load(path)
    assert (err.value.path, err.value.line) == (str(path), line)
    assert str(err.value).startswith(f"{path}:{line}: ")


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
