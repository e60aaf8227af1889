import numpy as np
import pytest

from phqreg.corpus import Speaker, TurnRecord
from phqreg.turns import (
    BEHAVIORAL_NAMES,
    behavioral_vector,
    nonvocal_features,
    pdi_features,
    turn_taking_features,
)

A, P = Speaker.AGENT, Speaker.PARTICIPANT


def turn(start, stop, speaker, text=""):
    return TurnRecord(start, stop, speaker, tuple(text.split()))


def quartile_oracle(values):
    """Linear-interpolation quartiles computed from first principles."""
    xs = sorted(values)
    n = len(xs)

    def q(p):
        pos = p * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return xs[lo] * (1 - frac) + xs[hi] * frac

    return [q(0.25), q(0.5), q(0.75)]


class TestNonvocal:
    def test_laughter_frequency(self):
        turns = [turn(i, i + 0.5, P, "<laughter> hello" if i < 4 else "hello") for i in range(10)]
        nb = nonvocal_features(turns)
        assert nb[0] == pytest.approx(0.4)

    def test_disfluency_percentage(self):
        turns = [turn(0, 1, P, "um i uh went")]
        nb = nonvocal_features(turns)
        assert nb[1] == pytest.approx(50.0)

    def test_inconvenience_count(self):
        turns = [turn(0, 1, P, "<sigh> ok <sigh> sure <deep_breath>")]
        nb = nonvocal_features(turns)
        assert nb[2] == 3.0

    def test_agent_tokens_ignored(self):
        turns = [turn(0, 1, A, "<laughter> um uh"), turn(2, 3, P, "fine")]
        nb = nonvocal_features(turns)
        assert nb.tolist() == [0.0, 0.0, 0.0]

    def test_no_participant_turns_errors(self):
        with pytest.raises(ValueError):
            nonvocal_features([turn(0, 1, A, "hi")])


class TestTurnTaking:
    def test_response_time_simple(self):
        turns = [turn(4.0, 5.0, A), turn(5.7, 6.5, P)]
        tb = turn_taking_features(turns)
        assert tb[1] == pytest.approx(0.7)  # single value -> all quartiles equal

    def test_quartiles_match_oracle(self):
        rts = [0.2, 0.4, 0.6, 0.8]
        turns = []
        t = 0.0
        for rt in rts:
            turns.append(turn(t, t + 1.0, A))
            turns.append(turn(t + 1.0 + rt, t + 2.0 + rt, P))
            t += 3.0 + rt
        tb = turn_taking_features(turns)
        assert tb[:3].tolist() == pytest.approx([0.35, 0.5, 0.65])
        assert tb[:3].tolist() == pytest.approx(quartile_oracle(rts))

    def test_overlap_clamped_to_zero(self):
        turns = [turn(0.0, 2.0, A), turn(1.5, 3.0, P)]
        tb = turn_taking_features(turns)
        assert tb[0] == tb[1] == tb[2] == 0.0

    def test_within_speaker_pause(self):
        turns = [turn(0, 1, A), turn(1.2, 2.0, P), turn(2.5, 3.0, P), turn(3.4, 4.0, P)]
        tb = turn_taking_features(turns)
        assert tb[4] == pytest.approx(np.median([0.5, 0.4]))

    def test_gap_with_intervening_agent_excluded(self):
        turns = [turn(0, 1, A), turn(1.2, 2.0, P), turn(2.1, 2.4, A), turn(3.0, 4.0, P)]
        tb = turn_taking_features(turns)
        assert tb[3] == tb[4] == tb[5] == 0.0  # no pure participant->participant gap

    def test_quartile_ordering_invariant(self):
        rng = np.random.default_rng(0)
        turns = []
        t = 0.0
        for _ in range(15):
            turns.append(turn(t, t + 1.0, A))
            gap = float(rng.uniform(0, 2))
            turns.append(turn(t + 1.0 + gap, t + 2.0 + gap, P))
            t += 4.0 + gap
        tb = turn_taking_features(turns)
        assert tb[0] <= tb[1] <= tb[2]
        assert tb[3] <= tb[4] <= tb[5]

    def test_doubling_timestamps_doubles_values(self):
        turns = [turn(0, 1, A), turn(1.4, 2, P), turn(2.6, 3, P), turn(4, 5, A), turn(5.9, 7, P)]
        tb1 = turn_taking_features(turns)
        doubled = [TurnRecord(t.start * 2, t.stop * 2, t.speaker, t.text) for t in turns]
        tb2 = turn_taking_features(doubled)
        np.testing.assert_allclose(tb2, 2.0 * tb1, atol=1e-12)


class TestPdi:
    def test_topic_never_asked(self):
        turns = [turn(0, 1, A, "how are you"), turn(1.5, 2, P, "fine")]
        pdi = pdi_features(turns)
        assert pdi.tolist() == [-1.0, -1.0, -1.0]

    def test_disconfirmation(self):
        turns = [
            turn(0, 1, A, "have you been diagnosed with depression"),
            turn(1.5, 2, P, "no"),
        ]
        pdi = pdi_features(turns)
        assert pdi[1] == 0.0

    def test_confirmation(self):
        turns = [
            turn(0, 1, A, "did you serve in the military"),
            turn(1.5, 2, P, "yes i served"),
        ]
        pdi = pdi_features(turns)
        assert pdi[2] == 1.0

    def test_ptsd_phrase_keyword(self):
        turns = [
            turn(0, 1, A, "any post traumatic stress"),
            turn(1.5, 2, P, "yeah"),
        ]
        pdi = pdi_features(turns)
        assert pdi[0] == 1.0

    def test_ambiguous_or_missing_answer_is_unknown(self):
        turns = [
            turn(0, 1, A, "do you have ptsd"),
            turn(1.5, 2, P, "perhaps sometimes"),
            turn(3, 4, A, "did you serve in the military"),
        ]
        assert pdi_features(turns).tolist() == [-1.0, -1.0, -1.0]

    def test_one_word_lexicon_entries_match_whole_tokens(self):
        turns = [
            turn(0, 1, A, "have you been diagnosed with depression"),
            turn(1.5, 2, P, "nothing like that, yes"),
        ]
        assert pdi_features(turns)[1] == 1.0

    def test_values_in_range(self):
        turns = [
            turn(0, 1, A, "have you been depressed"),
            turn(1.5, 2, P, "yes"),
            turn(3, 4, A, "do you have ptsd"),
            turn(4.5, 5, P, "no never"),
        ]
        pdi = pdi_features(turns)
        assert set(pdi.tolist()) <= {-1.0, 0.0, 1.0}


class TestBehavioralVector:
    def session_turns(self):
        return [
            turn(0.0, 1.0, A, "how are you today"),
            turn(1.4, 3.0, P, "um fine <laughter> thanks"),
            turn(3.5, 4.5, A, "have you been diagnosed with depression"),
            turn(5.0, 6.0, P, "no never"),
            turn(6.5, 7.5, A, "tell me more"),
            turn(8.0, 9.0, P, "well <sigh> i guess"),
            turn(9.4, 10.0, P, "yeah"),
        ]

    def test_dimension_12(self):
        vec = behavioral_vector(self.session_turns())
        assert len(vec) == len(BEHAVIORAL_NAMES) == 12
        assert set(vec[9:].tolist()) <= {-1.0, 0.0, 1.0}

    def test_token_permutation_invariance(self):
        turns = self.session_turns()
        rng = np.random.default_rng(1)
        shuffled = [
            TurnRecord(t.start, t.stop, t.speaker, tuple(rng.permutation(list(t.text))))
            for t in turns
        ]
        v1 = behavioral_vector(turns)
        v2 = behavioral_vector(shuffled)
        # PDI answer classification and all frequency counts ignore order
        np.testing.assert_array_equal(v1, v2)

