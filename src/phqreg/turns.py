"""Behavioral characteristics from the transcript: a 12-dim vector.

Three sub-groups:
    NB (3)   laughter frequency, disfluency percentage, inconvenience-cue count
    TB (6)   Q1/median/Q3 of response time and of within-speaker pause (seconds)
    PDI (3)  diagnosed-before flags for ptsd / depression / military background,
             each encoded -1 (never asked), 0 (denied) or 1 (confirmed)

NB and PDI read the fixed lowercase lexicons below.
"""

from __future__ import annotations

import numpy as np

from .corpus import EmptyInputError, Speaker, TurnRecord

BEHAVIORAL_NAMES = (
    "nb_laughter_freq", "nb_disfluency_pct", "nb_inconvenience",
    "tb_resp_q1", "tb_resp_med", "tb_resp_q3",
    "tb_pause_q1", "tb_pause_med", "tb_pause_q3",
    "pdi_ptsd", "pdi_dep", "pdi_mb",
)

PDI_TOPICS = ("ptsd", "dep", "mb")

DISFLUENCIES = frozenset({"um", "uh", "er", "mm", "mhm", "hmm", "uh-huh"})
INCONVENIENCE_CUES = frozenset({"<sigh>", "<whistling>", "<whisper>", "<deep_breath>", "<mumble>", "<clears_throat>"})
AFFIRMATIONS = ("yes", "yeah", "yep", "i have", "i do")
NEGATIONS = ("no", "nope", "never", "i haven't", "i don't")
TOPIC_KEYWORDS = {
    "ptsd": ("ptsd", "post traumatic"),
    "dep": ("depress",),
    "mb": ("military", "served", "deployment"),
}


def nonvocal_features(turns) -> np.ndarray:
    """Laughter frequency, disfluency percentage, inconvenience-cue count."""
    participant = [t for t in turns if t.speaker is Speaker.PARTICIPANT]
    if not participant:
        raise EmptyInputError("no participant turns")
    tokens = [tok.lower() for t in participant for tok in t.text]

    laughter = sum(tok == "<laughter>" for tok in tokens) / len(participant)
    n_disf = sum(tok in DISFLUENCIES or tok == "<disfluency>" for tok in tokens)
    disf_pct = 100.0 * n_disf / len(tokens) if tokens else 0.0
    cues = float(sum(tok in INCONVENIENCE_CUES for tok in tokens))
    return np.array([laughter, disf_pct, cues])


def _quartiles(values) -> np.ndarray:
    if not values:
        return np.zeros(3)
    return np.percentile(np.asarray(values, dtype=np.float64), [25.0, 50.0, 75.0], method="linear")


def turn_taking_features(turns) -> np.ndarray:
    """Q1/median/Q3 of response times and of within-speaker pauses.

    Response time: participant turn start minus the immediately preceding
    agent turn stop, clamped at 0. Pause: gap between consecutive participant
    turns with no agent turn in between, clamped at 0. An empty observation
    set yields a zero triple.
    """
    turns = list(turns)
    responses, pauses = [], []
    for prev, cur in zip(turns, turns[1:]):
        if cur.speaker is not Speaker.PARTICIPANT:
            continue
        gap = max(cur.start - prev.stop, 0.0)
        if prev.speaker is Speaker.AGENT:
            responses.append(gap)
        else:
            pauses.append(gap)
    return np.concatenate([_quartiles(responses), _quartiles(pauses)])


def _contains_phrase(tokens: list[str], phrase: str) -> bool:
    want = phrase.split()
    return any(tokens[i : i + len(want)] == want for i in range(len(tokens) - len(want) + 1))


def _topic_in_turn(turn: TurnRecord, keywords) -> bool:
    tokens = [tok.lower() for tok in turn.text]
    for kw in keywords:
        if " " in kw:
            if _contains_phrase(tokens, kw):
                return True
        elif any(tok.startswith(kw) for tok in tokens):
            return True
    return False


def pdi_features(turns) -> np.ndarray:
    """PDI flags in PDI_TOPICS order.

    For each topic: -1 if no agent turn mentions it; otherwise the first
    participant turn after the first mentioning agent turn is classified with
    the negation lexicon (0) then the affirmation lexicon (1). An unanswered
    query, or an answer matching neither lexicon, counts as -1.
    """
    turns = list(turns)
    flags = {}
    for topic in PDI_TOPICS:
        flags[topic] = -1.0
        asked_at = next((i for i, t in enumerate(turns)
                         if t.speaker is Speaker.AGENT and _topic_in_turn(t, TOPIC_KEYWORDS[topic])), None)
        if asked_at is None:
            continue
        answer = next((t for t in turns[asked_at + 1 :] if t.speaker is Speaker.PARTICIPANT), None)
        if answer is None:
            continue
        tokens = [tok.lower() for tok in answer.text]
        if any(_contains_phrase(tokens, p) for p in NEGATIONS):
            flags[topic] = 0.0
        elif any(_contains_phrase(tokens, p) for p in AFFIRMATIONS):
            flags[topic] = 1.0
    return np.array([flags[t] for t in PDI_TOPICS])


def behavioral_vector(turns) -> np.ndarray:
    """The full 12-dim behavioral vector, in BEHAVIORAL_NAMES order."""
    return np.concatenate([nonvocal_features(turns), turn_taking_features(turns), pdi_features(turns)])
