"""Seeded synthetic corpus for end-to-end runs and desk-scale experiments.

Positive texts are first-person drug-use messages; negative texts are news,
research, opinion, third-party mentions, and off-topic chatter. The two
classes deliberately share vocabulary (drug names appear on both sides) so
classifiers must use context, not just keyword presence. write_fixture_files
writes the lexicons, cluster map, synonym map and random embedding table (a
word -> vector dict over the template vocabulary) that the full feature
pipeline reads; they exist only as files, which runs and tests load through
experiment.build_feature_context.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from .corpus import Dataset, Tweet
from .embeddings import save_embeddings
from .features import N_CLUSTERS, tokenize

# Drug terms appear in both classes.
DRUGS = ["weed", "coke", "molly", "xanax", "oxy", "heroin", "fentanyl",
         "dope", "percs", "addy"]

# Heavy-use slang, more frequent in positive texts but also quoted in
# negative judgment posts; all terms are longer than five characters so the
# slang lexicon keeps them.
USE_SLANG = ["zooted", "geeked", "blitzed", "blasted", "snorted", "tweakin",
             "noddin", "plugged", "dabbed", "railed"]

ABUSE_TERMS = ["high", "stoned", "addicted", "overdose", "withdrawal",
               "craving", "relapse", "blackout", "strung", "hooked"]

_FEELINGS = ["high", "stoned", "numb", "floating", "dizzy", "unstoppable",
             "wavy", "spaced"]
_USE_VERBS = ["popping", "snorting", "smoking", "railing", "shooting",
              "mixing", "crushing"]
_TIMES = ["night", "weekend", "morning", "week", "summer", "friday"]
_FRIENDS = ["bro", "cuz", "bestie", "homie", "roomie", "crew"]
_CITIES = ["springfield", "riverton", "lakewood", "fairview", "brookside",
           "kingsport"]
_SOURCES = ["study", "report", "survey", "investigation", "article"]
_GROUPS = ["teens", "students", "veterans", "workers", "communities",
           "families"]
_RELATIVES = ["cousin", "neighbor", "coworker", "uncle", "classmate"]
_EVENTS = ["game", "concert", "finale", "playoffs", "marathon", "festival"]
_AMOUNTS = ["two", "five", "ten", "forty", "sixty"]

# (weight, template) pairs. Two regimes share one vocabulary:
#  - "easy" texts carry use slang or reporting language with a clear slant;
#  - "hard" texts are factored {subject} x {verb} x {object} sentences where
#    the label lives only in the conjunction (first person + use verb + drug
#    object), so bag-of-words evidence is weak but composition is decisive.
_POSITIVE_TEMPLATES = [
    # Easy: first-person use slang.
    (0.06, "just got {slang} on {drug} with my {friend} lol"),
    (0.06, "im so {slang} rn cant even feel my face"),
    (0.06, "{slang} off these {drug} again best {time} ever"),
    (0.06, "me and my {friend} stay {slang} every {time}"),
    # Easy: use verbs plus feelings.
    (0.06, "been {verb} {drug} all {time} and im {feeling} af"),
    (0.06, "{verb} {drug} before work again feeling {feeling}"),
    (0.06, "cant sleep so im {verb} {drug} till the {time} ends"),
    # Mild: wanting/seeking.
    (0.045, "need some {drug} for tonight fr who got it"),
    (0.045, "ran out of {drug} again this {time} is ruined"),
    (0.045, "one more {drug} and the {time} gets better i swear"),
    (0.045, "cant do a {time} without my {drug} no more"),
    # Hard: first person + use verb + drug object.
    (0.20, "{first} {useverb} {drug} {when}"),
    (0.20, "{first} {useverb} some {drug} {when}"),
]

_NEGATIVE_TEMPLATES = [
    # Reporting and opinion.
    (0.042, "{city} police seized {amount} pounds of {drug} in a major bust"),
    (0.035, "breaking {city} officers arrested three dealers moving {drug}"),
    (0.035, "new {source} says {drug} abuse is rising among {group}"),
    (0.028, "latest {source} links {drug} misuse to health costs for {group}"),
    (0.035, "new {source} says {verb} {drug} is on the rise among {group}"),
    (0.028, "{drug} addiction is destroying {group} we need better policy"),
    (0.028, "so tired of seeing {drug} wreck lives in our {city}"),
    # Use slang, verbs, and feelings on the negative side: judgment posts.
    (0.035, "friends dont let friends get {slang} on {drug}"),
    (0.035, "cant believe people out here {slang} on {drug} so sad"),
    (0.021, "stop glorifying being {slang} its not cool"),
    (0.028, "seeing my {friend} {slang} on {drug} scared me off for life"),
    (0.035, "people walking around {feeling} off {drug} is scary"),
    (0.028, "watching people {verb} {drug} at parties makes me sick"),
    (0.021, "{amount} months clean from {drug} today proud of myself"),
    (0.021, "glad i quit {drug} last {time} i can finally feel again"),
    (0.021, "no more waking up {feeling} every {time} since i quit {drug}"),
    (0.021, "my {relative} got arrested for selling {drug} smh"),
    (0.021, "heard my {relative} is in treatment for {drug} hope they recover"),
    # Chatter twins of the positive phrasings, without drug terms.
    (0.021, "watching the {event} with my {friend} tonight lol"),
    (0.028, "who got tickets for the {event} tonight fr"),
    (0.028, "need some sleep before the {event} tomorrow fr"),
    (0.021, "one more {time} and the {event} is finally here i swear"),
    (0.021, "ran out of snacks during the {event} this {time} is ruined"),
    (0.021, "the crowd was wild cant even feel my face lol"),
    (0.021, "im so hyped rn the {event} starts tonight"),
    (0.014, "just got home from the {event} with my {friend} lol"),
    (0.014, "me and my {friend} watch the {event} every {time}"),
    (0.014, "best {event} ever cant wait for the next one"),
    (0.021, "been at work all {time} im tired af"),
    # Hard factored twins: break exactly one conjunct of the positive form.
    (0.040, "{first} {useverb} {neutralobj} {when}"),
    (0.040, "{first} {useverb} some {neutralobj} {when}"),
    (0.040, "my {relative} {useverb} {drug} {when}"),
    (0.035, "my {relative} {useverb} some {drug} {when}"),
    (0.070, "{group} {useverb} {drug} at the {event}"),
    (0.075, "{first} {neutralverb} {drug} {when}"),
]

# Class-independent tail tokens appended to every text, so incidental
# function words carry no label signal.
_TAILS = ["fr", "rn", "lol", "smh", "tonight", "today", "lowkey", "deadass",
          "no cap", "for real"]

_FIRST = ["i", "we"]
_USE_VERBS_PLAIN = ["got", "need", "took", "want", "bought", "grabbed"]
_NEUTRAL_OBJECTS = ["sleep", "tickets", "coffee", "pizza", "batteries",
                    "groceries"]
_NEUTRAL_VERBS = ["saw", "hate", "heard about", "read about"]
_WHEN = ["last night", "this weekend", "for tonight", "after work",
         "again today", "rn"]

_SYNONYMS = {"zooted": ["intoxicated"], "geeked": ["intoxicated", "wired"],
             "blitzed": ["wasted"], "dope": ["heroin"], "addy": ["adderall"],
             "percs": ["percocet"]}

_SLOTS = {
    "drug": DRUGS,
    "slang": USE_SLANG,
    "verb": _USE_VERBS,
    "feeling": _FEELINGS,
    "time": _TIMES,
    "friend": _FRIENDS,
    "city": _CITIES,
    "source": _SOURCES,
    "group": _GROUPS,
    "relative": _RELATIVES,
    "event": _EVENTS,
    "amount": _AMOUNTS,
    "first": _FIRST,
    "useverb": _USE_VERBS_PLAIN,
    "neutralobj": _NEUTRAL_OBJECTS,
    "neutralverb": _NEUTRAL_VERBS,
    "when": _WHEN,
}


def _probs(templates):
    weights = np.array([w for w, _ in templates])
    return weights / weights.sum()


def _fill(template: str, rng: np.random.Generator) -> str:
    out = template
    while "{" in out:
        start = out.index("{")
        end = out.index("}", start)
        slot = out[start + 1:end]
        choices = _SLOTS[slot]
        out = out[:start] + choices[rng.integers(len(choices))] + out[end + 1:]
    n_tail = rng.integers(0, 3)
    for _ in range(n_tail):
        out += " " + _TAILS[rng.integers(len(_TAILS))]
    return out


def generate_dataset(n_pos: int, n_neg: int, seed: int = 0,
                     id_prefix: str = "syn") -> Dataset:
    """Generate n_pos positive and n_neg negative labeled texts, shuffled."""
    rng = np.random.default_rng(seed)
    pos_probs = _probs(_POSITIVE_TEMPLATES)
    neg_probs = _probs(_NEGATIVE_TEMPLATES)
    rows: list[tuple[str, int]] = []
    for _ in range(n_pos):
        _, template = _POSITIVE_TEMPLATES[rng.choice(len(_POSITIVE_TEMPLATES), p=pos_probs)]
        rows.append((_fill(template, rng), 1))
    for _ in range(n_neg):
        _, template = _NEGATIVE_TEMPLATES[rng.choice(len(_NEGATIVE_TEMPLATES), p=neg_probs)]
        rows.append((_fill(template, rng), 0))
    order = rng.permutation(len(rows))
    width = max(5, len(str(len(rows))))
    return Dataset(
        Tweet(f"{id_prefix}{i:0{width}d}", rows[j][0], rows[j][1])
        for i, j in enumerate(order)
    )


def vocabulary() -> list[str]:
    """Every token the templates can emit, in deterministic order."""
    vocab: dict[str, None] = {}
    for _, template in itertools.chain(_POSITIVE_TEMPLATES, _NEGATIVE_TEMPLATES):
        skeleton = template
        for slot, choices in _SLOTS.items():
            skeleton = skeleton.replace("{" + slot + "}", " ")
        for tok in tokenize(skeleton):
            vocab.setdefault(tok)
    for choices in _SLOTS.values():
        for phrase in choices:
            for tok in tokenize(phrase):
                vocab.setdefault(tok)
    for tail in _TAILS:
        for tok in tokenize(tail):
            vocab.setdefault(tok)
    return list(vocab)


def build_embedding_table(dim: int = 50, seed: int = 0) -> dict[str, np.ndarray]:
    """Random unit-max-norm vectors over the template vocabulary, word -> vector."""
    rng = np.random.default_rng(seed)
    vectors = {}
    for word in vocabulary():
        v = rng.uniform(-1.0, 1.0, dim)
        vectors[word] = v / np.abs(v).max()
    return vectors


def write_fixture_files(directory, embed_dim: int = 50, seed: int = 0) -> dict[str, Path]:
    """Write lexicon/cluster/synonym/embedding fixture files for the CLI."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "abuse_lexicon": directory / "abuse_terms.txt",
        "slang_lexicon": directory / "drug_slang.txt",
        "cluster_map": directory / "clusters.tsv",
        "synonym_map": directory / "synonyms.tsv",
        "embeddings": directory / "embeddings.txt",
    }
    paths["abuse_lexicon"].write_text(
        "# abuse-indicating terms\n" + "\n".join(ABUSE_TERMS + _USE_VERBS) + "\n")
    paths["slang_lexicon"].write_text(
        "# drug slang (short entries are dropped at load)\n"
        + "\n".join(USE_SLANG) + "\n")
    # The drug/slang/abuse vocabulary, spread over distinct clusters.
    terms = DRUGS + USE_SLANG + ABUSE_TERMS + _USE_VERBS
    paths["cluster_map"].write_text(
        "".join(f"{term}\t{(i * 7) % N_CLUSTERS}\n" for i, term in enumerate(terms)))
    paths["synonym_map"].write_text("".join(
        f"{term}\t{','.join(syns)}\n" for term, syns in _SYNONYMS.items()))
    save_embeddings(build_embedding_table(embed_dim, seed), paths["embeddings"])
    return paths
