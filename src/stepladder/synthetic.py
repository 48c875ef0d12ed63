"""Seeded synthetic corpora for demos and validation.

Three generators, all pure functions of their seed:

* build_demo_corpus: a mixed-format corpus with planted difficulty,
  bundled with the repository so the whole pipeline runs offline.
* h1_corpus: planted difficulty d with step count k = d plus unit noise,
  for checking that measured depth tracks difficulty.
* h3_completions: two teachers with identical step structure but very
  different verbosity, for checking that depth agreement survives a
  token-count disagreement.

Each is one draw(rng, i) through _corpus, which owns the seeded stream,
the loop and the completion records, so a new planted corpus is one
more draw.

Run as a module to regenerate the bundled files:
python -m stepladder.synthetic --out-dir data/synthetic
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from .corpus import Example, write_completions, write_corpus

_WORDS = (
    "expand", "the", "bracket", "collect", "terms", "substitute", "known",
    "values", "compare", "both", "sides", "isolate", "factor", "reduce",
    "fraction", "apply", "rule", "check", "units", "estimate", "bound",
    "carry", "remainder", "total",
)

_TASKS = ("arithmetic", "algebra", "logic", "geometry")

_PROMPTS = {
    "arithmetic": "Compute the value of {a} after applying {d} successive offsets of {b}.",
    "algebra": "Solve for x when {a}x + {b} = {c}, showing each manipulation.",
    "logic": "Given {d} linked statements about {a} objects, decide whether claim {b} holds.",
    "geometry": "A figure is built in {d} stages starting from side length {a}; find its area.",
}


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(_WORDS) for _ in range(n_words)]
    return " ".join(words).capitalize() + "."


def _numbered(rng: random.Random, k: int, words_per_step) -> str:
    lines = [f"{i}. {_sentence(rng, words_per_step(i))}" for i in range(1, k + 1)]
    lines.append(f"Answer: {rng.randint(0, 999)}")
    return "\n".join(lines)


def _bulleted(rng: random.Random, k: int, words_per_step) -> str:
    lines = [f"- {_sentence(rng, words_per_step(i))}" for i in range(1, k + 1)]
    lines.append(f"Answer: {rng.randint(0, 999)}")
    return "\n".join(lines)


def _paragraphs(rng: random.Random, k: int, words_per_step) -> str:
    parts = [_sentence(rng, words_per_step(i)) for i in range(1, k + 1)]
    parts[-1] += f" Answer: {rng.randint(0, 999)}"
    return "\n\n".join(parts)


def _corpus(n: int, seed: int, draw):
    """Examples and completion records for i in range(n), all drawn from
    one random.Random(seed) stream: draw(rng, i) returns example i and its
    completions as (teacher_id, text) pairs."""
    rng = random.Random(seed)
    examples: list[Example] = []
    completions: list[dict] = []
    for i in range(n):
        example, texts = draw(rng, i)
        examples.append(example)
        for teacher_id, text in texts:
            completions.append({
                "example_id": example.id,
                "teacher_id": teacher_id,
                "text": text,
            })
    return examples, completions


def build_demo_corpus(n: int = 500, seed: int = 7):
    """Examples plus raw completions with planted depth 1..10.

    About nine in ten completions are numbered lists; the rest are
    bulleted or paragraph-only, so audit and low-confidence paths have
    something to chew on.
    """
    def draw(rng: random.Random, i: int):
        task = _TASKS[i % len(_TASKS)]
        d = rng.randint(1, 10)
        a, b, c = rng.randint(2, 99), rng.randint(2, 99), rng.randint(2, 99)
        prompt = _PROMPTS[task].format(a=a, b=b, c=c, d=d)
        judge = min(1.0, max(0.0, d / 10 + rng.gauss(0.0, 0.08)))
        k = max(1, d + rng.choice((-1, 0, 1)))
        style = rng.random()
        words = lambda _i: rng.randint(6, 14)
        if style < 0.88:
            text = _numbered(rng, k, words)
        elif style < 0.96:
            text = _bulleted(rng, k, words)
        else:
            text = _paragraphs(rng, k, words)
        return Example(
            id=f"ex{i:04d}",
            task=task,
            prompt=prompt,
            external_difficulty=float(d),
            judge_score=round(judge, 4),
        ), [("demo-teacher", text)]
    return _corpus(n, seed, draw)


def h1_corpus(n: int = 200, seed: int = 11):
    """Planted difficulty d in 1..10; trace depth k = d + uniform {-1,0,1}."""
    def draw(rng: random.Random, i: int):
        d = rng.randint(1, 10)
        k = max(1, d + rng.choice((-1, 0, 1)))
        return Example(
            id=f"h1-{i:04d}",
            task="planted",
            prompt=f"Planted instance {i} requiring about {d} moves.",
            external_difficulty=float(d),
        ), [("planted-teacher", _numbered(rng, k, lambda _i: rng.randint(5, 9)))]
    return _corpus(n, seed, draw)


def h3_completions(n: int = 60, seed: int = 13):
    """Two teachers, identical step counts, clashing verbosity.

    Teacher terse writes short steps; teacher verbose writes the same
    number of steps padded by a per-example random amount large enough
    to scramble the token-count ordering between the two.
    """
    def draw(rng: random.Random, i: int):
        k = rng.randint(1, 8)
        base = rng.randint(5, 9)
        terse = _numbered(rng, k, lambda _i: base)
        pad = rng.randint(0, 60)
        return Example(
            id=f"h3-{i:04d}",
            task="compare",
            prompt=f"Comparison case {i}.",
        ), [("terse", terse), ("verbose", _numbered(rng, k, lambda _i: base * 2 + pad))]
    return _corpus(n, seed, draw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the bundled synthetic corpus")
    parser.add_argument("--out-dir", default="data/synthetic")
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    examples, completions = build_demo_corpus(args.n, args.seed)
    write_corpus(examples, out / "examples.jsonl")
    write_completions(completions, out / "completions.jsonl")
    print(f"wrote {len(examples)} examples and {len(completions)} completions to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
