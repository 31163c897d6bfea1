"""Tour of the augmentation operators on both modalities.

Weak operators perturb gently; the strong operator of each modality
(additive noise for signals, embedding-neighbour replacement for tokens)
changes the input more aggressively. Every operator takes an explicit
generator, so everything below is reproducible.
"""

import numpy as np

from semimatch.augment import (
    EmbeddingTable,
    SynonymLexicon,
    SignalSequence,
    TokenSequence,
    augment_signal,
    augment_tokens,
    featurize_signal,
    featurize_tokens,
)

rng = np.random.default_rng(42)

t = np.arange(48)
seq = SignalSequence(frames=np.round(np.sin(2 * np.pi * t / 16), 2), sample_rate=16)

print("signal operators (sine wave, 48 frames at 16 Hz):")
print(f"  original      {seq.frames[:12]} ...")
for kind in ("flip", "time_mask", "pitch_shift", "gaussian_noise"):
    out = augment_signal([seq], kind, np.random.default_rng(3),
                         **({"max_frames": 12} if kind == "time_mask" else {}))[0]
    print(f"  {kind:<13s} {np.round(out.frames[:12], 2)} ...")

print("\nbinned summary features (4 bins x mean/std/min/max):")
print(f"  {np.round(featurize_signal(seq, bins=4), 2)}")

vocab = 12
lexicon = SynonymLexicon.from_groups(vocab_size=vocab)
table = EmbeddingTable.from_seed(vocab_size=vocab, dim=5, seed=1)
tokens = TokenSequence(tokens=np.array([0, 3, 6, 9, 1, 4]), vocab_size=vocab)

print(f"\ntoken operators (vocabulary of {vocab}, synonym groups of 3):")
print(f"  original      {tokens.tokens}")
for kind in ("swap", "delete", "synonym", "contextual"):
    out = augment_tokens([tokens], kind, np.random.default_rng(5),
                         lexicon=lexicon, table=table,
                         **({"p": 0.5} if kind in ("synonym", "contextual") else {}))[0]
    print(f"  {kind:<13s} {out.tokens}")

feats = featurize_tokens(tokens, table, max_length=10)
print(f"\nmean-embedding features plus length fraction: {np.round(feats, 2)}")

# weak augmentations barely move the features; the strong one moves them more
base = featurize_signal(seq, bins=4)
weak = featurize_signal(augment_signal([seq], "pitch_shift", np.random.default_rng(8))[0], 4)
strong = featurize_signal(
    augment_signal([seq], "gaussian_noise", np.random.default_rng(8), scale=0.5)[0], 4)
print(f"\nfeature displacement | weak (pitch shift): {np.linalg.norm(weak - base):.3f}"
      f" | strong (noise 0.5): {np.linalg.norm(strong - base):.3f}")
