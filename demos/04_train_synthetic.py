"""Fit the full model on a small synthetic corpus and inspect the result.

Takes about a second. Run:  python demos/04_train_synthetic.py
"""

from aste.encoder import EncoderConfig
from aste.parser import ParserConfig
from aste.synth import learnable_corpus
from aste.training import TrainConfig, evaluate_model, train


def main():
    corpus = learnable_corpus(50, seed=0)
    print(f"{len(corpus.train)} synthetic sentences; span membership and")
    print("sentiment follow from token identity, so a tiny model can fit them.")
    print("example:", " ".join(corpus.train[0].tokens))
    print("gold:   ", corpus.train[0].triplets, "\n")

    encoder_config = EncoderConfig(vocab_size=1, dim=32, heads=2, layers=2,
                                   ffn_dim=64, max_len=160)
    train_config = TrainConfig(base_lr=5e-5, batch_size=8, max_epochs=100,
                               patience=100, seed=0)

    def log(record):
        if record.epoch % 10 == 0 or record.dev_f1 >= 0.95:
            print(f"epoch {record.epoch:>3}  loss {record.total_loss:7.4f}  "
                  f"(tagging {record.tagging_loss:6.4f} + parsing {record.parsing_loss:6.4f})  "
                  f"train F1 {record.dev_f1:5.3f}  lr {record.lr:.2e}")

    model, history = train(corpus, encoder_config, ParserConfig(), train_config, log=log)

    best = history.best_epoch()
    print(f"\nbest epoch {best.epoch}: train F1 {best.dev_f1:.3f}")
    scores = evaluate_model(model, corpus.train)
    print(f"final exact match on the training set: P={scores.precision:.3f} "
          f"R={scores.recall:.3f} F1={scores.f1:.3f}")

    print("\nsample decodes:")
    for sentence in corpus.train[:3]:
        print(" ", " ".join(sentence.tokens))
        print("   gold:", sorted(sentence.triplet_set()))
        print("   pred:", sorted(model.predict(sentence)))


if __name__ == "__main__":
    main()
