"""How the distance bias enters attention, and why zero tables are inert.

Run:  python demos/02_attention_bias.py
"""

import numpy as np

from aste.encoder import Encoder, EncoderConfig
from aste.numerics import Tensor, softmax_forward
from aste.structure import RELATIVE, StructureConfig, relative_distance_matrix


def main():
    config = EncoderConfig(
        vocab_size=20, dim=16, heads=2, layers=2, ffn_dim=32, max_len=32,
        adapter=StructureConfig(tau=4, kind=RELATIVE),
    )
    encoder = Encoder(config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    m = 6
    x = Tensor(rng.normal(0, 1, (m, config.dim)))
    distances = relative_distance_matrix(m, config.adapter.tau)

    print("== 1. zero tables change nothing ==")
    raw = encoder.attention_scores(x, layer=0, head=0)
    biased = encoder.attention_scores(x, layer=0, head=0, distances=distances)
    print("tables start at zero; max |biased - raw| =",
          np.abs(biased.data - raw.data).max())

    print("\n== 2. the bias is additive ==")
    table = encoder.adapter["l0.rel"]
    table.data[...] = rng.normal(0, 0.5, table.shape)
    biased = encoder.attention_scores(x, 0, 0, distances)
    struct = encoder.structured_attention_map(x, 0, 0, distances)
    print("after randomizing layer 0's table:")
    print("max |(biased - raw) - structured term| =",
          np.abs((biased.data - raw.data) - struct.data).max())

    print("\n== 3. a single bucket steers every row ==")
    table.data[...] = 0.0
    before = softmax_forward(encoder.attention_scores(x, 0, 0, distances).data)
    # push the '+1 to the right' bucket hard along the query direction
    q = (x.data @ encoder.params["l0.wq"].data)[:, :config.head_dim]
    table.data[config.adapter.tau + 1] = 4.0 * q.mean(axis=0) / np.linalg.norm(q.mean(axis=0))
    after = softmax_forward(encoder.attention_scores(x, 0, 0, distances).data)
    np.set_printoptions(precision=2, suppress=True)
    print("attention row 2 before:", before[2])
    print("attention row 2 after: ", after[2])
    print("weight on the right neighbour (column 3) moved from "
          f"{before[2, 3]:.2f} to {after[2, 3]:.2f}")

    print("\n== 4. the same table serves both heads of its layer ==")
    h0 = encoder.structured_attention_map(x, 0, 0, distances).data
    h1 = encoder.structured_attention_map(x, 0, 1, distances).data
    l1 = encoder.structured_attention_map(x, 1, 0, distances).data
    print("layer 0 head 0 bias norm:", np.linalg.norm(h0).round(3))
    print("layer 0 head 1 bias norm:", np.linalg.norm(h1).round(3),
          "(same table, different queries)")
    print("layer 1 head 0 bias norm:", np.linalg.norm(l1).round(3),
          "(independent, still zero)")


if __name__ == "__main__":
    main()
