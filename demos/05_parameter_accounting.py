"""Incremental-parameter accounting: bias tables vs extra layers.

Run:  python demos/05_parameter_accounting.py
"""

from aste.encoder import (
    EncoderConfig,
    adapter_increment,
    count_params,
    structural_layer_increment,
)
from aste.parser import ParserConfig

# Base-model shape: 12 layers, width 768, 12 heads of 64, FFN 3072.
DIM, HEADS, LAYERS, FFN = 768, 12, 12, 3072
TAU = 8


def fmt(n):
    return f"{n:>13,} ({n / 1e6:.2f} M)"


def main():
    head_dim = DIM // HEADS
    adapter = adapter_increment(LAYERS, TAU, head_dim)
    two_layers = structural_layer_increment(DIM, FFN, k=2)

    config = EncoderConfig(vocab_size=30_000, dim=DIM, heads=HEADS, layers=LAYERS,
                           ffn_dim=FFN, max_len=512)
    bare = count_params(config, ParserConfig(tag_hidden=256, pair_hidden=256))

    print("incremental parameters on top of the base model + parser")
    print("-" * 58)
    print(f"distance-bias tables      {fmt(adapter)}")
    print(f"  = layers x (2 tau + 1) x head_dim = {LAYERS} x {2 * TAU + 1} x {head_dim}")
    print(f"two extra encoder layers  {fmt(two_layers)}")
    print(f"  = 2 x (4(D^2+D) + (D F + F) + (F D + D) + 2(2D)), D={DIM}, F={FFN}")
    print("-" * 58)
    print(f"ratio: the layer route costs {two_layers / adapter:,.0f}x more "
          "incremental parameters")
    print(f"\nfor scale, the bare encoder+parser at these dims: {fmt(bare)}")
    print("\nthe bias tables also add zero extra attention passes at run time;")
    print("their cost is one (m x buckets) product and a gather per head.")


if __name__ == "__main__":
    main()
