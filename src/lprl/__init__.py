"""lprl: certified finite-scale numerics for sequence-space constructions."""

__version__ = "0.1.0"
