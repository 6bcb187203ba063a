"""Unbiased operator frames, equal-overlap measurement families, and dual
affine plane geometry in prime dimensions."""
