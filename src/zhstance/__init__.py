"""Stance classification for Chinese-language Twitter accounts.

The pipeline: traditional-to-simplified conversion, dictionary/HMM word
segmentation, TF-IDF vectors, cosine k-NN classification, and a k-fold
cross-validation harness with two reference baselines.
Its API is in the submodules; the package root exports nothing.
"""
