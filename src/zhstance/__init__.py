"""Stance classification for Chinese-language Twitter accounts.

The pipeline: traditional-to-simplified conversion, dictionary/HMM word
segmentation, TF-IDF vectors, cosine k-NN classification, and a k-fold
cross-validation harness with two reference baselines.
"""

from .classify import (
    Neighbor,
    Prediction,
    baseline0_predict,
    baseline1_predict,
    knn_predict,
    top_k_terms,
)
from .corpus import (
    AccountRecord,
    Corpus,
    CorpusError,
    DateWindow,
    SplitSpec,
    Tweet,
    filter_accounts,
    kfold_splits,
    labeled_accounts,
    load_corpus,
    split_corpus,
)
from .evaluate import (
    ConfusionMatrix,
    MetricReport,
    confusion_matrix,
    metric_report,
    round_half_up,
)
from .pipeline import (
    AccountPrediction,
    CrossValResult,
    FoldResult,
    Pipeline,
    PipelineConfig,
    TestResult,
)
from .resources import Resources, bundled_path, load_resources
from .rng import SplitMix64, shuffled
from .segmenter import (
    HmmModel,
    Lexicon,
    build_dag,
    hmm_segment,
    load_hmm,
    load_lexicon,
    max_prob_route,
    segment,
    viterbi,
)
from .vectorize import (
    SparseVector,
    TfidfVectorizer,
    cosine_similarity,
    fit_vectorizer,
)
from .zh_convert import ConversionTable, load_conversion_table, to_simplified

__all__ = [
    "AccountPrediction",
    "AccountRecord",
    "ConfusionMatrix",
    "ConversionTable",
    "Corpus",
    "CorpusError",
    "CrossValResult",
    "DateWindow",
    "FoldResult",
    "HmmModel",
    "Lexicon",
    "MetricReport",
    "Neighbor",
    "Pipeline",
    "PipelineConfig",
    "Prediction",
    "Resources",
    "SparseVector",
    "SplitMix64",
    "SplitSpec",
    "TestResult",
    "TfidfVectorizer",
    "Tweet",
    "baseline0_predict",
    "baseline1_predict",
    "build_dag",
    "bundled_path",
    "confusion_matrix",
    "cosine_similarity",
    "filter_accounts",
    "fit_vectorizer",
    "hmm_segment",
    "kfold_splits",
    "knn_predict",
    "labeled_accounts",
    "load_conversion_table",
    "load_corpus",
    "load_hmm",
    "load_lexicon",
    "load_resources",
    "max_prob_route",
    "metric_report",
    "round_half_up",
    "segment",
    "shuffled",
    "split_corpus",
    "to_simplified",
    "top_k_terms",
    "viterbi",
]
