"""Command-line entry point.

Subcommands compose the library end to end:

    convert    traditional -> simplified text, line by line on stdin
    segment    tokenize stdin lines with the dictionary (and optional HMM)
    vectorize  dump per-account TF-IDF weights as JSON lines
    classify   train on a labeled corpus, classify a query corpus
    crossval   k-fold cross-validation over a labeled corpus
    test       train on the non-test accounts, score a held-out test set
    report     re-render a stored JSON report as human-readable tables

Configuration resolves PipelineConfig's defaults < --config file < flags;
the help text shows those defaults. Every report embeds the resolved
config, from which it can be reproduced (`test` and `crossval --test-ids`
also need the id file, which it does not record). Exit status is 0 on
success, 1 for validation and usage errors, 2 for I/O errors.
"""

from __future__ import annotations

import argparse
import io
import sys

from .corpus import Corpus, SplitSpec, filter_accounts, labeled_accounts, load_corpus, split_corpus
from .pipeline import (
    CHOICES,
    CONFIG_SCHEMA,
    ConfigError,
    Pipeline,
    PipelineConfig,
    config_values,
)
from .report import (
    ReportError,
    crossval_report,
    dumps_report,
    format_payload,
    prediction_dict,
    test_report,
)
from .resources import BUNDLED_TABLE, bundled_path, load_resources
from .segmenter import load_hmm, load_lexicon, segment
from .textfile import read_json, read_lines, read_words
from .zh_convert import load_conversion_table, to_simplified

SUPPRESS = argparse.SUPPRESS


def _pipeline_flags(parser):
    """The flags of the commands that run the pipeline."""
    defaults = PipelineConfig()
    parser.add_argument("--corpus", default=SUPPRESS, metavar="PATH",
                        help="JSONL corpus file")
    parser.add_argument("--config", default=SUPPRESS, metavar="PATH",
                        help="JSON config file (same shape as the report's config echo)")
    parser.add_argument("--seed", type=int, default=SUPPRESS,
                        help=f"seed for the fold shuffle (default {defaults.seed})")
    parser.add_argument("--output", default=SUPPRESS, metavar="PATH",
                        help="write JSON here instead of stdout")
    parser.add_argument("--no-clean", action="store_false", dest="clean", default=SUPPRESS,
                        help="keep URLs, mentions, and # characters")
    parser.add_argument("--dict", dest="dictionary", default=SUPPRESS, metavar="PATH",
                        help="segmentation lexicon (bundled default)")
    parser.add_argument("--hmm", default=SUPPRESS, metavar="PATH",
                        help="HMM parameter JSON (bundled default)")
    parser.add_argument("--convert-table", dest="table", default=SUPPRESS, metavar="PATH",
                        help="traditional-to-simplified table (bundled default)")
    parser.add_argument("--stopwords", default=SUPPRESS, metavar="PATH",
                        help="optional stopword list for top-term sets")
    parser.add_argument("--min-followers", type=int, default=SUPPRESS, metavar="N",
                        help=f"minimum follower count (default {defaults.min_followers})")
    parser.add_argument("--min-tweets", type=int, default=SUPPRESS, metavar="N",
                        help=f"minimum in-window tweet count (default {defaults.min_tweets})")
    parser.add_argument("--window-start", default=SUPPRESS, metavar="DATE",
                        help=f"first collection date, ISO format (default {defaults.window_start})")
    parser.add_argument("--window-end", default=SUPPRESS, metavar="DATE",
                        help=f"last collection date, ISO format (default {defaults.window_end})")
    parser.add_argument("--model", choices=CHOICES["model"], default=SUPPRESS,
                        help=f"predictor (default {defaults.model})")
    parser.add_argument("--k", type=int, default=SUPPRESS,
                        help=f"neighbor count (default {defaults.k})")
    parser.add_argument("--weighting", choices=CHOICES["weighting"], default=SUPPRESS,
                        help=f"k-NN vote weighting (default {defaults.weighting})")
    parser.add_argument("--top-n", type=int, default=SUPPRESS, metavar="N",
                        help=f"term-list size for baseline1 (default {defaults.top_n})")
    parser.add_argument("--tf", choices=CHOICES["tf"], default=SUPPRESS,
                        help=f"term-frequency variant (default {defaults.tf})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zhstance", description="Stance classification for Chinese-language Twitter accounts.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("convert", help="convert stdin to simplified characters")
    p.add_argument("--convert-table", dest="table", default=SUPPRESS, metavar="PATH")
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("segment", help="segment stdin lines into tokens")
    p.add_argument("--dict", dest="dictionary", required=True, metavar="PATH")
    p.add_argument("--hmm", default=SUPPRESS, metavar="PATH")
    p.add_argument("--no-clean", action="store_false", dest="clean", default=SUPPRESS)
    p.set_defaults(handler=cmd_segment)

    p = sub.add_parser("vectorize", help="dump per-account TF-IDF weights")
    _pipeline_flags(p)
    p.set_defaults(handler=cmd_vectorize)

    p = sub.add_parser("classify", help="classify query accounts")
    _pipeline_flags(p)
    p.add_argument("--queries", required=True, metavar="PATH",
                   help="JSONL corpus of accounts to classify")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("crossval", help="k-fold cross-validation")
    _pipeline_flags(p)
    p.add_argument("--folds", type=int, default=SUPPRESS,
                   help=f"number of folds (default {PipelineConfig().folds})")
    p.add_argument("--test-ids", default=SUPPRESS, metavar="PATH",
                   help="account ids to hold out entirely, one per line")
    p.set_defaults(handler=cmd_crossval)

    p = sub.add_parser("test", help="evaluate a held-out test set")
    _pipeline_flags(p)
    p.add_argument("--test-ids", required=True, metavar="PATH",
                   help="test account ids, one per line")
    p.set_defaults(handler=cmd_test)

    p = sub.add_parser("report", help="render a stored JSON report")
    p.add_argument("path", metavar="REPORT.json")
    p.set_defaults(handler=cmd_report)

    return parser


def _load_pipeline(args) -> tuple[PipelineConfig, Pipeline, Corpus]:
    """The config (defaults < the --config file's values < the flags whose
    dests are config fields), its pipeline, and its filtered corpus."""
    values = read_json(args.config, ConfigError, config_values) if hasattr(args, "config") else {}
    values.update((dest, value) for dest, value in vars(args).items() if dest in CONFIG_SCHEMA)
    config = PipelineConfig(**values)
    if config.corpus is None:
        raise ConfigError("a corpus path is required (--corpus or config file)")
    corpus = load_corpus(config.corpus)
    filtered = filter_accounts(corpus, config.min_followers, config.min_tweets, config.window)
    resources = load_resources(config.dictionary, config.hmm, config.table, config.stopwords)
    return config, Pipeline(resources, config), filtered


def _read_ids(path) -> frozenset[str]:
    """One account id per line; blank lines and # comments are ignored. A
    line holding whitespace inside it, or an id given twice, is rejected."""
    ids = set()
    for lineno, value in read_words(path, ConfigError, "account id"):
        if value in ids:
            raise ConfigError(f"{path}: line {lineno}: duplicate account id {value!r}")
        ids.add(value)
    if not ids:
        raise ConfigError(f"no account ids found in {path}")
    return frozenset(ids)


def _write(args, out: dict | list[dict]) -> int:
    """A report (a dict), or records (a list) one per line, as canonical JSON to
    --output or stdout; a report sent to --output prints its tables instead."""
    text = "".join(map(dumps_report, out)) if isinstance(out, list) else dumps_report(out)
    output = getattr(args, "output", None)
    if output is None:  # "" is a path: a missing file
        sys.stdout.write(text)
        return 0
    with open(output, "w", encoding="utf-8") as f:
        f.write(text)
    if isinstance(out, dict):
        print(format_payload(out))
    return 0


def cmd_convert(args) -> int:
    table = load_conversion_table(getattr(args, "table", bundled_path(BUNDLED_TABLE)))
    for _, line in read_lines("<stdin>", ValueError, sys.stdin.buffer):  # UTF-8, whatever the locale
        print(to_simplified(line, table))
    return 0


def cmd_segment(args) -> int:
    lex = load_lexicon(args.dictionary)
    hmm = load_hmm(args.hmm) if hasattr(args, "hmm") else None
    clean = getattr(args, "clean", True)
    for _, line in read_lines("<stdin>", ValueError, sys.stdin.buffer):  # UTF-8, whatever the locale
        print(" ".join(segment(line, lex, hmm, clean)))
    return 0


def cmd_vectorize(args) -> int:
    _, pipe, corpus = _load_pipeline(args)
    _, vectors = pipe.fit_transform(corpus)
    return _write(args, [{"account_id": a.account_id, "weights": v.weights}
                         for a, v in sorted(zip(corpus.accounts, vectors), key=lambda av: av[0].account_id)])


def cmd_classify(args) -> int:
    config, pipe, corpus = _load_pipeline(args)
    # Query accounts are never dropped (both floors are 0), but their
    # tweets are still restricted to the collection window for comparability.
    trimmed = filter_accounts(load_corpus(args.queries), 0, 0, config.window)
    preds = pipe.predict(labeled_accounts(corpus), trimmed)
    return _write(args, [prediction_dict(p) for p in preds])


def cmd_crossval(args) -> int:
    config, pipe, corpus = _load_pipeline(args)
    if hasattr(args, "test_ids"):
        corpus, _ = split_corpus(corpus, SplitSpec(_read_ids(args.test_ids), config.folds, config.seed))
    result = pipe.cross_validate(labeled_accounts(corpus))
    return _write(args, crossval_report(result, config))


def cmd_test(args) -> int:
    config, pipe, corpus = _load_pipeline(args)
    non_test, test = split_corpus(corpus, SplitSpec(_read_ids(args.test_ids), config.folds, config.seed))
    result = pipe.evaluate_test_set(labeled_accounts(non_test), test)
    return _write(args, test_report(result, config))


def cmd_report(args) -> int:
    print(read_json(args.path, ReportError, format_payload))
    return 0


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")  # as stdin and every file are read, whatever the locale
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit 2, which is reserved for I/O errors
        return 1 if exc.code == 2 else int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
