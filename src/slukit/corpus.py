"""Data model, line-oriented block files, phrase tables, and concept-label
transformations.

A corpus is a sequence of utterances; each utterance is a sequence of
tokens carrying lexical, syntactic, semantic-category and confidence
annotations plus one concept label per word.  Concept spans are encoded
with B-/I- prefixes over concept names so that labelled segments can be
recovered exactly; `null` marks words conveying no domain information.
Two extra labels, ERROR-C and ERROR-N, replace the regular label of
erroneous recognizer words during training and are mapped back to null
before scoring.  The records are slotted frozen dataclasses, and equal
ones may be one shared object (a generated corpus shares each distinct
token), so compare records with ==, never by identity.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain
from operator import attrgetter

NULL_LABEL = "null"
ERROR_C = "ERROR-C"
ERROR_N = "ERROR-N"
ERROR_LABELS = (ERROR_C, ERROR_N)

FLAG_CORRECT = "correct"
FLAG_ERROR = "error"

ABSENT = "_"


class CorpusError(Exception):
    """Base class for corpus file and invariant failures."""


class ParseError(CorpusError):
    """A line of a file does not parse; the message starts with file and line."""

    def __init__(self, message, line, path):
        super().__init__(f"{path}: line {line}: {message}")


class SchemaError(CorpusError):
    """A row parsed but violates a corpus invariant."""


@dataclass(frozen=True, slots=True)
class Token:
    """A word and its annotations; every field but `surface` may be None.
    `sem_category` is the word's one semantic category, or None, and
    `pap` and `mlp_conf` are recognizer confidences in [0, 1]."""

    surface: str
    lemma: str | None = None
    pos: str | None = None
    governor: int | None = None
    deprel: str | None = None
    sem_category: str | None = None
    pap: float | None = None
    mlp_conf: float | None = None
    error_flag: str | None = None
    label: str | None = None

    def __post_init__(self):
        if not self.surface:
            raise SchemaError("token surface must be non-empty")
        for name in ("pap", "mlp_conf"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise SchemaError(f"{name}={v} outside [0,1]")
        if self.error_flag not in (None, FLAG_CORRECT, FLAG_ERROR):
            raise SchemaError(f"bad error flag {self.error_flag!r}")


TOKEN_FIELDS = tuple(f.name for f in fields(Token))
_token_row_values = attrgetter(*TOKEN_FIELDS)


@dataclass(frozen=True, slots=True)
class Utterance:
    id: str
    tokens: tuple
    reference_tokens: tuple | None = None

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise SchemaError(f"utterance {self.id!r} has no tokens")
        for i, tok in enumerate(self.tokens):
            g = tok.governor
            if g is not None and (g == i or not 0 <= g < len(self.tokens)):
                raise SchemaError(
                    f"utterance {self.id!r}: token {i} has invalid governor {g}"
                )

    def __len__(self):
        return len(self.tokens)

    def surfaces(self):
        return [t.surface for t in self.tokens]

    def labels(self):
        return [t.label for t in self.tokens]

    def with_column(self, name: str, values) -> "Utterance":
        """This utterance with `values` as its tokens' `name` field.

        Each token is rebuilt through the constructor, so it is
        validated as `dataclasses.replace` would validate it, at half
        the cost.  Raises SchemaError for a `name` that is not a Token
        field and for values of another length than the tokens.
        """
        if name not in TOKEN_FIELDS:
            raise SchemaError(f"{name!r} is not a token field")
        if len(values) != len(self.tokens):
            raise SchemaError(f"{len(values)} {name} values for {len(self.tokens)} tokens")
        k = TOKEN_FIELDS.index(name)
        toks = []
        for tok, value in zip(self.tokens, values):
            row = list(_token_row_values(tok))
            row[k] = value
            toks.append(Token(*row))
        return Utterance(self.id, tuple(toks), self.reference_tokens)


@dataclass(frozen=True)
class Dataset:
    utterances: tuple = ()

    def __post_init__(self):
        dup = sorted(i for i, n in Counter(u.id for u in self.utterances).items() if n > 1)
        if dup:
            raise SchemaError(f"duplicate utterance ids: {dup[:3]}")

    def __iter__(self):
        return iter(self.utterances)

    def __len__(self):
        return len(self.utterances)

    def by_id(self):
        return {u.id: u for u in self.utterances}

    def n_tokens(self):
        return sum(len(u) for u in self.utterances)


@dataclass(frozen=True, slots=True)
class ConceptSegment:
    label: str
    value: str
    start: int
    end: int  # exclusive


@dataclass(frozen=True, slots=True)
class TaggerOutput:
    """Per-word label sequence for one utterance from one system."""

    id: str
    labels: tuple


def validate_label_sequence(labels, line_base=None):
    """Reject I-x labels that do not continue a B-x/I-x run: the first
    label `repair_bio` would change."""
    repaired = repair_bio(labels)
    if repaired != labels:  # one compare for a list; a tuple always takes the loop
        for i, (lab, fixed) in enumerate(zip(labels, repaired)):
            if lab != fixed:
                where = f" (row {i})" if line_base is None else f" (line {line_base + i})"
                raise SchemaError(f"label {lab!r} does not continue a segment{where}")


def repair_bio(labels):
    """Promote orphan I-x labels to B-x so the sequence is segmentable."""
    out = list(labels)
    prev = None
    for i, lab in enumerate(out):
        if lab is not None and lab.startswith("I-"):
            if prev is None or not prev.startswith(("B-", "I-")) or prev[2:] != lab[2:]:
                out[i] = "B-" + lab[2:]
        prev = out[i]
    return out


class PhraseTable:
    """Phrase -> payload table matched by greedy longest match.

    Keys are lowercased and split on whitespace once, at construction; a
    later entry for the same key replaces the earlier one.  Payloads
    must not be None, which `matches` reserves for unmatched words.
    """

    def __init__(self, entries=()):
        self.entries = {self.key(phrase): payload for phrase, payload in entries}
        self.max_len = max(map(len, self.entries), default=0)

    @staticmethod
    def key(phrase: str) -> tuple:
        return tuple(phrase.lower().split())

    def matches(self, words):
        """Yield (start, end, payload) spans covering `words` in order.

        Each span is the longest key starting at `start` (compared
        lowercased), or the single word there with payload None when no
        key starts at it.
        """
        lowered = [w.lower() for w in words]
        i = 0
        while i < len(lowered):
            for n in range(min(self.max_len, len(lowered) - i), 0, -1):
                payload = self.entries.get(tuple(lowered[i:i + n]))
                if payload is not None:
                    yield i, i + n, payload
                    i += n
                    break
            else:
                yield i, i + 1, None
                i += 1


def label_segments(words, labels, value_table: PhraseTable | None = None):
    """Decode maximal B/I runs of `labels` over `words` into concept segments.

    The value is the normalized form of the span: phrase lookup in
    `value_table` where possible, lowercased words otherwise.  Raises
    SchemaError for an error label (strip those upstream), an orphan
    I-x (repair it first) and an unknown label.
    """
    if len(words) != len(labels):
        raise SchemaError(f"{len(labels)} labels for {len(words)} words")
    table = value_table or PhraseTable()
    segments = []
    start = concept = None
    for i, lab in enumerate([*labels, None]):  # the None closes the last run
        if lab in ERROR_LABELS:
            raise SchemaError(f"error label {lab!r} present; strip before segmenting")
        if lab is not None and lab.startswith("I-"):
            if concept != lab[2:]:
                raise SchemaError(f"orphan {lab!r} at position {i}; repair first")
            continue
        if start is not None:
            span = words[start:i]
            value = " ".join(span[s].lower() if v is None else v
                             for s, _, v in table.matches(span))
            segments.append(ConceptSegment(concept, value, start, i))
            start = concept = None
        if lab is None or lab == NULL_LABEL:
            continue
        if not lab.startswith("B-"):
            raise SchemaError(f"unknown label {lab!r}")
        start, concept = i, lab[2:]
    return segments


def augment_error_labels(utterance: Utterance) -> Utterance:
    """Replace the label of every erroneous word with an error tag.

    An erroneous word standing where the reference carried a concept
    (its projected label is non-null) becomes ERROR-C; erroneous words
    aligned to null or inserted become ERROR-N.  Correct words keep
    their label.  Orphaned I-x continuations left behind are promoted
    to B-x so the result is still segmentable.
    """
    labels = []
    for i, tok in enumerate(utterance.tokens):
        if tok.error_flag is None:
            raise SchemaError(f"token {i} of {utterance.id!r} lacks an error flag")
        if tok.label is None:
            raise SchemaError(f"token {i} of {utterance.id!r} lacks a projected label")
        if tok.error_flag == FLAG_ERROR:
            labels.append(ERROR_C if tok.label != NULL_LABEL else ERROR_N)
        else:
            labels.append(tok.label)
    return utterance.with_column("label", repair_bio(labels))


def strip_error_labels(output: TaggerOutput) -> TaggerOutput:
    """Map ERROR-C/ERROR-N to null; every other label is untouched."""
    labels = tuple(NULL_LABEL if lab in ERROR_LABELS else lab for lab in output.labels)
    return TaggerOutput(output.id, labels)


# ---------------------------------------------------------------------------
# Block files: a "# id=<text>" header, one row per line, and a blank line
# closing each block, UTF-8.  The corpus TSV, tagger outputs, n-best lists
# and confusion networks share this layout and differ only in their rows.
# The block rules, for all four: an id is non-empty text, holds no line
# break and heads one block per file, of at least one row; a row is text,
# not blank, and does not start with the header.  `write_blocks` refuses a
# breach with SchemaError naming the utterance, `read_blocks` with
# ParseError at the line of the block's header.  Readers parse equal cell
# texts once per read, through a `functools.cache` made by the read, so
# equal text reads back as one object and a read-back costs about what the
# data cost before it was written.
# ---------------------------------------------------------------------------

HEADER = "# id="


def write_blocks(path, blocks) -> None:
    """Write (id, rows) blocks as `read_blocks` parses them; SchemaError prefixed
    "utterance '<id>': " for a breach of the block rules, text UTF-8 cannot
    encode (a lone surrogate) and any raised while drawing the block's rows,
    which may be lazy.  The file then holds the blocks before the refused one."""
    seen = set()
    with open(path, "wb") as fh:
        for block_id, rows in blocks:
            try:
                if not isinstance(block_id, str):
                    raise SchemaError("the id is not text")
                if not block_id or "\n" in block_id or "\r" in block_id or block_id in seen:
                    raise SchemaError("the id is empty, holds a line break or heads another block")
                seen.add(block_id)
                lines = [HEADER + block_id]
                for row in rows:
                    if not isinstance(row, str):
                        raise SchemaError(f"row {row!r} is not text")
                    if not row.strip() or row.startswith(HEADER) or "\n" in row or "\r" in row:
                        raise SchemaError(f"row {row!r} would not read back")
                    lines.append(row)
                if len(lines) == 1:
                    raise SchemaError("the block has no rows")
                fh.write(("\n".join(lines) + "\n\n").encode("utf-8"))
            except (SchemaError, UnicodeEncodeError) as exc:
                why = exc if isinstance(exc, SchemaError) else "text UTF-8 cannot encode"
                raise SchemaError(f"utterance {block_id!r}: {why}") from exc


def text_lines(path, refuse):
    """Yield (line number, line without its line break) for each line of
    a UTF-8 text file, lines split as a text-mode `open` splits them.

    Raises the exception `refuse(n)` returns for bytes that are not
    UTF-8, n being the number of the first line that holds them, after
    yielding the lines before it.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")  # fails on the escaped bytes only
                except UnicodeEncodeError as exc:
                    raise refuse(lineno) from exc
            yield lineno, raw.rstrip("\n")


def read_blocks(path):
    """Yield (id, [(line number, row), ...]) for each block of a block file,
    in order; the rows follow the header, at line `rows[0][0] - 1`.  Raises
    ParseError naming the file and line for a breach of the block rules, a
    row outside any block, and bytes that are not UTF-8."""
    headers = {}  # id -> the line of its header
    uid = None
    lines = text_lines(path, lambda n: ParseError("text is not UTF-8", n, path))
    for lineno, line in chain(lines, [(0, "")]):  # a blank line closes the last block
        if line.startswith(HEADER) or not line.strip():
            if uid is not None:
                if not rows:
                    raise ParseError(f"utterance {uid!r} has no rows", headers[uid], path)
                yield uid, rows
            uid = None
            if line.startswith(HEADER):
                uid, rows = line[len(HEADER):], []
                if not uid:
                    raise ParseError("empty id", lineno, path)
                if uid in headers:
                    raise ParseError(f"utterance {uid!r} repeats line {headers[uid]}", lineno, path)
                headers[uid] = lineno
        elif uid is None:
            raise ParseError(f"row before any {HEADER!r} header", lineno, path)
        else:
            rows.append((lineno, line))


# ---------------------------------------------------------------------------
# Corpus TSV rows: one token per row, the index and then one cell per Token
# field in TOKEN_FIELDS order, "_" for absent fields.
# ---------------------------------------------------------------------------

_ROW = ("index", *TOKEN_FIELDS)
_TEXT = frozenset(("surface", "lemma", "pos", "deprel", "sem_category", "error_flag", "label"))
_NUMBERS = {"index": int, "governor": int, "pap": float, "mlp_conf": float}
# the decimals a `pap` or `mlp_conf` cell holds, which the stages filling them round to
CONFIDENCE_DECIMALS = 6
_CONFIDENCE_SPEC = f".{CONFIDENCE_DECIMALS}f"


def _cell(name, value) -> str:
    """The cell of column `name` of a row, the index or a Token field;
    SchemaError for a value that would not read back as itself.  The
    branches go from the most taken down."""
    if value is None:
        return ABSENT
    if name in _TEXT:
        if not isinstance(value, str):
            raise SchemaError(f"{name}={value!r} is not text")
        # a surface is never absent, so "_" there reads back as itself
        if value == ABSENT and name != "surface":
            raise SchemaError(f"field {ABSENT!r} would read back as absent")
        return value
    if name in ("index", "governor"):
        if type(value) is not int:  # so that True and 1.0 are refused
            raise SchemaError(f"{name}={value!r} is not an int")
        return str(value)
    text = f"{value:{_CONFIDENCE_SPEC}}"
    if float(text) != value:
        raise SchemaError(f"{name}={value!r} would read back as {text}")
    return text


def _token_row(i, tok: Token) -> str:
    row = "\t".join(map(_cell, _ROW, (i, *_token_row_values(tok))))
    if row.count("\t") != len(_ROW) - 1:
        raise SchemaError(f"token {i} ({tok.surface!r}) has a field holding a tab")
    return row


def _utterance_rows(utt: Utterance):
    for i, tok in enumerate(utt.tokens):
        yield _token_row(i, tok)
    validate_label_sequence(utt.labels())  # after the rows, which refuse a label not text


def write_dataset(dataset: Dataset, path) -> None:
    """Write the corpus TSV under the block rules; SchemaError naming the
    utterance for a field it cannot represent.  `Utterance.reference_tokens`
    is not written, so a read-back has none."""
    write_blocks(path, ((utt.id, _utterance_rows(utt)) for utt in dataset))


def _parse_token(i, line, lineno, path, text, confs: dict) -> Token:
    """The token of row `i` at `lineno`; `text` maps a cell to its one
    shared string, and `confs` maps each non-zero confidence read so far
    to its one shared float."""
    cells = line.split("\t")
    if len(cells) != len(_ROW):
        raise ParseError(f"expected {len(_ROW)} columns, found {len(cells)}", lineno, path)
    values = []
    for name, cell in zip(_ROW, cells):
        if name in _TEXT:
            value = None if cell == ABSENT and name != "surface" else text(cell)
        else:
            # only the text the writer writes for a value reads back ("0.5",
            # "1e-7" and "00" do not); not a cache of the cell texts, which
            # would keep every distinct one alive for the read
            try:
                value = None if cell == ABSENT else _NUMBERS[name](cell)
                if _cell(name, value) != cell:
                    raise ValueError(cell)
            except (ValueError, SchemaError):
                raise ParseError(f"bad {name} {cell!r}", lineno, path) from None
            if name == "index" and value != i:
                raise ParseError(f"index {cell} out of order", lineno, path)
            # a zero keeps its own object, since -0.0 == 0.0 would lose its sign
            if value and name in ("pap", "mlp_conf"):
                value = confs.setdefault(value, value)
        values.append(value)
    try:
        return Token(*values[1:])
    except SchemaError as exc:
        raise SchemaError(f"{path}: line {lineno}: {exc}") from exc


def read_dataset(path) -> Dataset:
    """Parse a corpus TSV, validating every invariant on the way in.

    Missing fields stay absent (they are never defaulted to zero), and
    `reference_tokens` is None, since `write_dataset` does not write it.
    Equal text cells read back as one string, through a `functools.cache`
    of this read, and equal non-zero PAP and CONF values as one float,
    through a dict of this read (a zero is not shared, so that -0.0 keeps
    its sign).  Both are dropped before the `Dataset` is built.
    Raises ParseError naming the file and line for malformed rows, a number
    cell that is not the text `write_dataset` writes for its value (such
    as "0.5", "1e-7" or a governor "00") and block rule breaches, and
    SchemaError naming the row for a bad token and the block's header for
    a bad governor or an I-x that continues no segment.
    """
    return Dataset(tuple(_read_utterances(path)))


def _read_utterances(path) -> list:
    """The utterances of a corpus TSV; the caches of the read are dropped
    on return, before the caller builds the `Dataset`."""
    utterances = []
    text = cache(str)
    confs = {}
    for uid, rows in read_blocks(path):
        tokens = tuple(_parse_token(i, line, lineno, path, text, confs)
                       for i, (lineno, line) in enumerate(rows))
        try:
            validate_label_sequence([t.label for t in tokens], line_base=rows[0][0])
            utterances.append(Utterance(uid, tokens))
        except SchemaError as exc:
            raise SchemaError(f"{path}: line {rows[0][0] - 1}: {exc}") from exc
    return utterances


# ---------------------------------------------------------------------------
# Tagger output rows: one label per row, under the block rules.
# ---------------------------------------------------------------------------

def write_outputs(outputs, path) -> None:
    write_blocks(path, ((out.id, out.labels) for out in outputs))


def read_outputs(path):
    text = cache(str)
    return [TaggerOutput(uid, tuple(text(row) for _, row in rows))
            for uid, rows in read_blocks(path)]
