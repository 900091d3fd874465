"""Event vocabulary and trace file parsing.

A trace is a UTF-8 text file, one record per line. Each line is a flat
sequence of ``key=value`` tokens separated by single spaces. Values are
percent-encoded so that spaces and separator characters never appear raw.
The first record must be the single ``meta`` record; ``seq`` must be
strictly increasing across the file. ``SCHEMA`` lists each kind's fields
with their codecs and defaults; parsing, serialization and the
unexpected-field check all read it. Each kind's record class is built from
its rows, the required fields first and then the optional ones, and
``TraceEvent`` from the header rows and ``payload``. The records are
slotted dataclasses, not frozen, so they are cheap to build; nothing may
mutate a parsed event (``dataclasses.replace`` makes a changed copy).

``parse_trace`` decodes a repeated raw value once per trace. Each schema
row, except the meta labels and the per-event counters ``seq`` and
``insn_index``, has a memo for the length of one call that maps raw token
text to its decoded value and holds at most ``MEMO_ENTRIES`` entries; once
full, it stores nothing more. Events whose raw text is equal share one
decoded object. That is safe because every decoder is a pure function of
its raw text and no parsed event is mutated.

Composite value syntaxes:

* typed values (``args``/``ret``): ``i:<int>``, ``s:<text>``, ``d:<ms>``,
  ``a:0x<hex>``, ``l:<int>`` for integer, string, duration-ms, address and
  byte-length respectively; ``args`` joins them with commas.
* register maps (``in``/``out``): ``reg:0x<hex>`` pairs joined with commas.
* struct layouts (``structs``): ``NAME@0x<base>(field+0x<off>:<width>,...)``
  joined with ``;``.
* published fields (``out_structs``): ``NAME.field@0x<addr>:<width>``
  joined with ``;``.

A field width lies in 0..``MAX_FIELD_WIDTH``.

Addresses are abstract 64-bit unsigned integers; all structure knowledge a
consumer needs flows through the layout declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from functools import partial
from typing import Iterable, Union

REGION_KINDS = frozenset({
    "main_image", "standard_library", "custom_library", "exec_alloc",
    "data_alloc", "injected", "pe_header", "honeypot_image",
})

INSN_MNEMONICS = frozenset({
    "rdtsc", "cpuid", "int3", "int2d", "sldt", "sidt", "sgdt", "str",
    "fpu_eip_leak",
})

MEM_ACCESS_SIZES = frozenset({1, 2, 4, 8})

# what a PE header write that touches the SizeOfImage field reports
SIZE_OF_IMAGE_FIELD = "SIZE_OF_IMAGE"

# widest declared field; a watchpoint lookup scans back at most this far
MAX_FIELD_WIDTH = 64

META_LABEL_KEYS = ("dataset", "family", "year", "packer", "protector")
# the label file's header; a trace's dataset label is not a column
LABEL_COLUMNS = ("sample_id",) + META_LABEL_KEYS[1:]

VALUE_TYPES = frozenset({"i", "s", "d", "a", "l"})

_SAFE_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    "._-:/\\@#+*[]{}<>!?~^$&'\"|"
)
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class TraceError(Exception):
    """Malformed trace input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_plain_name(sample_id: str) -> None:
    """Refuse a sample id that is not a plain file name: reports and
    generated traces are written to ``<out dir>/<sample id>.<suffix>``."""
    if sample_id in ("", ".", "..") or any(c in sample_id for c in "/\\\0"):
        raise ValueError(f"sample_id {sample_id!r} is not a plain file name")


def encode_text(text: str) -> str:
    if _SAFE_CHARS.issuperset(text):
        return text
    out = []
    for ch in text:
        if ch in _SAFE_CHARS:
            out.append(ch)
        else:
            out.extend("%%%02X" % b for b in ch.encode("utf-8"))
    return "".join(out)


def _encode_part(text: str, seps: str) -> str:
    """``encode_text`` that also percent-encodes ``seps``: the characters
    the parser of the enclosing composite value splits on."""
    text = encode_text(text)
    for sep in seps:
        text = text.replace(sep, "%%%02X" % ord(sep))
    return text


def decode_text(text: str) -> str:
    if "%" not in text:
        return text
    raw = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            pair = text[i + 1:i + 3]
            if len(pair) != 2 or not _HEX_DIGITS.issuperset(pair):
                raise TraceError(f"bad percent escape in {text!r}")
            raw.append(int(pair, 16))
            i += 3
        else:
            raw.extend(ch.encode("utf-8"))
            i += 1
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise TraceError(f"bad percent-encoded UTF-8 in {text!r}")


@dataclass(slots=True)
class Value:
    """One typed argument or return value of an API record."""

    t: str  # i=integer s=string d=duration-ms a=address l=byte-length
    v: Union[int, str]

    def __post_init__(self):
        if self.t not in VALUE_TYPES:
            raise TraceError(f"unknown value type {self.t!r}")

    def encode(self) -> str:
        if self.t == "s":
            return "s:" + encode_text(str(self.v))
        if self.t == "a":
            return "a:0x%x" % self.v
        return f"{self.t}:{self.v}"

    @staticmethod
    def parse(token: str) -> "Value":
        if len(token) < 2 or token[1] != ":":
            raise TraceError(f"bad typed value {token!r}")
        t, body = token[0], token[2:]
        if t == "s":
            return Value("s", decode_text(body))
        try:
            value = int(body, 0)
        except ValueError:
            raise TraceError(f"bad typed value {token!r}")
        if t == "d" and value < 0:
            raise TraceError(f"negative duration {token!r}")
        return Value(t, value)


# Value constructors, one per type
vint, vstr, vdur, vaddr, vlen = (partial(Value, t) for t in "isdal")


def _width(text: str) -> int:
    width = int(text)
    if not 0 <= width <= MAX_FIELD_WIDTH:
        raise TraceError(f"field width {width} outside 0..{MAX_FIELD_WIDTH}")
    return width


@dataclass(slots=True)
class StructLayout:
    """Declared instance of a structure: base address plus field offsets."""

    name: str
    base: int
    fields: tuple[tuple[str, int, int], ...]  # (field, offset, width)

    def field_addresses(self):
        """Yield (qualified_name, absolute_address, width) per field."""
        for fname, off, width in self.fields:
            yield f"{self.name}.{fname}", self.base + off, width

    def encode(self) -> str:
        body = ",".join(
            "%s+0x%x:%d" % (encode_text(f), off, w) for f, off, w in self.fields
        )
        return "%s@0x%x(%s)" % (_encode_part(self.name, "@"), self.base, body)

    @staticmethod
    def parse(text: str) -> "StructLayout":
        try:
            head, body = text.split("(", 1)
            if not body.endswith(")"):
                raise ValueError
            name, base = head.split("@", 1)
            fields = []
            inner = body[:-1]
            if inner:
                for part in inner.split(","):
                    fname, rest = part.rsplit("+", 1)
                    off, width = rest.split(":", 1)
                    fields.append((decode_text(fname), int(off, 0),
                                   _width(width)))
            return StructLayout(decode_text(name), int(base, 0), tuple(fields))
        except ValueError:
            raise TraceError(f"bad struct layout {text!r}")


@dataclass(slots=True)
class FieldRef:
    """A struct field published at an absolute address (API out-parameter)."""

    struct: str
    field: str
    address: int
    width: int

    @property
    def qualified(self) -> str:
        return f"{self.struct}.{self.field}"

    def encode(self) -> str:
        return "%s.%s@0x%x:%d" % (
            _encode_part(self.struct, "@."), _encode_part(self.field, "@"),
            self.address, self.width,
        )

    @staticmethod
    def parse(text: str) -> "FieldRef":
        try:
            name, rest = text.split("@", 1)
            addr, width = rest.split(":", 1)
            struct, fld = name.split(".", 1)
            return FieldRef(decode_text(struct), decode_text(fld),
                            int(addr, 0), _width(width))
        except ValueError:
            raise TraceError(f"bad out_struct field {text!r}")


@dataclass(frozen=True)
class Diagnostic:
    seq: int
    message: str

    def __str__(self):
        return f"seq {self.seq}: {self.message}"


# ---------------------------------------------------------------------------
# record schema: one field list per kind drives parsing, serialization and
# the unexpected-field check

REQUIRED = object()  # default of a field every record of its kind carries


def _int(raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"bad integer {raw!r}") from None


def _extent(raw: str) -> int:
    value = _int(raw)
    if value <= 0:
        raise ValueError(f"size {value} is not positive")
    return value


def _one_of(names: frozenset, what: str):
    def decode(raw: str) -> str:
        value = decode_text(raw)
        if value not in names:
            raise ValueError(f"unknown {what} {value!r}")
        return value
    return decode


def _joined(sep: str, decode, encode):
    """Codec for a sequence of items joined with ``sep``."""
    return (lambda raw: tuple([decode(part) for part in raw.split(sep)]),
            lambda items: sep.join([encode(item) for item in items]))


def _parse_reg(text: str) -> tuple[str, int]:
    name, sep, value = text.partition(":")
    if not sep:
        raise ValueError(f"bad register {text!r}")
    return decode_text(name), _int(value)


def _take_labels(toks: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple((k, decode_text(toks.pop(k)))
                 for k in META_LABEL_KEYS if k in toks)


def _write_labels(labels: tuple[tuple[str, str], ...]) -> str:
    return " ".join(f"{encode_text(k)}={encode_text(v)}" for k, v in labels)


_DEC = (_int, str)
_HEX = (_int, hex)
_TEXT = (decode_text, encode_text)
_STRUCTS = _joined(";", StructLayout.parse, StructLayout.encode)
_REGS = _joined(",", _parse_reg,
                lambda reg: f"{_encode_part(reg[0], ':')}:{hex(reg[1])}")
_REGION_KIND = (_one_of(REGION_KINDS, "region kind"), str)


def _field(key, codec, default=REQUIRED, attr=None):
    """A schema row: (token key, attribute, (decode, encode), default).

    An optional field is written only when its value differs from the
    default. The row with key None is the meta labels: one token per
    label, read in META_LABEL_KEYS order, written in the payload's order.
    """
    return key, attr or key, codec, default


def _record(name, rows, **methods):
    """(record class, ``rows``): a slotted dataclass of the rows' attributes,
    the required ones first, then the optional ones, each in row order."""
    specs = [(attr, object) if default is REQUIRED
             else (attr, object, field(default=default))
             for _, attr, _, default in sorted(
                 rows, key=lambda row: row[3] is not REQUIRED)]
    # Python 3.11's make_dataclass takes no module argument
    return make_dataclass(name, specs, slots=True, namespace={
        "__module__": __name__, **methods}), rows


_EVENT_FIELDS = (
    _field("seq", _DEC), _field("pid", _DEC), _field("tid", _DEC),
    _field("insn_index", _DEC), _field("kind", _TEXT),
)
# a trace record: the header fields, then its kind's record class in SCHEMA
TraceEvent = _record("TraceEvent", _EVENT_FIELDS + (
    _field("payload", None),))[0]


def _str_args(self) -> tuple[str, ...]:
    return tuple(str(a.v) for a in self.args if a.t == "s")


def _reg(attr):
    """The method that reads one register of the map in ``attr``."""
    def reg(self, name: str) -> int | None:
        return next((v for k, v in getattr(self, attr) if k == name), None)
    return reg


_MEM = _record("MemPayload", (
    _field("address", _HEX), _field("size", _DEC), _field("value", _HEX),
    _field("accessor_address", _HEX),
))

# kind -> (record class, fields in written order). Each kind has its own
# class, so records of two kinds never compare equal.
SCHEMA = {
    "meta": _record("MetaPayload", (
        _field("sample_id", _TEXT),
        _field(None, (_take_labels, _write_labels), (), "labels"),
        _field("structs", _STRUCTS, ()),
    )),
    "image_load": _record("ImageLoadPayload", (
        _field("name", _TEXT),
        _field("base", _HEX),
        _field("size", (_extent, hex)),
        _field("region_kind", _REGION_KIND),
        # initial PE header bytes, if tracked
        _field("header", (lambda raw: bytes.fromhex(decode_text(raw)),
                          bytes.hex), None),
        _field("size_of_image_addr", _HEX, None),
        _field("structs", _STRUCTS, ()),
    )),
    "region_alloc": _record("RegionAllocPayload", (
        _field("base", _HEX),
        _field("size", (_extent, hex)),
        _field("region_kind", _REGION_KIND),
        _field("name", _TEXT, None),
    )),
    "region_free": _record("RegionFreePayload", (_field("base", _HEX),)),
    "process_start": _record("ProcessStartPayload", (
        _field("parent_pid", _DEC, None),
        _field("name", _TEXT, None),
    )),
    "thread_start": _record("ThreadStartPayload", (
        _field("parent_tid", _DEC, None),
    )),
    "api": _record("ApiPayload", (
        _field("name", _TEXT),
        _field("args", _joined(",", Value.parse, Value.encode), ()),
        _field("ret", (Value.parse, Value.encode), None),
        _field("return_address", _HEX),
        _field("native", (lambda raw: bool(_int(raw)), "%d".__mod__)),
        _field("target_pid", _DEC, None),
        _field("out_structs", _joined(";", FieldRef.parse, FieldRef.encode),
               ()),
    ), str_args=_str_args),
    "insn": _record("InsnPayload", (
        _field("mnemonic", (_one_of(INSN_MNEMONICS, "mnemonic"), str)),
        _field("address", _HEX),
        _field("in", _REGS, (), "in_regs"),
        _field("out", _REGS, (), "out_regs"),
    ), reg_in=_reg("in_regs"), reg_out=_reg("out_regs")),
    "mem_read": _MEM,
    "mem_write": _MEM,
}

# each record class under its own name (mem_read and mem_write share one)
(MetaPayload, ImageLoadPayload, RegionAllocPayload, RegionFreePayload,
 ProcessStartPayload, ThreadStartPayload, ApiPayload, InsnPayload,
 MemPayload) = dict.fromkeys(cls for cls, _ in SCHEMA.values())


# ---------------------------------------------------------------------------
# serialization

def serialize_event(ev: TraceEvent) -> str:
    toks = ["seq=%d pid=%d tid=%d insn_index=%d kind=%s"
            % (ev.seq, ev.pid, ev.tid, ev.insn_index, ev.kind)]
    p = ev.payload
    for key, attr, (_, encode), default in SCHEMA[ev.kind][1]:
        value = getattr(p, attr)
        if default is REQUIRED or value != default:
            toks.append(f"{key}={encode(value)}" if key else encode(value))
    return " ".join(toks)


def serialize_trace(events: Iterable[TraceEvent]) -> str:
    return "".join(serialize_event(ev) + "\n" for ev in events)


# ---------------------------------------------------------------------------
# parsing

def tokenize(line: str) -> dict[str, str]:
    """Split one record into its ``key=value`` tokens; keys are unique."""
    parts = line.split()
    try:
        out = dict([tok.split("=", 1) for tok in parts])
    except ValueError:  # a token without "="
        out = {}
    if len(out) == len(parts) and "" not in out:
        return out
    seen = set()  # word the error of the first bad token
    for tok in parts:
        key, sep, _ = tok.partition("=")
        if not sep or not key:
            raise TraceError(f"malformed token {tok!r}")
        if key in seen:
            raise TraceError(f"duplicate field {key!r}")
        seen.add(key)


# entries each memo of ``parse_trace`` holds at most: room for one sample's
# API names, return values and call sites. The cap keeps a trace without
# repeats from peaking higher than decoding every value would; at 4,096,
# 40k api lines with all-distinct values did.
MEMO_ENTRIES = 1024

# rows that get no memo: the labels row decodes the tokens dict itself,
# and the per-event counters never repeat
_UNIQUE_KEYS = frozenset({None, "seq", "insn_index"})


def _take(toks: dict[str, str], rows) -> list:
    """Pop and decode ``rows`` from ``toks``, in row order; each value goes
    to the position of its attribute in the record class. A row's memo
    supplies the value of a raw text decoded before; a failed decode is
    never stored, so a bad value fails on every line that carries it."""
    values = [None] * len(rows)
    for key, decode, default, at, memo in rows:
        # the labels row (key None) decodes the labels it pops itself
        raw = toks if key is None else toks.pop(key, None)
        if raw is None:
            if default is REQUIRED:
                raise TraceError(f"missing field {key!r}")
            values[at] = default
            continue
        if memo is not None:
            value = memo.get(raw)  # no decoder returns None
            if value is not None:
                values[at] = value
                continue
        try:
            value = decode(raw)
        except ValueError as exc:
            raise TraceError(f"field {key!r}: {exc}") from None
        if memo is not None and len(memo) < MEMO_ENTRIES:
            memo[raw] = value
        values[at] = value
    return values


def _decoding(cls, rows):
    """``rows`` as (key, decode, default, position among ``cls``'s fields)."""
    names = [f.name for f in fields(cls)]
    return tuple((key, decode, default, names.index(attr))
                 for key, attr, (decode, _), default in rows)


def _memoized(rows):
    """``rows`` each with a fresh memo (raw text -> decoded value), or None
    for a row in ``_UNIQUE_KEYS``."""
    return tuple((*row, None if row[0] in _UNIQUE_KEYS else {})
                 for row in rows)


_HEAD = _decoding(TraceEvent, _EVENT_FIELDS)
# kind -> (payload class, its decoding rows)
_DECODING = {kind: (cls, _decoding(cls, rows))
             for kind, (cls, rows) in SCHEMA.items()}


def text_lines(text: str):
    """The lines of ``text`` as a text-mode file reads them: LF, CR LF and
    CR end a line, and each line keeps its LF. Yields one slice at a time,
    so no second copy of the whole text is built unless it holds a CR."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def parse_trace(source) -> list[TraceEvent]:
    """Parse a trace into its ordered event list.

    ``source`` is text or an open text file. A record ends where a line of
    a text-mode file ends: at LF, CR LF or CR. Blank lines are skipped but
    still counted in line numbers. Raises TraceError (with line number) on
    malformed records, missing or unexpected fields, non-monotonic sequence
    numbers, unknown kinds, or a missing/duplicated/misplaced meta record;
    an error raised by a field decoder gets the line number added. Unknown
    API names are accepted as-is.
    """
    if isinstance(source, str):
        source = text_lines(source)

    # the memos live for this call only
    head_rows = _memoized(_HEAD)
    decoding = {kind: (cls, _memoized(rows))
                for kind, (cls, rows) in _DECODING.items()}
    events: list[TraceEvent] = []
    last_seq: int | None = None
    for lineno, line in enumerate(source, start=1):
        try:
            toks = tokenize(line)
            if not toks:
                continue
            head = _take(toks, head_rows)
            seq, kind = head[0], head[4]
            if kind not in decoding:
                raise TraceError(f"unknown kind {kind!r}")
            if last_seq is not None and seq <= last_seq:
                raise TraceError(
                    f"seq {seq} not greater than previous seq {last_seq}")
            last_seq = seq
            if not events and kind != "meta":
                raise TraceError("first record must be the meta record")
            if events and kind == "meta":
                raise TraceError("duplicate meta record")
            cls, rows = decoding[kind]
            payload = cls(*_take(toks, rows))
            if toks:
                raise TraceError(f"unexpected fields {sorted(toks)}")
        except TraceError as exc:
            raise TraceError(str(exc), lineno) from None
        events.append(TraceEvent(*head, payload))
    if not events:
        raise TraceError("empty trace: missing meta record")
    return events


# ---------------------------------------------------------------------------
# validation

def validate_trace(events: list[TraceEvent]) -> list[Diagnostic]:
    """Check the invariants that parsing leaves open: insn_index order per
    thread, the registers of cpuid and rdtsc, memory access sizes, struct
    fields that do not overlap and a PE header that is not empty and lies
    within its image. Record order (one leading meta record, increasing
    seq) is ``parse_trace``'s.

    Returns diagnostics rather than raising; an empty list means every
    invariant holds.
    """
    diags: list[Diagnostic] = []
    last_insn: dict[tuple[int, int], int] = {}
    for ev in events:
        key = (ev.pid, ev.tid)
        if key in last_insn and ev.insn_index < last_insn[key]:
            diags.append(Diagnostic(
                ev.seq,
                f"insn_index decreasing on pid {ev.pid} tid {ev.tid}"))
        last_insn[key] = ev.insn_index

        p = ev.payload
        if ev.kind == "insn":
            if p.mnemonic == "cpuid":
                if p.reg_in("eax") is None:
                    diags.append(Diagnostic(ev.seq, "cpuid missing EAX input"))
                for reg in ("ebx", "ecx", "edx"):
                    if p.reg_out(reg) is None:
                        diags.append(Diagnostic(
                            ev.seq, f"cpuid missing {reg.upper()} output"))
            elif p.mnemonic == "rdtsc":
                if p.reg_out("tsc") is None:
                    diags.append(Diagnostic(ev.seq, "rdtsc missing tick output"))
        elif ev.kind in ("mem_read", "mem_write"):
            if p.size not in MEM_ACCESS_SIZES:
                diags.append(Diagnostic(
                    ev.seq, f"memory access size {p.size} not in {{1,2,4,8}}"))
        elif ev.kind in ("meta", "image_load"):
            if ev.kind == "image_load" and p.header is not None:
                if not p.header:
                    diags.append(Diagnostic(ev.seq, "header is empty"))
                elif len(p.header) > p.size:
                    diags.append(Diagnostic(
                        ev.seq, f"header of 0x{len(p.header):x} bytes is "
                                f"longer than its image (size 0x{p.size:x})"))
            for layout in p.structs:
                spans = sorted(
                    (addr, addr + width, name)
                    for name, addr, width in layout.field_addresses()
                )
                for (a0, a1, n0), (b0, _b1, n1) in zip(spans, spans[1:]):
                    if b0 < a1:
                        diags.append(Diagnostic(
                            ev.seq, f"overlapping fields {n0} and {n1} "
                                    f"in struct {layout.name}"))
    return diags
